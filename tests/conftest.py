"""Let the CLI subprocesses that some tests start (``python -m
jetclosure.cli``) import the package from the checkout's ``src/``, as
the ``pythonpath`` setting in ``pyproject.toml`` does for the tests
themselves."""

import os


def pytest_configure(config):
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
