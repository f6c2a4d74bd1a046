"""Legacy setuptools shim.

The offline environment this project targets lacks the ``wheel`` package,
so PEP 660 editable installs are unavailable; this shim lets
``pip install -e .`` fall back to ``setup.py develop``.  All metadata
(name, version, Python and dependency requirements) lives in
pyproject.toml.
"""

from setuptools import setup

setup()
