"""Setup shim.

All metadata lives in ``pyproject.toml``; this file only exists so that
``python setup.py develop`` still gives an editable install on offline
machines whose setuptools lacks the ``wheel`` package that
``pip install -e . --no-build-isolation`` (a PEP 660 editable build) needs.
"""

from setuptools import setup

setup()
