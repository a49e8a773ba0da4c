"""Setuptools entry point.

The only packaging metadata of the project: ``pip install -e .`` installs
the ``repro`` package from ``src/``.  A plain ``setup.py`` (no
``pyproject.toml``) keeps editable installs working in offline environments
whose setuptools/pip combination lacks the ``wheel`` package (legacy
``pip install -e .`` falls back to ``setup.py develop``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Canopy: property-driven learning for congestion control (reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    python_requires=">=3.10",
)
