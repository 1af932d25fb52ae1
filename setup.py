"""Setup shim: lets ``pip install -e .`` work without the ``wheel`` package."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'A Trusted Healthcare Data Analytics Cloud "
        "Platform' (ICDCS 2018)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy", "networkx"],
)
