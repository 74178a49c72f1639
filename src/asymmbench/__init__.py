"""Numerical workbench for the resource theory of translation asymmetry."""

__version__ = "0.1.0"

RNG_ALGORITHM = "numpy-pcg64"
