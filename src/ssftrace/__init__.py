"""Spectral shift functions and trace formulas for pairs of contractions."""

from . import calculus, checks, dilation, disc, errors, kernel_integral, linops, serialize, ssf
from .linops import ContractionCertificate, ContractionPair, make_pair, random_pair

__version__ = "0.1.0"

__all__ = [
    "calculus",
    "checks",
    "dilation",
    "disc",
    "errors",
    "kernel_integral",
    "linops",
    "serialize",
    "ssf",
    "ContractionCertificate",
    "ContractionPair",
    "make_pair",
    "random_pair",
    "__version__",
]
