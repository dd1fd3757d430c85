"""Exact-arithmetic toolkit for curvilinear strata of Veronese secant varieties.

Everything is computed over arbitrary-precision rationals: interpolation
matrices for zero-dimensional schemes, dimensions of secant and tangential
joins, machine-checkable border-rank certificates and explicit power-sum
decompositions.
"""

from .errors import (
    CertificateRefused,
    InputError,
    InternalInconsistency,
    ResampleExhausted,
    UnsupportedComponentError,
)

__all__ = [
    "CertificateRefused",
    "InputError",
    "InternalInconsistency",
    "ResampleExhausted",
    "UnsupportedComponentError",
]

__version__ = "0.1.0"
