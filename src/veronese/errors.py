"""Exceptions shared across the package."""


class InputError(ValueError):
    """Malformed or inconsistent caller input (dimensions, degrees, JSON)."""


class UnsupportedComponentError(InputError):
    """A scheme component kind is outside what the operation handles."""


class ResampleExhausted(RuntimeError):
    """Random construction kept hitting degenerate configurations."""


class CertificateRefused(RuntimeError):
    """An exact check required by a certificate failed."""

    def __init__(self, statement, ranks=()):
        self.statement = statement
        self.ranks = tuple(ranks)
        super().__init__(f"certificate refused: {statement}")


class InternalInconsistency(RuntimeError):
    """Two independent exact computations disagreed; results untrustworthy."""
