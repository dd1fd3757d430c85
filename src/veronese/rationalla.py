"""Exact linear algebra over arbitrary-precision rationals.

Every elimination runs on integers only: each row is first scaled to a
primitive integer row, which changes neither the row space nor the solution
set of a system whose equations are the rows.  Rank is computed by
fraction-free (Bareiss) elimination.  Kernels and membership solving use
fraction-free Gauss-Jordan elimination (Nakos, Turner & Williams 1997), the
Bareiss update applied to the rows above the pivot as well: every entry stays
a minor of the input, so each division by the previous pivot is exact, and
at the end every pivot entry equals the last pivot, so the reduced row
echelon form is each row divided by its own pivot entry.  That form is
unique, so kernels and solutions are the same rationals that elimination
over Q gives; a Fraction is built only for an output entry.
Pivoting is always "first nonzero entry in column order", which makes every
result reproducible bit for bit.

All functions are pure and operate on immutable matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import InputError, RetryWithNewPrime

MIN_PROBE_PRIME = 1 << 30


def _q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise InputError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class QMatrix:
    """Dense row-major matrix of exact rationals."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise InputError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise InputError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "QMatrix":
        rows = [tuple(_q(x) for x in r) for r in rows]
        if not rows:
            return cls(0, 0, ())
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise InputError("ragged rows")
        return cls(len(rows), ncols, tuple(x for r in rows for x in r))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls.from_rows(
            [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        )

    def row(self, i: int) -> list[Fraction]:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def to_rows(self) -> list[list[Fraction]]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "QMatrix":
        return QMatrix(
            self.cols,
            self.rows,
            tuple(
                self.entries[i * self.cols + j]
                for j in range(self.cols)
                for i in range(self.rows)
            ),
        )

    def stack(self, other: "QMatrix") -> "QMatrix":
        """Rows of self followed by rows of other (0-row matrices adapt)."""
        if self.rows == 0:
            return other
        if other.rows == 0:
            return self
        if self.cols != other.cols:
            raise InputError("column mismatch in stack")
        return QMatrix(
            self.rows + other.rows, self.cols, self.entries + other.entries
        )


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """Scale a rational row to a primitive integer row (rank preserving)."""
    denom = 1
    for x in row:
        denom = lcm(denom, x.denominator)
    ints = [x.numerator * (denom // x.denominator) for x in row]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def rank_exact(M: QMatrix) -> int:
    """Rank over the rationals via fraction-free Bareiss elimination.

    Deterministic: rows are normalized to primitive integer vectors and the
    pivot is always the first nonzero entry below the current row.
    """
    rows = [_integer_row(M.row(i)) for i in range(M.rows)]
    nrows, ncols = M.rows, M.cols
    r = 0
    prev = 1
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            ri, rr = rows[i], rows[r]
            # Bareiss update: division by the previous pivot is exact.
            rows[i] = [(p * ri[j] - f * rr[j]) // prev for j in range(ncols)]
        prev = p
        r += 1
        if r == nrows:
            break
    return r


def _rref(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan in place; returns (rows, pivot columns).

    Entry (r, c) of the reduced row echelon form is
    rows[r][c] / rows[r][pivots[r]].
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rr = rows[r]
        p = rr[c]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            # Rows with f = 0 are rescaled too: every entry stays a minor of
            # the input, so no integer outgrows the determinant bound.
            if f:
                rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], rr)]
            else:
                rows[i] = [p * a // prev for a in rows[i]]
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def kernel_basis(M: QMatrix) -> list[list[Fraction]]:
    """Basis of the right kernel {v : Mv = 0}; size = cols - rank_exact(M).

    Basis vectors are indexed by the free columns in ascending order, each
    with a 1 in its free coordinate.
    """
    if M.rows == 0:
        return [
            [Fraction(int(i == j)) for i in range(M.cols)] for j in range(M.cols)
        ]
    rows, pivots = _rref([_integer_row(M.row(i)) for i in range(M.rows)])
    pivot_set = set(pivots)
    free = [c for c in range(M.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * M.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-rows[r][fc], rows[r][pc])
        basis.append(v)
    return basis


def membership_solve(
    M: QMatrix, v: Sequence
) -> Optional[list[Fraction]]:
    """Coefficients c with c^T M = v, or None when v is not in the row space.

    Exact, no tolerance.  When the rows of M are dependent the returned
    combination sets the non-pivot coefficients to zero.
    """
    v = [_q(x) for x in v]
    if len(v) != M.cols:
        raise InputError(f"vector length {len(v)} != cols {M.cols}")
    if M.rows == 0:
        return [] if all(x == 0 for x in v) else None
    # Solve M^T c = v by Gauss-Jordan on the augmented matrix; scaling one
    # equation by a nonzero constant leaves the solutions unchanged.
    aug = [
        _integer_row([M.entries[i * M.cols + j] for i in range(M.rows)] + [v[j]])
        for j in range(M.cols)
    ]
    rows, pivots = _rref(aug)
    if M.rows in pivots:
        return None
    c = [Fraction(0)] * M.rows
    for r, pc in enumerate(pivots):
        c[pc] = Fraction(rows[r][M.rows], rows[r][pc])
    return c


def modular_rank_probe(M: QMatrix, prime: int) -> int:
    """Rank of M reduced mod prime; always <= rank_exact(M).

    A fast randomized pre-filter.  Raises RetryWithNewPrime when some
    denominator of M is divisible by the prime.
    """
    if prime <= MIN_PROBE_PRIME:
        raise InputError(f"probe prime must exceed 2^30, got {prime}")
    red = []
    for x in M.entries:
        if x.denominator % prime == 0:
            raise RetryWithNewPrime(f"denominator {x.denominator} divisible by {prime}")
        red.append(x.numerator * pow(x.denominator, -1, prime) % prime)
    nrows, ncols = M.rows, M.cols
    rows = [red[i * ncols : (i + 1) * ncols] for i in range(nrows)]
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c] % prime != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, prime)
        rows[r] = [x * inv % prime for x in rows[r]]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                rows[i] = [(a - f * b) % prime for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == nrows:
            break
    return r


def rank_with_fastpath(M: QMatrix, prime: int = (1 << 31) - 1) -> int:
    """Exact rank with a sound modular shortcut; ``schemes.h1`` settles
    every interpolation rank this way.

    The probe rank never exceeds the exact rank, so a full-rank probe proves
    full rank; otherwise (or when a denominator is divisible by the prime)
    fall back to Bareiss.
    """
    try:
        probed = modular_rank_probe(M, prime)
    except RetryWithNewPrime:
        return rank_exact(M)
    if probed == min(M.rows, M.cols):
        return probed
    return rank_exact(M)
