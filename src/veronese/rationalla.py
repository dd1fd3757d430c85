"""Exact linear algebra over arbitrary-precision rationals.

A matrix stores row i as integer numerators over one positive denominator,
the form every matrix builder computes in, and every elimination runs on
those integers only.  Scaling a row by a nonzero constant changes neither
the rank nor the right kernel, so rank and kernels divide each numerator
row by its gcd and never look at the denominators.  Membership solves
sum_i c'_i nums_i = v for c' and returns c_i = c'_i dens_i: dividing row i
by dens_i scales the unknown c'_i, and scaling the unknowns keeps the pivot
columns of the reduced row echelon form, so the coefficients are the same
rationals, zero off the pivots.  Rank is computed by fraction-free (Bareiss)
elimination.  Kernels and membership solving use fraction-free Gauss-Jordan
elimination (Nakos, Turner & Williams 1997), the Bareiss update applied to
the rows above the pivot as well: every entry stays a minor of the input, so
each division by the previous pivot is exact, and at the end every pivot
entry equals the last pivot, so the reduced row echelon form is each row
divided by its own pivot entry.  That form is unique, so kernels and
solutions are the same rationals that elimination over Q gives; a Fraction
is built only for an output entry.  Pivoting is always "first nonzero entry
in column order", which makes every result reproducible bit for bit.

The modular rank probe reduces the numerators mod a prime p and packs each
row into one integer of K-bit slots, one residue per slot, along the
shorter side of the matrix (the mod-p rank is transpose-invariant), so
s = min(rows, cols) slots per row and at most s pivots.  A row update is
then one big-integer shift and multiply-add instead of one ``% p`` per
entry.  Slots are never reduced during elimination; each one stays below
(s + 1) p^2 < 2^K, so no slot carries into the next (Dumas, Fousse & Salvy,
"Simultaneous modular reduction and Kronecker substitution for small
finite fields", 2011).

All functions are pure and operate on immutable matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import InputError

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
    """Dense matrix of exact rationals: row i is nums[i] / dens[i], integer
    numerators over one positive row denominator.  Build it with
    ``from_ints`` or ``from_rows``."""

    cols: int
    nums: tuple[tuple[int, ...], ...]
    dens: tuple[int, ...]

    @classmethod
    def from_ints(
        cls, cols: int, nums: Iterable[Sequence[int]], dens: Iterable[int]
    ) -> "QMatrix":
        """Row i is nums[i] / dens[i]; a negative denominator flips the sign
        of its row."""
        nums, dens = list(nums), list(dens)
        if cols < 0 or len(nums) != len(dens) or any(len(r) != cols for r in nums):
            raise InputError(f"{len(nums)} rows, {len(dens)} denominators, {cols} columns")
        if 0 in dens:
            raise InputError("zero row denominator")
        return cls(
            cols,
            tuple(tuple(r) if d > 0 else tuple(-x for x in r) for r, d in zip(nums, dens)),
            tuple(map(abs, dens)),
        )

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "QMatrix":
        """Clears the denominators of each row once."""
        rows = [[_q(x) for x in r] for r in rows]
        dens = [lcm(*(x.denominator for x in r)) for r in rows]
        nums = [[x.numerator * (D // x.denominator) for x in r] for r, D in zip(rows, dens)]
        return cls.from_ints(len(rows[0]) if rows else 0, nums, dens)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls.from_ints(cols, [(0,) * cols] * rows, [1] * rows)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls.from_ints(n, [[int(i == j) for j in range(n)] for i in range(n)], [1] * n)

    @property
    def rows(self) -> int:
        return len(self.nums)

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        """Every entry, row after row."""
        return tuple(x for i in range(self.rows) for x in self.row(i))

    def row(self, i: int) -> list[Fraction]:
        den = self.dens[i]
        return [Fraction(x, den) for x in self.nums[i]]

    def to_rows(self) -> list[list[Fraction]]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "QMatrix":
        """Column j over the common denominator of all rows."""
        if self.rows == 0:
            return QMatrix.zero(self.cols, 0)
        den = lcm(*self.dens)
        scale = [den // d for d in self.dens]
        return QMatrix(
            self.rows,
            tuple(tuple(x * s for x, s in zip(col, scale)) for col in zip(*self.nums)),
            (den,) * self.cols,
        )

    def stack(self, other: "QMatrix") -> "QMatrix":
        """Rows of self followed by rows of other (0-row matrices adapt)."""
        if self.rows == 0:
            return other
        if other.rows == 0:
            return self
        if self.cols != other.cols:
            raise InputError("column mismatch in stack")
        return QMatrix(self.cols, self.nums + other.nums, self.dens + other.dens)


def _primitive(row: Sequence[int]) -> Sequence[int]:
    """The row divided by the gcd of its entries (rank and kernel preserving)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rank_exact(M: QMatrix) -> int:
    """Rank over the rationals via fraction-free Bareiss elimination.

    Deterministic: the numerator rows are divided by their gcds and the
    pivot is always the first nonzero entry below the current row.
    """
    rows = [_primitive(r) for r in M.nums]
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
    rows, pivots = _rref([_primitive(r) for r in M.nums])
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
    # Solve sum_i c'_i nums_i = D v by Gauss-Jordan on the augmented matrix,
    # one equation per column; then c_i = c'_i dens_i / D.
    D = lcm(*(x.denominator for x in v))
    aug = [
        _primitive(list(col) + [x.numerator * (D // x.denominator)])
        for col, x in zip(zip(*M.nums), v)
    ]
    rows, pivots = _rref(aug)
    if M.rows in pivots:
        return None
    c = [Fraction(0)] * M.rows
    for r, pc in enumerate(pivots):
        c[pc] = Fraction(rows[r][M.rows] * M.dens[pc], rows[r][pc] * D)
    return c


def modular_rank_probe(M: QMatrix, prime: int) -> int:
    """Rank of the numerator rows of M reduced mod prime; always <=
    rank_exact(M), since scaling rows does not change the rank.

    A fast randomized pre-filter: no denominator is ever inverted, and each
    row mod prime is one integer of K-bit slots, so a row update is one
    big-integer shift and multiply-add.  The matrix is packed along its
    shorter side (the mod-p rank of the numerators is transpose-invariant):
    with s = min(rows, cols) slots per row, at most s pivots update a row.
    The current column is always slot 0, read as ``(a & mask) % prime``;
    eliminating it drops that slot and adds f * N, where f < prime and N
    packs the pivot row normalized and negated mod prime.  A slot thus stays
    below prime + s * (prime - 1)^2 < (s + 1) * prime^2 < 2^K and never
    carries into the next one.
    """
    if prime <= MIN_PROBE_PRIME:
        raise InputError(f"probe prime must exceed 2^30, got {prime}")
    nums = M.nums if M.rows >= M.cols else list(zip(*M.nums))
    width = min(M.rows, M.cols)
    # K = 8 * ceil((bitlen((s + 1) * prime^2) + 1) / 8): whole bytes, so a
    # row packs and unpacks through int.to_bytes / int.from_bytes.
    nbytes = ((width + 1) * prime * prime).bit_length() // 8 + 1
    K = 8 * nbytes
    mask = (1 << K) - 1

    def pack(values) -> int:
        return int.from_bytes(
            b"".join([(x % prime).to_bytes(nbytes, "little") for x in values]), "little"
        )

    rows = [pack(r) for r in nums]
    r = 0
    for c in range(width):
        heads = [(a & mask) % prime for a in rows]
        piv = next((i for i, f in enumerate(heads) if f), None)
        if piv is None:
            rows = [a >> K for a in rows]
            continue
        tail = (rows.pop(piv) >> K).to_bytes((width - c - 1) * nbytes, "little")
        scale = -pow(heads.pop(piv), -1, prime)
        N = pack(
            int.from_bytes(tail[j : j + nbytes], "little") * scale
            for j in range(0, len(tail), nbytes)
        )
        rows = [(a >> K) + f * N if f else a >> K for a, f in zip(rows, heads)]
        r += 1
        if not rows:
            break
    return r


def rank_with_fastpath(M: QMatrix, prime: int = (1 << 31) - 1) -> int:
    """Exact rank with a sound modular shortcut; ``schemes.h1`` settles
    every interpolation rank this way.

    The probe reduces the numerator rows mod the prime, and its rank never
    exceeds the exact rank, so a full-rank probe proves full rank; any other
    probe result falls back to Bareiss.
    """
    probed = modular_rank_probe(M, prime)
    if probed == min(M.rows, M.cols):
        return probed
    return rank_exact(M)
