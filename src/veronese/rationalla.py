"""Exact linear algebra over arbitrary-precision rationals.

A matrix stores row i as integer numerators over one positive denominator,
the form every matrix builder computes in, and every elimination runs on
those integers only.  Scaling a row by a nonzero constant changes neither
the rank nor the right kernel, so rank and kernels divide each numerator
row by its gcd and never look at the denominators.  Membership solves
sum_i c'_i nums_i = v for c' and returns c_i = c'_i dens_i: dividing row i
by dens_i scales the unknown c'_i, and scaling the unknowns keeps the pivot
columns of the reduced row echelon form, so the coefficients are the same
rationals, zero off the pivots.  ``rank_exact`` is fraction-free (Bareiss)
elimination.  Kernels and membership solving use fraction-free Gauss-Jordan
elimination (Nakos, Turner & Williams 1997), the same update loop applied to
the rows above the pivot as well: every entry stays a minor of the input, so
each division by the previous pivot is exact, and at the end every pivot
entry equals the last pivot, so the reduced row echelon form is each row
divided by its own pivot entry.  That form is unique, so kernels and
solutions are the same rationals that elimination over Q gives; a Fraction
is built only for an output entry.  Pivoting is always "first nonzero entry
in column order", which makes every result reproducible bit for bit.

The modular rank probe reduces the numerators mod p = PROBE_PRIME and packs
each row into one integer of K-bit slots, one residue per slot, along the
longer side of the matrix (the mod-p rank is transpose-invariant): a wide
matrix's rows as they are, a tall matrix's columns.  That leaves
s = min(rows, cols) packed vectors, so at most s pivots, and a vector still
takes at most s updates, so K is derived from s, not from the number of
slots.  A row update is then one big-integer shift and multiply-add instead
of one ``% p`` per entry (Dumas, Fousse & Salvy, "Simultaneous modular
reduction and Kronecker substitution for small finite fields", 2011).  The
pivot row is normalized on the whole packed integer too: p = 2^31 - 1 is a
Mersenne prime, so 2^31 = 1 (mod p) and fold(x) = (x mod 2^31) + (x >> 31)
= x (mod p), done for every slot at once with two masks.  Two folds of a
slot below 2^K leave at most 2^31 + 2^(K-62).  The argument needs K <= 93,
and the bound below yields K <= 88 for every s < 2^25 - 1 (any matrix of
fewer than 2^49 entries), so fold twice, multiply by p - 1/head, fold twice
more, and every slot of the normalized row is at most p + 2.  Slots of the
other rows are never reduced during elimination; each stays below
(s + 1) p (p + 8) < 2^K, so no slot carries into the next.  Since two folds
leave every slot below 2p, a slot is = 0 mod p exactly when it is 0 or p,
so a whole packed vector is tested for vanishing in a few big-integer
steps; the probe drops vanished vectors at a column without a pivot and
stops when none is left, so a span matrix stops after its t pivots and a
low-rank catalecticant about one column after its last.

The probe reads its input as one flat list of residues, one packed vector
per ``length`` of them.  A ``QMatrix`` reduces each numerator along its
longer side.  A ``GatheredMatrix`` reduces one vector of values once and
reads each entry from it by index: a catalecticant Cat_a(F) times
diag(beta!) is the Hankel matrix H_a[gamma, beta] = G[gamma+beta] of
G_alpha = n_alpha alpha!, n the cleared numerators of F (Brachat, Comon,
Mourrain & Tsigaridas, "Symmetric tensor decomposition", 2010), so its
C(m+d, m) values give every residue of every order a.  Scaling columns by
nonzero integers keeps the rank over Q, so a probe of H_a that reaches its
cap proves the rank of Cat_a, whatever the factors are mod p.  They are
units: every beta! is a product of integers <= d, and d < p whenever
m >= 1, since ``forms.MAX_MONOMIALS`` keeps d + 1 <= C(m+d, m) <= 10^4.
So H_a also has Cat_a's pivot columns and mod-p rank, and the probe takes
the same path on either.  The residues are packed by bytes, not by
integers: they go into one array of 32-bit lanes, and each of its four
byte lanes is copied with one slice assignment of stride nbytes into a
zeroed buffer, so a slot costs no ``to_bytes`` call of its own.

The probe also reports its pivot columns.  When they number the rows of M,
they hold a square minor whose numerators are nonzero mod p, hence nonzero
over Z; membership then solves that square system, whose solution is the
unique candidate, and accepts it only after an exact check of every column.
That is the same rational vector Gauss-Jordan on every column gives, at the
cost of a rows x rows elimination and one integer combination.  A solve
also returns the rank it proves: M.rows on the minor, and otherwise the
Gauss-Jordan pivots that fall among the columns of M^T.

A probe rank r proves rank >= r, and ``rank_with_fastpath`` proves
rank <= r too, so that no deficient rank needs Bareiss, whose integers grow
to the size of the largest minors.  Read M's numerators with the longer side
as rows, T (M when tall, M^T when wide, s = min(rows, cols) columns); the
probe's pivots name r rows B of T.  Mod-p Gauss-Jordan on B with an identity
block appended, in the probe's slot arithmetic, gives pivot columns J and
A^-1 mod p for the minor A = B[:, J], nonzero mod p.  For each of the s - r
free columns f, Dixon's p-adic lifting (Dixon 1982) solves
A z_J = -B[:, f] mod p^k, packed so that a step is 2r multiply-adds of big
integers, and rational reconstruction (Wang 1981; Monagan, "Maximal quotient
rational reconstruction", ISSAC 2004) recovers z, one entry at a time over
a growing common denominator, every few steps.  z is kept only when every
row of T times z is exactly 0; it is zero at the other free columns, so the
s - r vectors are independent and rank <= r.  By Cramer's rule z's entries
are quotients of r x r minors of B, each at most the Hadamard bound H of
B's rows, so the lift stops once p^k > 2 H^2 + 1.  That stop, r = 0, a failed
reconstruction or a failed exact check goes to Bareiss; a wrong rank would
need a wrong exact check.

All functions are pure and operate on immutable matrices.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, count
from math import gcd, isqrt, lcm, prod
from operator import itemgetter, mul
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import InputError

PROBE_PRIME = (1 << 31) - 1  # the prime of the modular rank probe


def _q(x) -> Fraction:
    """The package's one rational parser: "p/q" and decimal strings, but no
    exponent notation, since "1eN" builds 10^N, which grows with N, and no
    reduced numerator or denominator with more digits than the interpreter
    prints (``sys.get_int_max_str_digits``), as "0.00...01" can have."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if "e" in x or "E" in x:
            raise InputError(f"bad rational literal {x!r}: exponent notation is not accepted")
        try:
            q = Fraction(x)
            str(q)  # ValueError past sys.get_int_max_str_digits()
        except (ValueError, ZeroDivisionError) as e:
            shown = x if len(x) <= 40 else x[:40] + f"... ({len(x)} characters)"
            raise InputError(f"bad rational literal {shown!r}: {e}") from None
        return q
    raise InputError(f"not an exact rational: {x!r}")


def _clear_denominators(vectors: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Integer numerators over one common denominator D, the lcm of every
    entry's denominator: x == n / D for every entry x and its numerator n."""
    D = lcm(*[x.denominator for v in vectors for x in v])
    return [[x.numerator * (D // x.denominator) for x in v] for v in vectors], D


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
        cleared = [_clear_denominators([[_q(x) for x in r]]) for r in rows]
        nums = [n for (n,), _ in cleared]
        return cls.from_ints(len(nums[0]) if nums else 0, nums, [D for _, D in cleared])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls.from_ints(cols, [(0,) * cols] * rows, [1] * rows)

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

    def combine(self, coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
        """sum_i coeffs[i] * row i, summed in integers: numerators over one
        common denominator, not reduced."""
        den = lcm(*(c.denominator * d for c, d in zip(coeffs, self.dens) if c))
        out = [0] * self.cols
        for c, nums, d in zip(coeffs, self.nums, self.dens):
            if c:
                f = c.numerator * (den // (c.denominator * d))
                out = [o + f * x for o, x in zip(out, nums)]
        return out, den


@dataclass(frozen=True)
class GatheredMatrix:
    """A matrix whose integer rows are gathered from one vector of values:
    row i is (values[j] for j in index[i]), and equals the numerator row i
    of ``exact()`` times nonzero column factors.  Its rank is that of
    ``exact()``, and the probe reads only the residues of the values.
    Build it with ``gather``."""

    residues: tuple[int, ...]  # the values mod PROBE_PRIME
    index: tuple[tuple[int, ...], ...]
    exact: Callable[[], QMatrix]

    @classmethod
    def gather(
        cls,
        values: Sequence[int],
        plans: Iterable[tuple[tuple[tuple[int, ...], ...], Callable[[], QMatrix]]],
    ) -> list["GatheredMatrix"]:
        """One matrix per (index rows, exact builder) plan, all gathered from
        the values, which are reduced mod PROBE_PRIME once."""
        residues = tuple([x % PROBE_PRIME for x in values])
        return [cls(residues, index, exact) for index, exact in plans]

    @property
    def rows(self) -> int:
        return len(self.index)

    @property
    def cols(self) -> int:
        return len(self.index[0]) if self.index else 0


def _primitive(row: Sequence[int]) -> Sequence[int]:
    """The row divided by the gcd of its entries (rank and kernel preserving)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate(rows: list[list[int]], jordan: bool) -> tuple[list[list[int]], list[int]]:
    """Fraction-free elimination in place; returns (rows, pivot columns).

    The one pivot search and update of the package: the pivot is the first
    nonzero entry in its column at or below the current row, and each row
    it updates becomes (p * row - f * pivot row) // prev, exact because
    every entry stays a minor of the input.  Bareiss (``jordan`` false)
    updates the rows below the pivot, which is all the rank needs.
    Gauss-Jordan (``jordan`` true) updates every other row, so entry (r, c)
    of the reduced row echelon form is rows[r][c] / rows[r][pivots[r]].
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rr = rows[r]
        p = rr[c]
        for i in range(nrows) if jordan else range(r + 1, nrows):
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


def rank_exact(M: QMatrix) -> int:
    """Rank over the rationals via fraction-free Bareiss elimination.

    Deterministic: the numerator rows are divided by their gcds and the
    pivot is always the first nonzero entry below the current row.
    """
    return len(_eliminate([_primitive(r) for r in M.nums], False)[1])


def kernel_basis(M: QMatrix) -> list[list[Fraction]]:
    """Basis of the right kernel {v : Mv = 0}; size = cols - rank_exact(M).

    Basis vectors are indexed by the free columns in ascending order, each
    with a 1 in its free coordinate.
    """
    rows, pivots = _eliminate([_primitive(r) for r in M.nums], True)
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
) -> tuple[int, Optional[list[Fraction]]]:
    """(rank of M, coefficients c with c^T M = v), c None when v is not in
    the row space.

    Exact, no tolerance.  When the rows of M are dependent the returned
    combination sets the non-pivot coefficients to zero.

    When the probe finds a pivot for every row, the columns it reports hold
    a rows x rows minor of the numerators that is nonzero mod p, hence
    nonzero over Z: the rank is M.rows, and c, if it exists, is the unique
    solution of that square system.  It is solved by the same Gauss-Jordan
    and then checked against every column of v exactly, so the coefficients
    are the same rationals as elimination over Q gives.  Any other matrix
    (dependent rows, a tall shape, a prime dividing the minor) is solved by
    Gauss-Jordan on every column, which alone gives the zero-off-the-pivots
    convention; its rank is the number of pivots among the first M.rows
    columns of the augmented system, the transpose of M.
    """
    v = [_q(x) for x in v]
    if len(v) != M.cols:
        raise InputError(f"vector length {len(v)} != cols {M.cols}")
    if M.rows == 0:
        return 0, [] if all(x == 0 for x in v) else None
    # Solve sum_i c'_i nums_i = D v by Gauss-Jordan on the augmented matrix,
    # one equation per column (per pivot column on the minor); then
    # c_i = c'_i dens_i / D.
    probed = _probe_pivots(M)
    minor = len(probed) == M.rows
    columns = probed if minor else range(M.cols)
    D = lcm(*(v[j].denominator for j in columns))
    aug = [
        _primitive([row[j] for row in M.nums] + [v[j].numerator * (D // v[j].denominator)])
        for j in columns
    ]
    rows, pivots = _eliminate(aug, True)
    if M.rows in pivots:
        return len(pivots) - 1, None
    c = [Fraction(0)] * M.rows
    for r, pc in enumerate(pivots):
        c[pc] = Fraction(rows[r][M.rows] * M.dens[pc], rows[r][pc] * D)
    if minor:
        out, den = M.combine(c)
        if any(o * x.denominator != x.numerator * den for o, x in zip(out, v)):
            return M.rows, None
    return len(pivots), c


def _fold(a: int, lo: int, hi: int) -> int:
    """Every K-bit slot x of a reduced to (x mod 2^31) + (x >> 31), which is
    congruent to x mod PROBE_PRIME = 2^31 - 1, in a few big-integer steps.

    ``lo`` holds the low 31 bits of every slot and ``hi`` the low K - 31
    bits: ``a >> 31`` brings each slot's high bits down to its own bottom,
    and ``hi`` cuts off the low bits of the slot above.  A slot below 2^K
    comes out at most 2^31 + 2^(K-31) - 2, so no slot carries when K > 32;
    two folds leave it at most 2^31 + 2^(K-62) when K >= 62.
    """
    return (a & lo) + ((a >> 31) & hi)


def _pack(residues: Iterable[int], length: int, nbytes: int) -> list[int]:
    """One integer of ``length`` slots of ``nbytes`` bytes per ``length``
    residues, slot j of each holding its residue j (every residue < 2^31).

    The residues go into one array of 32-bit lanes, and its bytes are copied
    lane by lane into one zeroed buffer with stride ``nbytes``: four C-level
    slice copies, where packing entry by entry costs one ``to_bytes`` each.
    """
    lanes = array("I", residues)
    if sys.byteorder == "big":
        lanes.byteswap()
    raw, size = lanes.tobytes(), lanes.itemsize
    buf = bytearray(len(lanes) * nbytes)
    for b in range(4):
        buf[b::nbytes] = raw[b::size]
    view, step = memoryview(buf), length * nbytes
    return [int.from_bytes(view[i : i + step], "little") for i in range(0, len(buf), step)]


def _unpack(packed: Iterable[int], length: int, nbytes: int) -> list[int]:
    """The inverse of ``_pack`` for slots below 2^32: every slot of the
    packed integers, ``length`` slots each, as one flat list, gathered by
    the same four byte-lane slice copies."""
    raw = b"".join(a.to_bytes(length * nbytes, "little") for a in packed)
    lanes = array("I")
    size = lanes.itemsize
    buf = bytearray(len(raw) // nbytes * size)
    for b in range(4):
        buf[b::size] = raw[b::nbytes]
    lanes.frombytes(buf)
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes.tolist()


def _slots(width: int, length: int) -> tuple[int, int, int]:
    """(nbytes, lo, hi): the slot size in bytes for packed vectors that take
    at most ``width`` updates, and ``_fold``'s masks over ``length`` slots.

    K = 8 * ceil((bitlen((s + 1) * p * (p + 8)) + 1) / 8) for s = width:
    whole bytes, so a row packs by byte copies and the masks repeat one
    byte pattern."""
    prime = PROBE_PRIME
    nbytes = ((width + 1) * prime * (prime + 8)).bit_length() // 8 + 1
    lo = int.from_bytes(prime.to_bytes(nbytes, "little") * length, "little")
    top = (1 << (8 * nbytes - 31)) - 1
    hi = int.from_bytes(top.to_bytes(nbytes, "little") * length, "little")
    return nbytes, lo, hi


def _probe_pivots(M: QMatrix | GatheredMatrix) -> list[int]:
    """Pivot positions of elimination mod PROBE_PRIME on the numerator rows
    of M, packed along the longer side: columns of M when rows <= cols, rows
    of M when it is tall.  Their count is the mod-p rank, and the columns
    (rows, when tall) of M at those positions are independent mod p, hence
    over Q.

    The residues along the longer side come as one flat list, one packed
    vector per ``length`` of them (``_pack``): a ``QMatrix``'s numerators
    each reduced mod p, a ``GatheredMatrix``'s read from its residues by
    index, so a Hankel matrix reduces no entry of its own.  A shape with no
    rows or no columns has no pivot and packs nothing.

    Each packed vector is one integer of K-bit slots, one residue per slot,
    and a row update is one big-integer shift and multiply-add.  The current
    position is always slot 0, read as ``(a & mask) % p``; eliminating it
    drops that slot and adds f * N, where f < p and N packs the pivot vector
    normalized and negated mod p.  The pivot vector leaves the list, so with
    s = min(rows, cols) packed vectors a vector takes at most s - 1 updates,
    and K is derived from s, not from the number of slots.

    N is built on the whole packed tail at once: since 2^31 = 1 (mod p),
    ``_fold`` reduces every slot towards p, and
    N = fold(fold(fold(fold(tail)) * (p - 1/head))).  For 64 <= K <= 93,
    two folds take a tail slot below 2^K to at most 2^31 + 2^(K-62) <=
    2^32, the product with p - 1/head stays below 2^63 < 2^K, and two more
    folds leave each slot of N at most p + 2.  A slot of a vector thus
    stays below p + s * (p - 1) * (p + 2) < (s + 1) * p * (p + 8) < 2^K and
    never carries into the next one.  The K this bound yields is 72 to 88
    for every s < 2^25 - 1; it reaches 96 only for a matrix of at least
    (2^25 - 1)^2 > 2^49 entries.

    At a position where no vector has a nonzero head, every vector that is
    = 0 mod p in all its slots is dropped, and elimination ends when none is
    left: a deficient matrix stops about one position after its last pivot
    instead of passing over every remaining slot.  The test is exact and
    costs a few big-integer operations: for K <= 88 two folds leave every
    slot at most 2^31 + 2^26 < 2p, so a slot is = 0 exactly when it equals
    0 or p, i.e. when the folded vector equals its bit 0 of each slot times p.
    """
    prime = PROBE_PRIME
    width, length = min(M.rows, M.cols), max(M.rows, M.cols)
    if not width:
        return []
    wide = M.rows <= M.cols
    if isinstance(M, QMatrix):
        lines = M.nums if wide else zip(*M.nums)
        residues = [x % prime for line in lines for x in line]
    else:
        lines, table = M.index if wide else zip(*M.index), M.residues
        residues = [table[i] for line in lines for i in line]
    nbytes, lo, hi = _slots(width, length)
    K = 8 * nbytes
    mask = (1 << K) - 1
    ones = int.from_bytes((1).to_bytes(nbytes, "little") * length, "little")
    rows = _pack(residues, length, nbytes)
    pivots: list[int] = []
    for c in range(length):
        heads = [(a & mask) % prime for a in rows]
        piv = next((i for i, f in enumerate(heads) if f), None)
        if piv is None:
            folded = [_fold(_fold(a, lo, hi), lo, hi) for a in rows]
            rows = [a >> K for a, b in zip(rows, folded) if b != (b & ones) * prime]
        else:
            tail = _fold(_fold(rows.pop(piv) >> K, lo, hi), lo, hi)
            N = _fold(_fold(tail * (prime - pow(heads.pop(piv), -1, prime)), lo, hi), lo, hi)
            rows = [(a >> K) + f * N if f else a >> K for a, f in zip(rows, heads)]
            pivots.append(c)
        if not rows:
            break
    return pivots


def _inverse_mod_p(B: Sequence[Sequence[int]]) -> Optional[tuple[list[int], list[int]]]:
    """(J, -A^-1): the pivot columns J of mod-p Gauss-Jordan on the r
    integer rows B, and -A^-1 mod p for the r x r minor A = B[:, J], row
    after row, each entry below 2p; None when B has fewer than r pivots
    mod p.

    The rows run with an identity block appended, packed like the probe's
    vectors (``_pack``, the same K for s = width): the current column is
    always slot 0 and every row drops it after each column.  The pivot row
    becomes N = -row / head mod p (``_fold``, as in ``_probe_pivots``) and
    stays in the list, negated, so every other row above or below takes
    the one update row + f * N; a row takes at most r - 1 updates besides
    its own normalization, so its slots stay below (s + 1) p (p + 8).  Once
    r pivots are found, the block left in the rows is -A^-1, row k for
    pivot k.
    """
    prime = PROBE_PRIME
    r, width = len(B), len(B[0])
    nbytes, lo, hi = _slots(width, width + r)
    K = 8 * nbytes
    mask = (1 << K) - 1
    residues = []
    for i, row in enumerate(B):
        residues += [x % prime for x in row]
        residues += [0] * i + [1] + [0] * (r - 1 - i)
    rows = _pack(residues, width + r, nbytes)
    free = list(range(r))  # rows not yet a pivot, in order
    order, J = [], []
    for c in range(width):
        heads = [(a & mask) % prime for a in rows]
        piv = next((i for i in free if heads[i]), None)
        if piv is None:
            rows = [a >> K for a in rows]
            continue
        tail = _fold(_fold(rows[piv] >> K, lo, hi), lo, hi)
        N = _fold(_fold(tail * (prime - pow(heads[piv], -1, prime)), lo, hi), lo, hi)
        heads[piv] = 0
        rows = [(a >> K) + f * N if f else a >> K for a, f in zip(rows, heads)]
        rows[piv] = N
        free.remove(piv)
        order.append(piv)
        J.append(c)
        if not free:
            break
    if free:
        return None
    shift = K * (width - 1 - J[-1])
    return J, _unpack((_fold(_fold(rows[i] >> shift, lo, hi), lo, hi) for i in order), r, nbytes)


def _rational_reconstruction(u: int, m: int, bound: int) -> Optional[tuple[int, int]]:
    """(a, b) with a = b u (mod m), |a| <= bound and 0 < b <= bound, from the
    extended Euclidean algorithm on (m, u) stopped at the first remainder
    <= bound (Wang 1981); None when the cofactor b exceeds the bound.  When
    2 bound^2 < m at most one fraction a / b satisfies all three."""
    r0, r1, t0, t1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not 0 < abs(t1) <= bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _kernel_vectors(
    B: Sequence[Sequence[int]], J: list[int], negated_inverse: list[int]
) -> Iterator[tuple[Callable, Optional[list[int]]]]:
    """For each free column f of the r integer rows B (a column outside J),
    in order, the integer vector z with z[f] = den > 0, zero at every other
    free column, and B z = 0 exactly, as (entries, values): ``entries``
    picks a row's entries at J and f, and ``values`` are z's there, None
    when the lift cannot find them.

    Dixon's p-adic lifting (Dixon, "Exact solution of linear equations using
    p-adic expansions", Numer. Math. 1982) solves A z_J = -B[:, f] mod p^k
    for the minor A = B[:, J], one digit vector x = A^-1 R mod p per step,
    then R <- (R - A x) / p.  The residual R is one integer of signed slots
    of W bits and A is packed by columns the same way, so a step is r
    multiply-adds of packed integers, exactly divisible by p as a whole;
    every slot stays at most r max|B| < 2^(W-1).  The digits are -A^-1
    (``_inverse_mod_p``), packed by columns, times -R mod p, in r more
    multiply-adds.

    At steps 1, 2, 3, 4, 5, 7, 9, 12, ... (each a quarter past the last) the
    solution mod p^k is reconstructed entry by entry over one growing common
    denominator (``_rational_reconstruction``, with 2 bound^2 < p^k) and
    returned once B z = 0 holds exactly: A is nonsingular, so that z is the
    only kernel vector of B of this shape.  By Cramer's rule its numerators
    and denominator are r x r minors of B, at most the Hadamard bound H of
    B's rows, so the lift gives up once p^k > 2 H^2 + 1.
    """
    prime = PROBE_PRIME
    r = len(J)
    columns = list(zip(*B))
    nbytes = (r * max(map(abs, chain.from_iterable(B)))).bit_length() // 8 + 1
    half = 1 << (8 * nbytes - 1)
    offset = int.from_bytes(half.to_bytes(nbytes, "little") * r, "little")

    def packed(xs: Iterable[int]) -> int:
        """Signed slots: each x + half is one unsigned slot, less the offset."""
        raw = b"".join([(x + half).to_bytes(nbytes, "little") for x in xs])
        return int.from_bytes(raw, "little") - offset

    packed_A = [packed(columns[j]) for j in J]
    hadamard = prod(sum(map(mul, row, row)) for row in B)
    # -A^-1 packed by columns: a digit slot sums r products below 2p * p
    slot_bytes, lo, hi = _slots(2 * r, r)
    rows = [negated_inverse[k : k + r] for k in range(0, r * r, r)]
    inverse = _pack(chain.from_iterable(zip(*rows)), r, slot_bytes)
    pivots = set(J)
    for f in range(len(columns)):
        if f in pivots:
            continue
        entries = itemgetter(*J, f)
        residual = packed(-x for x in columns[f])
        acc, modulus, attempt, z = [0] * r, 1, 1, None
        for step in count(1):
            raw = (residual + offset).to_bytes(r * nbytes, "little")
            # -R mod p, slot by slot, so that -A^-1 (-R) = A^-1 R
            R = [
                (half - int.from_bytes(raw[i : i + nbytes], "little")) % prime
                for i in range(0, len(raw), nbytes)
            ]
            digits = _fold(_fold(sum(map(mul, R, inverse)), lo, hi), lo, hi)
            x = [v % prime for v in _unpack((digits,), r, slot_bytes)]
            residual = (residual - sum(map(mul, x, packed_A))) // prime
            acc = [a + v * modulus for a, v in zip(acc, x)]
            modulus *= prime
            last = modulus > 2 * hadamard + 1
            if step < attempt and not last:
                continue
            attempt = step + step // 4 + 1
            z = _candidate(acc, modulus)
            if z is not None and not any(sum(map(mul, entries(row), z)) for row in B):
                break
            z = None
            if last:
                break
        yield entries, z


def _candidate(acc: list[int], modulus: int) -> Optional[list[int]]:
    """[den * q_1, ..., den * q_r, den], where q_k is the rational
    reconstruction of acc[k] mod ``modulus`` and den > 0 their common
    denominator, built up entry by entry: an entry times the denominator so
    far that is already a small integer needs no Euclid; None when an entry
    or den exceeds the bound."""
    bound = isqrt(modulus // 2)
    nums, den = [], 1
    for a in acc:
        y = a * den % modulus
        if y > modulus // 2:
            y -= modulus
        if abs(y) > bound:
            frac = _rational_reconstruction(y, modulus, bound)
            if frac is None or den * frac[1] > bound:
                return None
            nums = [n * frac[1] for n in nums]
            y, den = frac[0], den * frac[1]
        nums.append(y)
    return nums + [den]


def _rank_at_most(M: QMatrix, positions: list[int]) -> bool:
    """Is rank M <= r = len(positions), for the probe's pivot positions?

    Let T be M's numerators with its longer side as rows: M when it is
    tall, M^T when it is wide, so T has s = min(rows, cols) columns and the
    positions name r of its rows, B.  Mod-p Gauss-Jordan on B finds pivot
    columns J and a minor A = B[:, J] nonzero mod p (``_inverse_mod_p``),
    so rank M >= r.  For each of the s - r free columns, the lifted kernel
    vector of B (``_kernel_vectors``) is kept only when every row of T
    times it is exactly 0.  Each is nonzero at its own free column, where
    the others vanish, so they are independent and rank M <= r.  Any step
    that fails answers False.
    """
    lines = M.nums if M.rows > M.cols else list(zip(*M.nums))
    B = [lines[i] for i in positions]
    found = _inverse_mod_p(B)
    if found is None:
        return False
    chosen = set(positions)
    rest = [row for i, row in enumerate(lines) if i not in chosen]
    for entries, z in _kernel_vectors(B, *found):
        if z is None or any(sum(map(mul, entries(row), z)) for row in rest):
            return False
    return True


def rank_with_fastpath(M: QMatrix | GatheredMatrix, cap: Optional[int] = None) -> int:
    """Exact rank with a sound modular shortcut: ``schemes.h1``, the
    line-jet dimension claim and every flattening rank settle their ranks
    this way (a span's rank comes from ``membership_solve``, whose probe
    proves it along with the solve).

    The probe reduces the numerator rows mod PROBE_PRIME, and its rank r
    never exceeds the exact rank, so a probe that reaches min(rows, cols)
    proves full rank.  A caller that knows the rank is at most ``cap`` may
    pass it: a probe that reaches min(rows, cols, cap) is then the exact
    rank, and a probe above the cap is returned as it is, for the caller to
    refuse.  A lower probe is proved exact by min(rows, cols) - r exact
    kernel vectors (``_rank_at_most``), on ``M.exact()`` for a
    ``GatheredMatrix``, which is built only then.  When r = 0 or that proof
    fails, Bareiss decides.
    """
    reach = min(M.rows, M.cols) if cap is None else min(M.rows, M.cols, cap)
    pivots = _probe_pivots(M)
    if len(pivots) >= reach:
        return len(pivots)
    exact = M if isinstance(M, QMatrix) else M.exact()
    if pivots and _rank_at_most(exact, pivots):
        return len(pivots)
    return rank_exact(exact)
