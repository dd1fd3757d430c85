"""Degree-d homogeneous forms in m+1 variables over exact rationals.

A projective point of the ambient space P^N, N = C(m+d, m) - 1, IS a form:
its coordinates are the coefficients of a degree-d form in the fixed
graded-lexicographic monomial order.  The degree-d power embedding of a
point Q of P^m is realized concretely by ``power_expand`` applied to the
linear form with Q's homogeneous coordinates.

A germ's span is read off its jet rows [t^j] prod_i c_i(t)^beta_i, j < k,
k its length (1 for a point): one integer power table of its series, packed
by the ring maps t -> 2^K and mod 2^(kK); K = bitlen(N^d) + 1 is exact, as
no coefficient exceeds N^d, N the largest L1 norm of a series.

The monomial order is global and serialized artifacts record it ("grlex"),
so coefficient vectors are comparable across runs and implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from operator import add, mul
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import InputError
from .rationalla import QMatrix, _clear_denominators, _q

MultiIndex = Tuple[int, ...]

# Every matrix builder has one column per degree-d monomial, so this caps the
# width of every matrix.  h1 of two (2,3)-points and a fat point in P^3 takes
# about 1.4 s at d = 36 (9139 columns; Python 3.11 on a 2-core x86-64
# machine), and C(m+d, m) grows like d^m.
MAX_MONOMIALS = 10_000


@lru_cache(maxsize=None)
def monomial_basis(m: int, d: int) -> tuple[MultiIndex, ...]:
    """All degree-d exponent vectors on m+1 variables, descending lex.

    The first element is (d, 0, ..., 0) and the last (0, ..., 0, d);
    length C(m+d, m), at most MAX_MONOMIALS.
    """
    if m < 0 or d < 0:
        raise InputError("monomial_basis needs m >= 0, d >= 0")
    if comb(m + d, m) > MAX_MONOMIALS:
        raise InputError(
            f"C({m}+{d}, {m}) = {comb(m + d, m)} monomials exceed {MAX_MONOMIALS}"
        )

    def gen(nvars: int, deg: int):
        if nvars == 1:
            yield (deg,)
            return
        for e in range(deg, -1, -1):
            for rest in gen(nvars - 1, deg - e):
                yield (e,) + rest

    basis = tuple(gen(m + 1, d))
    assert len(basis) == comb(m + d, m)
    return basis


@lru_cache(maxsize=None)
def monomial_index(m: int, d: int) -> dict[MultiIndex, int]:
    return {alpha: i for i, alpha in enumerate(monomial_basis(m, d))}


def multinomial(d: int, alpha: MultiIndex) -> int:
    out = factorial(d)
    for a in alpha:
        out //= factorial(a)
    return out


@lru_cache(maxsize=None)
def _multinomials(m: int, d: int) -> tuple[int, ...]:
    """multinomial(d, alpha) for alpha in monomial_basis(m, d)."""
    return tuple(multinomial(d, alpha) for alpha in monomial_basis(m, d))


@dataclass(frozen=True)
class LinearForm:
    """Nonzero linear form c_0 x_0 + ... + c_m x_m."""

    m: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.m + 1:
            raise InputError("linear form needs m+1 coefficients")
        if all(c == 0 for c in self.coeffs):
            raise InputError("linear form must be nonzero")

    @classmethod
    def make(cls, coeffs: Sequence) -> "LinearForm":
        cs = tuple(_q(c) for c in coeffs)
        return cls(len(cs) - 1, cs)

    def to_form(self) -> "Form":
        return Form(self.m, 1, self.coeffs)


@dataclass(frozen=True)
class Form:
    """Coefficient vector of a degree-d form, graded-lex monomial order."""

    m: int
    d: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.m < 0 or self.d < 0:
            raise InputError(f"form needs m >= 0 and d >= 0, got m = {self.m}, d = {self.d}")
        if len(self.coeffs) != comb(self.m + self.d, self.m):
            raise InputError(
                f"form needs C({self.m}+{self.d},{self.m}) coefficients, "
                f"got {len(self.coeffs)}"
            )

    @classmethod
    def from_dict(cls, m: int, d: int, terms: Dict[MultiIndex, Fraction]) -> "Form":
        idx = monomial_index(m, d)
        coeffs = [Fraction(0)] * len(idx)
        for alpha, c in terms.items():
            coeffs[idx[alpha]] += c
        return cls(m, d, tuple(coeffs))

    @classmethod
    def from_ints(cls, m: int, d: int, nums: Sequence[int], den: int) -> "Form":
        """Coefficients nums[i] / den."""
        return cls(m, d, tuple(Fraction(n, den) for n in nums))

    @classmethod
    def from_coeffs(cls, m: int, d: int, coeffs: Sequence) -> "Form":
        return cls(m, d, tuple(_q(c) for c in coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "Form") -> "Form":
        if (self.m, self.d) != (other.m, other.d):
            raise InputError("form degree/variable mismatch in +")
        return Form(self.m, self.d, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Form") -> "Form":
        if (self.m, self.d) != (other.m, other.d):
            raise InputError("form degree/variable mismatch in -")
        return Form(self.m, self.d, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, s) -> "Form":
        s = _q(s)
        return Form(self.m, self.d, tuple(s * c for c in self.coeffs))


def _powers(x: int, e: int, mask: Optional[int] = None) -> list[int]:
    """x^0, x^1, ..., x^e, each ANDed with mask if one is given."""
    out = [1]
    for _ in range(e):
        out.append(out[-1] * x if mask is None else out[-1] * x & mask)
    return out


def _power_table(p: Sequence[int], e: int, mask: Optional[int] = None) -> list[int]:
    """p^alpha for alpha in monomial_basis(len(p) - 1, e), in that order.

    One walk over the basis: the leading coordinates extend a list of
    (prefix product, degree left) pairs, and each entry is one prefix times
    one precomputed x_{m-1}^a x_m^(left-a), so an entry costs one integer
    multiply.  With mask = 2^b - 1 and len(p) > 1 the powers are kept mod
    2^b, so an entry is congruent to p^alpha mod 2^b, of len(p) * b bits at most.
    """
    if len(p) == 1:
        return [p[0] ** e]
    *head, x, y = p
    xs, ys = _powers(x, e, mask), _powers(y, e, mask)
    if not head:
        return [xs[a] * ys[e - a] for a in range(e, -1, -1)]
    tails = [[xs[a] * ys[k - a] for a in range(k, -1, -1)] for k in range(e + 1)]
    level = [(1, e)]
    for c in head:
        cs = _powers(c, e, mask)
        level = [(acc * cs[a], k - a) for acc, k in level for a in range(k, -1, -1)]
    return [acc * v for acc, k in level for v in tails[k]]


def _jet_rows(curve: Sequence[Sequence[Fraction]], d: int) -> tuple[list[list[int]], int]:
    """Integer numerators and common denominator D^d of the rows

        entry (j, beta) = [t^j] prod_i c_i(t)^beta_i,  j < len(curve),

    over the degree-d basis, c_i(t) = sum_s curve[s][i] t^s, from the
    numerator series D c_i(t) over one common denominator D.

    A length-1 curve (a reduced point) is one ``_power_table``.  A germ of
    length k >= 2 is one too, by Kronecker substitution: t -> 2^K packs each
    series D c_i into one integer, and Z[t] -> Z/2^(kK), t -> 2^K, is a ring
    map that drops t^k and above, so the table kept mod 2^(kK) holds
    prod_i (D c_i)^beta_i mod t^k at 2^K.  Every coefficient of that product
    is at most prod_i ||D c_i||_1^beta_i <= N^d in absolute value, N the
    largest L1 norm of a series, so with K = bitlen(N^d) + 1 each lies
    strictly inside (-2^(K-1), 2^(K-1)).  Adding 2^(K-1) to each of the low
    k slots and keeping the low kK bits makes each slot a base-2^K digit.
    """
    nums, D = _clear_denominators(curve)
    if len(nums) == 1:
        return [_power_table(nums[0], d)], D**d
    series = list(zip(*nums))
    K = (max(sum(map(abs, s)) for s in series) ** d).bit_length() + 1
    packed = [sum(c << (j * K) for j, c in enumerate(s)) for s in series]
    shifts = range(0, len(nums) * K, K)
    half, slot = 1 << (K - 1), (1 << K) - 1
    offset, window = sum(half << s for s in shifts), (1 << shifts.stop) - 1
    cols = [(v + offset) & window for v in _power_table(packed, d, window)]
    return [[((v >> s) & slot) - half for v in cols] for s in shifts], D**d


def _span_rows(curve: Sequence[Sequence[Fraction]], d: int) -> tuple[list[list[int]], int]:
    """Integer numerators and common denominator of the span rows
    [t^j] (c(t).x)^d of a curve germ: the jet rows with column beta scaled
    by multinomial(d, beta), so both have the same rank.  A length-1 curve
    L gives the one row L^d.  The multinomials come first, so a degree past
    MAX_MONOMIALS is refused before any row is built."""
    multinomials = _multinomials(len(curve[0]) - 1, d)
    rows, den = _jet_rows(curve, d)
    return [list(map(mul, multinomials, row)) for row in rows], den


def power_expand(L: LinearForm, d: int) -> Form:
    """L^d by multinomial expansion; the degree-d embedding of the point L."""
    if d < 1:
        raise InputError("power_expand needs d >= 1")
    (row,), den = _span_rows((L.coeffs,), d)
    return Form.from_ints(L.m, d, row, den)


def power_sum(
    m: int, d: int, terms: Iterable[tuple[Fraction, Sequence[Fraction]]]
) -> tuple[list[int], int]:
    """sum_i c_i L_i^d over the terms (c_i, the m+1 coordinates of L_i):
    integer numerators over one common denominator, not reduced."""
    terms = list(terms)
    return power_rows(m, d, [point for _, point in terms]).combine([c for c, _ in terms])


def power_rows(m: int, d: int, points: Sequence[Sequence[Fraction]]) -> QMatrix:
    """One row L^d per point, L = point . x, each over its own denominator."""
    rows = [_span_rows((p,), d) for p in points]
    return QMatrix.from_ints(comb(m + d, m), [n for (n,), _ in rows], [D for _, D in rows])


def _mul_dicts(a: Dict[MultiIndex, int], b: Dict[MultiIndex, int]) -> Dict[MultiIndex, int]:
    out: Dict[MultiIndex, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def product_expand(factors: Iterable[tuple]) -> Form:
    """Exact product of (form_or_linear, exponent) factors.

    All factors must share the same m.  Integer term dicts are multiplied,
    each factor's over its own denominator D_f, then divided by prod D_f^e.
    """
    factors = list(factors)
    if not factors:
        raise InputError("product_expand needs at least one factor")
    m = None
    acc: Dict[MultiIndex, int] = {}
    den = 1
    total = 0
    for obj, e in factors:
        if e < 0:
            raise InputError("negative exponent")
        f = obj.to_form() if isinstance(obj, LinearForm) else obj
        if not isinstance(f, Form):
            raise InputError(f"not a form: {obj!r}")
        if m is None:
            m = f.m
            acc = {(0,) * (m + 1): 1}
        elif f.m != m:
            raise InputError("mixed variable counts in product")
        (nums,), D = _clear_denominators([f.coeffs])
        terms = {a: n for a, n in zip(monomial_basis(m, f.d), nums) if n}
        for _ in range(e):
            acc = _mul_dicts(acc, terms)
        den *= D**e
        total += e * f.d
    return Form.from_dict(m, total, {a: Fraction(n, den) for a, n in acc.items()})


@dataclass(frozen=True)
class Summand:
    """The term coeff * linear^d of a power-sum decomposition."""

    coeff: Fraction
    linear: LinearForm


@dataclass(frozen=True)
class DecompositionRecord:
    """An exact identity target = sum of summands; verified on construction,
    n * q == p * den for each sum coefficient n / den and target p / q."""

    m: int
    d: int
    summands: tuple[Summand, ...]
    target: Form

    def __post_init__(self):
        if not self.summands:
            raise InputError("decomposition needs at least one summand")
        ms = {s.linear.m for s in self.summands} | {self.target.m}
        if ms != {self.m} or self.target.d != self.d:
            raise InputError("decomposition and target live in different spaces")
        nums, den = self._sum()
        if any(n * q.denominator != q.numerator * den for n, q in zip(nums, self.target.coeffs)):
            raise InputError("decomposition does not re-expand to its target")

    def _sum(self) -> tuple[list[int], int]:
        return power_sum(self.m, self.d, ((s.coeff, s.linear.coeffs) for s in self.summands))

    def expand(self) -> Form:
        return Form.from_ints(self.m, self.d, *self._sum())

    @property
    def size(self) -> int:
        return len(self.summands)


@lru_cache(maxsize=None)
def _factorial_weights(m: int, d: int) -> tuple[int, ...]:
    """prod_i alpha_i! for alpha in monomial_basis(m, d)."""
    fact = [factorial(k) for k in range(d + 1)]
    return tuple(prod(fact[x] for x in alpha) for alpha in monomial_basis(m, d))


@lru_cache(maxsize=None)
def _contraction_plan(
    m: int, d: int, a: int
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The (indices, factors) pair of each row of ``_contraction_rows``; the
    indices alone are the rows of ``hankel_index``."""
    index = monomial_index(m, d)
    weights = _factorial_weights(m, d)
    cols = tuple(zip(monomial_basis(m, d - a), _factorial_weights(m, d - a)))
    plan = []
    for gamma in monomial_basis(m, a):
        idx = tuple(index[tuple(map(add, gamma, beta))] for beta, _ in cols)
        plan.append((idx, tuple(weights[i] // wb for i, (_, wb) in zip(idx, cols))))
    return tuple(plan)


def _contraction_rows(F: Form, a: int) -> QMatrix:
    """Rows d^gamma F for gamma in the degree-a basis (0 <= a <= d), over
    the degree-(d-a) basis: entry (gamma, beta) = f[gamma+beta] *
    (gamma+beta)!/beta!, with alpha! = prod_i alpha_i!.

    The plan, cached per (m, d, a), holds for each gamma the indices of
    gamma+beta in the degree-d basis and the integer factors
    (gamma+beta)!/beta!, each one floor division of two cached factorial
    weights; it is exact because beta <= gamma+beta coordinatewise, so
    every beta_i! divides (gamma_i+beta_i)!.  F's coefficients are cleared
    to integer numerators over one denominator D once, and a row is its
    gathered numerators times its factors, over D.
    """
    (nums,), D = _clear_denominators([F.coeffs])
    plan = _contraction_plan(F.m, F.d, a)
    rows = [list(map(mul, map(nums.__getitem__, idx), factors)) for idx, factors in plan]
    return QMatrix.from_ints(comb(F.m + F.d - a, F.m), rows, [D] * len(rows))


def hankel_values(F: Form) -> tuple[int, ...]:
    """G_alpha = n_alpha * alpha! for alpha in the degree-d basis, where
    n_alpha / D are F's coefficients over one common denominator D: the
    values Lambda(x^alpha) = f_alpha * alpha! of F's apolar functional,
    times D.

    Gathered by ``hankel_index(m, d, a)``, they give the Hankel matrix
    H_a[gamma, beta] = G[gamma+beta] (Brachat, Comon, Mourrain & Tsigaridas,
    "Symmetric tensor decomposition", 2010), which is the numerator matrix
    of ``catalecticant_matrix(F, a)`` with column beta multiplied by beta!:
    the same rank over Q, from C(m+d, m) values instead of one product per
    entry.
    """
    (nums,), _ = _clear_denominators([F.coeffs])
    return tuple(map(mul, nums, _factorial_weights(F.m, F.d)))


def hankel_index(m: int, d: int, a: int) -> tuple[tuple[int, ...], ...]:
    """Row gamma of the order-a Hankel matrix as indices into
    ``hankel_values``: the degree-d index of gamma+beta for each beta in
    the degree-(d-a) basis, as the cached contraction plan holds them."""
    return tuple(idx for idx, _ in _contraction_plan(m, d, a))


def catalecticant_matrix(F: Form, a: int) -> QMatrix:
    """Contraction pairing of degree-a differential operators against F.

    Rows are indexed by the degree-a monomial basis (as operators), columns
    by the degree-(d-a) basis; entry (gamma, beta) is the coefficient of
    x^beta in d^gamma F, f[gamma+beta] * prod_i (gamma_i+beta_i)! / beta_i!.
    Its rank is a lower bound for the border rank of F and never exceeds
    the size of any power-sum decomposition.
    """
    if not 1 <= a <= F.d - 1:
        raise InputError("catalecticant needs 1 <= a <= d-1")
    return _contraction_rows(F, a)


# Canonical rational strings ("p/q" in lowest terms, q > 0; integers drop
# the "/1") used by every JSON interface in the package.

def rat_to_str(x: Fraction) -> str:
    return str(Fraction(x))


def rat_from_str(s: str) -> Fraction:
    return _q(s)


def rat_from_json(x) -> Fraction:
    """A rational given as a string or a JSON integer; floats and bools are
    refused rather than rounded."""
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str):
        return rat_from_str(x)
    raise InputError(f"rational must be a string or an integer, got {x!r}")


def int_from_json(obj: dict, key: str) -> int:
    """The JSON integer obj[key]; floats, bools and strings are refused."""
    v = obj[key]
    if type(v) is not int:
        raise InputError(f"{key!r} must be an integer, got {v!r}")
    return v


def list_from_json(x, what: str) -> list:
    """A JSON array; a string is refused rather than read character by
    character."""
    if not isinstance(x, list):
        raise InputError(f"{what} must be a list, got {x!r}")
    return x


def form_to_json(F: Form) -> dict:
    return {
        "m": F.m,
        "d": F.d,
        "coeffs": [rat_to_str(c) for c in F.coeffs],
        "order": "grlex",
    }


def form_from_json(obj: dict) -> Form:
    try:
        m, d = int_from_json(obj, "m"), int_from_json(obj, "d")
        coeffs = [rat_from_json(c) for c in list_from_json(obj["coeffs"], "'coeffs'")]
        order = obj.get("order", "grlex")
    except (KeyError, TypeError) as e:
        raise InputError(f"malformed form JSON: {e}") from None
    if order != "grlex":
        raise InputError(f"unsupported monomial order {order!r}")
    return Form.from_coeffs(m, d, coeffs)
