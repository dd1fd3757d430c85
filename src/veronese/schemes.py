"""Zero-dimensional subschemes of P^m and their degree-d interpolation data.

Four component kinds are supported:

* ``Reduced``       a single rational point;
* ``Jet``           a connected curvilinear component of degree k, stored as
                    the first k coefficient vectors of a parametrized smooth
                    curve germ c(t) = c0 + c1 t + ... (c0 != 0, c1 independent
                    of c0); the scheme is the length-k divisor at t = 0;
* ``FatPoint``      the (k-1)-st infinitesimal neighborhood of a point, cut
                    out by the k-th power of the point's ideal;
* ``TwoThreePoint`` the degree 2m+1 scheme attached to a point Q on a line L,
                    cut out by (I_Q)^3 + (I_L)^2; it sits between the double
                    and the triple point of Q.

Jets make spans computable in exact arithmetic: the rows spanned by the
degree-d image of a length-k jet are the t^0..t^(k-1) coefficients of
(c(t) . x)^d.  Conditions matrices collect the dual functionals (point
evaluation, jet coefficient extraction, and the derivatives at fat points
and (2,3)-points), and h1 = degree - rank measures the failure to impose
independent conditions.  Point values come from one integer power table
p^alpha per point and degree, and a jet's rows from one power table of its
Kronecker-packed coordinate series (``forms._jet_rows``); a derivative row
scatters a point's table, times the factors of ``forms._contraction_plan``,
into its columns, and a (2,3)-point row is a sum of whole scaled derivative
rows.  A scheme of degree above ``forms.MAX_MONOMIALS`` is refused by span
and conditions matrices alike, as a degree with more monomials is.
The rank is proved by a rank probe modulo a prime, which bounds it from
below, and, when the probe is not full, by exact kernel vectors lifted from
that prime, which bound it from above; Bareiss elimination decides only
when that proof fails.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from operator import add, mul
from typing import List, Sequence, Tuple, Union

from .errors import InputError, UnsupportedComponentError
from .forms import (
    MAX_MONOMIALS,
    _contraction_plan,
    _jet_rows,
    _power_table,
    _span_rows,
    monomial_basis,
    monomial_index,
    int_from_json,
    list_from_json,
    rat_from_json,
    rat_to_str,
)
from .rationalla import (
    QMatrix,
    _clear_denominators,
    rank_exact,
    rank_with_fastpath,
)

Vector = Tuple[Fraction, ...]


def _vec_from_json(xs, what: str) -> Vector:
    return tuple(rat_from_json(x) for x in list_from_json(xs, what))


def _dependent(u: Sequence[Fraction], v: Sequence[Fraction]) -> bool:
    """Rank of (u; v) is at most 1: every 2x2 minor u_i v_j - u_j v_i is 0.
    Vectors of unequal length are refused."""
    n = len(u)
    if len(v) != n:
        raise InputError(f"vectors of unequal length {n} and {len(v)}")
    return all(u[i] * v[j] == u[j] * v[i] for i in range(n) for j in range(i + 1, n))


@dataclass(frozen=True)
class Reduced:
    point: Vector

    def __post_init__(self):
        if all(c == 0 for c in self.point):
            raise InputError("reduced point must be nonzero")

    @property
    def support(self) -> Vector:
        return self.point

    @property
    def curve(self) -> tuple[Vector]:
        """The constant germ c(t) = point: a reduced point is a length-1 jet."""
        return (self.point,)

    def degree(self, m: int) -> int:
        return 1


@dataclass(frozen=True)
class Jet:
    curve: tuple[Vector, ...]

    def __post_init__(self):
        if len(self.curve) < 2:
            raise InputError("jet needs length >= 2 (use Reduced for length 1)")
        c0, c1 = self.curve[0], self.curve[1]
        if all(c == 0 for c in c0):
            raise InputError("jet support c0 must be nonzero")
        if _dependent(c0, c1):
            raise InputError("jet needs c1 independent of c0 (smooth germ)")

    @property
    def length(self) -> int:
        return len(self.curve)

    @property
    def support(self) -> Vector:
        return self.curve[0]

    def degree(self, m: int) -> int:
        return self.length


@dataclass(frozen=True)
class FatPoint:
    point: Vector
    multiplicity: int

    def __post_init__(self):
        if all(c == 0 for c in self.point):
            raise InputError("fat point support must be nonzero")
        if self.multiplicity < 2:
            raise InputError("fat point multiplicity must be >= 2")

    @property
    def support(self) -> Vector:
        return self.point

    def degree(self, m: int) -> int:
        return comb(m + self.multiplicity - 1, m)


@dataclass(frozen=True)
class TwoThreePoint:
    point: Vector
    direction: Vector

    def __post_init__(self):
        if all(c == 0 for c in self.point):
            raise InputError("support must be nonzero")
        if _dependent(self.point, self.direction):
            raise InputError("line direction must be independent of the point")

    @property
    def support(self) -> Vector:
        return self.point

    def degree(self, m: int) -> int:
        return 2 * m + 1


Component = Union[Reduced, Jet, FatPoint, TwoThreePoint]


@dataclass(frozen=True)
class SchemeSpec:
    """A disjoint union of components in P^m (supports pairwise distinct).

    The empty scheme is allowed.
    """

    m: int
    components: tuple[Component, ...]

    def __post_init__(self):
        if self.m < 1:
            raise InputError("ambient dimension m must be >= 1")
        for i, comp in enumerate(self.components):
            vecs = comp.curve if isinstance(comp, Jet) else (comp.support,)
            if isinstance(comp, TwoThreePoint):
                vecs = (comp.point, comp.direction)
            for v in vecs:
                if len(v) != self.m + 1:
                    raise InputError(
                        f"component {i}: coordinate length {len(v)} != m+1"
                    )
        # nonzero supports share a point when they agree divided by their lead
        groups: dict[Vector, list[int]] = {}
        for i, comp in enumerate(self.components):
            lead = Fraction(next(x for x in comp.support if x))
            groups.setdefault(tuple(x / lead for x in comp.support), []).append(i)
        shared = [g for g in groups.values() if len(g) > 1]
        if shared:
            i, j = min(shared)[:2]
            raise InputError(f"components {i} and {j} share a support")


def scheme_degree(Z: SchemeSpec) -> int:
    return sum(c.degree(Z.m) for c in Z.components)


# ---------------------------------------------------------------------------
# matrix builders: integer power tables, one division per entry


def _refuse_rows_past_cap(Z: SchemeSpec, what: str) -> None:
    """A scheme of degree above MAX_MONOMIALS has more rows than any matrix
    may have columns; it is refused before any row is built."""
    degree = scheme_degree(Z)
    if degree > MAX_MONOMIALS:
        raise InputError(f"scheme degree {degree} exceeds {MAX_MONOMIALS} {what} rows")


def span_matrix(Z: SchemeSpec, d: int) -> QMatrix:
    """Rows spanning the degree-d image of a curvilinear scheme: the jet
    rows with column beta scaled by multinomial(d, beta).  A scheme of
    degree above MAX_MONOMIALS is refused before any row is built."""
    if d < 1:
        raise InputError("span_matrix needs d >= 1")
    _refuse_rows_past_cap(Z, "span")
    ncols = len(monomial_basis(Z.m, d))
    nums: list = []
    dens: list = []
    for comp in Z.components:
        if not isinstance(comp, (Reduced, Jet)):
            raise UnsupportedComponentError(
                f"span is defined for curvilinear components only, got {type(comp).__name__}"
            )
        rows, den = _span_rows(comp.curve, d)
        nums.extend(rows)
        dens.extend([den] * len(rows))
    return QMatrix.from_ints(ncols, nums, dens)


def _chart_index(point: Vector) -> int:
    best, best_abs = 0, abs(point[0])
    for i, c in enumerate(point):
        if abs(c) > best_abs:
            best, best_abs = i, abs(c)
    return best


def _derivative_rows(m: int, p: Sequence[int], gammas, d: int) -> list[list[int]]:
    """Integer rows of the functionals x^beta -> d^gamma x^beta (p) over the
    degree-d basis, one row per gamma, at an integer vector p:

        entry (gamma, gamma + beta') = (gamma + beta')! / beta'! * p^beta',

    zero off the columns gamma + beta', and zero throughout when |gamma| > d.
    Row gamma of ``_contraction_plan(m, d, |gamma|)`` holds those columns
    and factors for beta' in the degree-(d - |gamma|) basis, so each row
    scatters one power table of that degree times the plan's factors.
    """
    ncols = len(monomial_basis(m, d))
    tables: dict[int, list[int]] = {}
    rows = []
    for gamma in gammas:
        a = sum(gamma)
        row = [0] * ncols
        if a <= d:
            if a not in tables:
                tables[a] = _power_table(p, d - a)
            idx, factors = _contraction_plan(m, d, a)[monomial_index(m, a)[gamma]]
            for i, x in zip(idx, map(mul, tables[a], factors)):
                row[i] = x
        rows.append(row)
    return rows


def _fat_condition_block(m: int, point: Vector, k: int, d: int):
    """Derivative functionals of order < k at the point, taken in the affine
    chart where the largest coordinate is normalized to 1; numerator rows
    and row denominators.

    gamma ranges over exponents with gamma_chart = 0 and |gamma| < k.  With
    p the integer numerators of the point and c the chart, row gamma is the
    derivative row of p over p_c^(d - |gamma|).
    """
    chart = _chart_index(point)
    (p,), _ = _clear_denominators([point])
    gammas = [
        g[:chart] + (0,) + g[chart:] for j in range(k) for g in monomial_basis(m - 1, j)
    ]
    # max(..., 0): rows with |gamma| > d are zero
    dens = [p[chart] ** max(d - sum(gamma), 0) for gamma in gammas]
    return _derivative_rows(m, p, gammas, d), dens


def _complete_basis(m: int, vectors: List[Vector]) -> List[Vector]:
    """Greedily extend given independent vectors to a basis of K^(m+1)
    using standard basis vectors, in index order."""
    chosen = list(vectors)
    for i in range(m + 1):
        if len(chosen) == m + 1:
            break
        e = tuple(Fraction(int(j == i)) for j in range(m + 1))
        if rank_exact(QMatrix.from_rows(chosen + [e])) > len(chosen):
            chosen.append(e)
    if len(chosen) != m + 1:
        raise InputError("could not complete to a basis")
    return chosen


def _two_three_condition_block(m: int, comp: TwoThreePoint, d: int):
    """The 2m+1 functionals F -> (D_{u1} ... D_{ur} F)(Q) dual to the local
    quotient basis of (I_Q)^3 + (I_L)^2, in coordinates adapted to the point
    Q and the line direction V: (), (V), (V, V), then (w), (V, w) for each w
    completing Q, V to a basis.

    D_{u1} ... D_{ur} = sum over i_1..i_r of prod_s u_s[i_s] d_{i1} ... d_{ir},
    applied to the derivative rows of q = D_Q Q; on the direction numerators
    u = D_U u the row is over D_U^r D_Q^(d - r).  Returns numerator rows and
    row denominators.
    """
    ws = _complete_basis(m, [comp.point, comp.direction])[2:]
    (q,), DQ = _clear_denominators([comp.point])
    (v, *ws), DU = _clear_denominators([comp.direction, *ws])
    ops, dens = [], []
    for dirs in [(), (v,), (v, v)] + [f for w in ws for f in ((w,), (v, w))]:
        op = Counter()  # gamma -> coefficient of d^gamma
        for idx in itertools.product(range(m + 1), repeat=len(dirs)):
            op[tuple(idx.count(i) for i in range(m + 1))] += prod(u[i] for u, i in zip(dirs, idx))
        ops.append([(g, c) for g, c in op.items() if c])
        dens.append(DU ** len(dirs) * DQ ** max(d - len(dirs), 0))
    gammas = sorted({g for op in ops for g, _ in op})
    table = dict(zip(gammas, _derivative_rows(m, q, gammas, d)))
    rows = []
    for (g, c), *rest in ops:
        row = [c * x for x in table[g]]
        for g, c in rest:
            row = list(map(add, row, map(c.__mul__, table[g])))
        rows.append(row)
    return rows, dens


def conditions_matrix(Z: SchemeSpec, d: int) -> QMatrix:
    """Linear functionals on degree-d forms cutting out the forms through Z.

    One block per component: evaluation for reduced points, jet coefficient
    extraction, derivatives of order < k for fat points, and the adapted
    derivative functionals for (2,3)-points.  A scheme of degree above
    MAX_MONOMIALS is refused before any row is built, as a degree with more
    columns is.
    """
    if d < 1:
        raise InputError("conditions_matrix needs d >= 1")
    _refuse_rows_past_cap(Z, "conditions")
    ncols = len(monomial_basis(Z.m, d))
    nums: list = []
    dens: list = []
    for comp in Z.components:
        if isinstance(comp, (Reduced, Jet)):
            rows, den = _jet_rows(comp.curve, d)
            block = rows, [den] * len(rows)
        elif isinstance(comp, FatPoint):
            block = _fat_condition_block(Z.m, comp.point, comp.multiplicity, d)
        elif isinstance(comp, TwoThreePoint):
            block = _two_three_condition_block(Z.m, comp, d)
        else:  # pragma: no cover
            raise UnsupportedComponentError(type(comp).__name__)
        nums.extend(block[0])
        dens.extend(block[1])
    return QMatrix.from_ints(ncols, nums, dens)


def h1(Z: SchemeSpec, d: int) -> int:
    """Superabundance of the degree-d interpolation problem: deg - rank.

    The rank is proved by ``rank_with_fastpath``: a full-rank probe modulo
    a prime is exact, a lower probe rank r is proved by exact kernel vectors
    lifted from that prime, and only a failed proof goes to Bareiss.
    """
    return scheme_degree(Z) - rank_with_fastpath(conditions_matrix(Z, d))


def linearly_general(Z: SchemeSpec, k: int) -> bool:
    """Every degree-k subscheme of a curvilinear Z spans a P^(k-1).

    A subscheme of a curvilinear scheme is a choice of truncations, the first
    a_i curve vectors of each component, so this requires every choice with
    sum a_i = k to be linearly independent in degree 1.  With k = m+1 it is
    linearly general position: no hyperplane meets Z in degree > m.  With
    k = 3 it is the line criterion: no line meets Z in degree >= 3, since such
    a line holds a degree-3 truncation, whose span is then at most a line.
    """
    if not all(isinstance(comp, (Reduced, Jet)) for comp in Z.components):
        raise UnsupportedComponentError("subscheme enumeration needs curvilinear components")
    blocks = [[list(v) for v in comp.curve] for comp in Z.components]
    caps = [len(b) for b in blocks]
    if sum(caps) < k:
        return True

    def rec(i: int, remaining: int, rows: list) -> bool:
        if remaining == 0:
            return rank_exact(QMatrix.from_rows(rows)) == k
        lo = max(0, remaining - sum(caps[i + 1 :]))
        hi = min(caps[i], remaining)
        for a in range(lo, hi + 1):
            if not rec(i + 1, remaining - a, rows + blocks[i][:a]):
                return False
        return True

    return rec(0, k, [])


# ---------------------------------------------------------------------------
# random configurations (explicit generator, integer coordinates in [-B, B])


def random_vector(rng: random.Random, m: int, bound: int) -> Vector:
    if bound < 1:
        raise InputError("coordinate bound must be >= 1")
    while True:
        v = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(m + 1))
        if any(c != 0 for c in v):
            return v


def random_reduced(rng: random.Random, m: int, bound: int) -> Reduced:
    return Reduced(random_vector(rng, m, bound))


def random_jet_on_line(
    rng: random.Random, m: int, bound: int, length: int
) -> Jet:
    """Length-k jet on a random line: c(t) = Q + t V, with Q and V drawn
    again until they are independent.  Every random line of the package
    (line jets, tangent vectors, (2,3)-points) is drawn here."""
    while True:
        q = random_vector(rng, m, bound)
        v = random_vector(rng, m, bound)
        if not _dependent(q, v):
            break
    zero = tuple(Fraction(0) for _ in range(m + 1))
    return Jet((q, v) + (zero,) * (length - 2))


def random_jet_on_conic(rng: random.Random, m: int, bound: int, length: int = 3) -> Jet:
    """Jet on a parametrized smooth conic c(t) = Q + t V + t^2 W with
    Q, V, W linearly independent (a non-collinear germ), which needs m >= 2:
    three vectors of K^2 are always dependent."""
    if length < 2:
        raise InputError("jets need length >= 2")
    if m < 2:
        raise InputError("a conic needs m >= 2")
    while True:
        q = random_vector(rng, m, bound)
        v = random_vector(rng, m, bound)
        w = random_vector(rng, m, bound)
        if rank_exact(QMatrix.from_rows([q, v, w])) == 3:
            break
    zero = tuple(Fraction(0) for _ in range(m + 1))
    curve = (q, v, w)[:length] + (zero,) * max(0, length - 3)
    return Jet(curve)


def random_fat_point(rng: random.Random, m: int, bound: int, k: int) -> FatPoint:
    return FatPoint(random_vector(rng, m, bound), k)


def random_two_three(rng: random.Random, m: int, bound: int) -> TwoThreePoint:
    return TwoThreePoint(*random_jet_on_line(rng, m, bound, 2).curve)


def assemble_scheme(m: int, components: Sequence[Component]):
    """SchemeSpec from components, or None when supports collide."""
    try:
        return SchemeSpec(m, tuple(components))
    except InputError:
        return None


# ---------------------------------------------------------------------------
# JSON round-trip


def _component_to_json(comp: Component) -> dict:
    if isinstance(comp, Reduced):
        return {"kind": "reduced", "point": [rat_to_str(c) for c in comp.point]}
    if isinstance(comp, Jet):
        return {
            "kind": "jet",
            "curve": [[rat_to_str(c) for c in v] for v in comp.curve],
        }
    if isinstance(comp, FatPoint):
        return {
            "kind": "fat",
            "point": [rat_to_str(c) for c in comp.point],
            "multiplicity": comp.multiplicity,
        }
    if isinstance(comp, TwoThreePoint):
        return {
            "kind": "two_three",
            "point": [rat_to_str(c) for c in comp.point],
            "direction": [rat_to_str(c) for c in comp.direction],
        }
    raise UnsupportedComponentError(type(comp).__name__)


def scheme_to_json(Z: SchemeSpec) -> dict:
    return {"m": Z.m, "components": [_component_to_json(c) for c in Z.components]}


def _component_from_json(i: int, obj: dict) -> Component:
    try:
        kind = obj["kind"]
        if kind == "reduced":
            return Reduced(_vec_from_json(obj["point"], "'point'"))
        if kind == "jet":
            curve = list_from_json(obj["curve"], "'curve'")
            return Jet(tuple(_vec_from_json(v, "a curve vector") for v in curve))
        if kind == "fat":
            return FatPoint(
                _vec_from_json(obj["point"], "'point'"),
                int_from_json(obj, "multiplicity"),
            )
        if kind == "two_three":
            return TwoThreePoint(
                _vec_from_json(obj["point"], "'point'"),
                _vec_from_json(obj["direction"], "'direction'"),
            )
        raise InputError(f"unknown component kind {kind!r}")
    except (KeyError, TypeError, InputError) as e:
        raise InputError(f"component {i}: {e}") from None


def scheme_from_json(obj: dict) -> SchemeSpec:
    try:
        m = int_from_json(obj, "m")
        comps = obj["components"]
    except (KeyError, TypeError) as e:
        raise InputError(f"malformed scheme JSON: {e}") from None
    if not isinstance(comps, list) or not comps:
        raise InputError("scheme JSON needs a non-empty components list")
    return SchemeSpec(m, tuple(_component_from_json(i, c) for i, c in enumerate(comps)))
