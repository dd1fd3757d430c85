"""Constructions of points in named strata and machine-checkable certificates.

Every certificate is a list of claims, each backed by exact rank
computations; a certificate only exists when all of its claims passed.
A span's independence, membership and exclusion claims come from one
``membership_solve`` on its span matrix, which returns the rank it proves.
Border ranks are certified through the uniqueness criterion (twice the
scheme degree at most d+1) or through the line-intersection criterion
(degree at most 2 on every line), and cross-checked against catalecticant
flattening ranks.  Rank upper bounds are certified by explicit power-sum
decompositions that re-expand, with zero tolerance, to the target form.
Rank lower bounds beyond flattening are out of scope by design.

Seeded constructions draw from one ``random.Random(seed)`` through
``_resample``: a draw that hits a degenerate sample (colliding supports, a
singular frame, a claim refused by ``_span_claims``) is drawn again, at most
MAX_ATTEMPTS times in all, and then ResampleExhausted is raised.  A claim
that an earlier rejection already forces is recorded as passed.  A
self-check that holds by construction (a decomposition's re-expansion, the
tangent normal form, the line-jet Sylvester cross-check) is never
resampled: its failure raises InternalInconsistency naming the check.

The line-jet, tangent and conic constructions meet two spans on the image
of one line or conic in its own coordinates (``binary.curve_relations``)
and expand only their common point in the monomials of P^m.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, prod
from typing import Callable, List, Optional, Sequence, TypeVar

from .binary import curve_relations, sylvester_binary
from .errors import (
    CertificateRefused,
    InputError,
    InternalInconsistency,
    ResampleExhausted,
)
from .forms import (
    DecompositionRecord,
    Form,
    LinearForm,
    Summand,
    catalecticant_matrix,
    form_to_json,
    hankel_index,
    hankel_values,
    monomial_basis,
    power_rows,
    power_sum,
    product_expand,
    rat_to_str,
)
from .rationalla import (
    GatheredMatrix,
    QMatrix,
    membership_solve,
    rank_exact,
    rank_with_fastpath,
)
from .schemes import (
    FatPoint,
    Jet,
    Reduced,
    SchemeSpec,
    TwoThreePoint,
    assemble_scheme,
    h1,
    linearly_general,
    random_fat_point,
    random_jet_on_conic,
    random_jet_on_line,
    random_reduced,
    random_two_three,
    random_vector,
    scheme_degree,
    scheme_to_json,
    span_matrix,
)
from .strata import StratumLabel, sigma_stratum_dim

MAX_ATTEMPTS = 64
MAX_CONIC_BOUND = 20  # the conic construction's coordinate and parameter box
T = TypeVar("T")


# ---------------------------------------------------------------------------
# certificates and flattening


@dataclass(frozen=True)
class Claim:
    statement: str
    ranks: tuple[int, ...]
    passed: bool


@dataclass(frozen=True)
class Certificate:
    kind: str  # border_rank | rank_upper | uniqueness | dimension
    value: Optional[int]
    claims: tuple[Claim, ...]
    scheme: Optional[SchemeSpec] = None
    seed: Optional[int] = None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims)


def flattening_rank(P: Form, t: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Max catalecticant rank over a = 1..floor(d/2), a border-rank lower
    bound, of a form P proved to lie in the span of nu_d(Z) with deg Z = t.

    By the apolarity lemma (Iarrobino and Kanev, "Power Sums, Gorenstein
    Algebras, and Determinantal Loci", 1999, Lemma 1.15) I_Z(a) lies in the
    kernel of Cat_a(P), so rank Cat_a(P) <= h_Z(a) <= t, and
    ``rank_with_fastpath`` with cap t settles it.  A rank above t contradicts
    the membership and raises InternalInconsistency.

    Each order is probed on the Hankel matrix G[gamma+beta] of P's values
    (``hankel_values``, ``hankel_index``), which is Cat_a(P)'s numerator
    matrix with column beta multiplied by beta!, so it has the same rank;
    ``catalecticant_matrix(P, a)`` is built only when its probe falls short
    of the cap, for the exact check of the kernel vectors that prove the
    lower rank (and for Bareiss, should that proof fail).
    """
    orders = range(1, P.d // 2 + 1)
    hankels = GatheredMatrix.gather(
        hankel_values(P),
        ((hankel_index(P.m, P.d, a), partial(catalecticant_matrix, P, a)) for a in orders),
    )
    per_a = []
    best = 0
    for a, H in zip(orders, hankels):
        r = rank_with_fastpath(H, cap=t)
        if r > t:
            raise InternalInconsistency(
                f"flattening rank {r} exceeds certified degree {t}"
            )
        per_a.append((a, r))
        best = max(best, r)
    return best, tuple(per_a)


# ---------------------------------------------------------------------------
# small helpers


def _resample(what: str, draw: Callable[[], Optional[T]]) -> T:
    """The first result of ``draw`` that is not None.

    None marks a degenerate sample, and so does a CertificateRefused from
    ``_span_claims``; either one draws again, at most MAX_ATTEMPTS times in
    all.  Every draw shares the caller's generator, so a seed fixes the
    whole sequence.
    """
    for _ in range(MAX_ATTEMPTS):
        try:
            result = draw()
        except CertificateRefused:
            continue
        if result is not None:
            return result
    raise ResampleExhausted(f"{what} kept hitting degenerate samples")


def _dominating(Z: SchemeSpec) -> SchemeSpec:
    """Z with each (2,3)-point and each degree-3 jet replaced by the triple
    point at its support, which contains it; when this scheme has h1 = 0,
    so has Z."""
    return SchemeSpec(
        Z.m,
        tuple(
            FatPoint(c.support, 3)
            if isinstance(c, TwoThreePoint) or (isinstance(c, Jet) and c.length == 3)
            else c
            for c in Z.components
        ),
    )


def _nonzero_int(rng: random.Random, bound: int) -> int:
    while True:
        v = rng.randint(-bound, bound)
        if v != 0:
            return v


_SMALL_BOUND = "bound too small for the requested point count"


def _check_line_count(n_line: int, bound: int) -> None:
    """n_line line parameters leave a choice among -bound..-1, 1..bound.  At
    n_line = 2 * bound they are all of them, so sum_i 1/z_i = 0, and then
    beta_(k-2) = beta_(k-1) * sum_i 1/z_i = 0 rejects every draw."""
    if n_line >= 2 * bound:
        raise InputError(_SMALL_BOUND)


def _distinct_nonzero_ints(rng: random.Random, count: int, bound: int) -> list[int]:
    """rng.sample of count values from -bound..-1, 1..bound, drawn by index
    so that no list of all 2 * bound values is built."""
    if count > 2 * bound:
        raise InputError(_SMALL_BOUND)
    return [j - bound + (j >= bound) for j in rng.sample(range(2 * bound), count)]


def _point_on_line(Q0, V, z) -> tuple[Fraction, ...]:
    return tuple(q + Fraction(z) * v for q, v in zip(Q0, V))


def _exclusion_claim(Z: SchemeSpec, coeffs: Sequence[Fraction]) -> Claim:
    """The target avoids every proper subscheme span of a curvilinear Z, read
    off its coefficients on the span rows of Z, which must be independent.

    The coefficients are then unique, so a truncation's span holds the target
    exactly when the dropped coefficients vanish: the target avoids all
    prod(k_i + 1) - 1 of them exactly when the last coefficient of every
    component block is nonzero.
    """
    lengths = [comp.degree(Z.m) for comp in Z.components]
    count = prod(k + 1 for k in lengths) - 1
    passed = all(coeffs[end - 1] != 0 for end in itertools.accumulate(lengths))
    return Claim(
        f"target lies outside all {count} proper subscheme spans", (count,), passed
    )


def _require(claims: List[Claim], claim: Claim) -> None:
    claims.append(claim)
    if not claim.passed:
        raise CertificateRefused(claim.statement, claim.ranks)


def _span_claims(
    Z: SchemeSpec, S: QMatrix, P: Form, independence: str, nonzero: bool = True
) -> List[Claim]:
    """Independence, membership and exclusion claims for a curvilinear Z with
    span matrix S and target P, all from one ``membership_solve``, which
    proves the rank of S and gives P's coefficients on its rows.

    h1 = deg Z - rank S, because the conditions rows are the span rows with
    column beta scaled by multinomial(d, beta) != 0.  With ``nonzero`` the
    membership claim also asks every coefficient to be nonzero.  Raises
    CertificateRefused at the first failed claim, so exclusion is only read
    off independent rows.
    """
    t = scheme_degree(Z)
    claims: List[Claim] = []
    r, sol = membership_solve(S, P.coeffs)
    _require(claims, Claim(independence, (r, t - r), r == t))
    if nonzero:
        statement = "target lies in the span with all coefficients nonzero"
        passed = sol is not None and all(c != 0 for c in sol)
    else:
        statement = "target form lies in the span of the scheme"
        passed = sol is not None
    _require(claims, Claim(statement, (t,), passed))
    _require(claims, _exclusion_claim(Z, sol))
    return claims


def _decomposition_claims(
    P: Form,
    coeffs: Sequence[Fraction],
    points: Sequence[Sequence[Fraction]],
    t: int,
    rank_statement: str,
) -> tuple[DecompositionRecord, List[Claim]]:
    """The record P = sum_i coeffs[i] * (points[i] . x)^d with its size, rank
    and budget claims, for a target of border rank t.

    The decomposition is built to re-expand to P, so a record that does not
    is a failed self-check and raises InternalInconsistency.
    """
    summands = tuple(Summand(c, LinearForm(P.m, p)) for c, p in zip(coeffs, points))
    try:
        record = DecompositionRecord(P.m, P.d, summands, P)
    except InputError as e:
        raise InternalInconsistency(f"self-check failed: {e}") from None
    r, d = record.size, P.d
    return record, [
        Claim(f"decomposition of size {r} re-expands exactly to the target", (r,), True),
        Claim(rank_statement, (r,), True),
        Claim(f"budget: b + r = {t + r} <= 3d-2 = {3 * d - 2}", (), t + r <= 3 * d - 2),
    ]


def _sample_jet_on_line(
    rng: random.Random,
    m: int,
    d: int,
    bound: int,
    k: int,
    s: int,
    n_line: int,
    general: bool = False,
):
    """One draw of a length-k jet on a random line Q0 + zV, s points off the
    line and n_line points of the line whose powers span a space meeting the
    jet span in a single point Q.

    Returns (Z, line_pts, alphas, betas, Q), where Q is the combination of the
    line powers with coefficients alphas and of the jet span rows with betas,
    all nonzero; None for a degenerate draw.  With ``general`` Z must also be
    in linearly general position.

    The relation is ``curve_relations`` of the points (z, 1) and the jet
    (0, k) of the line s -> Q0 + sV, whose image is sum_j s^j g_j with the
    independent g_j = C(d, j) (Q0.x)^(d-j) (V.x)^j.  At most d+1 distinct z
    give independent Vandermonde rows, so every relation has a nonzero jet
    part.  Only Q is expanded in the degree-d basis of P^m.
    """
    jet = random_jet_on_line(rng, m, bound, k)
    Q0, V = jet.curve[:2]
    pts = []
    for _ in range(s):
        p = random_vector(rng, m, bound)
        if rank_exact(QMatrix.from_rows([Q0, V, p])) != 3:
            return None
        pts.append(Reduced(p))
    Z = assemble_scheme(m, (jet,) + tuple(pts))
    if Z is None or (general and not linearly_general(Z, m + 1)):
        return None
    zs = _distinct_nonzero_ints(rng, n_line, bound)
    relations = curve_relations([(z, 1) for z in zs] + [(0, k)], d)
    if len(relations) != 1:
        return None
    alphas = relations[0][:n_line]
    betas = [-b for b in relations[0][n_line:]]
    if any(a == 0 for a in alphas) or any(b == 0 for b in betas):
        return None
    line_pts = [_point_on_line(Q0, V, z) for z in zs]
    Q = Form.from_ints(m, d, *power_rows(m, d, line_pts).combine(alphas))
    return Z, line_pts, alphas, betas, Q


def _plus_point_powers(
    rng: random.Random, Q: Form, pts: Sequence[Sequence[Fraction]], bound: int
) -> tuple[Form, list[Fraction]]:
    """Q plus a random nonzero multiple c_i of the d-th power of each point;
    returns the sum and the multiples."""
    cs = [Fraction(_nonzero_int(rng, bound)) for _ in pts]
    return Q + Form.from_ints(Q.m, Q.d, *power_sum(Q.m, Q.d, zip(cs, pts))), cs


# ---------------------------------------------------------------------------
# border-rank certification


def certify_border_rank(P: Form, Z: SchemeSpec, d: int) -> Certificate:
    """Certify the border rank of P against a curvilinear scheme Z.

    Claims, in order: the scheme imposes independent conditions; P lies in
    its span; P avoids every proper subscheme span; when twice the degree is
    at most d+1 (or the line-intersection criterion applies: every degree-3
    subscheme spans a plane) the scheme is the unique minimal one and the
    border rank equals its degree; the flattening rank agrees.  Any failed
    check raises CertificateRefused; a flattening disagreement raises
    InternalInconsistency.
    """
    if P.m != Z.m or P.d != d:
        raise InputError("form and scheme live in different spaces")
    t = scheme_degree(Z)
    claims = _span_claims(
        Z,
        span_matrix(Z, d),
        P,
        f"scheme of degree {t} imposes independent conditions in degree {d} (h1 = 0)",
        nonzero=False,
    )

    regime = 2 * t <= d + 1
    if regime:
        claims.append(
            Claim(
                f"border rank = {t}: unique minimal scheme "
                f"(uniqueness criterion 2*{t} <= {d}+1)",
                (t,),
                True,
            )
        )
    else:
        f1_ok = Z.m >= 2 and t <= d and linearly_general(Z, 3)
        if f1_ok:
            claims.append(
                Claim(
                    f"border rank = {t}: unique minimal scheme "
                    "(line-intersection criterion: degree <= 2 on every line)",
                    (t,),
                    True,
                )
            )
        else:
            claims.append(
                Claim(
                    f"membership only: border rank <= {t} "
                    "(uniqueness regime 2t <= d+1 not met)",
                    (t,),
                    True,
                )
            )
    # _span_claims has proved that P lies in the span of Z
    fr, per_a = flattening_rank(P, t)
    if regime:
        if fr != t:
            raise InternalInconsistency(
                f"flattening rank {fr} != scheme degree {t} in the uniqueness regime"
            )
        claims.append(
            Claim(
                f"flattening cross-check: max catalecticant rank = {t}",
                tuple(r for _, r in per_a),
                True,
            )
        )
    else:
        claims.append(
            Claim(
                f"flattening lower bound {fr} <= {t}",
                tuple(r for _, r in per_a),
                True,
            )
        )
    return Certificate("border_rank", t, tuple(claims), scheme=Z)


# ---------------------------------------------------------------------------
# constructors


def construct_stratum_point(
    m: int,
    d: int,
    label: StratumLabel,
    seed: int,
    bound: int = 50,
    non_collinear: bool = False,
) -> tuple[SchemeSpec, Form, Certificate]:
    """A random curvilinear scheme with the label's component degrees and a
    generic point of its span, certified.

    Jets sit on random lines; with ``non_collinear`` the degree-3 components
    sit on random smooth conics instead.  The border rank claim is certified
    when twice the degree is at most d+1, otherwise the certificate is
    membership-only.
    """
    # first, so that the CLI refuses such a flag before any other input check
    if non_collinear and 3 not in label.parts:
        raise InputError("--non-collinear needs a part 3 in --label")
    if m < 2 or d < 3:
        raise InputError("construct_stratum_point needs m >= 2, d >= 3")
    t = label.t
    if t < 2:
        raise InputError("label must have total degree >= 2")
    if any(p > d for p in label.parts):
        raise InputError("label parts must be <= d")
    if t > d + 1:
        raise InputError("total degree beyond d+1 can never be independent")
    rng = random.Random(seed)
    regime = 2 * t <= d + 1

    def draw():
        comps = []
        for p in label.parts:
            if p == 1:
                comps.append(random_reduced(rng, m, bound))
            elif p == 3 and non_collinear:
                comps.append(random_jet_on_conic(rng, m, bound, 3))
            else:
                comps.append(random_jet_on_line(rng, m, bound, p))
        Z = assemble_scheme(m, comps)
        if Z is None:
            return None
        S = span_matrix(Z, d)
        lam = [Fraction(_nonzero_int(rng, bound)) for _ in range(t)]
        P = Form.from_ints(m, d, *S.combine(lam))
        fr, per_a = flattening_rank(P, t)  # fr <= t, else it raises
        if regime and fr != t:
            return None
        claims = _span_claims(
            Z, S, P, f"scheme of degree {t} imposes independent conditions (h1 = 0)"
        )
        if regime:
            e1_flag = t <= (d - 1) // 2
            claims.append(
                Claim(
                    f"border rank = {t}: unique minimal scheme "
                    f"(criterion 2t <= d+1{'; strict uniqueness regime' if e1_flag else ''})",
                    (t,),
                    True,
                )
            )
            claims.append(
                Claim(
                    f"flattening cross-check: max catalecticant rank = {t}",
                    tuple(r for _, r in per_a),
                    True,
                )
            )
            if label.is_trivial():
                claims.append(
                    Claim(
                        f"symmetric rank = {t} (reduced scheme: upper bound by "
                        "construction, lower bound by flattening)",
                        (fr,),
                        True,
                    )
                )
        else:
            claims.append(
                Claim(
                    f"membership only: border rank <= {t} (2t > d+1)", (t,), True
                )
            )
            claims.append(Claim(f"flattening lower bound {fr} <= {t}", (fr,), True))
        if non_collinear:
            if h1(_dominating(Z), d) != 0:
                return None
            claims.append(
                Claim(
                    "dominating scheme (triple points over degree-3 jets) has h1 = 0",
                    (),
                    True,
                )
            )
        return Z, P, Certificate("border_rank", t, tuple(claims), scheme=Z, seed=seed)

    return _resample("construct_stratum_point", draw)


def construct_line_jet(
    m: int, d: int, t1: int, s1: int, seed: int, bound: int = 50
) -> tuple[SchemeSpec, Form, DecompositionRecord, Certificate]:
    """Point spanned by a degree-t1 jet on a line together with s1 general
    points; certifies border rank t1 + s1 and exhibits an exact power-sum
    decomposition of size d + 2 + s1 - t1.

    The decomposition keeps the s1 points and replaces the jet part by
    d + 2 - t1 points of the line, found by intersecting the jet span with
    the span of explicitly chosen rational points of the line.
    """
    if m < 2:
        raise InputError("ambient P^m with m >= 2 required")
    if not (2 <= t1 and 2 * t1 <= d):
        raise InputError("jet degree t1 must satisfy 2 <= t1 <= d/2")
    if not (0 <= s1 and 2 * s1 <= d):
        raise InputError("extra point count s1 must satisfy 0 <= s1 <= d/2")
    n_line = d + 2 - t1
    _check_line_count(n_line, bound)
    monomial_basis(m, d)  # refuses a degree past MAX_MONOMIALS before sampling
    rng = random.Random(seed)
    t = t1 + s1
    r_val = d + 2 + s1 - t1

    def draw():
        sample = _sample_jet_on_line(rng, m, d, bound, t1, s1, n_line)
        if sample is None:
            return None
        Z, line_pts, alphas, betas, Qpt = sample
        Q0, V = Z.components[0].curve[:2]
        pts = [r.point for r in Z.components[1:]]
        c0 = Fraction(_nonzero_int(rng, bound))
        P, cs = _plus_point_powers(rng, Qpt.scale(c0), pts, bound)

        # the powers of d+1 distinct points of the line span nu_d of the line
        line_span = [_point_on_line(Q0, V, j) for j in range(d + 1)]
        dim_claim_rank = rank_with_fastpath(power_rows(m, d, line_span + pts))
        if dim_claim_rank != d + 1 + s1:
            return None
        independence = f"scheme jet({t1}) + {s1} points imposes independent conditions"
        claims = _span_claims(Z, span_matrix(Z, d), P, independence)
        claims.append(
            Claim(
                f"line span plus points has the expected dimension {d}+{s1}",
                (dim_claim_rank,),
                True,
            )
        )
        claims.append(
            Claim(
                f"border rank = {t1}+{s1} (non-reduced divisor on the line; "
                "hypotheses verified exactly)",
                (t,),
                True,
            )
        )
        record, decomposition = _decomposition_claims(
            P,
            [c0 * a for a in alphas] + cs,
            line_pts + pts,
            t,
            f"symmetric rank = {r_val} = d+2+s1-t1 (upper bound exhibited; "
            "equality by the non-reduced line criterion)",
        )
        claims += decomposition
        # Q = sum_j betas[j] C(d, j) s^(d-j) u^j on the line s Q0 + u V, a
        # binary form s^(d-t1+1) h(s, u) with deg_u h = t1-1 (every beta is
        # nonzero); by Sylvester its rank is d+2-t1, since 2 t1 <= d and its
        # apolar generator of degree t1, u^t1, is not squarefree
        gamma = betas + [Fraction(0)] * (d + 1 - t1)
        g = Form(1, d, tuple(gamma[j] * comb(d, j) for j in range(d + 1)))
        sylv_rank = sylvester_binary(g, want_decomposition=False).rank
        if sylv_rank != d + 2 - t1:
            raise InternalInconsistency(
                f"self-check failed: the line-jet point has binary rank {sylv_rank}, "
                f"not d+2-t1 = {d + 2 - t1}"
            )
        claims.append(
            Claim(
                f"binary rank cross-check on the line: {sylv_rank} = d+2-t1",
                (sylv_rank,),
                True,
            )
        )
        cert = Certificate("rank_upper", r_val, tuple(claims), scheme=Z, seed=seed)
        return Z, P, record, cert

    return _resample("construct_line_jet", draw)


def construct_tangent_plus_points(
    m: int, d: int, t: int, seed: int, bound: int = 50
) -> tuple[SchemeSpec, Form, DecompositionRecord, Certificate]:
    """Point spanned by a tangent vector (length-2 jet) and t-2 points in
    linearly general position; certifies border rank t and a decomposition
    of size d + t - 2.

    The rank value rests on the linearly-general-position theorem for
    m >= 3; for m = 2 the decomposition is still verified exactly but the
    rank equality claim is tagged as outside the theorem hypotheses.
    """
    if m < 2:
        raise InputError("ambient P^m with m >= 2 required")
    if d < 5 or not (3 <= t <= d):
        raise InputError("need d >= 5 and 3 <= t <= d")
    _check_line_count(d, bound)  # the d line points of the relation
    monomial_basis(m, d)  # refuses a degree past MAX_MONOMIALS before sampling
    rng = random.Random(seed)
    r_val = d + t - 2

    def draw():
        sample = _sample_jet_on_line(rng, m, d, bound, 2, t - 2, d, general=True)
        if sample is None:
            return None
        Z, line_pts, alphas, betas, Qjet = sample
        Q0, V = Z.components[0].curve
        pts = [r.point for r in Z.components[1:]]
        P, mus = _plus_point_powers(rng, Qjet, pts, bound)

        # the sample is in linearly general position
        claims = [Claim("scheme is in linearly general position", (), True)]
        claims += _span_claims(
            Z, span_matrix(Z, d), P, "scheme imposes independent conditions (h1 = 0)"
        )
        if 2 * t <= d + 1:
            claims.append(
                Claim(
                    f"border rank = {t} (uniqueness criterion 2t <= d+1)", (t,), True
                )
            )
        else:
            claims.append(
                Claim(
                    f"border rank upper bound {t} (membership; 2t > d+1)", (t,), True
                )
            )
        # normal form: the jet part is L^(d-1) M exactly
        M_form = LinearForm(
            m,
            tuple(
                betas[0] * q + d * betas[1] * v for q, v in zip(Q0, V)
            ),
        )
        if product_expand([(LinearForm(m, Q0), d - 1), (M_form, 1)]) != Qjet:
            raise InternalInconsistency(
                "self-check failed: the tangent jet part is not L^(d-1) M"
            )
        claims.append(
            Claim("jet part equals L^(d-1) M exactly (normal form verified)", (), True)
        )
        if m >= 3:
            rank_statement = (
                f"symmetric rank = {r_val} = d+t-2 (linearly general position "
                "criterion, m >= 3)"
            )
        else:
            rank_statement = (
                f"symmetric rank <= {r_val} (m = 2 outside theorem hypotheses; "
                "upper bound verified exactly)"
            )
        record, decomposition = _decomposition_claims(
            P, alphas + mus, line_pts + pts, t, rank_statement
        )
        claims += decomposition
        cert = Certificate("rank_upper", r_val, tuple(claims), scheme=Z, seed=seed)
        return Z, P, record, cert

    return _resample("construct_tangent_plus_points", draw)


def _conic_jet(curve_c, tau, length):
    """Length-k jet of the parametrized conic at parameter value tau."""
    c0, c1, c2 = curve_c
    q = tuple(a + Fraction(tau) * b + Fraction(tau) ** 2 * c for a, b, c in zip(c0, c1, c2))
    dq = tuple(b + 2 * Fraction(tau) * c for b, c in zip(c1, c2))
    if length == 1:
        return Reduced(q)
    vecs = [q, dq]
    if length >= 3:
        vecs.append(tuple(c2))
        zero = tuple(Fraction(0) for _ in c0)
        vecs.extend([zero] * (length - 3))
    return Jet(tuple(vecs))


def construct_conic_double(
    d: int, a_parts: Sequence[int], b_parts: Sequence[int], seed: int, bound: int = 50
) -> tuple[SchemeSpec, SchemeSpec, Form, Certificate]:
    """Two divisors A, B on a smooth plane conic with deg A + deg B = 2d+2
    whose degree-d spans meet in exactly one point P.

    Certifies that the intersection is a single point (Grassmann rank
    check), that P avoids every proper subscheme span of both divisors, and
    reports the border rank min(deg A, deg B).  Frame and parameters lie in
    [-bound, bound], bound capped at MAX_CONIC_BOUND.

    The relation is ``curve_relations`` of the divisors in the conic's 2d+1
    coordinates.  Let c(s) = c0 + s c1 + s^2 c2 (a frame of rank 3) and
    (c(s).x)^d = sum_(j <= 2d) s^j g_j.  With y_i = c_i.x, only g_j contains
    y0^(d-j) y1^j (j <= d) or y1^(2d-j) y2^(j-d) (j > d), so the g_j are
    independent.  The jet of parameter tau is that of c(tau + t), whose span
    rows sum_j C(j, i) tau^(j-i) g_j are the curve rows under the injective
    map s^j -> g_j: the kernel, and its RREF basis, are the ambient ones.
    """
    a_parts = tuple(int(p) for p in a_parts)
    b_parts = tuple(int(p) for p in b_parts)
    bound = min(bound, MAX_CONIC_BOUND)
    if d < 3:
        raise InputError("need d >= 3")
    deg_a, deg_b = sum(a_parts), sum(b_parts)
    if deg_a + deg_b != 2 * d + 2:
        raise InputError("divisor degrees must sum to 2d+2")
    if min(deg_a, deg_b) < 1 or any(p < 1 for p in a_parts + b_parts):
        raise InputError("divisor parts must be positive")
    if len(a_parts) + len(b_parts) > 2 * bound + 1:
        raise InputError(
            f"{len(a_parts) + len(b_parts)} divisor parts need distinct conic "
            f"parameters, but [-{bound}, {bound}] has only {2 * bound + 1}"
        )
    m = 2
    monomial_basis(m, d)  # refuses a degree past MAX_MONOMIALS before sampling
    rng = random.Random(seed)

    def draw():
        cols = [
            tuple(Fraction(rng.randint(-bound, bound)) for _ in range(3))
            for _ in range(3)
        ]
        if rank_exact(QMatrix.from_rows(cols)) != 3:
            return None
        taus = rng.sample(range(-bound, bound + 1), len(a_parts) + len(b_parts))
        # distinct parameters of a smooth conic: distinct supports, immersed jets
        divisors = list(zip(taus, a_parts + b_parts))
        jets = [_conic_jet(cols, tau, k) for tau, k in divisors]
        A = SchemeSpec(m, tuple(jets[: len(a_parts)]))
        B = SchemeSpec(m, tuple(jets[len(a_parts) :]))
        relations = curve_relations(divisors, 2 * d)
        if len(relations) != 1:
            return None
        (x,) = relations
        # x[:deg_a] and -x[deg_a:] are P's coefficients on the rows of A and B
        ex_a = _exclusion_claim(A, x[:deg_a])
        ex_b = _exclusion_claim(B, x[deg_a:])
        if not (ex_a.passed and ex_b.passed):
            return None
        # The one relation proves the ranks below: 2d+2 rows with one relation
        # have rank 2d+1, and as both of its halves are nonzero, a relation
        # within one divisor would be a second one.
        bval = min(deg_a, deg_b)
        claims = (
            Claim(f"first divisor of degree {deg_a} is linearly independent", (deg_a,), True),
            Claim(f"second divisor of degree {deg_b} is linearly independent", (deg_b,), True),
            Claim(
                f"joint span has rank 2d+1 = {2 * d + 1}, so the spans meet in "
                "exactly one point (Grassmann)",
                (2 * d + 1,),
                True,
            ),
            Claim("(first divisor) " + ex_a.statement, ex_a.ranks, True),
            Claim("(second divisor) " + ex_b.statement, ex_b.ranks, True),
            Claim(
                f"border rank = min(deg A, deg B) = {bval} "
                "(divisors on a projectively normal conic)",
                (bval,),
                True,
            ),
        )
        cert = Certificate("border_rank", bval, claims, scheme=A, seed=seed)
        P = Form.from_ints(m, d, *span_matrix(A, d).combine(x[:deg_a]))
        return A, B, P, cert

    return _resample("construct_conic_double", draw)


# ---------------------------------------------------------------------------
# Terracini dimensions of secant and tangential joins


def terracini_expected(m: int, d: int, kind: str, t: int) -> int:
    """Expected dimension of the join, capped at the ambient dimension."""
    N = comb(m + d, m) - 1
    if kind == "secant":
        return min(N, t * (m + 1) - 1)
    if kind == "tau":
        return min(N, t * (m + 1) - 2)
    if kind == "osculating2":
        return min(N, comb(m + 3, m) + (t - 1) * (m + 1) - 1)
    raise InputError(f"unknown join kind {kind!r}")


def terracini_dim(
    m: int, d: int, kind: str, t: int, seed: int, bound: int = 50
) -> tuple[int, Certificate]:
    """Dimension of a secant or tangential join computed by interpolation.

    The infinitesimal scheme is: t double points for the t-secant variety;
    one (2,3)-point plus t-2 double points for the join of the tangent
    developable with the (t-2)-secant variety; one quadruple point plus t-1
    double points for the join of the second osculating variety with the
    (t-1)-secant variety.  The dimension is degree - 1 - h1.
    """
    if m < 2 or d < 3:
        raise InputError("terracini_dim needs m >= 2, d >= 3")
    N = comb(m + d, m) - 1
    expected = terracini_expected(m, d, kind, t)
    rng = random.Random(seed)
    if kind == "secant":
        if t < 1:
            raise InputError("secant needs t >= 1")
        deg = t * (m + 1)
        mk = lambda: [random_fat_point(rng, m, bound, 2) for _ in range(t)]
    elif kind == "tau":
        if t < 2:
            raise InputError("tau needs t >= 2")
        if not (m + 1) * (t - 2) + 2 * m < N:
            raise InputError("tangential join does not fit: (m+1)(t-2)+2m >= N")
        deg = 2 * m + 1 + (t - 2) * (m + 1)
        mk = lambda: [random_two_three(rng, m, bound)] + [
            random_fat_point(rng, m, bound, 2) for _ in range(t - 2)
        ]
    else:
        if t < 1:
            raise InputError("osculating2 needs t >= 1")
        deg = comb(m + 3, m) + (t - 1) * (m + 1)
        mk = lambda: [random_fat_point(rng, m, bound, 4)] + [
            random_fat_point(rng, m, bound, 2) for _ in range(t - 1)
        ]
    # checked before sampling: t components cost O(t^2) support comparisons
    if deg > comb(m + d, m):
        raise InputError("infinitesimal scheme does not fit in degree d")

    def draw():
        Z = assemble_scheme(m, mk())
        if Z is None:
            return None
        sup = h1(Z, d)
        dim = deg - 1 - sup
        if dim != expected:
            return None
        claims = [
            Claim(f"infinitesimal scheme degree {deg}, h1 = {sup}", (deg - sup,), True),
            Claim(
                f"dimension {dim} matches the expected dimension {expected}",
                (dim,),
                True,
            ),
        ]
        if kind == "tau":
            sup_dom = h1(_dominating(Z), d)
            if sup_dom == 0 and dim != t * (m + 1) - 2:
                return None
            claims.append(
                Claim(
                    "triple-point route agrees: h1 of the dominating scheme is "
                    f"{sup_dom}, forcing the same dimension when zero",
                    (sup_dom,),
                    True,
                )
            )
        return dim, Certificate("dimension", dim, tuple(claims), scheme=Z, seed=seed)

    return _resample(f"terracini_dim({kind})", draw)


def gamma_dims(m: int, d: int, t: int, seed: int, bound: int = 50) -> dict:
    """Dimensions of the three largest special families inside the t-secant
    variety: tangent-vector configurations (codimension 1), two tangent
    vectors (codimension 2), and non-collinear degree-3 germs (codimension 2).

    Each dimension is computed by interpolation on the matching
    infinitesimal scheme and cross-checked against the closed stratum
    dimension formula.
    """
    if m < 2 or d < 4 or t < 3:
        raise InputError("gamma_dims needs m >= 2, d >= 4, t >= 3")
    alpha = comb(m + d - 1, m) // (m + 1)
    beta = comb(m + d - 2, m) // (m + 1)
    if t > alpha - 1:
        raise InputError(f"t must be <= alpha-1 = {alpha - 1}")
    if t >= 4 and t > alpha - 2:
        raise InputError(f"t must be <= alpha-2 = {alpha - 2} for the double-tangent family")
    if t > beta - 1:
        raise InputError(f"t must be <= beta-1 = {beta - 1}")
    rng = random.Random(seed)
    dim_sigma, _ = terracini_dim(m, d, "secant", t, rng.randrange(1 << 30), bound)
    report: dict = {
        "m": m,
        "d": d,
        "t": t,
        "alpha": alpha,
        "beta": beta,
        "dim_sigma": dim_sigma,
        "seed": seed,
        "families": {},
        "all_passed": True,
    }

    def stamp(name, dim, expected_label, codim_expected, extra_checks):
        expected = sigma_stratum_dim(m, StratumLabel.make(expected_label))
        entry = {
            "dim": dim,
            "stratum_dim_formula": expected,
            "codim_in_sigma": dim_sigma - dim,
            "codim_expected": codim_expected,
            "checks": extra_checks
            + [
                {"statement": "dimension matches the stratum formula", "passed": dim == expected},
                {
                    "statement": f"codimension in the secant variety is {codim_expected}",
                    "passed": dim_sigma - dim == codim_expected,
                },
            ],
        }
        if not all(c["passed"] for c in entry["checks"]):
            report["all_passed"] = False
        report["families"][name] = entry

    # tangent vector + t-2 points
    dim1, cert1 = terracini_dim(m, d, "tau", t, rng.randrange(1 << 30), bound)
    stamp(
        "tangent_vector",
        dim1,
        (2,) + (1,) * (t - 2),
        1,
        [{"statement": c.statement, "passed": c.passed} for c in cert1.claims],
    )

    # two tangent vectors + t-4 points
    if t >= 4:
        Z2 = _resample(
            "gamma_dims(double_tangent)",
            lambda: assemble_scheme(
                m,
                [random_two_three(rng, m, bound) for _ in range(2)]
                + [random_fat_point(rng, m, bound, 2) for _ in range(t - 4)],
            ),
        )
        sup2 = h1(Z2, d)
        dim2 = scheme_degree(Z2) - 1 - sup2
        sup_dom = h1(_dominating(Z2), d)
        checks = [
            {"statement": f"h1 of the infinitesimal scheme is {sup2}", "passed": sup2 == 0},
            {
                "statement": f"triple-point dominating scheme has h1 = {sup_dom}",
                "passed": sup_dom == 0,
            },
        ]
        stamp("double_tangent", dim2, (2, 2) + (1,) * (t - 4), 2, checks)
    else:
        report["families"]["double_tangent"] = {"skipped": "needs t >= 4"}

    # non-collinear degree-3 germ + t-3 points, via one quadruple point
    Z3 = _resample(
        "gamma_dims(noncollinear_triple)",
        lambda: assemble_scheme(
            m,
            [random_fat_point(rng, m, bound, 4)]
            + [random_fat_point(rng, m, bound, 2) for _ in range(t - 3)],
        ),
    )
    sup3 = h1(Z3, d)
    checks = [
        {
            "statement": "quadruple-point scheme imposes independent conditions "
            f"(h1 = {sup3}), so the family has the expected dimension",
            "passed": sup3 == 0,
        }
    ]
    stamp("noncollinear_triple", m * t + t - 3, (3,) + (1,) * (t - 3), 2, checks)
    return report


# ---------------------------------------------------------------------------
# JSON encoders


PURE_POWER = "L^d"  # the JSON shape tag of every summand


def claim_to_json(c: Claim) -> dict:
    return {"statement": c.statement, "ranks": list(c.ranks), "passed": c.passed}


def certificate_to_json(cert: Certificate) -> dict:
    out = {
        "kind": cert.kind,
        "value": cert.value,
        "claims": [claim_to_json(c) for c in cert.claims],
        "seed": cert.seed,
    }
    if cert.scheme is not None:
        out["scheme"] = scheme_to_json(cert.scheme)
    return out


def summand_to_json(s: Summand) -> dict:
    return {
        "shape": PURE_POWER,
        "coeff": rat_to_str(s.coeff),
        "linear": [rat_to_str(c) for c in s.linear.coeffs],
    }


def decomposition_to_json(rec: DecompositionRecord) -> dict:
    return {
        "m": rec.m,
        "d": rec.d,
        "size": rec.size,
        "summands": [summand_to_json(s) for s in rec.summands],
        "target": form_to_json(rec.target),
    }
