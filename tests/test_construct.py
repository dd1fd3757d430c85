import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from veronese.binary import curve_relations, sylvester_binary
from veronese.construct import (
    MAX_ATTEMPTS,
    _conic_jet,
    _distinct_nonzero_ints,
    _exclusion_claim,
    _point_on_line,
    certificate_to_json,
    certify_border_rank,
    construct_conic_double,
    construct_line_jet,
    construct_stratum_point,
    construct_tangent_plus_points,
    decomposition_to_json,
    flattening_rank,
    gamma_dims,
    terracini_dim,
)
from veronese import construct, rationalla
from veronese.cli import main
from veronese.errors import (
    CertificateRefused,
    InputError,
    InternalInconsistency,
    ResampleExhausted,
)
from veronese.forms import (
    DecompositionRecord,
    Form,
    LinearForm,
    Summand,
    catalecticant_matrix,
    power_expand,
    power_rows,
    power_sum,
    product_expand,
)
from veronese.rationalla import PROBE_PRIME as PRIME, QMatrix, membership_solve, rank_exact
from veronese.schemes import (
    Jet,
    Reduced,
    SchemeSpec,
    assemble_scheme,
    linearly_general,
    random_jet_on_conic,
    random_jet_on_line,
    random_reduced,
    span_matrix,
)
from veronese.strata import StratumLabel

from oracles import (
    intersect_spans_oracle,
    naive_membership,
    naive_rank,
    proper_subscheme_spans,
    stack,
    substitute,
    sylvester_rank_oracle,
)

F = Fraction


def combined(S, coeffs):
    """``S.combine(coeffs)`` as rationals."""
    nums, den = S.combine(coeffs)
    return [F(x, den) for x in nums]


def span_combo(Z, d, coeffs):
    S = span_matrix(Z, d)
    vec = [F(0)] * S.cols
    for i, c in enumerate(coeffs):
        row = S.row(i)
        for j in range(S.cols):
            vec[j] += c * row[j]
    return Form(Z.m, d, tuple(vec))


# --- decomposition records ----------------------------------------------


def test_decomposition_verifies_on_construction():
    L1, L2 = LinearForm.make([1, 2]), LinearForm.make([1, -1])
    target = power_expand(L1, 3) + power_expand(L2, 3).scale(5)
    rec = DecompositionRecord(
        1,
        3,
        (Summand(F(1), L1), Summand(F(5), L2)),
        target,
    )
    assert rec.size == 2 and rec.expand() == target
    with pytest.raises(InputError):
        DecompositionRecord(
            1, 3, (Summand(F(2), L1),), target
        )


def test_decomposition_refuses_a_target_off_by_a_small_rational():
    summands = (
        Summand(F(1), LinearForm.make([1, F(1, 2)])),
        Summand(F(5, 7), LinearForm.make([F(1, 3), -1])),
    )
    target = power_expand(summands[0].linear, 3) + power_expand(summands[1].linear, 3).scale(
        F(5, 7)
    )
    assert DecompositionRecord(1, 3, summands, target).expand() == target
    _, den = power_sum(1, 3, [(s.coeff, s.linear.coeffs) for s in summands])
    for i in range(4):
        off = list(target.coeffs)
        off[i] += F(1, den + 1)
        with pytest.raises(InputError):
            DecompositionRecord(1, 3, summands, Form(1, 3, tuple(off)))
    # targets whose leading coefficients agree but whose (m, d) differ
    for m, d in ((1, 4), (2, 3)):
        padded = target.coeffs + (F(0),) * (comb(m + d, m) - 4)
        with pytest.raises(InputError):
            DecompositionRecord(1, 3, summands, Form(m, d, padded))


def test_distinct_nonzero_ints_equal_the_list_sampler():
    """Same draws and same generator state as rng.sample over the list of
    the 2 * bound nonzero values."""
    for seed in range(30):
        for bound in (1, 2, 3, 10, 1000):
            for count in range(1, min(12, 2 * bound) + 1):
                a, b = random.Random(seed), random.Random(seed)
                population = [v for v in range(-bound, bound + 1) if v != 0]
                assert _distinct_nonzero_ints(a, count, bound) == b.sample(population, count)
                assert a.getstate() == b.getstate()
    with pytest.raises(InputError):
        _distinct_nonzero_ints(random.Random(0), 5, 2)


# --- sylvester ------------------------------------------------------------


def test_sylvester_pure_power_rank_one():
    for d in (3, 5, 7):
        f = power_expand(LinearForm.make([2, -3]), d)
        res = sylvester_binary(f)
        assert res.rank == 1
        assert res.decomposition is not None and res.decomposition.size == 1


def test_sylvester_tangent_form_rank_d():
    f = product_expand([(LinearForm.make([1, 0]), 4), (LinearForm.make([0, 1]), 1)])
    res = sylvester_binary(f)
    assert res.rank == 5


def test_sylvester_sum_of_two_fourth_powers():
    f = power_expand(LinearForm.make([1, 0]), 4) + power_expand(LinearForm.make([0, 1]), 4)
    res = sylvester_binary(f)
    assert res.rank == 2
    assert res.splits_over_rationals
    assert res.decomposition.expand() == f


def test_sylvester_rejects_zero_and_nonbinary():
    with pytest.raises(InputError):
        sylvester_binary(Form.from_coeffs(1, 2, [0, 0, 0]))
    with pytest.raises(InputError):
        sylvester_binary(power_expand(LinearForm.make([1, 0, 0]), 2))


def test_sylvester_invariant_under_substitution():
    rng = random.Random(3)
    f = product_expand([(LinearForm.make([1, 0]), 3), (LinearForm.make([0, 1]), 1)])
    base = sylvester_binary(f, want_decomposition=False).rank
    for _ in range(5):
        while True:
            a, b, c, e = (rng.randint(-4, 4) for _ in range(4))
            if a * e - b * c != 0:
                break
        g = substitute(f, [LinearForm.make([a, b]), LinearForm.make([c, e])])
        assert sylvester_binary(g, want_decomposition=False).rank == base


def test_sylvester_irrational_witness_marker():
    # rank 3 with 2 * 3 <= 5 + 1: the decomposition is unique, so it must
    # split on exactly the three given points
    f = (
        power_expand(LinearForm.make([1, 0]), 5)
        + power_expand(LinearForm.make([0, 1]), 5)
        + power_expand(LinearForm.make([1, 1]), 5)
    )
    res = sylvester_binary(f)
    assert res.rank == 3 and res.splits_over_rationals is True
    terms = {(s.linear.coeffs, s.coeff) for s in res.decomposition.summands}
    assert terms == {((1, 0), 1), ((0, 1), 1), ((1, 1), 1)}


def test_sylvester_unique_case_irreducible_witness():
    # (x0 + i x1)^5 + (x0 - i x1)^5 + x1^5: rank 3 with 2 * 3 <= 5 + 1, and
    # its unique witness has the factor y0^2 + y1^2, irreducible over Q
    f = Form.from_coeffs(1, 5, [2, 0, -20, 0, 10, 1])
    res = sylvester_binary(f)
    assert res.rank == 3
    assert res.splits_over_rationals is False and res.decomposition is None


@st.composite
def binary_forms(draw):
    """A binary form of degree 2..10: small random coefficients, a sum of k
    distinct rational d-th powers with nonzero coefficients, or a product
    L^(d-j) M^j (for independent L, M and 2j != d its least-degree apolar
    generator is a power, so the rank is d+2-r rather than r)."""
    d = draw(st.integers(2, 10))
    small = st.integers(-3, 3)
    linear = st.tuples(small, small).filter(lambda p: p != (0, 0))
    family = draw(st.sampled_from(("coeffs", "powers", "product")))
    if family == "coeffs":
        coeffs = draw(st.lists(small, min_size=d + 1, max_size=d + 1))
        assume(any(coeffs))
        return Form.from_coeffs(1, d, coeffs)
    if family == "product":
        L, M = draw(linear), draw(linear)
        j = draw(st.integers(1, d - 1))
        return product_expand(
            [(LinearForm.make(list(L)), d - j), (LinearForm.make(list(M)), j)]
        )
    k = draw(st.integers(1, d))
    pts = draw(
        st.lists(
            linear,
            min_size=k,
            max_size=k,
            unique_by=lambda p: F(p[1], p[0]) if p[0] else None,
        )
    )
    nonzero = st.sampled_from([F(1), F(-1), F(2), F(-3), F(1, 2)])
    f = Form.from_coeffs(1, d, [0] * (d + 1))
    for p in pts:
        f = f + power_expand(LinearForm.make(list(p)), d).scale(draw(nonzero))
    assume(not f.is_zero())
    return f


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(binary_forms())
def test_sylvester_rank_matches_oracle(f):
    res = sylvester_binary(f, want_decomposition=False)
    assert (res.rank, res.apolar) == sylvester_rank_oracle(f)
    assert res.decomposition is None and res.splits_over_rationals is None


# --- flattening and certify ------------------------------------------------


def test_flattening_rank_of_three_powers():
    P = (
        power_expand(LinearForm.make([1, 2, 3]), 6)
        + power_expand(LinearForm.make([1, -1, 1]), 6)
        + power_expand(LinearForm.make([2, 1, -1]), 6)
    )
    fr, per_a = flattening_rank(P, 3)
    assert fr == 3
    assert [a for a, _ in per_a] == [1, 2, 3]
    # a cap below the rank contradicts the membership it stands for; a probe
    # that reached min(rows, cols, 2) must not be read as the rank
    with pytest.raises(InternalInconsistency, match="flattening rank 3 exceeds"):
        flattening_rank(P, 2)


def test_flattening_rank_below_its_cap_is_exact():
    # the x1^d coefficient is the probe's prime, so every catalecticant of
    # rank 2 probes to 1 < min(rows, cols, 2) and Bareiss settles it
    P = power_expand(LinearForm.make([1, 0, 0]), 6) + power_expand(
        LinearForm.make([0, 1, 0]), 6
    ).scale(F(rationalla.PROBE_PRIME))
    assert flattening_rank(P, 2) == (2, ((1, 2), (2, 2), (3, 2)))


@st.composite
def span_points(draw):
    """A point of the span of a random curvilinear scheme of reduced points
    and line jets, and the scheme's degree; in about half the draws every
    support lies on one line and every jet runs along it.  The degree may
    exceed d + 1, and the span rows need not be independent."""
    m = draw(st.sampled_from((2, 3)))
    d = draw(st.integers(3, 9))
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        Q0, V = random_jet_on_line(rng, m, 9, 2).curve
        zero = tuple(F(0) for _ in Q0)
        comps = []
        for z, k in zip(_distinct_nonzero_ints(rng, len(lengths), 9), lengths):
            p = _point_on_line(Q0, V, z)
            comps.append(Reduced(p) if k == 1 else Jet((p, V) + (zero,) * (k - 2)))
    else:
        comps = [
            random_reduced(rng, m, 9) if k == 1 else random_jet_on_line(rng, m, 9, k)
            for k in lengths
        ]
    Z = assemble_scheme(m, comps)
    assume(Z is not None)
    nonzero = st.sampled_from([c for c in range(-5, 6) if c != 0])
    return span_combo(Z, d, [F(draw(nonzero)) for _ in range(sum(lengths))]), sum(lengths)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(span_points())
def test_capped_flattening_rank_matches_naive_ranks(case):
    P, t = case
    fr, per_a = flattening_rank(P, t)
    expected = tuple(
        (a, naive_rank(catalecticant_matrix(P, a))) for a in range(1, P.d // 2 + 1)
    )
    assert per_a == expected
    assert fr == max(r for _, r in expected)


def _flattening_proof_orders(monkeypatch, m, d, parts, seed):
    """Contraction orders a whose exact catalecticant was built, and those
    whose catalecticant went to ``rank_exact``, while constructing a point
    of the label."""
    made = {}  # id -> (a, matrix); holding the matrix keeps its id unique
    built, calls = [], []

    def catalecticant(P, a):
        M = catalecticant_matrix(P, a)
        made[id(M)] = (a, M)
        built.append(a)
        return M

    def rank(M):
        if id(M) in made:
            calls.append(made[id(M)][0])
        return rank_exact(M)

    monkeypatch.setattr(construct, "catalecticant_matrix", catalecticant)
    monkeypatch.setattr(rationalla, "rank_exact", rank)
    construct_stratum_point(m, d, StratumLabel.make(parts), seed=seed)
    return built, calls


def test_flattening_proof_path(monkeypatch):
    # uniqueness regime: every Hankel probe reaches its cap min(rows, cols,
    # 4), so no exact catalecticant is built at all
    assert _flattening_proof_orders(monkeypatch, 2, 9, [2, 1, 1], 0) == ([], [])
    # a length-5 jet on a line plus a point: h_Z(a) = 4, 5 < 6 at a = 2, 3,
    # the only orders whose catalecticant is built, each for the exact check
    # of its lifted kernel vectors, which prove rank <= 4 without Bareiss
    assert _flattening_proof_orders(monkeypatch, 2, 9, [5, 1], 0) == ([2, 3], [])


@pytest.mark.parametrize("what", ["certify", "stratum", "line-jet", "tangent"])
def test_an_accepted_sample_probes_its_span_matrix_once(what, monkeypatch):
    """One ``membership_solve`` proves the rank of the span matrix and gives
    the target's coefficients, so no second probe proves the rank alone."""
    m, d = 3, 9
    Z, P, _ = construct_stratum_point(m, d, StratumLabel.make([2, 2, 1]), seed=0)
    run = {
        "certify": lambda: certify_border_rank(P, Z, d).scheme,
        "stratum": lambda: construct_stratum_point(m, d, StratumLabel.make([2, 2, 1]), seed=1)[0],
        "line-jet": lambda: construct_line_jet(m, d, 2, 1, seed=0)[0],
        "tangent": lambda: construct_tangent_plus_points(m, d, 4, seed=0)[0],
    }[what]
    real, probed = rationalla._probe_pivots, []
    monkeypatch.setattr(rationalla, "_probe_pivots", lambda M: probed.append(M) or real(M))
    S = span_matrix(run(), d)
    assert S.cols == comb(m + d, m)
    assert sum(M == S for M in probed) == 1


def test_certify_three_general_points():
    rng = random.Random(5)
    Z = SchemeSpec(2, tuple(random_reduced(rng, 2, 20) for _ in range(3)))
    P = span_combo(Z, 7, [F(2), F(3), F(4)])
    cert = certify_border_rank(P, Z, 7)
    assert cert.all_passed and cert.value == 3
    assert any("uniqueness criterion" in c.statement for c in cert.claims)


def test_certify_jet_plus_point_regime_boundary():
    rng = random.Random(6)
    Z = SchemeSpec(2, (random_jet_on_line(rng, 2, 20, 2), random_reduced(rng, 2, 20)))
    P = span_combo(Z, 5, [F(1), F(2), F(3)])
    cert = certify_border_rank(P, Z, 5)  # 2t = 6 <= d+1 = 6
    assert cert.all_passed and cert.value == 3


def test_certify_downgrades_long_jet_on_line():
    rng = random.Random(7)
    Z = SchemeSpec(2, (random_jet_on_line(rng, 2, 20, 4),))
    P = span_combo(Z, 5, [F(1), F(2), F(3), F(4)])
    cert = certify_border_rank(P, Z, 5)
    assert cert.all_passed
    assert any("membership only" in c.statement for c in cert.claims)


def test_certify_refuses_point_in_proper_span():
    rng = random.Random(8)
    Z = SchemeSpec(2, tuple(random_reduced(rng, 2, 20) for _ in range(3)))
    P = span_combo(Z, 5, [F(1), F(1), F(0)])  # drops the third point
    with pytest.raises(CertificateRefused) as e:
        certify_border_rank(P, Z, 5)
    assert e.value.statement == "target lies outside all 7 proper subscheme spans"
    assert e.value.ranks == (7,)


def test_certify_refuses_nonmember():
    rng = random.Random(9)
    Z = SchemeSpec(2, (random_reduced(rng, 2, 20),))
    P = power_expand(LinearForm.make([1, 2, 3]), 4) + power_expand(
        LinearForm.make([1, -5, 2]), 4
    )
    with pytest.raises(CertificateRefused):
        certify_border_rank(P, Z, 4)


def test_certify_refuses_dependent_scheme():
    # d+1+extra collinear points are dependent in degree d: refused at
    # independence, before any exclusion claim is read off the dependent rows,
    # with the exact rank d+1 and h1 = extra
    d = 4
    for extra in (1, 2):
        t = d + 1 + extra
        line = SchemeSpec(2, tuple(Reduced((F(1), F(z), F(0))) for z in range(t)))
        with pytest.raises(CertificateRefused) as e:
            certify_border_rank(span_combo(line, d, [F(1)] * t), line, d)
        assert "imposes independent conditions" in e.value.statement
        assert e.value.ranks == (d + 1, extra)


@st.composite
def curvilinear_targets(draw):
    """A curvilinear scheme with independent span rows and a target in its
    span; with ``dropped`` set, that component's last coefficient is 0."""
    m = draw(st.sampled_from((2, 3)))
    d = draw(st.integers(4, 8))
    lengths = draw(
        st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
            lambda ls: sum(ls) <= d + 1
        )
    )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    comps = []
    for k in lengths:
        if k == 1:
            comps.append(random_reduced(rng, m, 9))
        elif k == 3 and rng.random() < 0.5:
            comps.append(random_jet_on_conic(rng, m, 9, 3))
        else:
            comps.append(random_jet_on_line(rng, m, 9, k))
    Z = assemble_scheme(m, comps)
    assume(Z is not None)
    S = span_matrix(Z, d)
    assume(rank_exact(S) == S.rows)
    nonzero = st.sampled_from([c for c in range(-5, 6) if c != 0])
    coeffs = [F(draw(nonzero)) for _ in range(S.rows)]
    dropped = draw(st.none() | st.integers(0, len(lengths) - 1))
    if dropped is not None:
        coeffs[sum(lengths[: dropped + 1]) - 1] = F(0)
    return Z, d, span_combo(Z, d, coeffs), dropped


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(curvilinear_targets())
def test_exclusion_reader_matches_brute_force(case):
    Z, d, P, dropped = case
    _, coeffs = membership_solve(span_matrix(Z, d), P.coeffs)
    claim = _exclusion_claim(Z, coeffs)
    spans = proper_subscheme_spans(Z, d)
    assert claim.ranks == (len(spans),)
    assert claim.passed == all(naive_membership(S, P.coeffs) is None for S in spans)
    assert claim.passed == (dropped is None)


rationals = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=12)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(0, 6), st.data())
def test_combine_rows_equals_fraction_sum(cols, nrows, data):
    """Integer rows over composite, negative and prime-divisible row
    denominators, combined with rational coefficients (zeros included)."""
    ints = st.integers(-50, 50) | st.sampled_from([PRIME, -3 * PRIME])
    nums = data.draw(st.lists(st.lists(ints, min_size=cols, max_size=cols), min_size=nrows, max_size=nrows))
    dens = data.draw(st.lists(st.sampled_from([1, 12, -6, PRIME, -2 * PRIME]), min_size=nrows, max_size=nrows))
    coeffs = [F(c) for c in data.draw(st.lists(rationals, min_size=nrows, max_size=nrows))]
    S = QMatrix.from_ints(cols, nums, dens)
    expected = [
        sum((c * F(row[j], den) for c, row, den in zip(coeffs, nums, dens)), F(0))
        for j in range(cols)
    ]
    assert combined(S, coeffs) == expected


def test_line_condition_detects_long_line_jets():
    rng = random.Random(10)
    ok = SchemeSpec(2, (random_jet_on_line(rng, 2, 9, 2), random_reduced(rng, 2, 9)))
    assert linearly_general(ok, 3) is True
    bad = SchemeSpec(2, (random_jet_on_line(rng, 2, 9, 3),))
    assert linearly_general(bad, 3) is False


def test_certify_uses_line_criterion_outside_regime():
    # four general points in the plane at d = 5: 2t = 8 > 6 but no line
    # meets the scheme in degree 3, so the line criterion certifies b = 4
    rng = random.Random(11)
    while True:
        Z = SchemeSpec(2, tuple(random_reduced(rng, 2, 20) for _ in range(4)))
        if linearly_general(Z, 3):
            break
    P = span_combo(Z, 5, [F(1), F(2), F(3), F(4)])
    cert = certify_border_rank(P, Z, 5)
    assert cert.all_passed
    assert any("line-intersection criterion" in c.statement for c in cert.claims)


# --- constructors -----------------------------------------------------------


def test_construct_stratum_point_examples():
    Z, P, cert = construct_stratum_point(2, 9, StratumLabel.make([2, 1, 1]), seed=0)
    assert cert.all_passed and cert.value == 4
    fr, _ = flattening_rank(P, 4)
    assert fr == 4

    Z, P, cert = construct_stratum_point(
        2, 9, StratumLabel.make([3, 1]), seed=1, non_collinear=True
    )
    assert cert.all_passed
    assert any("dominating scheme" in c.statement for c in cert.claims)

    Z, P, cert = construct_stratum_point(2, 7, StratumLabel.make([1, 1, 1]), seed=2)
    assert cert.all_passed
    assert any("symmetric rank = 3" in c.statement for c in cert.claims)


def test_construct_stratum_point_refuses_non_collinear_without_a_part_3():
    # only degree-3 components move to conics, so the flag would claim h1 of
    # a dominating scheme it never built
    with pytest.raises(InputError, match="needs a part 3"):
        construct_stratum_point(2, 9, StratumLabel.make([2, 1, 1]), seed=0, non_collinear=True)
    # refused before the other input checks (here m < 2)
    with pytest.raises(InputError, match="needs a part 3"):
        construct_stratum_point(1, 9, StratumLabel.make([2, 1]), seed=0, non_collinear=True)


def test_construct_stratum_point_downgrades_outside_regime():
    Z, P, cert = construct_stratum_point(2, 5, StratumLabel.make([4]), seed=0)
    assert cert.all_passed
    assert any("membership only" in c.statement for c in cert.claims)


def test_construct_stratum_point_rejects_bad_labels():
    with pytest.raises(InputError):
        construct_stratum_point(2, 4, StratumLabel.make([5]), seed=0)
    with pytest.raises(InputError):
        construct_stratum_point(2, 3, StratumLabel.make([2, 2, 1]), seed=0)


def test_construct_line_jet_examples():
    Z, P, rec, cert = construct_line_jet(2, 6, 2, 1, seed=0)
    assert cert.all_passed and rec.size == 7 and cert.value == 7
    assert rec.expand() == P

    Z, P, rec, cert = construct_line_jet(2, 6, 2, 0, seed=0)
    assert cert.all_passed and rec.size == 6
    assert any("= d+2-t1" in c.statement for c in cert.claims)

    Z, P, rec, cert = construct_line_jet(3, 8, 3, 2, seed=0)
    assert cert.all_passed and rec.size == 9


def test_construct_line_jet_validates_ranges():
    with pytest.raises(InputError):
        construct_line_jet(2, 6, 1, 0, seed=0)
    with pytest.raises(InputError):
        construct_line_jet(2, 6, 4, 0, seed=0)
    with pytest.raises(InputError):
        construct_line_jet(2, 6, 2, 4, seed=0)


def test_construct_tangent_examples():
    Z, P, rec, cert = construct_tangent_plus_points(3, 5, 3, seed=0)
    assert cert.all_passed and rec.size == 6
    assert any("normal form verified" in c.statement for c in cert.claims)

    Z, P, rec, cert = construct_tangent_plus_points(3, 7, 4, seed=0)
    assert cert.all_passed and rec.size == 9

    Z, P, rec, cert = construct_tangent_plus_points(3, 5, 5, seed=0)
    assert cert.all_passed and rec.size == 8
    assert any(
        "border rank upper bound" in c.statement for c in cert.claims
    )


def test_construct_tangent_m2_tagged():
    Z, P, rec, cert = construct_tangent_plus_points(2, 6, 3, seed=0)
    assert cert.all_passed
    assert any("outside theorem hypotheses" in c.statement for c in cert.claims)


def test_construct_conic_double_cases():
    A, B, P, cert = construct_conic_double(5, [6], [6], seed=0)
    assert cert.all_passed and cert.value == 6
    for Z in (A, B):
        assert Z.m == 2 and rank_exact(span_matrix(Z, 5)) == 6

    A, B, P, cert = construct_conic_double(5, [4], [8], seed=0)
    assert cert.all_passed and cert.value == 4

    A, B, P, cert = construct_conic_double(5, [3, 3], [6], seed=0)
    assert cert.all_passed and cert.value == 6

    with pytest.raises(InputError):
        construct_conic_double(5, [6], [5], seed=0)


def test_terracini_examples():
    dim, cert = terracini_dim(2, 6, "secant", 3, seed=0)
    assert dim == 8 and cert.all_passed
    dim, cert = terracini_dim(2, 6, "tau", 3, seed=0)
    assert dim == 7 and cert.all_passed
    assert any("triple-point route" in c.statement for c in cert.claims)
    dim, cert = terracini_dim(2, 7, "osculating2", 2, seed=0)
    assert dim == 12 and cert.all_passed
    with pytest.raises(InputError):
        terracini_dim(2, 6, "nope", 3, seed=0)


def test_terracini_tau_fit_precondition():
    with pytest.raises(InputError):
        terracini_dim(2, 3, "tau", 4, seed=0)


def test_gamma_dims_shapes():
    rep = gamma_dims(2, 6, 3, seed=0)
    assert rep["alpha"] == 7 and rep["beta"] == 5
    assert rep["families"]["tangent_vector"]["codim_in_sigma"] == 1
    assert rep["families"]["double_tangent"] == {"skipped": "needs t >= 4"}
    assert rep["all_passed"]

    rep = gamma_dims(2, 6, 4, seed=0)
    assert rep["families"]["double_tangent"]["dim"] == 9
    assert rep["all_passed"]

    with pytest.raises(InputError):
        gamma_dims(2, 6, 7, seed=0)  # t > alpha - 1 = 6


def test_budget_bound_on_certified_pairs():
    for seed in range(3):
        _, _, rec, cert = construct_tangent_plus_points(3, 6, 4, seed=seed)
        b, r = 4, rec.size
        assert cert.all_passed and b + r <= 3 * 6 - 2
        _, _, rec, cert = construct_line_jet(2, 6, 3, 1, seed=seed)
        assert cert.all_passed and (3 + 1) + rec.size <= 3 * 6 - 2


def test_certificate_json_shape():
    Z, P, cert = construct_stratum_point(2, 7, StratumLabel.make([2, 1]), seed=4)
    obj = certificate_to_json(cert)
    assert obj["kind"] == "border_rank" and obj["value"] == 3
    assert all(set(c) == {"statement", "ranks", "passed"} for c in obj["claims"])
    assert obj["seed"] == 4 and "scheme" in obj

    Z, P, rec, cert = construct_line_jet(2, 6, 2, 0, seed=1)
    dobj = decomposition_to_json(rec)
    assert dobj["size"] == rec.size == len(dobj["summands"])


# --- the shared resample loop ----------------------------------------------


RESAMPLE_LOOPS = {
    "construct_stratum_point": lambda: construct_stratum_point(
        2, 7, StratumLabel.make([2, 1]), seed=0
    ),
    "construct_line_jet": lambda: construct_line_jet(2, 6, 2, 1, seed=0),
    "construct_tangent_plus_points": lambda: construct_tangent_plus_points(3, 5, 3, seed=0),
    "construct_conic_double": lambda: construct_conic_double(5, [6], [6], seed=0),
    "terracini_dim(tau)": lambda: terracini_dim(2, 6, "tau", 3, seed=0),
    "gamma_dims(double_tangent)": lambda: gamma_dims(2, 6, 4, seed=0),
    "gamma_dims(noncollinear_triple)": lambda: gamma_dims(2, 6, 4, seed=0),
}


@pytest.mark.parametrize("what", sorted(RESAMPLE_LOOPS))
def test_every_sampling_loop_gives_up_after_max_attempts(what, monkeypatch):
    """Each loop draws through ``_resample`` under its own name; when every
    draw is rejected it makes exactly MAX_ATTEMPTS draws, then raises."""
    real = construct._resample
    draws = []

    def rejecting(name, draw):
        if name != what:
            return real(name, draw)

        def rejected():
            draws.append(name)
            draw()
            return None

        return real(name, rejected)

    monkeypatch.setattr(construct, "_resample", rejecting)
    with pytest.raises(ResampleExhausted) as e:
        RESAMPLE_LOOPS[what]()
    assert str(e.value) == f"{what} kept hitting degenerate samples"
    assert len(draws) == MAX_ATTEMPTS


SELF_CHECKED = {
    "line-jet": (
        lambda: construct_line_jet(2, 6, 2, 1, seed=0),
        ["construct", "2", "6", "--line-jet", "2,1"],
    ),
    "tangent": (
        lambda: construct_tangent_plus_points(3, 5, 3, seed=0),
        ["construct", "3", "5", "--tangent", "3"],
    ),
}


@pytest.mark.parametrize("name", sorted(SELF_CHECKED))
def test_failed_self_check_is_reported_not_resampled(name, monkeypatch, capsys):
    """A decomposition that does not re-expand can only come from a bug: the
    first draw raises InternalInconsistency and the CLI exits 3 with it."""
    construct_it, argv = SELF_CHECKED[name]
    real = construct._sample_jet_on_line
    samples = []

    def doubled(*args, **kwargs):
        sample = real(*args, **kwargs)
        samples.append(sample)
        if sample is None:
            return None
        Z, line_pts, alphas, betas, Q = sample
        return Z, line_pts, [2 * a for a in alphas], betas, Q

    monkeypatch.setattr(construct, "_sample_jet_on_line", doubled)
    message = "self-check failed: decomposition does not re-expand to its target"
    with pytest.raises(InternalInconsistency) as e:
        construct_it()
    assert str(e.value) == message
    assert len(samples) == 1 and samples[0] is not None

    samples.clear()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"InternalInconsistency: {message}\n"
    assert len(samples) == 1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 3)), st.integers(3, 9), st.data())
def test_line_powers_and_line_jet_spans_have_full_rank(m, d, data):
    """Why the line-jet sampler proves no rank: n <= d+1 distinct points of a
    line and a jet of length k <= d+1 along it span n and k dimensions."""
    n = data.draw(st.integers(1, d + 1))
    k = data.draw(st.integers(2, d + 1))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    Q0, V = random_jet_on_line(rng, m, 9, 2).curve
    zs = _distinct_nonzero_ints(rng, n, 9)
    A = power_rows(m, d, [_point_on_line(Q0, V, z) for z in zs])
    zero = tuple(F(0) for _ in Q0)
    J = span_matrix(SchemeSpec(m, (Jet((Q0, V) + (zero,) * (k - 2)),)), d)
    assert naive_rank(A) == n
    assert naive_rank(J) == k


# --- line relations in the line's own coordinates -----------------------


def _line_and_jet_rows(m, d, k, Q0, V, zs):
    """The degree-d powers of the line points Q0 + zV and the span rows of
    the length-k jet (Q0, V, 0, ...), over the C(m+d, m) monomials."""
    A = power_rows(m, d, [_point_on_line(Q0, V, z) for z in zs])
    zero = tuple(F(0) for _ in Q0)
    J = span_matrix(SchemeSpec(m, (Jet((Q0, V) + (zero,) * (k - 2)),)), d)
    return A, J


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 3)), st.integers(5, 13), st.data())
def test_line_relations_equal_the_ambient_intersection(m, d, data):
    """The relation solved over the line's d+1 coordinates is the one
    ``intersect_spans_oracle`` finds over all C(m+d, m) columns, basis vector
    by basis vector, and Q pushed forward from the line powers is the ambient
    intersection vector, which the jet rows reach with the betas."""
    k = data.draw(st.integers(2, d // 2))
    n = data.draw(st.integers(d + 2 - k, d + 1))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    Q0, V = random_jet_on_line(rng, m, 9, 2).curve
    zs = _distinct_nonzero_ints(rng, n, 9)
    A, J = _line_and_jet_rows(m, d, k, Q0, V, zs)
    ambient = intersect_spans_oracle(A, J)
    relations = curve_relations([(z, 1) for z in zs] + [(0, k)], d)
    assert relations == [x for x, _ in ambient]
    for x, vec in ambient:
        assert combined(A, x[:n]) == vec
        assert combined(J, [-b for b in x[n:]]) == vec


@st.composite
def conic_divisor_pairs(draw):
    """A rank-3 conic frame, d in 3..8, two divisors whose degrees split
    2d+2 and whose parts split each degree, and distinct parameters."""
    d = draw(st.integers(3, 8))
    coords = st.integers(-9, 9).map(F)
    frame = draw(
        st.lists(st.lists(coords, min_size=3, max_size=3), min_size=3, max_size=3)
        .map(lambda rows: [tuple(r) for r in rows])
        .filter(lambda rows: naive_rank(QMatrix.from_rows(rows)) == 3)
    )
    deg_a = draw(st.integers(1, 2 * d + 1))

    def parts(total):
        cuts = sorted(c for c in draw(st.sets(st.integers(1, total), max_size=5)) if c < total)
        return [b - a for a, b in zip([0] + cuts, cuts + [total])]

    a_parts, b_parts = parts(deg_a), parts(2 * d + 2 - deg_a)
    taus = draw(
        st.lists(
            st.integers(-9, 9),
            min_size=len(a_parts) + len(b_parts),
            max_size=len(a_parts) + len(b_parts),
            unique=True,
        )
    )
    return d, frame, a_parts, b_parts, taus


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(conic_divisor_pairs())
def test_conic_relations_equal_the_ambient_intersection(pair):
    """On a smooth conic the relation in its 2d+1 coordinates is the one
    ``intersect_spans_oracle`` finds over all C(d+2, 2) columns, basis vector
    by basis vector, and the ambient ranks are the ones its certificate
    states: deg A, deg B and 2d+1."""
    d, frame, a_parts, b_parts, taus = pair
    divisors = list(zip(taus, a_parts + b_parts))
    jets = [_conic_jet(frame, tau, k) for tau, k in divisors]
    SA = span_matrix(SchemeSpec(2, tuple(jets[: len(a_parts)])), d)
    SB = span_matrix(SchemeSpec(2, tuple(jets[len(a_parts) :])), d)
    assert naive_rank(SA) == sum(a_parts)
    assert naive_rank(SB) == sum(b_parts)
    assert naive_rank(stack(SA, SB)) == 2 * d + 1
    ambient = intersect_spans_oracle(SA, SB)
    relations = curve_relations(divisors, 2 * d)
    assert relations == [x for x, _ in ambient]
    for x, vec in ambient:
        assert combined(SA, x[: SA.rows]) == vec
        assert combined(SB, [-c for c in x[SA.rows :]]) == vec


@pytest.mark.parametrize("d, k, bound", [(6, 2, 3), (9, 3, 4)])
def test_symmetric_line_parameters_force_a_zero_jet_coefficient(d, k, bound):
    """With n = d+2-k = 2 * bound line points the parameters are all of
    -bound..-1, 1..bound.  The relation's line coefficients are
    alpha_i = w_i / z_i^k with w_i proportional to 1 / prod_(l != i) (z_i - z_l),
    and by residues beta_(k-2) = beta_(k-1) * sum_i 1/z_i, which is 0 here:
    every draw of ``construct --line-jet`` or ``--tangent`` at such a bound
    would be rejected for a zero coefficient, so both refuse it up front."""
    n = d + 2 - k
    assert n == 2 * bound
    for seed in range(4):
        zs = _distinct_nonzero_ints(random.Random(seed), n, bound)
        assert sorted(zs) == [z for z in range(-bound, bound + 1) if z]
        (x,) = curve_relations([(z, 1) for z in zs] + [(0, k)], d)
        betas = [-b for b in x[n:]]
        assert betas[k - 2] == 0 and betas[k - 1] != 0
    # the identity itself, on parameters that are not symmetric
    for seed in range(4):
        zs = _distinct_nonzero_ints(random.Random(seed), n, bound + 3)
        (x,) = curve_relations([(z, 1) for z in zs] + [(0, k)], d)
        betas = [-b for b in x[n:]]
        assert betas[k - 2] == betas[k - 1] * sum(F(1, z) for z in zs)


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "3", "5", "--tangent", "3", "--bound", "2"],
        ["construct", "2", "6", "--line-jet", "2,1", "--bound", "2"],
        ["construct", "3", "9", "--line-jet", "3,1", "--bound", "1"],
        ["construct", "2", "6", "--line-jet", "2,1", "--bound", "3"],
        ["construct", "3", "9", "--line-jet", "3,1", "--bound", "4"],
        ["construct", "3", "6", "--tangent", "3", "--bound", "3"],
    ],
)
def test_too_small_bound_is_refused_before_sampling(argv, monkeypatch, capsys):
    """n_line > 2 * bound distinct nonzero line parameters cannot exist, and
    n_line = 2 * bound leaves only the symmetric ones, which every draw
    rejects; the constructors say so before they draw anything."""
    entered = []
    monkeypatch.setattr(construct, "_resample", lambda *a: entered.append(a))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: bound too small for the requested point count\n"
    assert entered == []
