import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oracles import (
    catalecticant_oracle,
    coeff,
    evaluate,
    jet_rows_reference,
    modular_rank_probe,
    naive_modular_rank,
    naive_power,
    naive_power_sum,
    naive_poly_mul,
    naive_product_expand,
    poly_dict_to_coeffs,
    substitute,
    terms,
    to_rows,
)
from veronese.errors import InputError
from veronese.forms import (
    Form,
    LinearForm,
    _contraction_rows,
    _jet_rows,
    catalecticant_matrix,
    form_from_json,
    form_to_json,
    hankel_index,
    hankel_values,
    monomial_basis,
    power_expand,
    power_rows,
    power_sum,
    product_expand,
)
from veronese.rationalla import (
    PROBE_PRIME as PRIME,
    GatheredMatrix,
    rank_exact,
    rank_with_fastpath,
)


def test_monomial_basis_counts():
    assert len(monomial_basis(1, 3)) == 4
    assert len(monomial_basis(2, 6)) == 28
    assert len(monomial_basis(3, 5)) == 56


def test_monomial_basis_order_is_descending_lex():
    basis = monomial_basis(2, 3)
    assert basis[0] == (3, 0, 0)
    assert basis[-1] == (0, 0, 3)
    assert all(a > b for a, b in zip(basis, basis[1:]))
    assert all(sum(a) == 3 for a in basis)


def test_power_expand_monomial_and_binomial():
    F = power_expand(LinearForm.make([1, 0]), 4)
    assert coeff(F, (4, 0)) == 1 and sum(1 for c in F.coeffs if c != 0) == 1
    assert list(power_expand(LinearForm.make([1, 1]), 2).coeffs) == [1, 2, 1]
    assert list(power_expand(LinearForm.make([1, 2]), 3).coeffs) == [1, 6, 12, 8]


# Coordinates: integers, or rationals with small denominators and either sign.
coordinates = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=7)

SETTINGS = settings(
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 10), st.data())
def test_power_expand_against_symbolic_oracle(m, d, data):
    coeffs = data.draw(st.lists(coordinates, min_size=m + 1, max_size=m + 1))
    assume(any(coeffs))
    expected = poly_dict_to_coeffs(naive_power(coeffs, d), m, d)
    assert list(power_expand(LinearForm.make(coeffs), d).coeffs) == expected


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 10), st.data())
def test_power_sum_and_rows_against_naive_re_expansion(m, d, data):
    """Zero and negative coordinates and coefficients, zero points, and no
    terms at all."""
    points = data.draw(
        st.lists(st.lists(coordinates, min_size=m + 1, max_size=m + 1), max_size=4)
    )
    cs = data.draw(st.lists(coordinates, min_size=len(points), max_size=len(points)))
    terms = [(Fraction(c), p) for c, p in zip(cs, points)]
    nums, den = power_sum(m, d, terms)
    assert [Fraction(n, den) for n in nums] == naive_power_sum(m, d, terms)
    rows = power_rows(m, d, points)
    assert (rows.rows, rows.cols) == (len(points), comb(m + d, m))
    assert to_rows(rows) == [poly_dict_to_coeffs(naive_power(p, d), m, d) for p in points]


@st.composite
def germs(draw, m: int, k: int):
    """k curve vectors in K^(m+1): numerators from +-1 to +-10^12, at most
    three distinct denominators up to 10^6, and some coordinate series
    zero throughout."""
    dens = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=3))
    size = draw(st.integers(0, 12))
    entries = st.builds(Fraction, st.integers(-(10**size), 10**size), st.sampled_from(dens))
    zero = draw(st.sets(st.integers(0, m), max_size=m))
    return [
        [Fraction(0) if i in zero else draw(entries) for i in range(m + 1)] for _ in range(k)
    ]


@settings(SETTINGS, max_examples=150)
@given(st.integers(1, 4), st.integers(0, 12), st.data())
def test_jet_rows_equal_the_truncated_series_walk(m, d, data):
    """The Kronecker-packed rows against the column walk they replaced, for
    every length from a reduced point to d + 2."""
    k = data.draw(st.integers(1, d + 2))
    curve = data.draw(germs(m, k))
    assert _jet_rows(curve, d) == jet_rows_reference(curve, d)


@pytest.mark.parametrize("s", [1, 2, 3, 5])
@pytest.mark.parametrize("sign", [1, -1])
def test_jet_rows_at_the_slot_bound(s, sign):
    """Germs with an entry of absolute value exactly N^d, N the largest L1
    norm of a coordinate series: x_0(t) = sign 2^s is constant, so column
    (d, 0, 0) holds (sign 2^s)^d at t^0, one short of the slot's half width;
    x_1 and x_2 alternate in sign when sign < 0."""
    curve = [
        [Fraction(sign * 2**s), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(sign), Fraction(1)],
        [Fraction(0), Fraction(0), Fraction(sign)],
    ]
    for d in range(13):
        rows, den = _jet_rows(curve, d)
        assert (rows, den) == jet_rows_reference(curve, d)
        assert max(abs(x) for row in rows for x in row) == 2 ** (s * d)



@pytest.mark.parametrize(
    "m, d, k, size",
    [(1, 200, 2, 10**6), (1, 500, 2, 9), (1, 500, 3, 1), (1, 60, 50, 9), (2, 20, 50, 3)],
)
def test_jet_rows_equal_the_walk_at_high_degree_and_length(m, d, k, size):
    """Shapes past the hypothesis draws: binary forms of degree up to 500,
    where a slot is hundreds of bits wide, and germs of length 50."""
    rng = random.Random(d * k)
    curve = [
        [Fraction(rng.randint(-size, size), rng.randint(1, 7)) for _ in range(m + 1)]
        for _ in range(k)
    ]
    assert _jet_rows(curve, d) == jet_rows_reference(curve, d)


def test_jet_rows_of_a_two_jet_stay_small_at_degree_500():
    """x_0 = 1 + t, x_1 = 1 - t: column (a, 500 - a) is 1 at t^0 and 2a - 500
    at t^1.  Every power in the packed table is kept mod 2^(2K), K about
    500 bits, so the table holds about 1500 integers of at most 4K bits;
    unreduced powers and every tail row of degree below 500 would take
    gigabytes."""
    curve = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    tracemalloc.start()
    try:
        rows, den = _jet_rows(curve, 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert den == 1
    assert rows == [[1] * 501, [2 * a - 500 for a in range(500, -1, -1)]]
    assert peak < 2**22

def test_power_expand_projective_scaling():
    rng = random.Random(8)
    for _ in range(10):
        coeffs = [rng.randint(-5, 5) for _ in range(3)]
        if all(c == 0 for c in coeffs):
            continue
        lam = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        d = rng.randint(1, 6)
        scaled = power_expand(LinearForm.make([lam * c for c in coeffs]), d)
        assert scaled == power_expand(LinearForm.make(coeffs), d).scale(lam**d)


def test_product_expand_simple_shapes():
    x0 = LinearForm.make([1, 0, 0])
    x1 = LinearForm.make([0, 1, 0])
    F = product_expand([(x0, 4), (x0, 1)])
    assert F == power_expand(x0, 5)
    G = product_expand([(x0, 2), (x1, 1)])
    assert coeff(G, (2, 1, 0)) == 1 and sum(1 for c in G.coeffs if c != 0) == 1


def test_product_expand_against_convolution_oracle():
    a = LinearForm.make([1, 1, 0])
    b = LinearForm.make([1, 0, -1])
    F = product_expand([(a, 4), (b, 1)])
    expected = naive_poly_mul(naive_power([1, 1, 0], 4), naive_power([1, 0, -1], 1))
    assert list(F.coeffs) == poly_dict_to_coeffs(expected, 2, 5)


@SETTINGS
@given(st.integers(1, 3), st.data())
def test_product_expand_against_naive_convolution(m, data):
    """Forms and linear forms with zero, negative and rational coefficients,
    exponents 0..3, total degree at most 10."""
    factors = []
    for _ in range(data.draw(st.integers(1, 3))):
        deg = data.draw(st.integers(1, 3))
        n = comb(m + deg, m)
        coeffs = data.draw(st.lists(st.just(0) | coordinates, min_size=n, max_size=n))
        f = Form.from_coeffs(m, deg, coeffs)
        if deg == 1 and any(coeffs) and data.draw(st.booleans()):
            f = LinearForm.make(coeffs)
        factors.append((f, data.draw(st.integers(0, 3))))
    assume(sum((1 if isinstance(f, LinearForm) else f.d) * e for f, e in factors) <= 10)
    assert list(product_expand(factors).coeffs) == naive_product_expand(factors)


def test_product_equals_repeated_power():
    L = LinearForm.make([2, -1, 3])
    assert product_expand([(L, 1)] * 4) == power_expand(L, 4)


def test_product_rejects_mixed_variables():
    with pytest.raises(InputError):
        product_expand([(LinearForm.make([1, 0]), 1), (LinearForm.make([1, 0, 0]), 1)])


@SETTINGS
@given(st.integers(1, 3), st.integers(2, 8), st.data())
def test_catalecticant_against_naive_diff_oracle(m, d, data):
    """Every contraction order 1 <= a <= d-1, and a = d (the apolar-kernel
    rows of a binary form's degree-d operators), on rational coefficients."""
    n = comb(m + d, m)
    coeffs = data.draw(st.lists(st.just(0) | coordinates, min_size=n, max_size=n))
    F = Form.from_coeffs(m, d, coeffs)
    for a in range(1, d):
        assert to_rows(catalecticant_matrix(F, a)) == catalecticant_oracle(terms(F), m, d, a)
    assert to_rows(_contraction_rows(F, d)) == catalecticant_oracle(terms(F), m, d, d)


@pytest.mark.parametrize(
    "m, d, orders",
    [(3, 9, range(1, 5)), (3, 10, range(1, 6))]
    + [(1, d, range(1, d + 1)) for d in range(1, 13)],
)
def test_catalecticant_against_oracle_at_workload_sizes(m, d, orders):
    """The flattening range at the scale-up sizes (m = 3, d = 9, 10), and
    every a up to a = d for binary forms, whose a = d rows have one column."""
    rng = random.Random(1000 * m + d)
    F = Form.from_coeffs(
        m, d, [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(comb(m + d, m))]
    )
    for a in orders:
        assert to_rows(_contraction_rows(F, a)) == catalecticant_oracle(terms(F), m, d, a)


@st.composite
def hankel_forms(draw):
    """Forms in m + 1 = 2..4 variables of degree d <= 10 for the Hankel
    probe: random rational coefficients or a short power sum (catalecticants
    of low rank), some numerators multiplied by PRIME and, in some draws,
    one coefficient over the denominator PRIME, which makes every other
    cleared numerator a multiple of PRIME."""
    m, d = draw(st.integers(1, 3)), draw(st.integers(2, 10))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = comb(m + d, m)
    if draw(st.booleans()):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)]
    else:
        F = Form.from_coeffs(m, d, [0] * n)
        for _ in range(rng.randint(1, 4)):
            L = LinearForm.make([rng.randint(-3, 3) for _ in range(m)] + [1])
            F = F + power_expand(L, d).scale(Fraction(rng.randint(1, 9), rng.randint(1, 5)))
        coeffs = list(F.coeffs)
    for i in rng.sample(range(n), rng.randint(0, n // 2)):
        coeffs[i] *= rng.choice((PRIME, -PRIME, 3 * PRIME))
    if draw(st.booleans()):
        coeffs[rng.randrange(n)] = Fraction(rng.randint(1, 9), PRIME)
    return Form.from_coeffs(m, d, coeffs)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(hankel_forms())
def test_hankel_probe_equals_catalecticant_modular_rank(F):
    """For every order 1 <= a <= d-1 (tall matrices above d/2), the probe
    of the Hankel matrix gathered from ``hankel_values`` is the rank of the
    catalecticant's numerators mod PRIME, and the fast path on it, which
    builds the catalecticant only to fall back, is its exact rank."""
    orders = range(1, F.d)
    plans = [(hankel_index(F.m, F.d, a), lambda a=a: catalecticant_matrix(F, a)) for a in orders]
    for a, H in zip(orders, GatheredMatrix.gather(hankel_values(F), plans)):
        C = catalecticant_matrix(F, a)
        assert modular_rank_probe(H) == naive_modular_rank(C, PRIME)
        assert (H.rows, H.cols) == (C.rows, C.cols)
        assert rank_with_fastpath(H) == rank_exact(C)


def test_catalecticant_pure_power_rank_one():
    for a in range(1, 6):
        F = power_expand(LinearForm.make([2, 3, 5]), 6)
        assert rank_exact(catalecticant_matrix(F, a)) == 1


def test_catalecticant_hand_written_2x4():
    # x0^3 x1 in two variables, a = 1: rows are the two partials.
    F = product_expand([(LinearForm.make([1, 0]), 3), (LinearForm.make([0, 1]), 1)])
    M = catalecticant_matrix(F, 1)
    assert (M.rows, M.cols) == (2, 4)
    assert to_rows(M) == [[0, 3, 0, 0], [1, 0, 0, 0]]
    assert rank_exact(M) == 2


def test_catalecticant_rank_bounded_by_summands_random():
    rng = random.Random(13)
    for _ in range(20):
        lins = []
        while len(lins) < 3:
            c = [rng.randint(-9, 9) for _ in range(3)]
            if any(x != 0 for x in c):
                lins.append(LinearForm.make(c))
        F = power_expand(lins[0], 6) + power_expand(lins[1], 6) + power_expand(lins[2], 6)
        r = rank_exact(catalecticant_matrix(F, 3))
        assert r <= 3
        assert r == 3  # three random powers are independent with prob ~ 1


def test_catalecticant_rank_symmetry():
    rng = random.Random(17)
    for _ in range(8):
        F = Form.from_coeffs(2, 5, [rng.randint(-9, 9) for _ in range(comb(7, 2))])
        for a in range(1, 5):
            ra = rank_exact(catalecticant_matrix(F, a))
            rb = rank_exact(catalecticant_matrix(F, 5 - a))
            assert ra == rb


def test_substitute_is_ring_map():
    F = power_expand(LinearForm.make([1, -2]), 4)
    imgs = [LinearForm.make([3, 1]), LinearForm.make([1, 1])]
    G = substitute(F, imgs)
    # substituting into a power of a linear form is the power of the image
    inner = LinearForm.make([3 * 1 + 1 * (-2), 1 * 1 + 1 * (-2)])
    assert G == power_expand(inner, 4)


def test_evaluate_matches_coefficient_pairing():
    F = Form.from_dict(2, 3, {(1, 1, 1): Fraction(2), (3, 0, 0): Fraction(-1)})
    assert evaluate(F, [1, 2, 3]) == 2 * 6 - 1


def test_form_json_roundtrip():
    F = Form.from_coeffs(2, 2, [Fraction(1, 3), 0, -2, Fraction(7, 2), 0, 5])
    obj = form_to_json(F)
    assert obj["order"] == "grlex"
    assert form_from_json(obj) == F
    with pytest.raises(InputError):
        form_from_json({"m": 1, "d": 1, "coeffs": ["1", "1"], "order": "weird"})
