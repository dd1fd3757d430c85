"""The integer polynomial layer of ``veronese.binary``: the squarefree test by
a Sylvester-matrix rank, the rational root search and its deflation, each
checked against the Fraction Euclid and long division of ``tests/oracles``."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from veronese.binary import (
    MAX_DIVISOR_SEARCH,
    _binary_projective_roots,
    _binary_squarefree,
    _divisors,
    _int_poly,
    _int_poly_deflate,
    _rational_roots,
)
from veronese.errors import InputError
from veronese.forms import Form

from oracles import (
    naive_binary_squarefree,
    naive_deflate,
    naive_dehomogenize,
    naive_rational_roots,
)

F = Fraction
SRC = Path(__file__).resolve().parents[1] / "src"

DIFFERENTIAL = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def factored_forms(draw):
    """c * y1^k * y0^l * prod (b_i y1 - a_i y0)^(e_i) * (an irreducible
    quadratic or nothing), in the coefficient order of a binary form (that
    of y0^(D-j) y1^j is the z^j coefficient of the dehomogenized
    polynomial): roots a/b with b > 1, repeated roots, roots at 0 (y1^k)
    and at infinity (y0^l), and a rational c, so the coefficients share a
    common factor or denominator."""
    small = st.integers(-6, 6)
    p = [1]
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(small), draw(st.integers(1, 6))
        for _ in range(draw(st.integers(1, 2))):
            p = _poly_mul(p, [-a, b])
    p = _poly_mul(p, draw(st.sampled_from([[1], [1, 0, 1], [-2, 0, 1], [3, 1, 2]])))
    p = [0] * draw(st.integers(0, 2)) + p
    c = F(draw(st.integers(-12, 12).filter(bool)), draw(st.integers(1, 12)))
    coeffs = [c * x for x in p] + [0] * draw(st.integers(0, 2))
    return Form.from_coeffs(1, len(coeffs) - 1, coeffs)


@st.composite
def small_forms(draw):
    """Binary forms of degree 0..9 with rational coefficients of numerator and
    denominator at most 9, not all zero."""
    d = draw(st.integers(0, 9))
    num, den = st.integers(-9, 9), st.integers(1, 9)
    coeffs = [F(draw(num), draw(den)) for _ in range(d + 1)]
    if not any(coeffs):
        coeffs[-1] = F(1)
    return Form.from_coeffs(1, d, coeffs)


@DIFFERENTIAL
@given(st.one_of(factored_forms(), small_forms()))
def test_squarefree_matches_euclid_oracle(h):
    assert _binary_squarefree(h) == naive_binary_squarefree(h)


@DIFFERENTIAL
@given(st.one_of(factored_forms(), small_forms()))
def test_rational_roots_match_oracle_in_order(h):
    p, y0_mult = _int_poly(h)
    q, oracle_mult = naive_dehomogenize(h)
    assert y0_mult == oracle_mult
    assert _rational_roots(p) == naive_rational_roots(q)


@DIFFERENTIAL
@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=6).filter(lambda q: q[-1]),
    st.integers(-7, 7),
    st.integers(1, 7),
)
def test_deflation_equals_fraction_division_cleared(q, a, b):
    """The quotient of p = (b z - a) q by (z - a/b) is b q, the integer list
    that Fraction division and lcm clearing give; with b > 1 that is not q."""
    g = Fraction(a, b)
    a, b = g.numerator, g.denominator
    p = _poly_mul(q, [-a, b])
    assert _int_poly_deflate(p, a, b) == naive_deflate(p, g) == [b * x for x in q]


@pytest.mark.parametrize(
    "p, roots",
    [
        ([7], []),  # a constant
        ([3, -6], [F(1, 2)]),  # linear, root 1/2
        ([2, -5, 2], [F(1, 2), F(2)]),  # 1/2 is tried before 2/1
        ([-3, 4, 4], [F(1, 2), F(-3, 2)]),  # (2z - 1)(2z + 3)
        ([-12, 6, 6], [F(1), F(-2)]),  # 6 (z - 1)(z + 2): a common factor
        ([2, -1, -4, 3], [F(1), F(1), F(-2, 3)]),  # (z - 1)^2 (3z + 2)
        ([0, 0, -2, 1], [F(0), F(0), F(2)]),  # roots at 0 first
        ([1, 0, 1], None),  # z^2 + 1
        ([-2, 0, 1], None),  # z^2 - 2
        ([2, 1, -2, -1], [F(1), F(-1), F(-2)]),  # -(z - 1)(z + 1)(z + 2)
    ],
)
def test_rational_roots_on_chosen_polynomials(p, roots):
    assert _rational_roots(p) == roots == naive_rational_roots(p)


@pytest.mark.parametrize(
    "coeffs, squarefree",
    [
        ([5], True),  # a nonzero constant
        ([0, 1], True),  # y1
        ([1, 0], True),  # y0: a root at infinity
        ([1, 0, 0], False),  # y0^2: a double root at infinity
        ([0, 1, 0], True),  # y0 y1
        ([0, 0, 1], False),  # y1^2: a double root at 0
        ([1, -2, 1], False),  # (y0 - y1)^2
        ([F(1, 2), F(-5, 4), F(1, 2)], True),  # (2 y0 - y1)(y0 - 2 y1) / 4
        ([2, 0, -20, 0, 10, 1], True),
        ([0, 0, 0], False),  # the zero form
    ],
)
def test_squarefree_on_chosen_forms(coeffs, squarefree):
    h = Form.from_coeffs(1, len(coeffs) - 1, coeffs)
    assert _binary_squarefree(h) is squarefree is naive_binary_squarefree(h)


def test_projective_roots_include_infinity_and_fractions():
    # y0 (y0 - 2 y1)(y0 + 3 y1) / 6: roots 1/2, -1/3 and (0 : 1)
    h = Form.from_coeffs(1, 3, [F(1, 6), F(1, 6), -1, 0])
    assert _binary_projective_roots(h) == [(1, F(1, 2)), (1, F(-1, 3)), (0, 1)]
    # a repeated root is not squarefree
    assert _binary_projective_roots(Form.from_coeffs(1, 3, [1, -2, 1, 0])) is None


def test_divisor_search_is_capped():
    assert _divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert _divisors(1) == [1]
    with pytest.raises(InputError, match="rational-root search refused"):
        _divisors(MAX_DIVISOR_SEARCH + 1)


def test_cli_refuses_a_root_search_past_the_cap(tmp_path):
    """The quadric's 53-digit coefficient would take about 10^26 trial
    divisions; the search is refused with exit 2 and one stderr line."""
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"m": 1, "d": 2, "coeffs": ["1" + "0" * 49 + "121", "1", "1"]}))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "veronese.cli", "sylvester", "--form", str(form)],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("input error: rational-root search refused")
    assert proc.stderr.count("\n") == 1
