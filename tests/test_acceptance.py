"""Acceptance suite: one test per criterion, exact arithmetic throughout
(tolerance zero unless a criterion states otherwise; none does).

Each test prints a single PASS/FAIL line, visible with `pytest -s`.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from oracles import (
    Hyperplane,
    castelnuovo_check,
    naive_membership,
    naive_rank,
    proper_subscheme_spans,
    random_hyperplane,
    random_point_on_hyperplane,
    random_scheme,
    reparametrize_jet,
    stack,
    substitute,
)
from veronese.binary import sylvester_binary
from veronese.construct import (
    construct_conic_double,
    construct_line_jet,
    construct_stratum_point,
    construct_tangent_plus_points,
    flattening_rank,
    gamma_dims,
    terracini_dim,
)
from veronese.forms import LinearForm, power_expand, product_expand
from veronese.rationalla import QMatrix, rank_exact
from veronese.schemes import (
    FatPoint,
    Reduced,
    SchemeSpec,
    h1,
    random_fat_point,
    random_jet_on_conic,
    random_jet_on_line,
    random_reduced,
    span_matrix,
)
from veronese.strata import (
    EQUAL,
    LESS_EQUAL,
    StratumLabel,
    dominance_compare,
    hilb_stratum_dim,
    partitions_enumerate,
    sigma_stratum_dim,
)

F = Fraction


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def _collinear_points(m: int, count: int):
    pts = []
    for z in range(count):
        coords = [F(1), F(z)] + [F(0)] * (m - 1)
        pts.append(Reduced(tuple(coords)))
    return SchemeSpec(m, tuple(pts))


def _distinct_fat_scheme(rng, m, multiplicities, bound=50):
    while True:
        comps = [random_fat_point(rng, m, bound, k) for k in multiplicities]
        try:
            return SchemeSpec(m, tuple(comps))
        except Exception:
            continue


def test_criterion_1_independence_up_to_degree_bound():
    with criterion(1, "degree <= d+1 schemes impose independent conditions"):
        rng = random.Random(1001)
        for m, d in ((2, 4), (2, 6), (3, 5)):
            for _ in range(50):
                Z = random_scheme(rng, m, d + 1, bound=50, kinds=("reduced", "jet", "fat"))
                assert h1(Z, d) == 0, (m, d, Z)
            assert h1(_collinear_points(m, d + 2), d) == 1


def test_criterion_2_stratum_dimension_formulas():
    with criterion(2, "stratum dimension formulas, exhaustive for t <= 6"):
        for m in (2, 3):
            for t in range(2, 7):
                for lab in partitions_enumerate(t):
                    s = lab.num_parts
                    hd = hilb_stratum_dim(m, lab)
                    sd = sigma_stratum_dim(m, lab)
                    assert hd + (t - 1) == sd
                    assert hd == m * t + s - t
                    assert sd == (m + 1) * t - 1 - t + s
                    # independent oracle: per-component parameter count
                    assert hd == m * s + sum((p - 1) * (m - 1) for p in lab.parts)


def test_criterion_3_fat_point_interpolation_instances():
    with criterion(3, "triple/quadruple + double point interpolation"):
        alpha = comb(2 + 6 - 1, 2) // 3
        assert alpha == 7
        rng = random.Random(1003)
        for i in (1, 2):
            for _ in range(20):
                Z = _distinct_fat_scheme(rng, 2, [3] * i + [2] * (alpha - i))
                assert h1(Z, 6) == 0
        # the bound floor(C(m+d-2, m)/(m+1)) evaluates to 7 at (2, 7); the
        # instances below use 8 double points and still impose independent
        # conditions, which is what the h1 check certifies
        beta = comb(2 + 7 - 2, 2) // 3
        assert beta == 7
        for _ in range(20):
            Z = _distinct_fat_scheme(rng, 2, [4] + [2] * 8)
            assert h1(Z, 7) == 0


def test_criterion_4_tangential_join_dimensions():
    with criterion(4, "tangential join and special family dimensions"):
        dim_tau, cert = terracini_dim(2, 6, "tau", 3, seed=1004)
        assert dim_tau == 7 == 3 * (2 + 1) - 2
        assert cert.all_passed  # includes the triple-point route agreement
        dim_sigma, _ = terracini_dim(2, 6, "secant", 3, seed=1004)
        assert dim_sigma == 8 and dim_sigma - dim_tau == 1

        rep = gamma_dims(2, 6, 4, seed=1004)
        fam = rep["families"]["double_tangent"]
        assert fam["dim"] == 9 == sigma_stratum_dim(2, StratumLabel.make([2, 2]))
        assert fam["codim_in_sigma"] == 2
        assert rep["all_passed"]

        rep = gamma_dims(2, 7, 3, seed=1004)
        fam = rep["families"]["noncollinear_triple"]
        assert fam["dim"] == 6 == sigma_stratum_dim(2, StratumLabel.make([3]))
        assert fam["codim_in_sigma"] == 2
        assert rep["all_passed"]


def test_criterion_5_stratum_points_all_labels():
    with criterion(5, "certified stratum points at (2, 9, 4), 10 seeds/label"):
        for lab in partitions_enumerate(4):
            caps = [p if p > 1 else 1 for p in lab.parts]
            expected_subschemes = 1
            for c in caps:
                expected_subschemes *= c + 1
            expected_subschemes -= 1
            for seed in range(10):
                Z, P, cert = construct_stratum_point(2, 9, lab, seed=seed)
                assert cert.all_passed, (lab.parts, seed)
                assert cert.value == 4
                assert len(proper_subscheme_spans(Z, 9)) == expected_subschemes
                fr, _ = flattening_rank(P, 4)
                assert fr == 4


def test_criterion_6_line_jet_rank_decompositions():
    with criterion(6, "jet-on-a-line rank decompositions at (2, 6)"):
        for seed in range(10):
            Z, P, rec, cert = construct_line_jet(2, 6, 2, 1, seed=seed)
            assert cert.all_passed, seed
            assert rec.size == 7 == 6 + 2 + 1 - 2
            assert rec.expand() == P
            assert any("border rank = 2+1" in c.statement for c in cert.claims)
        Z, P, rec, cert = construct_line_jet(2, 6, 2, 0, seed=0)
        assert cert.all_passed and rec.size == 6
        assert any(
            "binary rank cross-check on the line: 6 = d+2-t1" in c.statement
            for c in cert.claims
        )


def test_criterion_7_tangent_plus_points_rank():
    with criterion(7, "tangent vector + points rank at (3, 5, 3), 10 seeds"):
        for seed in range(10):
            Z, P, rec, cert = construct_tangent_plus_points(3, 5, 3, seed=seed)
            assert cert.all_passed, seed
            assert rec.size == 6 == 5 + 3 - 2
            assert rec.expand() == P
            b, r = 3, rec.size
            assert b + r == 9 <= 3 * 5 - 2
            assert any("border rank = 3" in c.statement for c in cert.claims)


def test_criterion_8_conic_double_span_intersection():
    with criterion(8, "two degree-6 conic divisors share exactly one point"):
        for seed in range(10):
            A, B, P, cert = construct_conic_double(5, [6], [6], seed=seed)
            assert cert.all_passed, seed
            assert cert.value == 6
            SA, SB = span_matrix(A, 5), span_matrix(B, 5)
            assert rank_exact(SA) == rank_exact(SB) == 6
            assert rank_exact(stack(SA, SB)) == 2 * 5 + 1  # Grassmann: dim 0
            for Z in (A, B):
                for S in proper_subscheme_spans(Z, 5):
                    assert naive_membership(S, P.coeffs) is None


def test_criterion_9_binary_rank_and_invariance():
    with criterion(9, "binary tangent forms have rank d; substitution invariance"):
        rng = random.Random(1009)
        for d in range(3, 9):
            f = product_expand(
                [(LinearForm.make([1, 0]), d - 1), (LinearForm.make([0, 1]), 1)]
            )
            assert sylvester_binary(f, want_decomposition=False).rank == d
            for _ in range(20):
                while True:
                    a, b, c, e = (rng.randint(-4, 4) for _ in range(4))
                    if a * e - b * c != 0:
                        break
                g = substitute(f, [LinearForm.make([a, b]), LinearForm.make([c, e])])
                assert sylvester_binary(g, want_decomposition=False).rank == d


def _random_split_scheme(rng):
    """Random reduced/fat configuration with some supports on a hyperplane."""
    m = rng.choice((2, 3))
    H = random_hyperplane(rng, m, 9)
    comps = []
    tries = 0
    while len(comps) < rng.randint(1, 4) and tries < 50:
        tries += 1
        on_h = rng.random() < 0.5
        pt = (
            random_point_on_hyperplane(rng, H, 9)
            if on_h
            else random_reduced(rng, m, 9).point
        )
        kind = rng.choice(("reduced", "fat2", "fat3"))
        comp = (
            Reduced(pt)
            if kind == "reduced"
            else FatPoint(pt, 2 if kind == "fat2" else 3)
        )
        try:
            SchemeSpec(m, tuple(comps + [comp]))
        except Exception:
            continue
        comps.append(comp)
    if not comps:
        comps = [random_reduced(rng, m, 9)]
    return SchemeSpec(m, tuple(comps)), H


def test_criterion_10_property_suites():
    with criterion(10, "property suites (residuals, jets, dominance, rank oracle)"):
        rng = random.Random(1010)
        # residual inequality on 100 random splits
        for _ in range(100):
            Z, H = _random_split_scheme(rng)
            d = rng.randint(3, 6)
            assert castelnuovo_check(Z, H, d)
        # jet reparametrization invariance on 100 random jets
        for _ in range(100):
            m = rng.choice((2, 3))
            k = rng.randint(2, 5)
            jet = (
                random_jet_on_conic(rng, m, 9, k)
                if rng.random() < 0.5
                else random_jet_on_line(rng, m, 9, k)
            )
            u = F(rng.randint(1, 9))
            v = F(rng.randint(-9, 9))
            jr = reparametrize_jet(jet, u, v)
            d = k + rng.randint(0, 2)
            A = span_matrix(SchemeSpec(m, (jet,)), d)
            B = span_matrix(SchemeSpec(m, (jr,)), d)
            assert rank_exact(A) == rank_exact(B) == rank_exact(stack(A, B))
        # dominance partial-order axioms, exhaustive for t <= 8
        for t in range(1, 9):
            labels = partitions_enumerate(t)
            for a in labels:
                assert dominance_compare(a, a) == EQUAL
            for a, b in itertools.product(labels, labels):
                if dominance_compare(a, b) == EQUAL:
                    assert a == b
            le = {
                (a.parts, b.parts)
                for a, b in itertools.product(labels, labels)
                if dominance_compare(a, b) in (LESS_EQUAL, EQUAL)
            }
            for a, b, c in itertools.product(labels, repeat=3):
                if (a.parts, b.parts) in le and (b.parts, c.parts) in le:
                    assert (a.parts, c.parts) in le
        # Bareiss against plain rational elimination on 100 random matrices
        for _ in range(100):
            rows = rng.randint(1, 30)
            cols = rng.randint(1, 30)
            M = QMatrix.from_rows(
                [
                    [
                        Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                        if rng.random() < 0.2
                        else Fraction(rng.randint(-50, 50))
                        for _ in range(cols)
                    ]
                    for _ in range(rows)
                ]
            )
            assert rank_exact(M) == naive_rank(M)
