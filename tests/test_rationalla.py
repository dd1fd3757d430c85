import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import naive_kernel, naive_membership, naive_modular_rank, naive_rank, naive_rref
from veronese.errors import InputError
from veronese.rationalla import (
    QMatrix,
    _rref,
    kernel_basis,
    membership_solve,
    modular_rank_probe,
    rank_exact,
    rank_with_fastpath,
)

PRIME = (1 << 31) - 1
# composite, negative and prime-divisible row denominators for from_ints
DENOMINATORS = (1, 12, 36, -6, -35, PRIME, -PRIME, 2 * PRIME)


def random_matrix(rng, rows, cols, lo=-50, hi=50, fractions=False):
    def entry():
        if fractions and rng.random() < 0.3:
            return Fraction(rng.randint(lo, hi), rng.randint(1, 12))
        return Fraction(rng.randint(lo, hi))

    return QMatrix.from_rows([[entry() for _ in range(cols)] for _ in range(rows)])


def test_rank_identity_and_zero():
    assert rank_exact(QMatrix.identity(3)) == 3
    assert rank_exact(QMatrix.zero(4, 4)) == 0


def test_rank_vandermonde_against_oracle():
    V = QMatrix.from_rows([[Fraction(i) ** j for j in range(5)] for i in range(1, 6)])
    assert rank_exact(V) == naive_rank(V) == 5


def test_rank_deficient_matrices_against_oracle():
    # low-rank products and repeated/zero columns force pivot-column skips,
    # the path where Bareiss' exact division needs the determinant identity
    rng = random.Random(99)
    for _ in range(40):
        n, m_, r = rng.randint(2, 12), rng.randint(2, 12), rng.randint(0, 4)
        A = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(n)]
        B = [[rng.randint(-9, 9) for _ in range(m_)] for _ in range(r)]
        prod = [
            [Fraction(sum(A[i][k] * B[k][j] for k in range(r))) for j in range(m_)]
            for i in range(n)
        ]
        M = QMatrix.from_rows(prod)
        assert rank_exact(M) == naive_rank(M) <= r
    for _ in range(20):
        base = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(6)]
        rows = [
            [row[0], 0, row[0], row[1], row[1], row[2], 0, row[3]] for row in base
        ]
        M = QMatrix.from_rows(rows)
        assert rank_exact(M) == naive_rank(M)


def test_rank_transpose_and_row_scaling():
    rng = random.Random(11)
    for _ in range(20):
        M = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), fractions=True)
        r = rank_exact(M)
        assert r == rank_exact(M.transpose())
        scaled = QMatrix.from_rows(
            [[Fraction(3, 7) * x for x in M.row(i)] for i in range(M.rows)]
        )
        assert rank_exact(scaled) == r
        perm = list(range(M.rows))
        rng.shuffle(perm)
        assert rank_exact(QMatrix.from_rows([M.row(i) for i in perm])) == r


def test_kernel_identity_zero_and_sum_row():
    assert kernel_basis(QMatrix.identity(3)) == []
    assert len(kernel_basis(QMatrix.zero(2, 3))) == 3
    kb = kernel_basis(QMatrix.from_rows([[1, 1, 1]]))
    assert len(kb) == 2
    for v in kb:
        assert sum(v) == 0


def test_kernel_vectors_annihilate():
    rng = random.Random(5)
    for _ in range(25):
        M = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 7), fractions=True)
        basis = kernel_basis(M)
        assert len(basis) == M.cols - rank_exact(M)
        for v in basis:
            for i in range(M.rows):
                assert sum(a * b for a, b in zip(M.row(i), v)) == 0


def test_membership_identity_scaling_roundtrip():
    assert membership_solve(QMatrix.identity(3), [1, 0, 0]) == [1, 0, 0]
    assert membership_solve(QMatrix.from_rows([[2, -1, 5]]), [6, -3, 15]) == [3]
    rng = random.Random(9)
    for _ in range(20):
        M = random_matrix(rng, 2, 5)
        if rank_exact(M) != 2:
            continue
        v = [2 * a - 5 * b for a, b in zip(M.row(0), M.row(1))]
        assert membership_solve(M, v) == [2, -5]


def test_membership_failure_and_mismatch():
    M = QMatrix.from_rows([[1, 0, 0]])
    assert membership_solve(M, [0, 1, 0]) is None
    with pytest.raises(InputError):
        membership_solve(M, [1, 0])


def test_membership_iff_rank_unchanged():
    rng = random.Random(23)
    for _ in range(40):
        M = random_matrix(rng, rng.randint(1, 5), rng.randint(2, 6))
        v = [Fraction(rng.randint(-50, 50)) for _ in range(M.cols)]
        appended = M.stack(QMatrix.from_rows([v]))
        member = membership_solve(M, v) is not None
        assert member == (rank_exact(appended) == rank_exact(M))


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _product(rng, n, m, r):
    """An n x m rational matrix of rank at most r, as A.B."""
    A = [[_rational(rng) for _ in range(r)] for _ in range(n)]
    B = [[_rational(rng) for _ in range(m)] for _ in range(r)]
    return [
        [sum((A[i][k] * B[k][j] for k in range(r)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def _integer_rows(rng, n, m):
    """``from_ints`` of an n x m integer product of rank at most 3, each row
    times 0, 1, 4, 30 or the prime, over a denominator from DENOMINATORS."""
    r = rng.randint(0, 3)
    A = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(n)]
    B = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(r)]
    nums = [
        [g * sum(a * b[j] for a, b in zip(row, B)) for j in range(m)]
        for row, g in zip(A, (rng.choice((0, 1, 4, 30, PRIME)) for _ in A))
    ]
    return QMatrix.from_ints(m, nums, [rng.choice(DENOMINATORS) for _ in nums])


@st.composite
def rational_matrices(draw):
    """Random rational matrices of any density, rank-deficient products A.B,
    tall thin products shaped like the transposed spans intersected along a
    line (up to 220 x 10), integer rows over row denominators, and 0-row
    matrices; zero rows and columns spliced in."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("random", "product", "tall", "integer rows", "no rows")))
    if kind == "no rows":
        return QMatrix.zero(0, draw(st.integers(0, 5)))
    if kind == "integer rows":
        return _integer_rows(rng, rng.randint(1, 9), rng.randint(1, 9))
    if kind == "random":
        cols, density = rng.randint(1, 8), rng.random()
        rows = [
            [_rational(rng) if rng.random() < density else Fraction(0) for _ in range(cols)]
            for _ in range(rng.randint(1, 7))
        ]
    elif kind == "product":
        rows = _product(rng, rng.randint(1, 9), rng.randint(1, 9), rng.randint(0, 3))
    else:
        cols = rng.randint(2, 10)
        rows = _product(rng, rng.randint(40, 220), cols, rng.randint(1, cols))
    if draw(st.booleans()):
        for _ in range(rng.randint(1, 3)):
            rows.insert(rng.randint(0, len(rows)), [Fraction(0)] * len(rows[0]))
        for _ in range(rng.randint(1, 3)):
            j = rng.randint(0, len(rows[0]))
            rows = [r[:j] + [Fraction(0)] + r[j:] for r in rows]
    return QMatrix.from_rows(rows)


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rational_matrices(), st.integers(0, 2**32))
def test_kernel_and_membership_equal_rref_oracle(M, seed):
    """Equal to the rationals of elimination over Q, not merely valid: the
    same rank, kernel basis, coefficients (zero off the pivots) and None,
    for M and for its transpose, with v inside and outside the row space;
    the probe never exceeds the rank.  The numerator rows reduce to the
    reduced form of M times one common pivot, which holds only if every row
    is divided by the previous pivot at every step."""
    rng = random.Random(seed)
    rows, pivots = _rref([list(r) for r in M.nums])
    reduced, oracle_pivots = naive_rref(M.to_rows())
    assert pivots == oracle_pivots
    d = rows[0][pivots[0]] if pivots else 1
    assert rows == [[d * x for x in row] for row in reduced]
    assert rank_exact(M) == naive_rank(M) == len(pivots)
    assert modular_rank_probe(M, PRIME) <= len(pivots)
    assert kernel_basis(M) == naive_kernel(M)
    for A in (M, M.transpose()):
        weights = [
            _rational(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(A.rows)
        ]
        inside = [
            sum((w * x for w, x in zip(weights, col)), Fraction(0))
            for col in A.transpose().to_rows()
        ]
        outside = [_rational(rng) for _ in range(A.cols)]
        for v in (inside, outside):
            assert membership_solve(A, v) == naive_membership(A, v)
        assert membership_solve(A, inside) is not None


def test_rank_plus_kernel_dimension():
    rng = random.Random(3)
    for _ in range(30):
        M = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), fractions=True)
        assert M.cols == rank_exact(M) + len(kernel_basis(M))


def test_modular_probe_trivial_cases():
    assert modular_rank_probe(QMatrix.identity(3), PRIME) == 3
    assert modular_rank_probe(QMatrix.zero(3, 5), PRIME) == 0


def test_modular_probe_rejects_small_prime():
    with pytest.raises(InputError):
        modular_rank_probe(QMatrix.identity(2), 101)


def test_modular_probe_bad_denominator():
    # the probe reads numerators only, so a denominator divisible by the
    # prime does not stop it
    M = QMatrix.from_rows([[Fraction(1, PRIME), Fraction(3, 2 * PRIME)], [1, 0]])
    assert modular_rank_probe(M, PRIME) == 2


def test_modular_probe_matches_exact_rank():
    rng = random.Random(2024)
    for _ in range(100):
        M = random_matrix(rng, 10, 10)
        probed = modular_rank_probe(M, PRIME)
        exact = rank_exact(M)
        assert probed <= exact
        assert probed == exact  # failure probability ~ 10/PRIME per instance


def _int_product(rng, n, m, r, lo, hi):
    """An n x m integer product A.B of rank at most r, factors in [lo, hi]."""
    A = [[rng.randint(lo, hi) for _ in range(r)] for _ in range(n)]
    B = [[rng.randint(lo, hi) for _ in range(m)] for _ in range(r)]
    return [[sum(a * b[j] for a, b in zip(row, B)) for j in range(m)] for row in A]


# 60 x 60 of rank 30 mod PRIME with factors in [0, PRIME): a row takes up
# to 30 updates of about PRIME^2 / 4 each, more than a slot of 2 * 31 bits
# can hold.
EXTRA_SLOT_BITS = QMatrix.from_ints(
    60, _int_product(random.Random(8), 60, 60, 30, 0, PRIME - 1), [1] * 60
)


@st.composite
def probe_matrices(draw):
    """Integer matrices for the probe: square, wide (up to 10 x 2000) and
    tall, random or rank-deficient products, 0-row and 0-column shapes.
    Entries are negative, multiples of the prime or longer than 200 bits;
    row denominators are prime to PRIME, so transposing (which scales
    columns by factors of the common denominator) keeps the mod-p rank."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    shape = draw(st.sampled_from(("square", "wide", "tall", "empty")))
    if shape == "empty":
        k = rng.randint(0, 6)
        return QMatrix.zero(0, k) if rng.random() < 0.5 else QMatrix.zero(k, 0)
    n = rng.randint(1, 30)
    rows, cols = {
        "square": (n, n),
        "wide": (rng.randint(1, 10), rng.randint(11, 2000)),
        "tall": (rng.randint(31, 300), rng.randint(1, 10)),
    }[shape]
    lo, hi = rng.choice(((0, PRIME - 1), (-9, 9)))
    nums = _int_product(rng, rows, cols, rng.randint(0, min(rows, cols)), lo, hi)
    for row in nums:
        g = rng.choice((1, -1, PRIME, -3 * PRIME, 1 << 200))
        shift = rng.choice((0, PRIME << 200, -PRIME))
        row[:] = [g * x + shift * rng.randint(-1, 1) for x in row]
    return QMatrix.from_ints(cols, nums, [rng.choice((1, 12, -35, 36)) for _ in nums])


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(probe_matrices())
@example(EXTRA_SLOT_BITS)
def test_modular_probe_equals_list_oracle(M):
    """The packed probe is the rank of the numerators mod PRIME, the same
    for M and its transpose, whichever side it packs along."""
    probed = modular_rank_probe(M, PRIME)
    assert probed == naive_modular_rank(M, PRIME) == modular_rank_probe(M.transpose(), PRIME)


def test_fastpath_agrees_with_exact():
    rng = random.Random(77)
    for _ in range(30):
        M = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), fractions=True)
        assert rank_with_fastpath(M) == rank_exact(M)


def test_qmatrix_validation():
    for cols, nums, dens in ((2, [[1]], [1]), (1, [[1], [2]], [1]), (1, [[1]], [0])):
        with pytest.raises(InputError):
            QMatrix.from_ints(cols, nums, dens)
    with pytest.raises(InputError):
        QMatrix.from_rows([[1, 2], [3]])


def test_from_ints_flips_negative_denominators():
    M = QMatrix.from_ints(2, [[1, -2], [4, 6]], [-3, 4])
    assert M.dens == (3, 4)
    assert M.to_rows() == [[Fraction(-1, 3), Fraction(2, 3)], [1, Fraction(3, 2)]]
    assert M.entries == tuple(M.to_rows()[0] + M.to_rows()[1])
    assert M.transpose().to_rows() == [[Fraction(-1, 3), 1], [Fraction(2, 3), Fraction(3, 2)]]


def test_from_rows_clears_each_row_once():
    M = QMatrix.from_rows([[Fraction(1, 2), Fraction(-1, 3)], [0, 0], [2, 4]])
    assert M.nums == ((3, -2), (0, 0), (2, 4))
    assert M.dens == (6, 1, 1)
