import random
from fractions import Fraction
from functools import partial
from math import comb

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import (
    identity,
    modular_rank_probe,
    naive_kernel,
    naive_membership,
    naive_modular_rank,
    naive_rank,
    naive_rref,
    stack,
    to_rows,
)
from veronese.errors import InputError
from veronese.forms import Form, catalecticant_matrix, hankel_index, hankel_values, power_sum
from veronese.rationalla import (
    PROBE_PRIME as PRIME,
    GatheredMatrix,
    QMatrix,
    _eliminate,
    _fold,
    _q,
    _probe_pivots,
    kernel_basis,
    membership_solve,
    rank_exact,
    rank_with_fastpath,
)
from veronese.schemes import FatPoint, SchemeSpec, conditions_matrix

# composite, negative and prime-divisible row denominators for from_ints
DENOMINATORS = (1, 12, 36, -6, -35, PRIME, -PRIME, 2 * PRIME)


def random_matrix(rng, rows, cols, lo=-50, hi=50, fractions=False):
    def entry():
        if fractions and rng.random() < 0.3:
            return Fraction(rng.randint(lo, hi), rng.randint(1, 12))
        return Fraction(rng.randint(lo, hi))

    return QMatrix.from_rows([[entry() for _ in range(cols)] for _ in range(rows)])


def test_rank_identity_and_zero():
    assert rank_exact(identity(3)) == 3
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
    assert kernel_basis(identity(3)) == []
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
    assert membership_solve(identity(3), [1, 0, 0]) == (3, [1, 0, 0])
    assert membership_solve(QMatrix.from_rows([[2, -1, 5]]), [6, -3, 15]) == (1, [3])
    rng = random.Random(9)
    for _ in range(20):
        M = random_matrix(rng, 2, 5)
        if rank_exact(M) != 2:
            continue
        v = [2 * a - 5 * b for a, b in zip(M.row(0), M.row(1))]
        assert membership_solve(M, v) == (2, [2, -5])


def test_string_literals_are_p_over_q_or_decimal():
    assert _q("-3/4") == Fraction(-3, 4) and _q(" 0.25 ") == Fraction(1, 4)
    for literal in ("abc", "1/0", "1e5", "2.5E-3"):
        with pytest.raises(InputError, match="bad rational literal"):
            _q(literal)


def test_membership_failure_and_mismatch():
    M = QMatrix.from_rows([[1, 0, 0]])
    assert membership_solve(M, [0, 1, 0]) == (1, None)
    with pytest.raises(InputError):
        membership_solve(M, [1, 0])


def test_membership_iff_rank_unchanged():
    rng = random.Random(23)
    for _ in range(40):
        M = random_matrix(rng, rng.randint(1, 5), rng.randint(2, 6))
        v = [Fraction(rng.randint(-50, 50)) for _ in range(M.cols)]
        appended = stack(M, QMatrix.from_rows([v]))
        r, sol = membership_solve(M, v)
        assert r == rank_exact(M)
        assert (sol is not None) == (rank_exact(appended) == r)


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


def _span_shaped_rows(rng, t, n):
    """``from_ints`` of t <= n independent integer rows, like the span matrix
    of a degree-t scheme: entries in [-9, 9] plus 200 at one distinct column
    per row, a diagonally dominant t x t minor.  Some rows are multiplied by
    the prime, so the probe falls short of t and the solve falls back to
    Gauss-Jordan on every column; the denominators come from DENOMINATORS."""
    nums = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(t)]
    for row, j in zip(nums, rng.sample(range(n), t)):
        row[j] += 200
    if rng.random() < 0.3:
        for i in rng.sample(range(t), rng.randint(1, t)):
            nums[i] = [PRIME * x for x in nums[i]]
    return QMatrix.from_ints(n, nums, [rng.choice(DENOMINATORS) for _ in nums])


@st.composite
def rational_matrices(draw):
    """Random rational matrices of any density, rank-deficient products A.B,
    tall thin products shaped like the transposed spans intersected along a
    line (up to 220 x 10), integer rows over row denominators, wide
    independent rows shaped like span matrices (up to 11 x 286), and 0-row
    matrices; zero rows and columns spliced in."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(
        st.sampled_from(("random", "product", "tall", "integer rows", "span", "no rows"))
    )
    if kind == "no rows":
        return QMatrix.zero(0, draw(st.integers(0, 5)))
    if kind == "integer rows":
        return _integer_rows(rng, rng.randint(1, 9), rng.randint(1, 9))
    if kind == "span":
        return _span_shaped_rows(rng, rng.randint(1, 11), rng.randint(11, 286))
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
    and the rank membership_solve returns with them, for M and for its
    transpose, with v inside and outside the row space and
    with one coordinate of the inside vector changed;
    the probe never exceeds the rank.  The numerator rows reduce to the
    reduced form of M times one common pivot, which holds only if every row
    is divided by the previous pivot at every step."""
    rng = random.Random(seed)
    rows, pivots = _eliminate([list(r) for r in M.nums], True)
    reduced, oracle_pivots = naive_rref(to_rows(M))
    assert pivots == oracle_pivots
    d = rows[0][pivots[0]] if pivots else 1
    assert rows == [[d * x for x in row] for row in reduced]
    assert rank_exact(M) == naive_rank(M) == len(pivots)
    assert modular_rank_probe(M) <= len(pivots)
    assert kernel_basis(M) == naive_kernel(M)
    for A in (M, M.transpose()):
        weights = [
            _rational(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(A.rows)
        ]
        inside = [
            sum((w * x for w, x in zip(weights, col)), Fraction(0))
            for col in to_rows(A.transpose())
        ]
        outside = [_rational(rng) for _ in range(A.cols)]
        # one coordinate of the inside vector moved, often the last column:
        # where the probe's minor misses that column only the exact check of
        # every column can refuse it
        nudged = list(inside)
        if A.cols:
            nudged[rng.choice((A.cols - 1, rng.randrange(A.cols)))] += 1
        for v in (inside, outside, nudged):
            assert membership_solve(A, v) == (naive_rank(A), naive_membership(A, v))
        assert membership_solve(A, inside)[1] is not None


def test_rank_plus_kernel_dimension():
    rng = random.Random(3)
    for _ in range(30):
        M = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), fractions=True)
        assert M.cols == rank_exact(M) + len(kernel_basis(M))


def test_modular_probe_trivial_cases():
    assert modular_rank_probe(identity(3)) == 3
    assert modular_rank_probe(QMatrix.zero(3, 5)) == 0


def test_modular_probe_bad_denominator():
    # the probe reads numerators only, so a denominator divisible by the
    # prime does not stop it
    M = QMatrix.from_rows([[Fraction(1, PRIME), Fraction(3, 2 * PRIME)], [1, 0]])
    assert modular_rank_probe(M) == 2


def test_modular_probe_matches_exact_rank():
    rng = random.Random(2024)
    for _ in range(100):
        M = random_matrix(rng, 10, 10)
        probed = modular_rank_probe(M)
        exact = rank_exact(M)
        assert probed <= exact
        assert probed == exact  # failure probability ~ 10/PRIME per instance


def test_probe_prime_is_mersenne():
    # _fold shifts by 31 bits and relies on 2^31 = 1 (mod PRIME)
    assert PRIME + 1 == 1 << PRIME.bit_length() == 1 << 31


@pytest.mark.parametrize("width", [1, 510, 511, 512, 10000])
def test_fold_at_slot_extremes(width):
    """Two folds keep every K-bit slot congruent mod PRIME, carry nothing
    into the next slot and leave it below 2^31 + 2^(K-62) + 1, for slots
    0, PRIME, 2^31 and 2^K - 1 at the K the probe takes for this width."""
    nbytes = ((width + 1) * PRIME * (PRIME + 8)).bit_length() // 8 + 1
    K = 8 * nbytes
    repunit = ((1 << (K * width)) - 1) // ((1 << K) - 1)  # 1 in every slot
    lo, hi = PRIME * repunit, ((1 << (K - 31)) - 1) * repunit
    extremes = (0, PRIME, 1 << 31, (1 << K) - 1)
    for slots in [[x] * width for x in extremes] + [[extremes[j % 4] for j in range(width)]]:
        a = int.from_bytes(b"".join(x.to_bytes(nbytes, "little") for x in slots), "little")
        folded = _fold(_fold(a, lo, hi), lo, hi).to_bytes(K * width // 8, "little")
        for j, x in enumerate(slots):
            y = int.from_bytes(folded[j * nbytes : (j + 1) * nbytes], "little")
            assert y % PRIME == x % PRIME and y < (1 << 31) + (1 << (K - 62)) + 1


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
# every residue PRIME - 1 (entries -1, PRIME - 1 and 2 * PRIME - 1): the pivot
# head, every row factor and every slot of the normalized row sit at their top
ALL_TOP_RESIDUES = QMatrix.from_ints(
    40, [[PRIME * ((i * j) % 3) - 1 for j in range(40)] for i in range(40)], [1] * 40
)
# the same residues in a wide 3 x 600 matrix, of rank 1 mod PRIME: after the
# first pivot both other rows vanish with every slot exactly PRIME
WIDE_TOP_RESIDUES = QMatrix.from_ints(
    600, [[PRIME * ((i * j) % 3) - 1 for j in range(600)] for i in range(3)], [1] * 3
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
@example(ALL_TOP_RESIDUES)
@example(WIDE_TOP_RESIDUES)
def test_modular_probe_equals_list_oracle(M):
    """The packed probe is the rank of the numerators mod PRIME, the same
    for M and its transpose, whichever side it packs along."""
    probed = modular_rank_probe(M)
    assert probed == naive_modular_rank(M, PRIME) == modular_rank_probe(M.transpose())


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(probe_matrices())
@example(ALL_TOP_RESIDUES)
@example(WIDE_TOP_RESIDUES)
def test_probe_pivots_select_a_full_rank_minor(M):
    """The probe's pivots are columns of M when rows <= cols and rows of M
    when it is tall; with every other row (column) kept they select a block
    whose exact rank equals its number of pivots, a rows x rows minor that
    ``membership_solve`` solves on when the pivots number M.rows."""
    pivots = _probe_pivots(M)
    assert pivots == sorted(set(pivots)) and len(pivots) == naive_modular_rank(M, PRIME)
    if M.rows <= M.cols:
        block = QMatrix.from_ints(len(pivots), [[r[j] for j in pivots] for r in M.nums], M.dens)
    else:
        block = QMatrix.from_ints(M.cols, [M.nums[i] for i in pivots], [M.dens[i] for i in pivots])
    assert rank_exact(block) == len(pivots)


def _catalecticant(rng):
    """The order-a Hankel matrix of a sum of k < min(rows, cols) d-th powers
    in P^m, gathered as ``construct.flattening_rank`` gathers it, and a cap
    above k, so that the probe falls short of its reach."""
    m, d = rng.randint(1, 3), rng.randint(4, 8)
    a = rng.randint(2, d // 2)
    side = min(comb(m + a, m), comb(m + d - a, m))
    k = rng.randint(1, side - 1)
    coordinates = [[rng.randint(-5, 5) for _ in range(m + 1)] for _ in range(k)]
    terms = [(Fraction(rng.randint(1, 9), rng.randint(1, 4)), p) for p in coordinates]
    P = Form.from_ints(m, d, *power_sum(m, d, terms))
    (H,) = GatheredMatrix.gather(
        hankel_values(P), [(hankel_index(m, d, a), partial(catalecticant_matrix, P, a))]
    )
    return H, rng.randint(k + 1, k + 4)


# interp_rank's Alexander-Hirschowitz defective shapes: (multiplicity, m, d, t)
DEFECTIVE_SHAPES = ((2, 2, 4, 5), (3, 2, 4, 2), (3, 2, 6, 5), (2, 3, 4, 9), (3, 3, 4, 4))


def _defective_conditions(rng):
    k, m, d, t = rng.choice(DEFECTIVE_SHAPES)
    while True:
        points = [[rng.randint(-20, 20) for _ in range(m + 1)] for _ in range(t)]
        try:
            Z = SchemeSpec(m, tuple(FatPoint(tuple(map(Fraction, p)), k) for p in points))
        except InputError:  # a zero or repeated support
            continue
        return conditions_matrix(Z, d)


@st.composite
def deficient_matrices(draw):
    """(M, cap) with rank M < min(M.rows, M.cols, cap): integer products of
    inner rank k < min(rows, cols), tall, wide and square with sides up to
    40 and row denominators; duplicated rows and columns; zero matrices; a
    product stacked on a row block times PROBE_PRIME, whose rank the probe
    misses, so that the lifted kernel fails its exact check and Bareiss
    decides; low-rank catalecticants probed on their Hankel residues with a
    cap; and interp_rank's defective conditions matrices."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(
        st.sampled_from(
            ("product", "duplicated", "zero", "prime block", "catalecticant", "conditions")
        )
    )
    if kind == "catalecticant":
        return _catalecticant(rng)
    if kind == "conditions":
        return _defective_conditions(rng), None
    side, short, long = rng.randint(2, 40), rng.randint(2, 20), rng.randint(21, 40)
    n, m = rng.choice(((side, side), (short, long), (long, short)))
    if kind == "zero":
        return QMatrix.zero(n, m), None
    lo, hi = rng.choice(((-9, 9), (0, PRIME - 1), (-(1 << 100), 1 << 100)))
    if kind == "product":
        nums = _int_product(rng, n, m, rng.randint(1, min(n, m) - 1), lo, hi)
    elif kind == "duplicated":
        k = rng.randint(1, min(n, m) - 1)
        copies = [(rng.randrange(k), rng.choice((1, -3, 7))) for _ in range(m - k)]
        nums = [
            row + [row[j] * g for j, g in copies] for row in _int_product(rng, k, k, k, lo, hi)
        ]
        for _ in range(n - k):
            g = rng.choice((1, -2, 5))
            nums.append([g * x for x in rng.choice(nums)])
        rng.shuffle(nums)
    else:
        k = rng.randint(1, min(n, m) - 1)
        top = rng.randint(1, k)
        block = [[PRIME * x for x in row] for row in _int_product(rng, n // 2, m, k - top, lo, hi)]
        nums = _int_product(rng, n - n // 2, m, top, lo, hi) + block
    return QMatrix.from_ints(m, nums, [rng.choice(DENOMINATORS) for _ in nums]), None


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(deficient_matrices())
def test_fastpath_equals_naive_rank_on_deficient_matrices(case):
    """A rank below the probe's reach is the exact rank, whether the lifted
    kernel vectors prove it or Bareiss decides."""
    M, cap = case
    exact = M if isinstance(M, QMatrix) else M.exact()
    rank = naive_rank(exact)
    assert rank < min(M.rows, M.cols, cap or M.rows)
    assert rank_with_fastpath(M, cap) == rank


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
    assert to_rows(M) == [[Fraction(-1, 3), Fraction(2, 3)], [1, Fraction(3, 2)]]
    assert M.entries == tuple(to_rows(M)[0] + to_rows(M)[1])
    assert to_rows(M.transpose()) == [[Fraction(-1, 3), 1], [Fraction(2, 3), Fraction(3, 2)]]


def test_from_rows_clears_each_row_once():
    M = QMatrix.from_rows([[Fraction(1, 2), Fraction(-1, 3)], [0, 0], [2, 4]])
    assert M.nums == ((3, -2), (0, 0), (2, 4))
    assert M.dens == (6, 1, 1)
