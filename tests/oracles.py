"""Independent oracles used by the test suite.

These deliberately avoid the library's code paths: rank, kernels and
membership via plain rational Gauss-Jordan elimination with pivot
normalization, the modular rank via Gaussian elimination on lists of
residues mod p, polynomial arithmetic (powers, power sums, products,
substitution) via a naive exponent-dictionary convolution in Fractions,
binary squarefreeness, rational roots and their deflation via Euclid and
long division of polynomials over Fractions, partition counting via the
Euler recurrence.  One exception
must make the library's own choices: the binary Waring-rank search picks
the same witness, so it walks the library's apolar kernel bases in its
candidate order.  The (2,3)-point rows complete the point and the line
direction to a basis greedily by standard vectors, as the library does, but
decide each step with ``naive_rank``.  The proper-subscheme spans
truncate the components themselves and build each span with the library's
``span_matrix``; they are the brute-force reference for reading exclusion
off one solve.  The span intersection is the ambient reference for the
relations solved in a rational curve's own coordinates.  The line criterion
reads the intersection degree of a curvilinear scheme with each candidate
line off the vanishing orders of the line's naive kernel forms, the
reference for the degree-3 linear-position predicate.  The jet rows'
reference is the truncated-series column walk that the Kronecker-packed
builder replaced; its ``_tmul`` also reparametrizes jets.

The first section is not an oracle either: it holds the matrix and form
accessors only the tests read (``identity``, ``stack``, ``to_rows``,
``coeff``, ``terms``) and ``modular_rank_probe``, the count of the
package's probe pivots.

The last section is not an oracle: it holds scheme helpers that no command
of the package uses (hyperplanes, residual/trace splitting and the
Castelnuovo inequality check, jet reparametrization and a random
mixed-scheme generator).  They run on the package's h1 and linear algebra
and feed the property suites.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt, lcm
from typing import Sequence

from veronese.errors import InputError, UnsupportedComponentError
from veronese.forms import Form, LinearForm, monomial_basis, monomial_index
from veronese.rationalla import QMatrix, _probe_pivots, _q, kernel_basis, membership_solve
from veronese.schemes import (
    Component,
    FatPoint,
    Jet,
    Reduced,
    SchemeSpec,
    assemble_scheme,
    h1,
    random_fat_point,
    random_jet_on_conic,
    random_jet_on_line,
    random_reduced,
    random_two_three,
    random_vector,
    span_matrix,
)


# ---------------------------------------------------------------------------
# accessors only the tests read


def identity(n: int) -> QMatrix:
    return QMatrix.from_ints(n, [[int(i == j) for j in range(n)] for i in range(n)], [1] * n)


def stack(A: QMatrix, B: QMatrix) -> QMatrix:
    """Rows of A followed by rows of B (0-row matrices adapt)."""
    if A.rows == 0:
        return B
    if B.rows == 0:
        return A
    if A.cols != B.cols:
        raise InputError("column mismatch in stack")
    return QMatrix(A.cols, A.nums + B.nums, A.dens + B.dens)


def to_rows(M: QMatrix) -> list[list[Fraction]]:
    return [M.row(i) for i in range(M.rows)]


def coeff(F: Form, alpha) -> Fraction:
    return F.coeffs[monomial_index(F.m, F.d)[alpha]]


def terms(F: Form) -> dict:
    """The nonzero coefficients of F by exponent."""
    return {a: c for a, c in zip(monomial_basis(F.m, F.d), F.coeffs) if c != 0}


def modular_rank_probe(M) -> int:
    """Rank of the numerator rows of M mod PROBE_PRIME (of the gathered rows,
    for a ``GatheredMatrix``), counted by the package's own probe."""
    return len(_probe_pivots(M))


# ---------------------------------------------------------------------------
# oracles


def naive_rank(M: QMatrix) -> int:
    """Rational Gaussian elimination with normalized pivots (no Bareiss)."""
    rows = [[Fraction(x) for x in M.row(i)] for i in range(M.rows)]
    rank = 0
    for c in range(M.cols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def naive_rref(rows):
    """Reduced row echelon form over Q with normalized pivots, first nonzero
    entry in column order; returns (rows, pivot column list)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def naive_kernel(M: QMatrix):
    """Right kernel basis read off the RREF: one vector per free column, in
    ascending order, with a 1 in that column."""
    rows, pivots = naive_rref(to_rows(M))
    basis = []
    for fc in (c for c in range(M.cols) if c not in pivots):
        v = [Fraction(0)] * M.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def naive_membership(M: QMatrix, v):
    """c with c^T M = v (non-pivot coefficients zero), or None, from the
    RREF of the augmented system [M^T | v]."""
    if M.rows == 0:
        return [] if all(x == 0 for x in v) else None
    cols = to_rows(M.transpose())
    aug = [col + [x] for col, x in zip(cols, v)]
    rows, pivots = naive_rref(aug)
    if M.rows in pivots:
        return None
    c = [Fraction(0)] * M.rows
    for r, pc in enumerate(pivots):
        c[pc] = rows[r][M.rows]
    return c


def intersect_spans_oracle(A: QMatrix, B: QMatrix):
    """rowspace(A) & rowspace(B) from the naive kernel of the stacked rows,
    over all of their columns: (relation, vector) pairs, where the relation x
    satisfies x[:rA] . A = -x[rA:] . B and the vector x[:rA] . A is nonzero."""
    rows_a = to_rows(A)
    stacked = QMatrix.from_rows(list(zip(*(rows_a + to_rows(B)))))
    pairs = []
    for x in naive_kernel(stacked):
        v = [sum((c * row[j] for c, row in zip(x, rows_a)), Fraction(0)) for j in range(A.cols)]
        if any(v):
            pairs.append((x, v))
    return pairs


def naive_modular_rank(M: QMatrix, prime: int) -> int:
    """Rank of the numerator rows of M mod prime by Gaussian elimination on
    lists of residues, one ``% prime`` per entry of every row update."""
    nrows, ncols = M.rows, M.cols
    rows = [[x % prime for x in r] for r in M.nums]
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, prime)
        rows[r] = [x * inv % prime for x in rows[r]]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                rows[i] = [(a - f * b) % prime for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == nrows:
            break
    return r


def naive_poly_mul(a: dict, b: dict) -> dict:
    """Multiply exponent-dict polynomials {exponent_tuple: coeff}."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def naive_power(lin_coeffs, d: int) -> dict:
    """(sum c_i x_i)^d by repeated naive multiplication."""
    nvars = len(lin_coeffs)
    base = {
        tuple(1 if j == i else 0 for j in range(nvars)): Fraction(c)
        for i, c in enumerate(lin_coeffs)
        if c != 0
    }
    acc = {tuple(0 for _ in range(nvars)): Fraction(1)}
    for _ in range(d):
        acc = naive_poly_mul(acc, base)
    return acc


def poly_dict_to_coeffs(terms: dict, m: int, d: int):
    """Exponent dict -> coefficient list in the library's grlex order."""
    from veronese.forms import monomial_basis

    return [terms.get(alpha, Fraction(0)) for alpha in monomial_basis(m, d)]


def naive_power_sum(m: int, d: int, terms):
    """sum_i c_i (L_i)^d for terms (c_i, coordinates of L_i), re-expanded
    term by term in Fractions; grlex coefficient list."""
    total = {}
    for c, point in terms:
        for e, v in naive_power(point, d).items():
            total[e] = total.get(e, Fraction(0)) + Fraction(c) * v
    return poly_dict_to_coeffs(total, m, d)


def naive_product_expand(factors):
    """prod f^e over (f, e) pairs of forms or linear forms sharing m, by
    Fraction convolution of their term dicts; grlex coefficient list."""
    forms = [(f.to_form() if isinstance(f, LinearForm) else f, e) for f, e in factors]
    m = forms[0][0].m
    acc = {(0,) * (m + 1): Fraction(1)}
    for f, e in forms:
        for _ in range(e):
            acc = naive_poly_mul(acc, terms(f))
    return poly_dict_to_coeffs(acc, m, sum(f.d * e for f, e in forms))


def substitute(F: Form, images) -> Form:
    """F with x_i replaced by the linear form images[i]; an exact linear
    change of variables."""
    m_new = images[0].m
    out = {}
    for alpha, c in terms(F).items():
        acc = {(0,) * (m_new + 1): Fraction(1)}
        for L, a in zip(images, alpha):
            for _ in range(a):
                acc = naive_poly_mul(acc, terms(L.to_form()))
        for e, v in acc.items():
            out[e] = out.get(e, Fraction(0)) + c * v
    return Form.from_dict(m_new, F.d, out)


def evaluate(F: Form, point) -> Fraction:
    """F at the point, summed monomial by monomial."""
    total = Fraction(0)
    for alpha, c in terms(F).items():
        v = c
        for x, a in zip(point, alpha):
            v *= Fraction(x) ** a
        total += v
    return total


def naive_diff(terms: dict, var: int) -> dict:
    out = {}
    for e, c in terms.items():
        if e[var] == 0:
            continue
        e2 = tuple(x - (1 if i == var else 0) for i, x in enumerate(e))
        out[e2] = out.get(e2, Fraction(0)) + c * e[var]
    return out


def partition_count(t: int) -> int:
    """Number of partitions via the classic divisor-sum recurrence."""
    p = [1] + [0] * t
    for n in range(1, t + 1):
        total = 0
        for k in range(1, n + 1):
            sigma = sum(dd for dd in range(1, k + 1) if k % dd == 0)
            total += sigma * p[n - k]
        p[n] = total // n
    return p[t]


def _tmul(a: Sequence, b: Sequence, cap: int) -> list:
    """Product of two power series in t, truncated to t^0..t^(cap-1)."""
    out = [0] * cap
    for i, ai in enumerate(a[:cap]):
        if ai:
            for j, bj in enumerate(b[: cap - i]):
                out[i + j] += ai * bj
    return out


def jet_rows_reference(curve, d: int) -> tuple[list[list[int]], int]:
    """The column walk ``forms._jet_rows`` replaced with one Kronecker-packed
    power table: integer numerators of [t^j] prod_i c_i(t)^beta_i, j <
    len(curve), over the degree-d basis, and the denominator D^d, D the lcm
    of every coordinate's denominator.

    Each series power (D c_i)^e, e <= d, is tabulated once, truncated below
    t^len(curve); the basis is walked coordinate by coordinate in its own
    order, so a column costs one truncated product per coordinate and
    columns with a common prefix of exponents share those products.  A
    length-1 curve takes the same walk.
    """
    D = lcm(*(Fraction(x).denominator for v in curve for x in v))
    nums = [[int(Fraction(x) * D) for x in v] for v in curve]
    cap = len(nums)
    m = len(nums[0]) - 1
    tables = []
    for i in range(m + 1):
        series = [v[i] for v in nums]
        tab = [[1] + [0] * (cap - 1)]
        for _ in range(d):
            tab.append(_tmul(tab[-1], series, cap))
        tables.append(tab)
    cols: list[list[int]] = []

    def walk(i: int, deg: int, acc: list[int]) -> None:
        if i == m:
            cols.append(_tmul(acc, tables[m][deg], cap))
            return
        for e in range(deg, -1, -1):
            walk(i + 1, deg - e, _tmul(acc, tables[i][e], cap))

    walk(0, d, tables[0][0])  # s^0 = 1
    return [list(row) for row in zip(*cols)], D**d


def jet_span_rows_oracle(curve, d: int, k: int, m: int):
    """[t^j] (c(t).x)^d for j < k by fully symbolic expansion: polynomials in
    the m+1 ambient variables and one extra variable t."""
    nvars = m + 2  # ambient variables then t
    lin = {}
    for i in range(m + 1):
        for j, cv in enumerate(curve):
            if cv[i] != 0:
                e = [0] * nvars
                e[i] = 1
                e[nvars - 1] = j
                e = tuple(e)
                lin[e] = lin.get(e, Fraction(0)) + Fraction(cv[i])
    acc = {tuple([0] * nvars): Fraction(1)}
    for _ in range(d):
        # t-degrees only grow, so terms of t-degree >= k never come back
        acc = {e: c for e, c in naive_poly_mul(acc, lin).items() if e[-1] < k}
    from veronese.forms import monomial_basis

    basis = monomial_basis(m, d)
    rows = [[Fraction(0)] * len(basis) for _ in range(k)]
    index = {alpha: i for i, alpha in enumerate(basis)}
    for e, c in acc.items():
        tdeg = e[nvars - 1]
        if tdeg >= k:
            continue
        alpha = e[: m + 1]
        rows[tdeg][index[alpha]] += c
    return rows


def _naive_partial(terms: dict, gamma) -> dict:
    """d^gamma of an exponent-dict polynomial, one variable at a time."""
    for var, g in enumerate(gamma):
        for _ in range(g):
            terms = naive_diff(terms, var)
    return terms


def catalecticant_oracle(terms: dict, m: int, d: int, a: int):
    """Rows d^gamma F, gamma over the degree-a basis, as coefficient lists
    over the degree-(d-a) basis; F given as an exponent dict."""
    from veronese.forms import monomial_basis

    return [
        poly_dict_to_coeffs(_naive_partial(terms, gamma), m, d - a)
        for gamma in monomial_basis(m, a)
    ]


def fat_point_rows_oracle(point, k: int, m: int, d: int):
    """Derivative functionals of order < k at a point: each monomial x^beta
    of degree d differentiated by d^gamma and evaluated at point / point[c],
    c the first coordinate of largest absolute value.  gamma runs over
    exponents with gamma_c = 0, by |gamma| and then in grlex order of the
    other coordinates."""
    from veronese.forms import monomial_basis

    pt = [Fraction(x) for x in point]
    c = max(range(m + 1), key=lambda i: (abs(pt[i]), -i))
    pt = [x / pt[c] for x in pt]
    rows = []
    for j in range(k):
        for rest in monomial_basis(m - 1, j):
            gamma = rest[:c] + (0,) + rest[c:]
            row = []
            for beta in monomial_basis(m, d):
                value = Fraction(0)
                for e, coeff in _naive_partial({beta: Fraction(1)}, gamma).items():
                    for x, ei in zip(pt, e):
                        coeff *= x**ei
                    value += coeff
                row.append(value)
            rows.append(row)
    return rows


def _naive_trim(p: list) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def naive_poly_divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of polynomials (coefficient j on z^j) by long
    division over Fractions; b has no trailing zero."""
    a = [Fraction(x) for x in _naive_trim(a)]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a = _naive_trim(a[:-1])
    return _naive_trim(q), a


def naive_poly_gcd(a: list, b: list) -> list:
    """Monic gcd by Euclid over Fractions; [] when both are zero."""
    a, b = _naive_trim(a), _naive_trim(b)
    while b:
        a, b = b, naive_poly_divmod(a, b)[1]
    return [Fraction(c) / a[-1] for c in a] if a else a


def naive_dehomogenize(h) -> tuple[list, int]:
    """(p, a) with h = y0^a * homogenization of p(z), z = y1/y0."""
    p = _naive_trim(h.coeffs)
    return p, h.d - (len(p) - 1)


def naive_binary_squarefree(h) -> bool:
    """y0 divides h at most once and gcd(p, p') is a constant, by Euclid."""
    p, y0_mult = naive_dehomogenize(h)
    if not p or y0_mult >= 2:
        return False
    return len(naive_poly_gcd(p, [i * c for i, c in enumerate(p)][1:])) <= 1


def _naive_divisors(n: int) -> list[int]:
    return sorted({e for i in range(1, isqrt(n) + 1) if n % i == 0 for e in (i, n // i)})


def naive_deflate(p: list[int], root: Fraction) -> list[int]:
    """p / (z - root) over Fractions, its denominators cleared by their lcm."""
    quot, rem = naive_poly_divmod(p, [-root, Fraction(1)])
    assert not rem, f"{root} is not a root"
    D = lcm(*[x.denominator for x in quot])
    return [int(x * D) for x in quot]


def naive_rational_roots(p: list):
    """Every root with multiplicity when p splits over Q, else None: zero
    roots first, then the rational root test over Fractions, the candidates
    sign * (divisor of |p_0|) / (divisor of |p_n|) in that loop order, +
    before -, each root divided out by Fraction long division and the
    quotient's denominators cleared."""
    p = _naive_trim(p)
    roots = []
    while len(p) > 1 and p[0] == 0:
        roots.append(Fraction(0))
        p = p[1:]
    D = lcm(*[Fraction(x).denominator for x in p])
    ip = [int(Fraction(x) * D) for x in p]
    while len(ip) > 1:
        cands = (
            Fraction(sign * num, den)
            for num in _naive_divisors(abs(ip[0]))
            for den in _naive_divisors(abs(ip[-1]))
            for sign in (1, -1)
        )
        root = next((z for z in cands if sum(c * z**i for i, c in enumerate(ip)) == 0), None)
        if root is None:
            return None
        ip = naive_deflate(ip, root)
        roots.append(root)
    return roots


def _gcd_squarefree(forms) -> bool:
    """Is the gcd of the given binary forms squarefree?"""
    polys, y0_mults = zip(*map(naive_dehomogenize, forms))
    if min(y0_mults) >= 2:
        return False
    g = polys[0]
    for p in polys[1:]:
        g = naive_poly_gcd(g, p)
        if len(g) <= 1:
            return True
    return len(naive_poly_gcd(g, [i * c for i, c in enumerate(g)][1:])) <= 1


def sylvester_rank_oracle(f):
    """(rank, witness) of a binary form of degree >= 2 by the search over
    r = 1..d: the rank is the least r whose apolar kernel holds a squarefree
    form, skipping kernels of dimension >= 2 whose gcd has a repeated factor;
    the witness is the first squarefree kernel candidate.  Squarefreeness is
    decided by Euclid over Fractions (``naive_binary_squarefree``)."""
    from veronese.binary import _apolar_kernel, _kernel_candidates

    for r in range(1, f.d + 1):
        kernel = _apolar_kernel(f, r)
        if not kernel:
            continue
        if len(kernel) == 1:
            if naive_binary_squarefree(kernel[0]):
                return r, kernel[0]
            continue
        if not _gcd_squarefree(kernel):
            continue
        for cand in _kernel_candidates(kernel):
            if naive_binary_squarefree(cand):
                return r, cand
        raise AssertionError("kernel with squarefree gcd but no squarefree candidate")
    raise AssertionError("no squarefree apolar form up to degree d")


def directional_row_oracle(m: int, d: int, dirs, point):
    """Functional F -> (D_{u1} ... D_{ur} F)(point) over the degree-d basis:
    each monomial differentiated direction by direction as an exponent-dict
    polynomial and evaluated at point in Fraction arithmetic."""
    from veronese.forms import monomial_basis

    row = []
    for beta in monomial_basis(m, d):
        poly = {beta: Fraction(1)}
        for u in dirs:
            nxt = {}
            for e, c in poly.items():
                for i, ui in enumerate(u):
                    if ui == 0 or e[i] == 0:
                        continue
                    e2 = tuple(x - (1 if idx == i else 0) for idx, x in enumerate(e))
                    nxt[e2] = nxt.get(e2, Fraction(0)) + c * e[i] * ui
            poly = nxt
        val = Fraction(0)
        for e, c in poly.items():
            v = c
            for p, a in zip(point, e):
                if a:
                    v *= p**a
            val += v
        row.append(val)
    return row


def _naive_complete_basis(m: int, vectors) -> list:
    """Extend independent vectors to a basis of Q^(m+1) by standard basis
    vectors, greedily in index order, each kept when ``naive_rank`` grows."""
    chosen = list(vectors)
    for i in range(m + 1):
        e = tuple(Fraction(int(j == i)) for j in range(m + 1))
        if len(chosen) <= m and naive_rank(QMatrix.from_rows(chosen + [e])) > len(chosen):
            chosen.append(e)
    return chosen


def two_three_rows_oracle(point, direction, m: int, d: int):
    """Conditions rows of the (2,3)-point at Q = point on the line of
    direction V: the functionals (), (V), (V, V), then (w), (V, w) for each
    w that completes Q, V to a basis (standard vectors, greedily in index
    order), each evaluated at Q."""
    Q = tuple(Fraction(x) for x in point)
    V = tuple(Fraction(x) for x in direction)
    functionals = [(), (V,), (V, V)]
    for w in _naive_complete_basis(m, [Q, V])[2:]:
        functionals.append((w,))
        functionals.append((V, w))
    return [directional_row_oracle(m, d, dirs, Q) for dirs in functionals]


def proper_subscheme_choices(Z: SchemeSpec) -> list:
    """Truncation-length tuples for every proper subscheme of a curvilinear
    scheme, the full scheme excluded; count = prod(k_i + 1) - 1."""
    caps = tuple(len(comp.curve) for comp in Z.components)
    return [c for c in itertools.product(*(range(k + 1) for k in caps)) if c != caps]


def proper_subscheme_spans(Z: SchemeSpec, d: int) -> list:
    """Span matrix of each proper subscheme: each component cut to its first
    a curve vectors (a reduced point for a = 1, dropped for a = 0)."""
    out = []
    for choice in proper_subscheme_choices(Z):
        comps = [
            Reduced(comp.curve[0]) if a == 1 else Jet(comp.curve[:a])
            for comp, a in zip(Z.components, choice)
            if a
        ]
        out.append(span_matrix(SchemeSpec(Z.m, tuple(comps)), d))
    return out


def _line_degree_oracle(Z: SchemeSpec, a, b) -> int:
    """Degree of the intersection of a curvilinear Z with the line through a
    and b: each component counts the least vanishing order, along its curve,
    of the linear forms that cut out the line (a reduced point is the curve
    of length 1)."""
    forms = naive_kernel(QMatrix.from_rows([a, b]))
    total = 0
    for comp in Z.components:
        orders = []
        for form in forms:
            vals = [sum(f * x for f, x in zip(form, v)) for v in comp.curve]
            orders.append(next((s for s, x in enumerate(vals) if x != 0), len(vals)))
        total += min(orders)
    return total


def line_condition_oracle(Z: SchemeSpec) -> bool:
    """deg(Z . L) <= 2 on every line L that could meet a curvilinear Z in
    degree >= 3: the lines through two supports and the tangent lines of
    the jets."""
    lines = list(itertools.combinations([c.support for c in Z.components], 2))
    lines += [c.curve[:2] for c in Z.components if isinstance(c, Jet)]
    return all(_line_degree_oracle(Z, a, b) <= 2 for a, b in lines)


# ---------------------------------------------------------------------------
# scheme helpers outside the package: hyperplanes, residuals, reparametrized
# jets and random mixed schemes


@dataclass(frozen=True)
class Hyperplane:
    coeffs: tuple

    def __post_init__(self):
        if all(c == 0 for c in self.coeffs):
            raise InputError("hyperplane must be nonzero")

    @property
    def m(self) -> int:
        return len(self.coeffs) - 1

    def contains(self, point: Sequence[Fraction]) -> bool:
        return sum(a * b for a, b in zip(self.coeffs, point)) == 0


def hyperplane_basis(H: Hyperplane) -> QMatrix:
    """Deterministic m x (m+1) matrix whose rows span the hyperplane."""
    vecs = kernel_basis(QMatrix.from_rows([H.coeffs]))
    return QMatrix.from_rows(vecs)


def _trace_coordinates(K: QMatrix, point) -> tuple:
    _, c = membership_solve(K, point)
    if c is None:  # pragma: no cover - callers check containment first
        raise InputError("point does not lie on the hyperplane")
    return tuple(c)


def residual_trace_split(
    Z: SchemeSpec, H: Hyperplane
) -> tuple[SchemeSpec, SchemeSpec]:
    """Split Z into its residual with respect to H and its trace on H.

    Components off H move unchanged into the residual.  A reduced point on H
    disappears from the residual; a fat point of multiplicity k on H drops to
    multiplicity k-1 (a reduced point when k-1 = 1).  The trace collects the
    components supported on H, re-expressed in intrinsic coordinates of
    H = P^(m-1): reduced points stay reduced, fat points keep their
    multiplicity.  Jets and (2,3)-points meeting H are not handled.
    """
    if H.m != Z.m:
        raise InputError("hyperplane/scheme ambient mismatch")
    if Z.m < 2:
        raise InputError("residual split needs m >= 2")
    K = hyperplane_basis(H)
    res: list[Component] = []
    tra: list[Component] = []
    for i, comp in enumerate(Z.components):
        on_h = H.contains(comp.support)
        if not on_h:
            res.append(comp)
            continue
        if isinstance(comp, Reduced):
            tra.append(Reduced(_trace_coordinates(K, comp.point)))
        elif isinstance(comp, FatPoint):
            k = comp.multiplicity
            if k - 1 == 1:
                res.append(Reduced(comp.point))
            else:
                res.append(FatPoint(comp.point, k - 1))
            tpt = _trace_coordinates(K, comp.point)
            tra.append(FatPoint(tpt, k))
        else:
            raise UnsupportedComponentError(
                f"component {i} ({type(comp).__name__}) meets the hyperplane"
            )
    return SchemeSpec(Z.m, tuple(res)), SchemeSpec(Z.m - 1, tuple(tra))


def castelnuovo_check(Z: SchemeSpec, H: Hyperplane, d: int) -> bool:
    """Exactness self-test: h1(Z, d) <= h1(Res_H Z, d-1) + h1(Z on H, d).

    The inequality is a theorem (long exact sequence of the residual
    sequence), so this must return True on every valid input.
    """
    if d < 2:
        raise InputError("castelnuovo_check needs d >= 2")
    res, tra = residual_trace_split(Z, H)
    return h1(Z, d) <= h1(res, d - 1) + h1(tra, d)


def reparametrize_jet(jet: Jet, u, v) -> Jet:
    """Replace the jet parameter t by u*t + v*t^2 (u != 0), truncated to the
    jet length.  The underlying scheme, hence the span row space, is
    unchanged."""
    u, v = _q(u), _q(v)
    if u == 0:
        raise InputError("reparametrization needs u != 0")
    k = jet.length
    phi = [Fraction(0), u, v]
    power = [Fraction(1)] + [Fraction(0)] * (k - 1)
    new_coords = [[Fraction(0)] * k for _ in range(len(jet.curve[0]))]
    for j, cj in enumerate(jet.curve):
        if j > 0:
            power = _tmul(power, phi, k)
        for i, ci in enumerate(cj):
            if ci == 0:
                continue
            for s in range(k):
                new_coords[i][s] += ci * power[s]
    curve = tuple(
        tuple(new_coords[i][s] for i in range(len(new_coords))) for s in range(k)
    )
    return Jet(curve)


def random_hyperplane(rng: random.Random, m: int, bound: int) -> Hyperplane:
    return Hyperplane(random_vector(rng, m, bound))


def random_point_on_hyperplane(
    rng: random.Random, H: Hyperplane, bound: int
) -> tuple:
    K = to_rows(hyperplane_basis(H))
    while True:
        coeffs = [Fraction(rng.randint(-bound, bound)) for _ in range(len(K))]
        pt = tuple(sum(c * x for c, x in zip(coeffs, col)) for col in zip(*K))
        if any(x != 0 for x in pt):
            return pt


def random_scheme(
    rng: random.Random,
    m: int,
    max_degree: int,
    bound: int = 50,
    kinds: Sequence[str] = ("reduced", "jet", "fat"),
) -> SchemeSpec:
    """Random mixed scheme of total degree <= max_degree, distinct supports."""
    while True:
        components: list[Component] = []
        budget = max_degree
        degree_used = 0
        while budget >= 1:
            options = ["reduced"] if "reduced" in kinds else []
            if "jet" in kinds and budget >= 2:
                options.append("jet")
            if "fat" in kinds and comb(m + 1, m) <= budget:
                options.append("fat")
            if "two_three" in kinds and 2 * m + 1 <= budget:
                options.append("two_three")
            if not options:
                break
            kind = rng.choice(options)
            if kind == "reduced":
                comp: Component = random_reduced(rng, m, bound)
            elif kind == "jet":
                length = rng.randint(2, budget)
                # the draw comes first, so P^1 keeps every other draw sequence
                if length >= 3 and rng.random() < 0.5 and m >= 2:
                    comp = random_jet_on_conic(rng, m, bound, length)
                else:
                    comp = random_jet_on_line(rng, m, bound, length)
            elif kind == "fat":
                kmax = 2
                while comb(m + kmax, m) <= budget:
                    kmax += 1
                comp = random_fat_point(rng, m, bound, rng.randint(2, kmax))
            else:
                comp = random_two_three(rng, m, bound)
            components.append(comp)
            degree_used += comp.degree(m)
            budget = max_degree - degree_used
            if rng.random() < 0.25:
                break
        if not components:
            continue
        spec = assemble_scheme(m, components)
        if spec is not None:
            return spec
