"""Independent oracles used by the test suite.

These deliberately avoid the library's code paths: rank, kernels and
membership via plain rational Gauss-Jordan elimination with pivot
normalization, the modular rank via Gaussian elimination on lists of
residues mod p, polynomial arithmetic via a naive exponent-dictionary
convolution, partition counting via the Euler recurrence.  Two exceptions
must make the library's own choices: the binary Waring-rank search picks
the same witness, so it walks the library's apolar kernel bases in its
candidate order, and the (2,3)-point rows use the library's completion of
the point and the line direction to a basis.  The proper-subscheme spans
truncate the components themselves and build each span with the library's
``span_matrix``; they are the brute-force reference for reading exclusion
off one solve.
"""

import itertools
from fractions import Fraction
from math import comb

from veronese.rationalla import QMatrix
from veronese.schemes import Jet, Reduced, SchemeSpec, span_matrix


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
    rows, pivots = naive_rref(M.to_rows())
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
    cols = M.transpose().to_rows()
    aug = [col + [x] for col, x in zip(cols, v)]
    rows, pivots = naive_rref(aug)
    if M.rows in pivots:
        return None
    c = [Fraction(0)] * M.rows
    for r, pc in enumerate(pivots):
        c[pc] = rows[r][M.rows]
    return c


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


def _gcd_squarefree(forms) -> bool:
    """Is the gcd of the given binary forms squarefree?"""
    from veronese.construct import _dehomogenize, _poly_deriv, _poly_gcd

    polys, y0_mults = [], []
    for h in forms:
        p, a = _dehomogenize(h)
        polys.append(p)
        y0_mults.append(a)
    if min(y0_mults) >= 2:
        return False
    g = polys[0]
    for p in polys[1:]:
        g = _poly_gcd(g, p)
        if len(g) <= 1:
            return True
    gg = _poly_gcd(g, _poly_deriv(g))
    return len(gg) <= 1


def sylvester_rank_oracle(f):
    """(rank, witness) of a binary form of degree >= 2 by the search over
    r = 1..d: the rank is the least r whose apolar kernel holds a squarefree
    form, skipping kernels of dimension >= 2 whose gcd has a repeated factor;
    the witness is the first squarefree kernel candidate."""
    from veronese.construct import (
        _apolar_kernel,
        _binary_squarefree,
        _kernel_candidates,
    )

    for r in range(1, f.d + 1):
        kernel = _apolar_kernel(f, r)
        if not kernel:
            continue
        if len(kernel) == 1:
            if _binary_squarefree(kernel[0]):
                return r, kernel[0]
            continue
        if not _gcd_squarefree(kernel):
            continue
        for cand in _kernel_candidates(kernel):
            if _binary_squarefree(cand):
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


def two_three_rows_oracle(point, direction, m: int, d: int):
    """Conditions rows of the (2,3)-point at Q = point on the line of
    direction V: the functionals (), (V), (V, V), then (w), (V, w) for each
    w that completes Q, V to a basis (standard vectors, greedily in index
    order), each evaluated at Q."""
    from veronese.schemes import _complete_basis

    Q = tuple(Fraction(x) for x in point)
    V = tuple(Fraction(x) for x in direction)
    functionals = [(), (V,), (V, V)]
    for w in _complete_basis(m, [Q, V])[2:]:
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
