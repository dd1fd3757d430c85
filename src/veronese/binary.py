"""Binary forms: Sylvester's theorem, apolar kernels, explicit
decompositions, and relations on the image of a rational curve.

A binary form of degree D has D+1 coefficients, on y0^(D-j) y1^j for
j = 0..D.  The same coordinates describe the span of a rational curve of
degree-d forms s -> sum_j s^j g_j with independent g_j: the image of a
line of P^m (D = d, g_j = C(d, j) (Q0.x)^(d-j) (V.x)^j) or of a smooth
plane conic (D = 2d).  A relation among jets of such a curve is solved in
these D+1 coordinates instead of the C(m+d, m) coordinates of P^m.

Forms enter Sylvester's theorem as integer polynomials p(z), z = y1/y0, the
coefficients over one common denominator.  Once y0 and y1 are seen to divide
the form at most once, squarefreeness is one rank: the Sylvester matrix of p
and p' is nonsingular.  Rational roots are candidates a/b, tested by an
integer sum and divided out exactly; the divisors that give a and b are
found by trial division, which refuses a number above MAX_DIVISOR_SEARCH.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt
from typing import Optional, Sequence

from .errors import InputError, InternalInconsistency
from .forms import (
    DecompositionRecord,
    Form,
    LinearForm,
    Summand,
    _contraction_rows,
    catalecticant_matrix,
    power_rows,
)
from .rationalla import (
    QMatrix,
    _clear_denominators,
    kernel_basis,
    membership_solve,
    rank_exact,
    rank_with_fastpath,
)


# ---------------------------------------------------------------------------
# relations on a rational normal curve


def curve_relations(divisors: Sequence[tuple[int, int]], D: int) -> list[list[Fraction]]:
    """``kernel_basis`` of the stacked jet rows of the divisors (tau, k) on
    the rational normal curve s -> (s^j), j = 0..D: the relations x with
    sum_i x_i row_i = 0, one coordinate per row, in the divisors' order.

    Row i < k of (tau, k) is the i-th Taylor coefficient of s^j at tau,
    (C(j, i) tau^(j-i))_j.  A curve of forms s -> sum_j s^j g_j with
    independent g_j maps each row to the span row [t^i] of its jet at tau,
    injectively, so the relations among those span rows, and the RREF basis
    of their kernel, are these.
    """
    cols = [
        [comb(j, i) * tau ** (j - i) if j >= i else 0 for j in range(D + 1)]
        for tau, k in divisors
        for i in range(k)
    ]
    return kernel_basis(QMatrix.from_ints(len(cols), zip(*cols), [1] * (D + 1)))


# ---------------------------------------------------------------------------
# Sylvester's theorem, apolar kernels, explicit decompositions


MAX_DIVISOR_SEARCH = 10**13
"""Largest |coefficient| whose divisors the rational-root search lists by
trial division, at most 3.2 * 10^6 steps for each; a larger one is refused."""


def _int_poly(h: Form) -> tuple[list[int], int]:
    """(p, a) with h = c * y0^a * (homogenization of p(z)), z = y1/y0, for a
    rational c > 0: p's integer coefficients over one common denominator,
    that of z^j from y0^(d-j) y1^j, with no trailing zero."""
    (p,), _ = _clear_denominators([h.coeffs])
    while p and p[-1] == 0:
        p.pop()
    return p, h.d - (len(p) - 1)


def _binary_squarefree(h: Form) -> bool:
    """y0 and y1 each divide h at most once, and the rest, p of degree n with
    p(0) != 0, has no repeated root.  Since p' has degree exactly n - 1,
    deg gcd(p, p') = 2n - 1 - the rank of their Sylvester matrix, so p is
    squarefree when that matrix is nonsingular, which a full-rank modular
    probe proves."""
    p, y0_mult = _int_poly(h)
    if not p or y0_mult >= 2 or p[:2] == [0, 0]:
        return False
    p = p[1:] if p[0] == 0 else p
    n = len(p) - 1
    if n == 0:
        return True
    dp = [i * c for i, c in enumerate(p)][1:]
    rows = [[0] * i + p + [0] * (n - 2 - i) for i in range(n - 1)]
    rows += [[0] * i + dp + [0] * (n - 1 - i) for i in range(n)]
    sylvester = QMatrix.from_ints(2 * n - 1, rows, [1] * (2 * n - 1))
    return rank_with_fastpath(sylvester) == 2 * n - 1


def _rational_roots(p: list[int]) -> Optional[list[Fraction]]:
    """All roots with multiplicity when the integer polynomial p, with no
    trailing zero, splits over Q, else None.

    Zero roots come first.  Then a root a/b in lowest terms has a | p_0 and
    b | p_n: a runs over the divisors of |p_0|, b over those of |p_n|, and
    +a before -a, and a candidate is a root when sum_i p_i a^i b^(n-i) = 0.
    The first root found is divided out and the search starts again on the
    integer quotient.
    """
    zeros = next(i for i, c in enumerate(p) if c)
    roots, p = [Fraction(0)] * zeros, p[zeros:]
    while len(p) > 1:
        nums, dens = _divisors(abs(p[0])), _divisors(abs(p[-1]))
        pairs = ((a, b) for n in nums for b in dens if gcd(n, b) == 1 for a in (n, -n))
        found = next((ab for ab in pairs if _homogeneous_value(p, *ab) == 0), None)
        if found is None:
            return None
        p = _int_poly_deflate(p, *found)
        roots.append(Fraction(*found))
    return roots


def _divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1 in increasing order, by trial division
    up to sqrt(n); refused above MAX_DIVISOR_SEARCH."""
    if n > MAX_DIVISOR_SEARCH:
        raise InputError(
            f"rational-root search refused: a coefficient above {MAX_DIVISOR_SEARCH} "
            "is too large to factor by trial division"
        )
    small = [i for i in range(1, isqrt(n) + 1) if n % i == 0]
    return small + [n // i for i in reversed(small) if i * i != n]


def _homogeneous_value(p: list[int], a: int, b: int) -> int:
    """sum_i p_i a^i b^(n-i), n = deg p: b^n p(a/b), zero exactly at a root."""
    acc, bk = 0, 1
    for c in reversed(p):
        acc = acc * a + c * bk
        bk *= b
    return acc


def _int_poly_deflate(p: list[int], a: int, b: int) -> list[int]:
    """b q for p = (b z - a) q, a/b a root in lowest terms: the quotient of p
    by (z - a/b), integral because q is (Gauss's lemma)."""
    q = [0]  # q_n = 0, then q_(i-1) = (p_i + a q_i) / b down to q_0
    for c in p[:0:-1]:
        q.append((c + a * q[-1]) // b)
    q = q[:0:-1]
    if any(c != b * x - a * y for c, x, y in zip(p, [0] + q, q + [0])):
        raise InternalInconsistency(f"{a}/{b} is not a root of the polynomial")
    return [b * x for x in q]


def _binary_projective_roots(h: Form) -> Optional[list[tuple[Fraction, Fraction]]]:
    """Distinct projective roots (a : b) when h is squarefree and splits
    over the rationals; None otherwise."""
    if not _binary_squarefree(h):
        return None
    p, y0_mult = _int_poly(h)
    roots = _rational_roots(p)
    if roots is None:
        return None
    pts = [(Fraction(1), z) for z in roots]
    if y0_mult == 1:
        pts.append((Fraction(0), Fraction(1)))
    return pts


def _apolar_kernel(f: Form, r: int) -> list[Form]:
    """Degree-r forms h with h(d/dx) f = 0, as a deterministic basis."""
    return [Form(1, r, tuple(v)) for v in kernel_basis(_contraction_rows(f, r).transpose())]


def _kernel_candidates(basis: Sequence[Form]):
    """Deterministic stream of nonzero elements of the span of `basis`."""
    for h in basis:
        yield h
    n = len(basis)
    for i in range(n):
        for j in range(i + 1, n):
            yield Form(1, basis[0].d, tuple(a + b for a, b in zip(basis[i].coeffs, basis[j].coeffs)))
            yield Form(1, basis[0].d, tuple(a - b for a, b in zip(basis[i].coeffs, basis[j].coeffs)))
    head = basis[: min(n, 4)]
    for coeffs in itertools.product(range(-3, 4), repeat=len(head)):
        if all(c == 0 for c in coeffs):
            continue
        acc = [Fraction(0)] * (basis[0].d + 1)
        for c, h in zip(coeffs, head):
            if c:
                acc = [x + c * y for x, y in zip(acc, h.coeffs)]
        if any(x != 0 for x in acc):
            yield Form(1, basis[0].d, tuple(acc))


def _squarefree_in_kernel(basis: Sequence[Form]) -> Form:
    """The first squarefree element of the span in `_kernel_candidates` order.

    Only called on the apolar kernel in the Waring-rank degree, which holds a
    squarefree form by Sylvester's theorem.
    """
    for cand in _kernel_candidates(basis):
        if _binary_squarefree(cand):
            return cand
    raise InternalInconsistency(
        "kernel should contain a squarefree form but the search found none"
    )


@dataclass(frozen=True)
class SylvesterResult:
    rank: int
    decomposition: Optional[DecompositionRecord]
    apolar: Form
    # None when only the rank was computed.  True: a rational decomposition
    # was found.  False: a proof that none exists when 2 * rank <= d + 1 (the
    # decomposition is unique); otherwise only that the bounded search found
    # none.
    splits_over_rationals: Optional[bool]


def _split_decomposition(f: Form, roots) -> Optional[DecompositionRecord]:
    lins = [LinearForm.make([a, b]) for a, b in roots]
    rows = power_rows(1, f.d, [L.coeffs for L in lins])
    _, sol = membership_solve(rows, f.coeffs)
    if sol is None:
        return None
    summands = tuple(Summand(c, L) for c, L in zip(sol, lins) if c != 0)
    if len(summands) != len(lins):
        return None
    return DecompositionRecord(1, f.d, summands, f)


def _search_rational_decomposition(f: Form, r: int) -> Optional[DecompositionRecord]:
    """Look for r distinct small rational points on the line spanning f,
    among the first 2001 point sets."""
    values = [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5]
    affine = (
        [(Fraction(1), Fraction(z)) for z in subset]
        for subset in itertools.combinations(values, r)
    )
    with_infinity = (
        [(Fraction(0), Fraction(1))] + [(Fraction(1), Fraction(z)) for z in subset]
        for subset in itertools.combinations(values, r - 1)
    )
    for pts in itertools.islice(itertools.chain(affine, with_infinity), 2001):
        rec = _split_decomposition(f, pts)
        if rec is not None:
            return rec
    return None


def sylvester_binary(f: Form, want_decomposition: bool = True) -> SylvesterResult:
    """Waring rank of a binary form of degree d, with an explicit
    decomposition when one over the rationals is found.

    Sylvester's theorem: the apolar ideal of f is generated in degrees r and
    d+2-r, where r <= d+2-r is the rank of the middle catalecticant.  The
    Waring rank is r when the degree-r generator is squarefree and d+2-r
    otherwise, and the roots of any squarefree apolar form of that degree (a
    witness) are the points of a decomposition.  When 2r <= d+1 the degree-r
    kernel is the generator alone, and the rank-r decomposition is unique
    (Comas and Seiguer, "On the rank of a binary form", 2011): f splits over
    the rationals exactly when that witness has distinct rational roots, so
    ``splits_over_rationals`` False is a proof.  Otherwise the kernel
    candidates and then a bounded search over small rational points are
    tried, and False only means that neither found a decomposition.  The
    returned apolar form is the witness, or the kernel element whose roots
    gave the decomposition.
    """
    if f.m != 1:
        raise InputError("sylvester_binary needs a binary form")
    if f.is_zero():
        raise InputError("zero form has no rank")
    d = f.d
    if d == 1:
        L = LinearForm(1, f.coeffs)
        rec = DecompositionRecord(1, 1, (Summand(Fraction(1), L),), f)
        return SylvesterResult(1, rec, f, True)
    r = rank_exact(catalecticant_matrix(f, d // 2))
    kernel = _apolar_kernel(f, r)
    if len(kernel) == 1 and not _binary_squarefree(kernel[0]):
        r = d + 2 - r
        kernel = _apolar_kernel(f, r)
    witness = _squarefree_in_kernel(kernel)
    if not want_decomposition:
        return SylvesterResult(r, None, witness, None)
    # with a one-element kernel every r-term decomposition lies on the roots
    # of the witness, so neither the other candidates nor the search can help
    unique = len(kernel) == 1
    for cand in [witness] if unique else _kernel_candidates(kernel):
        roots = _binary_projective_roots(cand)
        rec = None if roots is None else _split_decomposition(f, roots)
        if rec is not None:
            return SylvesterResult(r, rec, cand, True)
    rec = None if unique else _search_rational_decomposition(f, r)
    return SylvesterResult(r, rec, witness, rec is not None)
