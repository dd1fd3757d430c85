"""Binary forms: Sylvester's theorem, apolar kernels, explicit
decompositions, and relations on the image of a rational curve.

A binary form of degree D has D+1 coefficients, on y0^(D-j) y1^j for
j = 0..D.  The same coordinates describe the span of a rational curve of
degree-d forms s -> sum_j s^j g_j with independent g_j: the image of a
line of P^m (D = d, g_j = C(d, j) (Q0.x)^(d-j) (V.x)^j) or of a smooth
plane conic (D = 2d).  A relation among jets of such a curve is solved in
these D+1 coordinates instead of the C(m+d, m) coordinates of P^m.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
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
from .rationalla import QMatrix, _clear_denominators, kernel_basis, membership_solve, rank_exact


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


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_deriv(p: list[Fraction]) -> list[Fraction]:
    return [p[i] * i for i in range(1, len(p))]


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = a[:]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(c != 0 for c in a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        q[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a.pop()
    return _poly_trim(q), _poly_trim(a)


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _dehomogenize(h: Form) -> tuple[list[Fraction], int]:
    """Return (p, a) with h = y0^a * homogenization of p(z), z = y1/y0; the
    coefficient of y0^(r-j) y1^j is that of z^j."""
    p = _poly_trim(list(h.coeffs))
    return p, h.d - (len(p) - 1)


def _binary_squarefree(h: Form) -> bool:
    p, y0_mult = _dehomogenize(h)
    if not p:
        return False
    if y0_mult >= 2:
        return False
    g = _poly_gcd(p, _poly_deriv(p))
    return len(g) <= 1


def _rational_roots(p: list[Fraction]) -> Optional[list[Fraction]]:
    """All roots with multiplicity when p splits over Q, else None."""
    p = _poly_trim(p[:])
    if len(p) <= 1:
        return []
    roots = []
    while p[0] == 0 and len(p) > 1:
        roots.append(Fraction(0))
        p = p[1:]
    (ip,), _ = _clear_denominators([p])
    while len(ip) > 1:
        a0, an = ip[0], ip[-1]
        if a0 == 0:
            roots.append(Fraction(0))
            ip = ip[1:]
            continue
        found = None
        for pdiv in _divisors(abs(a0)):
            for qdiv in _divisors(abs(an)):
                for sign in (1, -1):
                    cand = Fraction(sign * pdiv, qdiv)
                    if _int_poly_eval(ip, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            return None
        ip = _int_poly_deflate(ip, found)
        roots.append(found)
    return roots


def _divisors(n: int) -> list[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def _int_poly_eval(p: list[int], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _int_poly_deflate(p: list[int], root: Fraction) -> list[int]:
    """Divide by (q z - p_num) after scaling; returns integer coefficients."""
    frac = [Fraction(c) for c in p]
    quot, rem = _poly_divmod(frac, [-root, Fraction(1)])
    if rem:
        raise InternalInconsistency(f"{root} is not a root of the polynomial")
    (ip,), _ = _clear_denominators([quot])
    return ip


def _binary_projective_roots(h: Form) -> Optional[list[tuple[Fraction, Fraction]]]:
    """Distinct projective roots (a : b) when h is squarefree and splits
    over the rationals; None otherwise."""
    if not _binary_squarefree(h):
        return None
    p, y0_mult = _dehomogenize(h)
    roots = _rational_roots(p)
    if roots is None:
        return None
    pts = [(Fraction(1), z) for z in roots]
    if y0_mult == 1:
        pts.append((Fraction(0), Fraction(1)))
    if len(pts) != h.d or len(set(pts)) != len(pts):
        return None
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
