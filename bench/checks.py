"""Correctness checks for benchmark jobs, written without the library.

Everything here is the benchmark's own exact arithmetic: a monomial order,
polynomial products over exponent dictionaries, scheme degrees, the
Alexander-Hirschowitz theorem and the expected join dimensions.  Nothing is
imported from ``veronese``, so a defect in the library cannot hide itself by
also being used to check its output.

A check returns a list of problems; an empty list means the job is correct.
Values with no closed form (h1 of triple points, stratification reports,
claim lists) are compared with ``pinned.json``, recorded from the seed
commit by ``suite.py pin``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

# Keys whose values depend on the random inputs; everything else in a report
# depends only on the job's template and is pinned.
SEEDED_KEYS = frozenset(
    {"seed", "scheme", "scheme_a", "scheme_b", "point", "decomposition", "apolar_witness"}
)


def monomials(m: int, d: int) -> list[tuple[int, ...]]:
    """Degree-d exponents on m+1 variables, descending lex (the JSON order)."""
    if m == 0:
        return [(d,)]
    return [(e,) + rest for e in range(d, -1, -1) for rest in monomials(m - 1, d - e)]


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def linear(coeffs) -> dict:
    n = len(coeffs)
    return {
        tuple(int(j == i) for j in range(n)): c for i, c in enumerate(coeffs) if c != 0
    }


def poly_pow(p: dict, k: int, nvars: int) -> dict:
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def coeff_vector(poly: dict, m: int, d: int) -> list:
    return [poly.get(alpha, 0) for alpha in monomials(m, d)]


def from_vector(coeffs, m: int, d: int) -> dict:
    return {a: c for a, c in zip(monomials(m, d), coeffs) if c != 0}


def rat(s) -> Fraction:
    return Fraction(str(s))


def form_vector(form_json: dict) -> list[Fraction]:
    return [rat(c) for c in form_json["coeffs"]]


def component_degree(m: int, comp: dict) -> int:
    kind = comp["kind"]
    if kind == "reduced":
        return 1
    if kind == "jet":
        return len(comp["curve"])
    if kind == "fat":
        return comb(m + comp["multiplicity"] - 1, m)
    if kind == "two_three":
        return 2 * m + 1
    raise ValueError(f"unknown component kind {kind!r}")


def scheme_degree(scheme_json: dict) -> int:
    return sum(component_degree(scheme_json["m"], c) for c in scheme_json["components"])


def expand_summand(s: dict, m: int, d: int) -> dict:
    """One summand of a decomposition JSON, expanded as a polynomial."""
    n = m + 1
    lin = linear([rat(c) for c in s["linear"]])
    shape = s["shape"]
    if shape == "L^d":
        p = poly_pow(lin, d, n)
    elif shape == "L^(d-1)M":
        p = poly_mul(poly_pow(lin, d - 1, n), linear([rat(c) for c in s["second"]]))
    elif shape == "L^(d-2)Q":
        q = s["quadric"]
        p = poly_mul(poly_pow(lin, d - 2, n), from_vector(form_vector(q), q["m"], 2))
    else:
        raise ValueError(f"unknown summand shape {shape!r}")
    c = rat(s["coeff"])
    return {e: c * v for e, v in p.items()}


def decomposition_problems(dec: dict, target: list[Fraction], size: int | None) -> list[str]:
    """Re-expand every summand and compare with the target coefficients."""
    m, d = dec["m"], dec["d"]
    total: dict = {}
    for s in dec["summands"]:
        for e, c in expand_summand(s, m, d).items():
            total[e] = total.get(e, 0) + c
    problems = []
    if coeff_vector(total, m, d) != target:
        problems.append("decomposition does not re-expand to the target")
    if form_vector(dec["target"]) != target:
        problems.append("decomposition target differs from the expected form")
    if len(dec["summands"]) != dec["size"]:
        problems.append("decomposition size field disagrees with its summands")
    if size is not None and dec["size"] != size:
        problems.append(f"decomposition size {dec['size']} != expected {size}")
    return problems


# ---------------------------------------------------------------------------
# closed-form expectations


AH_EXCEPTIONS = {(2, 4, 5), (3, 4, 9), (4, 3, 7), (4, 4, 14)}


def double_point_h1(m: int, d: int, t: int) -> int:
    """h1 of t general double points in P^m in degree d (Alexander-Hirschowitz).

    The conditions have rank min(t(m+1), C(m+d, m)) except for quadrics with
    2 <= t <= m, where the forms are quadrics in m+1-t variables, and the four
    exceptional cases, which lose exactly one condition.
    """
    degree = t * (m + 1)
    n = comb(m + d, m)
    if d == 2 and 2 <= t <= m:
        rank = n - comb(m - t + 2, 2)
    elif (m, d, t) in AH_EXCEPTIONS:
        rank = min(degree, n) - 1
    else:
        rank = min(degree, n)
    return degree - rank


def terracini_expected(m: int, d: int, kind: str, t: int) -> int:
    """Expected dimension of the secant or tangential join, capped at P^N."""
    n = comb(m + d, m) - 1
    per_point = m + 1
    if kind == "secant":
        return min(n, t * per_point - 1)
    if kind == "tau":
        # the tangent developable is one dimension short of two general points
        return min(n, t * per_point - 2)
    if kind == "osculating2":
        return min(n, comb(m + 3, m) + (t - 1) * per_point - 1)
    raise ValueError(kind)


def multinomial(d: int, alpha) -> int:
    out = factorial(d)
    for a in alpha:
        out //= factorial(a)
    return out


def _eliminate(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by plain rational elimination; (rows, pivots)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a by b; coefficient lists, lowest degree first, b trimmed."""
    a = list(a)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _squarefree(p: list[Fraction]) -> bool:
    """p (lowest degree first, nonzero leading coefficient) has no repeated root."""
    a, b = p, [i * c for i, c in enumerate(p)][1:]
    while b:
        a, b = b, _poly_rem(a, b)
    return len(a) <= 1


def binary_generic_rank(coeffs) -> int | None:
    """Waring rank of a binary form whose middle catalecticant has full rank,
    by Sylvester's theorem; None when the catalecticant is degenerate.

    ``coeffs`` are the coefficients c_j of y0^(d-j) y1^j.  With
    u_j = c_j / C(d, j), an operator sum_i h_i d0^(r-i) d1^i kills the form
    exactly when sum_i h_i u_(i+k) = 0 for k = 0..d-r.  For even d the rank is
    d/2 + 1.  For odd d = 2a + 1 the operators of degree a + 1 that kill the
    form are the multiples of one h; the rank is a + 1 when h has distinct
    roots and a + 2 otherwise.
    """
    d = len(coeffs) - 1
    u = [Fraction(c) / comb(d, j) for j, c in enumerate(coeffs)]
    a = d // 2
    hankel = lambda r: [[u[i + k] for i in range(r + 1)] for k in range(d - r + 1)]
    if len(_eliminate(hankel(a))[1]) != a + 1:
        return None
    if d % 2 == 0:
        return a + 1
    r = a + 1
    rows, pivots = _eliminate(hankel(r))
    free = next(c for c in range(r + 1) if c not in pivots)
    h = [Fraction(0)] * (r + 1)
    h[free] = Fraction(1)
    for row, pc in zip(rows, pivots):
        h[pc] = -row[free]
    while h[-1] == 0:  # roots at infinity of the binary form
        h.pop()
    at_infinity = r + 1 - len(h)
    return r if at_infinity <= 1 and _squarefree(h) else r + 1


# ---------------------------------------------------------------------------
# job checks


def strip_seeded(obj, extra=frozenset()):
    """The part of a report that depends only on the job's template."""
    if isinstance(obj, dict):
        return {
            k: strip_seeded(v, extra) for k, v in obj.items()
            if k not in SEEDED_KEYS and k not in extra
        }
    if isinstance(obj, list):
        return [strip_seeded(v, extra) for v in obj]
    return obj


def _claims_problems(cert: dict) -> list[str]:
    return [f"claim failed: {c['statement']}" for c in cert["claims"] if not c["passed"]]


def check_report(expect: dict, report: dict, pinned) -> list[str]:
    """Problems with one job's parsed JSON report (empty when correct)."""
    problems: list[str] = []
    if pinned is not None and strip_seeded(report, expect.get("unpinned", ())) != pinned:
        problems.append("report differs from the value pinned at the seed commit")
    kind = expect["kind"]
    if kind == "h1":
        if report["degree"] != expect["degree"]:
            problems.append(f"degree {report['degree']} != {expect['degree']}")
        if report["rank"] != report["degree"] - report["h1"]:
            problems.append("rank != degree - h1")
        if "h1" in expect and report["h1"] != expect["h1"]:
            problems.append(f"h1 {report['h1']} != {expect['h1']} (Alexander-Hirschowitz)")
    elif kind in ("label", "certify", "conic"):
        cert = report["certificate"]
        problems += _claims_problems(cert)
        if kind == "conic":
            degree = min(scheme_degree(report["scheme_a"]), scheme_degree(report["scheme_b"]))
        elif kind == "label":
            degree = scheme_degree(report["scheme"])
        else:
            degree = expect["degree"]
        if cert["value"] != degree or degree != expect["degree"]:
            problems.append(f"certificate value {cert['value']} != scheme degree {degree}")
    elif kind == "decomposition":
        problems += _claims_problems(report["certificate"])
        problems += decomposition_problems(
            report["decomposition"], form_vector(report["point"]), expect["size"]
        )
    elif kind == "sylvester":
        if "rank" in expect and report["rank"] != expect["rank"]:
            problems.append(f"rank {report['rank']} != {expect['rank']}")
        if "splits" in expect and report["splits_over_rationals"] != expect["splits"]:
            problems.append("splits_over_rationals differs from the construction")
        if "decomposition" in report:
            problems += decomposition_problems(
                report["decomposition"], expect["form"], report["rank"]
            )
        elif report["splits_over_rationals"]:
            problems.append("splits over the rationals but no decomposition given")
    elif kind == "terracini":
        want = terracini_expected(expect["m"], expect["d"], expect["join"], expect["t"])
        if report["expected"] != want:
            problems.append(f"expected dimension {report['expected']} != {want}")
        problems += _claims_problems(report["certificate"])
    elif kind == "gamma":
        if not report["report"]["all_passed"]:
            problems.append("a gamma family check failed")
    elif kind != "stratify":
        raise ValueError(f"unknown check kind {kind!r}")
    return problems
