"""The benchmark's workloads: job templates and their seeded inputs.

A workload is a fixed list of job templates, one "round".  For each seed the
benchmark draws fresh inputs for ``ROUNDS`` rounds with its own random
generator and its own exact arithmetic (``checks``), writes them as scheme
and form JSON files, and hands the program only those files and the CLI
arguments.  Every job goes through the ``veronese`` command line: in process
through ``veronese.cli.main`` or, for ``paper_cli``, as a fresh
``python -m veronese.cli`` process.

Why these workloads:

* ``paper_cli``: the README commands at paper scale.  Each takes about 0.2 s,
  half of it interpreter start and import, so start-up and ``cli`` changes
  show here, and scale-up engines should leave it unchanged.
* ``interp_rank``: ``h1`` on double, triple and (2,3)-points at the
  expected-dimension boundary, P^2 and P^3, d = 4..8.  Alexander-Hirschowitz
  defective cases and a fixed subset run with ``--modular-fastpath``, so the
  probe both settles full ranks and falls back to Bareiss.  No membership
  solves run here.  Traced at the seed commit (about 0.095 s of self time
  per job), building the conditions matrices takes about 45 % of a job,
  exact rank about 25 % and the modular probe about 25 %; the 84x84 and
  120x120 jobs take the probe path only, so Bareiss is timed up to 56x56.
  An engine that makes every rank modular-first can therefore gain at most
  the exact-rank quarter here.
* ``certify_scaleup``: constructions and certificates in P^3 at d = 9, 10,
  where exclusion solves and jet spans dominate.  A run completes only 32
  to 56 jobs, so its tail (ten jobs beyond it) sits between the 68th and
  the 82nd percentile.
* ``binary_waring``: Sylvester on binary forms, d = 5..10; generic forms
  spend their time in the rational root search, split forms in many tiny
  solves.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from fractions import Fraction
from math import comb
from pathlib import Path

import checks

ROUNDS = 16  # distinct input sets per seed; a run cycles through them
BOUND = 50  # coordinate box of generated points, the CLI default


@dataclass(frozen=True)
class Job:
    template: str
    argv: tuple[str, ...]
    expect: dict


# ---------------------------------------------------------------------------
# random inputs (own generator, integer coordinates)


def _vec(rng: random.Random, m: int, bound: int = BOUND) -> list[int]:
    while True:
        v = [rng.randint(-bound, bound) for _ in range(m + 1)]
        if any(v):
            return v


def _nonzero(rng: random.Random, bound: int = BOUND) -> int:
    return rng.choice([x for x in range(-bound, bound + 1) if x])


def _independent(u, v) -> bool:
    return any(u[i] * v[j] != u[j] * v[i] for i in range(len(u)) for j in range(i + 1, len(u)))


def _supports(rng: random.Random, m: int, count: int, bound: int = BOUND) -> list[list[int]]:
    """Pairwise non-proportional random points."""
    pts: list[list[int]] = []
    while len(pts) < count:
        p = _vec(rng, m, bound)
        if all(_independent(p, q) for q in pts):
            pts.append(p)
    return pts


def _collinear(p, q, r) -> bool:
    """Do three points of P^m lie on one line (every 3 x 3 minor zero)?"""
    def det(i, j, k):
        return (
            p[i] * (q[j] * r[k] - q[k] * r[j])
            - p[j] * (q[i] * r[k] - q[k] * r[i])
            + p[k] * (q[i] * r[j] - q[j] * r[i])
        )
    return all(det(*cols) == 0 for cols in combinations(range(len(p)), 3))


def _general_supports(rng: random.Random, m: int, count: int) -> list[list[int]]:
    """Distinct random points, no three on a line: three collinear triple
    points already force a superabundant system in the degrees used here."""
    pts: list[list[int]] = []
    while len(pts) < count:
        p = _vec(rng, m)
        if all(_independent(p, q) for q in pts) and not any(
            _collinear(p, q, r) for q, r in combinations(pts, 2)
        ):
            pts.append(p)
    return pts


def _direction(rng: random.Random, q) -> list[int]:
    while True:
        v = _vec(rng, len(q) - 1)
        if _independent(q, v):
            return v


def _form_json(m: int, d: int, coeffs) -> dict:
    return {"m": m, "d": d, "coeffs": [str(c) for c in coeffs], "order": "grlex"}


def _power(q, k: int) -> dict:
    """(q . x)^k by the multinomial formula, integer coefficients."""
    out = {}
    for alpha in checks.monomials(len(q) - 1, k):
        c = checks.multinomial(k, alpha)
        for qi, a in zip(q, alpha):
            c *= qi**a
        if c:
            out[alpha] = c
    return out


def point_scheme(kind: str, m: int, t: int, rng: random.Random) -> dict:
    """t general double points, triple points or (2,3)-points in P^m."""
    comps = []
    for q in _general_supports(rng, m, t):
        if kind == "two_three":
            comps.append({"kind": "two_three", "point": q, "direction": _direction(rng, q)})
        else:
            comps.append({"kind": "fat", "point": q, "multiplicity": {"double": 2, "triple": 3}[kind]})
    return {"m": m, "components": comps}


def curvilinear_pair(m: int, d: int, parts, rng: random.Random) -> tuple[dict, dict]:
    """A scheme of reduced points and jets on lines, and a point of its span
    with every span coefficient nonzero (so it avoids all proper subschemes)."""
    comps = []
    total: dict = {}
    for q, p in zip(_supports(rng, m, len(parts)), parts):
        if p == 1:
            comps.append({"kind": "reduced", "point": q})
            rows = [_power(q, d)]
        else:
            v = _direction(rng, q)
            comps.append({"kind": "jet", "curve": [q, v] + [[0] * (m + 1)] * (p - 2)})
            rows = [
                {e: comb(d, j) * c for e, c in checks.poly_mul(_power(q, d - j), _power(v, j)).items()}
                for j in range(p)
            ]
        for row in rows:
            lam = _nonzero(rng)
            for e, c in row.items():
                total[e] = total.get(e, 0) + lam * c
    scheme = {"m": m, "components": comps}
    return scheme, _form_json(m, d, checks.coeff_vector(total, m, d))


def split_binary(d: int, k: int, rng: random.Random) -> list[int]:
    """sum of k distinct rational d-th powers with nonzero coefficients; small
    points keep the root search over the witness's divisors short and steady."""
    pts = _supports(rng, 1, k, 9)
    total: dict = {}
    for q in pts:
        lam = _nonzero(rng, 9)
        for e, c in _power(q, d).items():
            total[e] = total.get(e, 0) + lam * c
    return checks.coeff_vector(total, 1, d)


def generic_binary(d: int, bound: int, rng: random.Random) -> list[int]:
    """Random coefficients in [-bound, bound] of a form of generic rank d//2 + 1."""
    while True:
        coeffs = [rng.randint(-bound, bound) for _ in range(d + 1)]
        if checks.binary_generic_rank(coeffs) == d // 2 + 1:
            return coeffs


# ---------------------------------------------------------------------------
# templates


def _h1_template(kind: str, m: int, d: int, t: int, fastpath: bool, tag: str = ""):
    name = f"h1.{kind}.P{m}.d{d}.t{t}" + (".fp" if fastpath else "") + tag
    per = {"double": m + 1, "triple": comb(m + 2, m), "two_three": 2 * m + 1}[kind]

    def make(rng: random.Random, write):
        path = write(name, point_scheme(kind, m, t, rng))
        argv = ["h1", str(d), "--scheme", path] + (["--modular-fastpath"] if fastpath else [])
        expect = {"kind": "h1", "degree": t * per}
        if kind == "double":
            expect["h1"] = checks.double_point_h1(m, d, t)
        return argv, expect

    return name, make


def _construct_template(name: str, m: int, d: int, flags: list[str], expect: dict):
    def make(rng: random.Random, write):
        argv = ["construct", str(m), str(d), *flags, "--seed", str(rng.randrange(1 << 30))]
        return argv, expect

    return name, make


def _certify_template(m: int, d: int, parts, tag: str = ""):
    name = f"certify.P{m}.d{d}." + "-".join(map(str, parts)) + tag

    def make(rng: random.Random, write):
        scheme, point = curvilinear_pair(m, d, parts, rng)
        argv = ["certify", "--point", write(name + ".point", point), "--scheme", write(name, scheme)]
        return argv, {"kind": "certify", "degree": sum(parts)}

    return name, make


def _split_template(d: int, k: int):
    name = f"sylvester.split.d{d}.k{k}"

    def make(rng: random.Random, write):
        coeffs = split_binary(d, k, rng)
        expect = {"kind": "sylvester", "form": [Fraction(c) for c in coeffs], "rank": k, "splits": True}
        return ["sylvester", "--form", write(name, _form_json(1, d, coeffs))], expect

    return name, make


def _generic_template(d: int, bound: int, tag: str = ""):
    """A form of generic rank.  Whether it also splits over the rationals is
    a property of the random form, so that answer is checked, not pinned."""
    name = f"sylvester.generic.d{d}{tag}"

    def make(rng: random.Random, write):
        coeffs = generic_binary(d, bound, rng)
        expect = {
            "kind": "sylvester",
            "form": [Fraction(c) for c in coeffs],
            "rank": d // 2 + 1,
            "unpinned": ("splits_over_rationals",),
        }
        return ["sylvester", "--form", write(name, _form_json(1, d, coeffs))], expect

    return name, make


def _fixed_template(name: str, argv: list[str], expect: dict, seeded: bool = False):
    def make(rng: random.Random, write):
        tail = ["--seed", str(rng.randrange(1 << 30))] if seeded else []
        return argv + tail, expect

    return name, make


def _h1_scheme_template(name: str, d: int, kind: str, m: int, t: int):
    """The README's `h1 d --scheme scheme.json` on general double points."""

    def make(rng: random.Random, write):
        path = write(name, point_scheme(kind, m, t, rng))
        expect = {"kind": "h1", "degree": t * (m + 1), "h1": checks.double_point_h1(m, d, t)}
        return ["h1", str(d), "--scheme", path], expect

    return name, make


def _interp_rank():
    # (kind, m, d, t, fastpath): t at the expected-dimension boundary.
    # Defective cases (*) have h1 above the expected value; with the fast
    # path they exercise the fallback to Bareiss.  The 120 x 120 job runs
    # twice a round so that the tail percentile falls inside its group
    # rather than between it and the next-heaviest template.
    spec = [
        ("double", 2, 4, 5, True),  # * Alexander-Hirschowitz exception
        ("double", 2, 5, 7, False),
        ("double", 2, 6, 9, False),
        ("double", 2, 7, 12, True),
        ("double", 2, 8, 15, False),
        ("double", 3, 4, 9, True),  # * Alexander-Hirschowitz exception
        ("double", 3, 5, 14, False),
        ("double", 3, 6, 21, True),
        ("double", 3, 7, 30, True, ".a"),  # 120 x 120, probe only
        ("double", 3, 7, 30, True, ".b"),
        ("triple", 2, 4, 2, False),  # *
        ("triple", 2, 5, 4, False),
        ("triple", 2, 6, 5, True),  # *
        ("triple", 2, 7, 6, False),
        ("triple", 2, 8, 7, False),
        ("triple", 3, 4, 4, True),  # *
        ("triple", 3, 5, 5, False),
        ("triple", 3, 6, 8, True),
        ("two_three", 2, 4, 3, False),
        ("two_three", 2, 5, 4, False),
        ("two_three", 2, 6, 6, True),
        ("two_three", 2, 7, 7, False),
        ("two_three", 2, 8, 9, False),
        ("two_three", 3, 4, 5, False),
        ("two_three", 3, 5, 8, False),
    ]
    return [_h1_template(*s) for s in spec]


def _certify_scaleup():
    def label(m, d, parts):
        flags = ["--label", ",".join(map(str, parts))]
        return _construct_template(
            f"construct.label.P{m}.d{d}." + "-".join(map(str, parts)),
            m, d, flags, {"kind": "label", "degree": sum(parts)},
        )

    return [
        label(3, 9, (2, 1, 1)),
        label(3, 9, (3, 1)),
        label(3, 9, (2, 2, 1)),
        label(3, 10, (2, 2)),
        _construct_template(
            "construct.line_jet.P3.d9.2-1", 3, 9, ["--line-jet", "2,1"],
            {"kind": "decomposition", "size": 9 + 2 + 1 - 2},
        ),
        _construct_template(
            "construct.tangent.P3.d9.t4", 3, 9, ["--tangent", "4"],
            {"kind": "decomposition", "size": 9 + 4 - 2},
        ),
        _certify_template(3, 9, (2, 2, 1)),
        _certify_template(3, 10, (2, 1, 1)),
    ]


def _binary_waring():
    # Coefficients in {-1, 0, 1} keep a generic job's cost steady from form
    # to form: with larger ones the root search over divisors varies several
    # fold, and generic even-degree forms often split early, so even degrees
    # come from the split forms.  Four split forms and four generic d = 5
    # forms put the median job inside the d = 5 group, and three d = 7 forms
    # put the tail inside theirs, rather than at a gap between templates.
    return [
        _generic_template(5, 1, ".a"),
        _generic_template(5, 1, ".b"),
        _generic_template(5, 1, ".c"),
        _generic_template(5, 1, ".d"),
        _generic_template(7, 1, ".a"),
        _generic_template(7, 1, ".b"),
        _generic_template(7, 1, ".c"),
        _split_template(6, 3),
        _split_template(8, 4),
        _split_template(9, 4),
        _split_template(10, 5),
    ]


def _paper_cli():
    # The README commands, with the label construction and the certificate
    # twice: five commands take about 0.13 s and the rest about 0.2 s, and the
    # extra two put the median job inside the slower group, not at the gap.
    label = {"kind": "label", "degree": 4}
    return [
        _fixed_template("stratify", ["stratify", "2", "9", "4"], {"kind": "stratify"}),
        _construct_template("construct.label.a", 2, 9, ["--label", "2,1,1"], label),
        _construct_template("construct.label.b", 2, 9, ["--label", "2,1,1"], label),
        _construct_template(
            "construct.non_collinear", 2, 9, ["--label", "3,1", "--non-collinear"],
            {"kind": "label", "degree": 4},
        ),
        _construct_template(
            "construct.line_jet", 2, 6, ["--line-jet", "2,1"],
            {"kind": "decomposition", "size": 6 + 2 + 1 - 2},
        ),
        _construct_template(
            "construct.tangent", 3, 5, ["--tangent", "3"],
            {"kind": "decomposition", "size": 5 + 3 - 2},
        ),
        _construct_template(
            "construct.conic", 2, 5, ["--conic-a", "6", "--conic-b", "6"],
            {"kind": "conic", "degree": 6},
        ),
        _certify_template(2, 9, (2, 1, 1), ".a"),
        _certify_template(2, 9, (2, 1, 1), ".b"),
        _fixed_template(
            "terracini", ["terracini", "2", "6", "--kind", "tau", "--t", "3"],
            {"kind": "terracini", "m": 2, "d": 6, "join": "tau", "t": 3}, seeded=True,
        ),
        _h1_scheme_template("h1", 6, "double", 2, 9),
        _split_template(6, 3),
        _fixed_template("gamma", ["gamma", "2", "6", "3"], {"kind": "gamma"}, seeded=True),
    ]


WORKLOADS = {
    "paper_cli": _paper_cli,
    "interp_rank": _interp_rank,
    "certify_scaleup": _certify_scaleup,
    "binary_waring": _binary_waring,
}
SUBPROCESS_WORKLOADS = {"paper_cli"}
MAX_DEGREE = 10  # largest d of any template; monomial tables are warmed to it


def generate(workload: str, seed: int, workdir: Path) -> list[list[Job]]:
    """ROUNDS rounds of jobs for this seed, their input files written."""
    rng = random.Random(f"{workload}:{seed}")
    templates = WORKLOADS[workload]()
    rounds = []
    for r in range(ROUNDS):
        rdir = workdir / f"round{r}"
        rdir.mkdir(parents=True, exist_ok=True)

        def write(name: str, obj: dict) -> str:
            path = rdir / f"{name}.json"
            path.write_text(json.dumps(obj))
            return str(path)

        jobs = []
        for name, make in templates:
            argv, expect = make(rng, write)
            jobs.append(Job(name, tuple(argv), expect))
        rounds.append(jobs)
    return rounds
