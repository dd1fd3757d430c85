"""Partition labels of the curvilinear strata and their dimension formulas.

A curvilinear scheme of degree t has a type: the non-increasing sequence of
its connected component degrees, i.e. a partition of t.  The family of all
curvilinear schemes with a fixed type is irreducible of dimension
m*t + s - t (s parts), and the union of the spans of its degree-d images is
an irreducible constructible set of dimension (m+1)*t - 1 - t + s.

Closure relations between strata are only reported for the three proven
degenerations (everything degenerates to the tangent-vector stratum; first
part >= 3 degenerates to (3,1,...,1); second part >= 2 degenerates to
(2,2,1,...,1)).  Dominance order is attached as context but is never claimed
to coincide with the closure order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .errors import InputError

LESS_EQUAL = "less_equal"
GREATER_EQUAL = "greater_equal"
EQUAL = "equal"
INCOMPARABLE = "incomparable"

# The report lists every partition of t, and p(t) grows like exp(pi*sqrt(2t/3)):
# p(30) = 5604 labels is about 12 MB of JSON, p(40) = 37338 already 99 MB.
MAX_REPORT_T = 30


@dataclass(frozen=True)
class StratumLabel:
    """Non-increasing partition of t; parts are component degrees."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise InputError("label needs at least one part")
        if any(p < 1 for p in self.parts):
            raise InputError("parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise InputError("parts must be non-increasing")

    @classmethod
    def make(cls, parts: Iterable[int]) -> "StratumLabel":
        return cls(tuple(int(p) for p in parts))

    @property
    def t(self) -> int:
        return sum(self.parts)

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    def is_trivial(self) -> bool:
        return all(p == 1 for p in self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def partitions_enumerate(t: int) -> list[StratumLabel]:
    """All partitions of t in descending lexicographic order, (t) first."""
    if t < 1:
        raise InputError("t must be >= 1")

    def gen(remaining: int, maxpart: int):
        if remaining == 0:
            yield ()
            return
        for p in range(min(remaining, maxpart), 0, -1):
            for rest in gen(remaining - p, p):
                yield (p,) + rest

    return [StratumLabel(p) for p in gen(t, t)]


def _prefix_sums(parts: Sequence[int], length: int) -> list[int]:
    out, acc = [], 0
    for i in range(length):
        acc += parts[i] if i < len(parts) else 0
        out.append(acc)
    return out


def dominance_compare(a: StratumLabel, b: StratumLabel) -> str:
    """Dominance order by prefix sums, zero padding the shorter label.

    a <= b means every prefix sum of a is <= the matching prefix sum of b,
    so (1,...,1) is the minimum and (t) the maximum of the order.
    """
    if a.t != b.t:
        raise InputError("dominance compares partitions of the same t")
    n = max(a.num_parts, b.num_parts)
    pa, pb = _prefix_sums(a.parts, n), _prefix_sums(b.parts, n)
    le = all(x <= y for x, y in zip(pa, pb))
    ge = all(x >= y for x, y in zip(pa, pb))
    if le and ge:
        return EQUAL
    if le:
        return LESS_EQUAL
    if ge:
        return GREATER_EQUAL
    return INCOMPARABLE


def hilb_stratum_dim(m: int, label: StratumLabel) -> int:
    """Dimension m*t + s - t of the type-`label` curvilinear family in P^m."""
    if m < 1:
        raise InputError("m must be >= 1")
    return m * label.t + label.num_parts - label.t


def hilb_stratum_codim(label: StratumLabel) -> int:
    return label.t - label.num_parts


def sigma_stratum_dim(m: int, label: StratumLabel) -> int:
    """Dimension (m+1)t - 1 - t + l of the span-union over the stratum."""
    if m < 1:
        raise InputError("m must be >= 1")
    t = label.t
    return (m + 1) * t - 1 - t + label.num_parts


IN_CLOSURE_OF = "in_closure_of"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class ClosureFact:
    status: str
    rule: str
    dominance: str


def _tangent_label(t: int) -> tuple[int, ...]:
    return (2,) + (1,) * (t - 2)


def closure_relation(a: StratumLabel, b: StratumLabel) -> ClosureFact:
    """Is the stratum labelled b contained in the closure of stratum a?

    Reports in_closure_of only for the proven degenerations; otherwise
    unknown, with the dominance comparison attached as heuristic context.
    """
    if a.t != b.t:
        raise InputError("closure_relation compares labels of the same t")
    t = a.t
    dom = dominance_compare(a, b)
    if a == b:
        return ClosureFact(IN_CLOSURE_OF, "equal", dom)
    if t >= 2 and a.parts == _tangent_label(t) and not b.is_trivial():
        return ClosureFact(IN_CLOSURE_OF, "degenerates_to_tangent_vector", dom)
    if t >= 3 and a.parts == (3,) + (1,) * (t - 3) and b.parts[0] >= 3:
        return ClosureFact(IN_CLOSURE_OF, "first_part_ge_3", dom)
    if (
        t >= 4
        and a.parts == (2, 2) + (1,) * (t - 4)
        and b.num_parts >= 2
        and b.parts[1] >= 2
    ):
        return ClosureFact(IN_CLOSURE_OF, "second_part_ge_2", dom)
    return ClosureFact(UNKNOWN, "none", dom)


def stratification_report(m: int, d: int, t: int) -> dict:
    """Per-label dimensions, closure facts and regime flags as a JSON-able dict.

    One entry per partition of t, so t is capped at MAX_REPORT_T.

    The lexicographic rank is the documented total-order tie-break for
    assigning a minimal label; it is flagged artificial because nothing
    geometric orders, say, (3,1,...,1) against (2,2,1,...,1).
    """
    if m < 2 or d < 3 or t < 2:
        raise InputError("stratification_report needs m >= 2, d >= 3, t >= 2")
    if t > MAX_REPORT_T:
        raise InputError(
            f"stratification_report lists all p(t) partitions; t must be <= {MAX_REPORT_T}"
        )
    labels = partitions_enumerate(t)
    by_lex = sorted(labels, key=lambda l: l.parts)
    lex_rank = {l.parts: i for i, l in enumerate(by_lex)}
    n_ambient = comb(m + d, m) - 1
    dim_sigma = min(n_ambient, (m + 1) * t - 1)
    dim_dagger = (m + 1) * t - 2
    special = [
        lab
        for lab in (
            _tangent_label(t),
            (3,) + (1,) * (t - 3) if t >= 3 else None,
            (2, 2) + (1,) * (t - 4) if t >= 4 else None,
        )
        if lab is not None
    ]
    entries = []
    codim1 = []
    for lab in labels:
        closure = []
        for target in special:
            fact = closure_relation(StratumLabel(target), lab)
            if fact.status == IN_CLOSURE_OF and lab.parts != target:
                closure.append(
                    {"inside_closure_of": list(target), "rule": fact.rule}
                )
        sdim = sigma_stratum_dim(m, lab)
        dagger_codim = None if lab.is_trivial() else dim_dagger - sdim
        if dagger_codim == 1:
            codim1.append(list(lab.parts))
        entries.append(
            {
                "parts": list(lab.parts),
                "hilb_dim": hilb_stratum_dim(m, lab),
                "sigma_dim": sdim,
                "codim": hilb_stratum_codim(lab),
                "dagger_codim": dagger_codim,
                "closure": closure,
                "lex_rank": lex_rank[lab.parts],
            }
        )
    return {
        "m": m,
        "d": d,
        "t": t,
        "labels": entries,
        "dim_sigma_expected": dim_sigma,
        "dim_dagger": dim_dagger,
        "codim1_strata_in_dagger": codim1,
        "true_stratification": 2 * t <= d + 1,
        "uniqueness_regime": t <= (d - 1) // 2,
        "lex_order_artificial": True,
    }
