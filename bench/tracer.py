"""Outside-in tracer: spans around the public functions of each layer.

``Tracer.install`` wraps every public function defined in a ``veronese``
layer module and rebinds it, by identity, in every ``veronese.*`` namespace
that holds it.  Functions imported by name (``rank_exact`` into ``schemes``,
``construct`` and ``cli``) are therefore traced wherever they are called.
Spans (name, start, end, parent, job) are kept in memory and written out at
the end; a layer's self time is its span duration minus its child spans.

Nothing in the program is changed on disk, and ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter
from math import lcm
from time import perf_counter

LAYERS = ("rationalla", "forms", "schemes", "strata", "construct", "cli")

# Helpers called once per matrix entry or monomial.  A span around each would
# cost more than the work it measures, so their time stays in the caller.
UNTRACED = frozenset(
    {"multinomial", "monomial_basis", "monomial_index", "rat_to_str", "rat_from_str"}
)

# Time the tracer spends on its own counters is recorded under this name, so
# that it is not charged to any layer's self time.
BOOKKEEPING = "trace.bookkeeping"

GROUPS = {
    "rationalla.rank": ("rationalla.rank_exact",),
    "rationalla.solve": ("rationalla.membership_solve",),
    "rationalla.probe": ("rationalla.modular_rank_probe",),
    "rationalla.kernel": ("rationalla.kernel_basis",),
    "forms.power_expand": ("forms.power_expand",),
    "forms.catalecticant": ("forms.catalecticant_matrix",),
    "schemes.conditions": ("schemes.conditions_matrix",),
    "schemes.span": ("schemes.span_matrix", "schemes.proper_subscheme_spans"),
    "schemes.h1": ("schemes.h1",),
}

def _max_entry_bits(M) -> int:
    """Largest entry, in bits, of the integer rows Bareiss starts from (each
    row of M scaled by the lcm of its denominators)."""
    best = 0
    for i in range(M.rows):
        row = M.entries[i * M.cols : (i + 1) * M.cols]
        scale = lcm(*(x.denominator for x in row)) if row else 1
        for x in row:
            best = max(best, (x.numerator * (scale // x.denominator)).bit_length())
    return best


def _count_certificates(result) -> int:
    items = result if isinstance(result, tuple) else (result,)
    return sum(1 for x in items if type(x).__name__ == "Certificate")


class Tracer:
    def __init__(self):
        self.names: list[str] = [BOOKKEEPING]
        self.spans: list = []  # (name id, start, end, parent index, job id)
        self.stack: list[int] = []  # indices of open spans
        self.open_layers: list[str] = []
        self.job = 0
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._patched: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> int:
        """Wrap every public layer function; returns the number wrapped."""
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name.startswith("veronese.") and mod is not None
        ]
        targets: dict[int, tuple] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or attr in UNTRACED
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                targets[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))
        spec = sys.modules["veronese.schemes"].SchemeSpec
        original = spec.__post_init__

        def counted_post_init(obj):
            if self.open_layers and self.open_layers[-1] == "construct":
                self.counts["construct.samples"] += 1
            return original(obj)

        spec.__post_init__ = counted_post_init
        self._patched.append((spec, "__post_init__", original))
        return len(targets)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        layer = name.split(".", 1)[0]
        hook = _HOOKS.get(name)
        spans, stack, layers = self.spans, self.stack, self.open_layers

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            layers.append(layer)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                layers.pop()
                spans[idx] = (nid, t0, t1, parent, self.job)
            if hook is not None:
                hook(self, args, result)
                spans.append((0, t1, perf_counter(), parent, self.job))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def start_job(self, job: int) -> None:
        """Spans from here on belong to ``job``; a job cut off by its time
        limit may have left spans open, which are dropped from the stack."""
        self.job = job
        self.stack.clear()
        self.open_layers.clear()

    # -- results ----------------------------------------------------------

    def merge(self, dump: dict, job: int) -> None:
        """Add the spans and counts a traced child process wrote out."""
        ids = [self._name_id(n) for n in dump["names"]]
        base = len(self.spans)
        for span in dump["spans"]:
            if span is None:
                self.spans.append(None)
                continue
            nid, t0, t1, parent, _ = span
            self.spans.append((ids[nid], t0, t1, parent + base if parent >= 0 else -1, job))
        self.counts.update(dump["counts"])
        for k, v in dump["maxima"].items():
            self.maxima[k] = max(self.maxima[k], v)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)

    def layer_metrics(self, jobs: int, import_s: float, overhead_s: float, speed: float) -> dict:
        """Every per-layer metric by name: counts and times per job, span
        times multiplied by ``speed`` to put them at the nominal machine
        speed."""
        # a span a time limit cut off is never closed and stays None
        spans = [(i, s) for i, s in enumerate(self.spans) if s is not None]
        covered = [0.0] * len(self.spans)
        exact_under = set()
        rank_id = self._name_id("rationalla.rank_exact")
        for _, (nid, t0, t1, parent, _) in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
                if nid == rank_id:
                    exact_under.add(parent)
        calls: Counter = Counter()
        self_s: Counter = Counter()
        fastpath_id = self._name_id("rationalla.rank_with_fastpath")
        hits = 0
        for i, (nid, t0, t1, parent, _) in spans:
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += ((t1 - t0) - covered[i]) * speed
            if nid == fastpath_id and i not in exact_under:
                hits += 1
        per = max(jobs, 1)
        out = {}
        for group, members in GROUPS.items():
            out[f"{group}.calls"] = sum(calls[n] for n in members) / per
            out[f"{group}.self_s"] = sum(self_s[n] for n in members) / per
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for n, v in self_s.items() if n.startswith(layer + ".")
            ) / per
        certificates = self.counts["construct.certificates"]
        samples = self.counts["construct.samples"] + calls["construct.certify_border_rank"]
        out.update({
            "rationalla.rank.cells": self.counts["rationalla.rank.cells"] / per,
            "rationalla.rank.max_bits": self.maxima["rationalla.rank.max_bits"],
            "rationalla.solve.cells": self.counts["rationalla.solve.cells"] / per,
            "rationalla.fastpath.hit_ratio": hits / calls["rationalla.rank_with_fastpath"]
            if calls["rationalla.rank_with_fastpath"] else 0.0,
            "schemes.conditions.rows": self.counts["schemes.conditions.rows"] / per,
            "construct.certificates": certificates / per,
            "construct.useful_ratio": certificates / samples if samples else 0.0,
            "cli.import_s": import_s,
            "trace.overhead_s": overhead_s,
        })
        return out


def _rank_hook(tracer: Tracer, args, result) -> None:
    M = args[0]
    tracer.counts["rationalla.rank.cells"] += M.rows * M.cols
    bits = _max_entry_bits(M)
    if bits > tracer.maxima["rationalla.rank.max_bits"]:
        tracer.maxima["rationalla.rank.max_bits"] = bits


def _solve_hook(tracer: Tracer, args, result) -> None:
    M = args[0]
    tracer.counts["rationalla.solve.cells"] += M.rows * M.cols


def _conditions_hook(tracer: Tracer, args, result) -> None:
    tracer.counts["schemes.conditions.rows"] += result.rows


def _certificate_hook(tracer: Tracer, args, result) -> None:
    tracer.counts["construct.certificates"] += _count_certificates(result)


_HOOKS = {
    "rationalla.rank_exact": _rank_hook,
    "rationalla.membership_solve": _solve_hook,
    "schemes.conditions_matrix": _conditions_hook,
    "construct.construct_stratum_point": _certificate_hook,
    "construct.construct_line_jet": _certificate_hook,
    "construct.construct_tangent_plus_points": _certificate_hook,
    "construct.construct_conic_double": _certificate_hook,
    "construct.certify_border_rank": _certificate_hook,
    "construct.terracini_dim": _certificate_hook,
}
