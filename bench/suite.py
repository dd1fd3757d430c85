#!/usr/bin/env python3
"""Result sets: run many seeds, print the table, compare two sets, pin values.

    python3 bench/suite.py run --seeds 1-10 --out A.json [--workloads w,..] [--trace]
    python3 bench/suite.py show A.json
    python3 bench/suite.py compare PARENT.json CHANGE.json
    python3 bench/suite.py pin [--seeds 1-3] [--workloads w,..]

``run`` calls ``run.py`` once per workload and seed, one process at a time,
stores every result line in a result set and prints, per workload, every
end-to-end metric by name and unit (median and quartiles over the seeds,
their spread against the metric's bound) plus ``fail_ratio`` and the tail
percentile with its sample count.

``compare`` applies the rule of the choosing-metrics guide, section 8, to
each end-to-end metric of each workload: the change is *better* when it wins
at least nine tenths of the seed-paired runs (ties count for neither) and
the medians differ by more than the parent's interquartile distance; *worse*
when its median is worse than the parent's by more than the metric's bound;
*unresolved* when the parent's spread exceeds the bound and not every run of
the change beats every run of the parent; else *unchanged*.  ``job_tail_s``
is re-read from the saved job times at one percentile for both sets, the
lowest that any of their runs reached, since a run's own tail percentile
rises with the number of jobs it completed.  A workload whose change fails a
larger share of its jobs than the parent is *worse*, and none of its
metrics can then be *better*.  Both sets must be recorded at the same run
length.  It exits 1 when anything is worse.

``pin`` runs every round of the given seeds in process, checks that each
template's report, minus its seed-dependent parts, is the same for all of
them, and writes those reports to ``pinned.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_LIMIT_S = 900  # a run.py call must finish within this (first call may compile)


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def at_percentile(times: list[float], pct: int) -> float:
    """Nearest-rank percentile, as ``run.tail`` takes it."""
    xs = sorted(times)
    return xs[max(1, math.ceil(pct * len(xs) / 100)) - 1]


def write_set(path: str, runs: list[dict]) -> None:
    """A result set, one run per line."""
    lines = ",\n".join(json.dumps(run, sort_keys=True) for run in runs)
    Path(path).write_text('{"runs": [\n' + lines + "\n]}\n")


# ---------------------------------------------------------------------------
# run / show


def run_one(workload: str, seed: int, trace: bool) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(int(trace)),
    ]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_LIMIT_S)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("detail "):
        raise SystemExit(f"run.py failed for {workload} seed {seed}:\n{p.stderr[-2000:]}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "result": json.loads(lines[-1]),
        "detail": json.loads(lines[-2][len("detail "):]),
    }


def cmd_run(args) -> int:
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in SPEC["workloads"]]
    runs = []
    for workload in names:
        for seed in _seeds(args.seeds):
            run = run_one(workload, seed, args.trace)
            res = run["result"]
            print(f"{workload} seed {seed}: attempted {res['attempted']} failed {res['failed']}", flush=True)
            runs.append(run)
            write_set(args.out, runs)
    show(runs)
    return 0


def _by_workload(runs: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in runs:
        if run["trace"] == trace:
            out.setdefault(run["workload"], []).append(run)
    return out


def show(runs: list[dict]) -> None:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for workload, group in _by_workload(runs, 0).items():
        attempted = sum(r["result"]["attempted"] for r in group)
        failed = sum(r["result"]["failed"] for r in group)
        pcts = sorted({r["detail"]["tail"]["percentile"] for r in group})
        samples = sorted(r["detail"]["tail"]["samples"] for r in group)
        print(f"\n{workload}: {len(group)} runs, fail_ratio {failed / attempted:.4f} "
              f"({failed}/{attempted}), tail percentile {pcts} over {samples[0]}-{samples[-1]} jobs")
        print(f"  {'metric':<12} {'unit':<6} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in group]
            unit = group[0]["result"]["metrics"][name]["unit"]
            q1, q2, q3 = quartiles(values)
            flag = "" if spread(values) <= bound / 3 else "  wide"
            print(f"  {name:<12} {unit:<6} {q2:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                  f"{spread(values):>7.3f} {bound:>6}{flag}")
    for workload, group in _by_workload(runs, 1).items():
        print(f"\n{workload} (traced): {len(group)} runs, per-layer medians")
        for name, m in group[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in group]
            print(f"  {name:<32} {statistics.median(values):>12.6g} {m['unit']}")


def cmd_show(args) -> int:
    show(json.loads(Path(args.results).read_text())["runs"])
    return 0


# ---------------------------------------------------------------------------
# compare


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    pairs = [(sign * (c - p)) for p, c in zip(parent, change)]
    wins = sum(1 for x in pairs if x > 0)
    if wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1) and sign * (cm - pm) > 0:
        return "better"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread(parent) > bound:
        return "better" if all_better else "unresolved"
    if sign * (pm - cm) > bound * abs(pm):
        return "worse"
    return "unchanged"


def fail_ratio(runs: list[dict]) -> float:
    return sum(r["result"]["failed"] for r in runs) / sum(r["result"]["attempted"] for r in runs)


def metric_values(runs: list[dict], name: str, tail_pct: int) -> list[float]:
    if name == "job_tail_s":
        return [at_percentile(r["detail"]["job_times"], tail_pct) for r in runs]
    return [r["result"]["metrics"][name]["value"] for r in runs]


def cmd_compare(args) -> int:
    sets = [json.loads(Path(p).read_text())["runs"] for p in (args.parent, args.change)]
    lengths = {r["detail"]["seconds"] for runs in sets for r in runs if r["trace"] == 0}
    if len(lengths) > 1:
        raise SystemExit(f"the result sets were recorded at different run lengths: {sorted(lengths)} s")
    grouped = [_by_workload(runs, 0) for runs in sets]
    worse = 0
    print(f"{'workload':<16} {'metric':<15} {'parent':>10} {'change':>10} {'delta':>8} {'bound':>6}  verdict")
    for workload, parent_runs in grouped[0].items():
        change_runs = grouped[1].get(workload)
        if not change_runs:
            print(f"{workload:<16} missing from the change's result set")
            continue
        parent_runs = sorted(parent_runs, key=lambda r: r["seed"])
        change_runs = sorted(change_runs, key=lambda r: r["seed"])
        tail_pct = min(r["detail"]["tail"]["percentile"] for r in parent_runs + change_runs)
        pf, cf = fail_ratio(parent_runs), fail_ratio(change_runs)
        more_failures = cf > pf
        worse += more_failures
        print(f"{workload:<16} {'fail_ratio':<15} {pf:>10.4f} {cf:>10.4f} {'':>8} {'':>6}  "
              f"{'worse' if more_failures else 'unchanged' if cf == pf else 'better'}")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            a = metric_values(parent_runs, name, tail_pct)
            b = metric_values(change_runs, name, tail_pct)
            v = verdict(a, b, metric["better"], metric["bound"])
            if v == "better" and more_failures:
                v = "unchanged (better, but more jobs failed)"
            worse += v == "worse"
            pm, cm = statistics.median(a), statistics.median(b)
            delta = (cm - pm) / pm if pm else float("inf")
            label = f"{name} p{tail_pct}" if name == "job_tail_s" else name
            print(f"{workload:<16} {label:<15} {pm:>10.4f} {cm:>10.4f} {delta:>+8.3f} "
                  f"{metric['bound']:>6}  {v}")
    return 1 if worse else 0


# ---------------------------------------------------------------------------
# pin


def cmd_pin(args) -> int:
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import checks
    import run
    import workloads

    signal.signal(signal.SIGALRM, run._on_alarm)
    pin_file = BENCH / "pinned.json"
    pinned: dict = json.loads(pin_file.read_text()) if pin_file.exists() else {}
    bad = 0
    run.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        for workload in args.workloads.split(",") if args.workloads else workloads.WORKLOADS:
            run.import_program()
            seen: dict = {}
            for seed in _seeds(args.seeds):
                for jobs in workloads.generate(workload, seed, Path(tmp) / workload / str(seed)):
                    for job in jobs:
                        rec = run.run_in_process(job)
                        found = [rec.error] if rec.error else []
                        if not found:
                            report = json.loads(rec.out)
                            found = checks.check_report(job.expect, report, None)
                            stripped = checks.strip_seeded(report, job.expect.get("unpinned", ()))
                            if seen.setdefault(job.template, stripped) != stripped:
                                found.append("report differs between seeds")
                        if found:
                            bad += 1
                            print(f"{workload} seed {seed} {job.template}: {'; '.join(found)}")
            pinned[workload] = seen
            print(f"{workload}: {len(seen)} templates pinned", flush=True)
    if bad:
        print(f"{bad} jobs failed; pinned.json left unchanged")
        return 1
    pin_file.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_run)
    p = sub.add_parser("show")
    p.add_argument("results")
    p.set_defaults(fn=cmd_show)
    p = sub.add_parser("compare")
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(fn=cmd_compare)
    p = sub.add_parser("pin")
    p.add_argument("--seeds", default="1-3")
    p.add_argument("--workloads")
    p.set_defaults(fn=cmd_pin)
    args = ap.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
