#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a plain checkout: the program is imported from
``src``, as ``PYTHONPATH=src`` would; nothing needs installing, and a
directory without ``src/veronese`` is refused with exit status 2.

Set-up (fresh import, input generation, warm-up of the monomial tables) is
repeated ``SETUP_REPS`` times and its median reported.  Jobs then run as a
closed loop with one client, one at a time, in whole rounds until
``--seconds`` of loop time have passed; their outputs are checked after the
loop.  Every time is scaled to a nominal machine speed by a reference
measured before each job (``reference_s``).

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics.  With ``--trace 1`` the same rounds run untraced for half the time
and then traced; the two passes must print identical outputs, and the last
line carries the per-layer metrics.  The line before it, ``detail {...}``,
records the environment, the tail percentile and its sample count, every
scaled job time (so that two runs' tails can be compared at one percentile),
the raw wall-clock figures and per-template times.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import ceil, floor
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import checks  # noqa: E402  (sibling modules of this script)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_REPS = 5
# Times are reported at a nominal machine speed: each is multiplied by
# REF_NOMINAL_S over the median reference time of its round.  On shared
# hardware a fixed computation's speed drifts by 10 % or more between 20 s
# windows; the drift hits the reference and the jobs alike, so the scaled
# times are steady.  Raw wall-clock figures are in the detail line.
REF_LOOP = "acc = 0\nfor i in range(20_000):\n    acc += i * i % 7\n"
REF_IMPORTS = "import argparse, dataclasses, fractions, json, random\n"
_REF_COMPILED = compile(REF_LOOP, "<reference>", "exec")
REF_NOMINAL_S = {False: 0.0035, True: 0.07}  # keyed by "jobs are child processes"
JOB_LIMIT_S = 30  # a job running longer counts as failed
RUN_BUDGET_S = 150  # no job runs past this, so a run ends well within 180 s
SPAN_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"


class JobTimeout(Exception):
    pass


@dataclass
class Record:
    template: str
    seconds: float
    code: int | None  # exit status, None when the job did not finish
    out: str
    error: str | None = None
    round: int = 0
    rss_kb: int = 0  # peak resident memory of the job's own process (child jobs)


@dataclass
class Loop:
    """The jobs of one closed loop and the machine speed seen in each round."""

    records: list[Record]
    speed: list[float]  # per round: REF_NOMINAL_S / median reference time
    wall_s: float
    rounds: int

    def scaled(self, rec: Record) -> float:
        return rec.seconds * self.speed[rec.round]

    def round_times(self) -> list[float]:
        totals = [0.0] * self.rounds
        for rec in self.records:
            totals[rec.round] += self.scaled(rec)
        return totals


# ---------------------------------------------------------------------------
# environment


def _git(*args: str) -> str | None:
    try:
        p = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "veronese").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_sha256": digest.hexdigest(),
        "commit": None,
        "dirty": None,
    }
    if (ROOT / ".git").exists():
        env["commit"] = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain")
        env["dirty"] = None if status is None else bool(status)
    return env


# ---------------------------------------------------------------------------
# running jobs


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_in_process(job: workloads.Job, limit: float = JOB_LIMIT_S) -> Record:
    """One job through ``veronese.cli.main`` (looked up now, so a traced
    binding is used when the tracer is installed)."""
    main = sys.modules["veronese.cli"].main
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(job.argv))
    except SystemExit as e:  # argparse rejects the arguments
        code = e.code if isinstance(e.code, int) else 2
    except JobTimeout:
        error = f"over the {limit:.0f} s job limit"
    except Exception as e:  # an escaped exception is a failed job, not a stop
        error = f"escaped {type(e).__name__}: {e}"
    finally:
        seconds = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    if code not in (0, None) and error is None:
        error = f"exit status {code}: {err.getvalue().strip()[:200]}"
    return Record(job.template, seconds, code, out.getvalue(), error)


def run_subprocess(job: workloads.Job, limit: float = JOB_LIMIT_S, trace_dump: Path | None = None) -> Record:
    """One job as a fresh ``python -m veronese.cli`` process, or under
    ``child.py`` (which writes spans to ``trace_dump``) when traced.  The
    process is reaped with ``wait4`` so that its own peak memory is known."""
    if trace_dump is None:
        cmd = [sys.executable, "-m", "veronese.cli", *job.argv]
    else:
        cmd = [sys.executable, str(BENCH / "child.py"), str(trace_dump), *job.argv]
    with tempfile.TemporaryFile(dir=WORK_DIR) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=err)
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - t0
        except JobTimeout:
            proc.kill()
            proc.wait()
            return Record(job.template, perf_counter() - t0, None, "", f"over the {limit:.0f} s job limit")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            proc.stdout.close()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    error = None if code == 0 else f"exit status {code}: {stderr.strip()[-200:]}"
    return Record(job.template, seconds, code, out.decode(), error, rss_kb=usage.ru_maxrss)


def reference_s(child: bool) -> float:
    """Seconds taken by the reference: a fixed small-integer loop, in process,
    or for jobs that are fresh interpreters, a fresh interpreter that imports
    the standard modules the program uses and runs the same loop.  It
    allocates nothing that outlives an iteration, so the program's heap does
    not change what it measures; only the machine's speed does."""
    t0 = perf_counter()
    if child:
        subprocess.run(
            [sys.executable, "-c", REF_IMPORTS + REF_LOOP],
            env=_child_env(), capture_output=True, check=True, timeout=JOB_LIMIT_S,
        )
    else:
        exec(_REF_COMPILED, {})
    return perf_counter() - t0


def machine_speed(samples: list[float], child: bool) -> float:
    return REF_NOMINAL_S[child] / statistics.median(samples)


def run_rounds(
    rounds, runner, child: bool, seconds: float, deadline: float, max_rounds: int | None = None
) -> Loop:
    """Whole rounds, one job at a time, until the time (or round count) is
    up; the reference kernel runs before every job.  No job starts or runs
    past ``deadline``."""
    loop = Loop([], [], 0.0, 0)
    start = perf_counter()
    while True:
        refs = []
        for job in rounds[loop.rounds % len(rounds)]:
            left = deadline - perf_counter()
            if left <= 0:
                break
            refs.append(reference_s(child))
            rec = runner(job, len(loop.records), min(JOB_LIMIT_S, left))
            rec.round = loop.rounds
            loop.records.append(rec)
        if refs:
            loop.speed.append(machine_speed(refs, child))
            loop.rounds += 1
        elapsed = perf_counter() - start
        if perf_counter() >= deadline or loop.rounds == max_rounds:
            break
        if max_rounds is None and elapsed >= seconds:
            break
    loop.wall_s = perf_counter() - start
    return loop


def problems(job: workloads.Job, rec: Record, pinned: dict) -> list[str]:
    if rec.error is not None:
        return [rec.error]
    try:
        report = json.loads(rec.out)
    except ValueError:
        return ["output is not JSON"]
    if job.template not in pinned:
        return [f"no pinned value for {job.template}"]
    try:
        return checks.check_report(job.expect, report, pinned[job.template])
    except (KeyError, TypeError, ValueError) as e:
        return [f"malformed report: {type(e).__name__}: {e}"]


# ---------------------------------------------------------------------------
# set-up


def import_program() -> float:
    """Import ``veronese.cli`` afresh; returns the seconds it took."""
    for name in [n for n in sys.modules if n == "veronese" or n.startswith("veronese.")]:
        del sys.modules[name]
    t0 = perf_counter()
    importlib.import_module("veronese.cli")
    return perf_counter() - t0


def setup(workload: str, seed: int, workdir: Path):
    """One complete set-up; returns (rounds, import seconds, set-up seconds)."""
    t0 = perf_counter()
    import_s = None
    in_process = workload not in workloads.SUBPROCESS_WORKLOADS
    if in_process:
        import_s = import_program()
    rounds = workloads.generate(workload, seed, workdir)
    if in_process:
        forms = sys.modules["veronese.forms"]
        for m in range(1, 4):
            for d in range(workloads.MAX_DEGREE + 2):
                forms.monomial_basis(m, d)
                forms.monomial_index(m, d)
    else:
        # one command in a fresh interpreter, which also writes bytecode caches
        warm = run_subprocess(workloads.Job("warm-up", ("stratify", "2", "4", "2"), {}))
        if warm.error is not None:
            raise RuntimeError(f"warm-up command failed: {warm.error}")
    return rounds, import_s, perf_counter() - t0


# ---------------------------------------------------------------------------
# metrics


def tail(times: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond it) for the highest whole percentile
    with at least ten samples beyond it (nearest-rank); the maximum when
    there are ten samples or fewer."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, 0
    pct = floor(100 * (n - 10) / n)
    rank = ceil(pct * n / 100)
    return xs[rank - 1], pct, n - rank


def peak_rss_mb(workload: str, records: list[Record]) -> float:
    """Peak resident memory of the benchmark process, or for child jobs, of
    the largest job process (not the reference interpreters or git)."""
    if workload in workloads.SUBPROCESS_WORKLOADS:
        return max(rec.rss_kb for rec in records) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def with_units(values: dict, names: list[str]) -> dict:
    return {name: {"value": values[name], "unit": UNITS[name]} for name in names}


def run(workload: str, seed: int, seconds: int, trace: bool, workdir: Path, deadline: float):
    pinned = json.loads((BENCH / "pinned.json").read_text())[workload]
    in_process = workload not in workloads.SUBPROCESS_WORKLOADS
    setups = []
    for _ in range(SETUP_REPS):
        speed = machine_speed([reference_s(not in_process) for _ in range(5)], not in_process)
        rounds, import_s, raw_s = setup(workload, seed, workdir)
        setups.append((raw_s, raw_s * speed, import_s * speed if import_s is not None else None))
    setup_s = statistics.median(s[1] for s in setups)
    import_times = [s[2] for s in setups if s[2] is not None]

    def plain(job, i, limit):
        return run_in_process(job, limit) if in_process else run_subprocess(job, limit)

    loop = run_rounds(rounds, plain, not in_process, seconds / 2 if trace else seconds, deadline)
    records = loop.records
    jobs = [job for r in range(loop.rounds) for job in rounds[r % len(rounds)]]
    failures = []
    for job, rec in zip(jobs, records):
        found = problems(job, rec, pinned)
        if found:
            failures.append(f"{job.template}: {'; '.join(found)}")
    times = [loop.scaled(rec) for rec in records]
    tail_s, pct, beyond = tail(times)
    jobs_per_s = len(rounds[0]) / statistics.median(loop.round_times())
    raw_times = [rec.seconds for rec in records]
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": loop.rounds,
        "jobs": len(records),
        "loop_s": loop.wall_s,
        "tail": {"percentile": pct, "samples": len(times), "beyond": beyond},
        "job_times": [round(t, 6) for t in times],
        "machine_speed": loop.speed,
        "raw": {
            "setup_s": statistics.median(s[0] for s in setups),
            "jobs_per_s": len(records) / sum(raw_times),
            "job_p50_s": statistics.median(raw_times),
            "job_tail_s": tail(raw_times)[0],
        },
        "per_template_p50_s": {
            name: statistics.median(loop.scaled(r) for r in records if r.template == name)
            for name in dict.fromkeys(r.template for r in records)
        },
        "failures": failures[:20],
    }
    failed = len(failures)
    if not trace:
        values = {
            "setup_s": setup_s,
            "jobs_per_s": jobs_per_s,
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail_s,
            "ok_ratio": (len(records) - failed) / len(records),
            "peak_rss_mb": peak_rss_mb(workload, records),
        }
        metrics = with_units(values, [m["name"] for m in SPEC["end_to_end"]])
        return {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}, detail

    tracer = Tracer()
    child_imports: list[float] = []
    dump_path = workdir / "spans.json"

    def traced(job, i, limit):
        tracer.start_job(i)
        if in_process:
            return run_in_process(job, limit)
        rec = run_subprocess(job, limit, dump_path)
        if dump_path.exists():
            dump = json.loads(dump_path.read_text())
            dump_path.unlink()
            child_imports.append(dump.pop("import_s"))
            tracer.merge(dump, i)
        return rec

    if in_process:
        tracer.install()
    try:
        traced_loop = run_rounds(
            rounds, traced, not in_process, seconds, deadline, max_rounds=loop.rounds
        )
    finally:
        tracer.uninstall()
    mismatched = 0
    for job, a, b in zip(jobs, records, traced_loop.records):
        if (a.code, a.out) != (b.code, b.out):
            mismatched += 1
            detail["failures"].append(f"{job.template}: traced output differs from untraced")
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{workload}-seed{seed}.json.gz"
    tracer.write(span_file)
    detail["span_file"] = str(span_file.relative_to(ROOT))
    detail["traced_loop_s"] = traced_loop.wall_s
    speed = statistics.median(traced_loop.speed)
    overhead = (sum(traced_loop.round_times()) - sum(loop.round_times())) / len(records)
    import_s = statistics.median(import_times or [t * speed for t in child_imports])
    values = tracer.layer_metrics(len(records), import_s, overhead, speed)
    metrics = with_units(values, [m["name"] for m in SPEC["per_layer"]])
    failed = failed + mismatched
    return {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + RUN_BUDGET_S
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "veronese" / "cli.py").is_file():
        sys.stderr.write(f"no program to benchmark: {SRC / 'veronese'} is missing\n")
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    signal.signal(signal.SIGALRM, _on_alarm)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir, deadline)
        detail["env"] = env
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
