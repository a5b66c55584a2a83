"""necfix benchmark: run one workload, check every output, print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload census-dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs the workload's traced passes and reports the per-layer metrics (see
README.md).  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, whose names and units are those listed in BENCHMARK.json.
The package is imported from ``src/`` of the same checkout, never from an
installed copy.  The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
# One directory per process, so that runs sharing a checkout do not collide.
OUT_DIR = ROOT / f".perfbench-out-{os.getpid()}"
SETUP_PROBES = 7  # at least, for runs with fewer passes


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# --- statistics ---------------------------------------------------------------


def rank(n, q):
    """1-based nearest rank of the q-th percentile of n samples."""
    return max(1, -(-q * n // 100))


def percentile(values, q):
    """Nearest-rank q-th percentile (an integer q in [1, 100]) of the values."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def tail_percentile(n, wanted=90, beyond=10, lowest=50):
    """Highest integer percentile <= wanted with at least `beyond` of the n
    samples ranked above it; None when not even the median qualifies."""
    for q in range(wanted, lowest - 1, -1):
        if n - rank(n, q) >= beyond:
            return q
    return None


# --- running requests ---------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    label: str
    seconds: float
    rows: int
    digest: str | None
    error: str | None


def run_pass(necfix, ops):
    """Send the requests one after another (one closed-loop client) and check
    each response; the time of a request covers writing its output."""
    outcomes = []
    for op in ops:
        stdout = io.StringIO()
        gc.collect()  # so that no request pays for its predecessors' garbage
        start = time.perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = necfix.cli.main(list(op.argv))
        except Exception as exc:  # a crashing request is a failed request
            code, crash = None, f"raised {exc!r}"
        else:
            crash = None
        seconds = time.perf_counter() - start
        digest, error = None, crash
        if crash is None:
            try:
                digest = op.check(code, stdout.getvalue())
            except (workloads.CheckFailed, ValueError, KeyError, TypeError, OSError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        outcomes.append(Outcome(op.label, seconds, op.rows if error is None else 0, digest, error))
    return outcomes


def pass_seconds(outcomes):
    return sum(o.seconds for o in outcomes)


def time_left(start, last_round, seconds):
    """False once another round as long as the last would end more than
    `seconds` after start; always True before the first round."""
    return last_round is None or time.perf_counter() - start + last_round <= seconds


def peak_rss_mb(children_kib):
    """Peak resident set of this process plus `children_kib`, the largest
    waited-for child (the census process pool), in MB."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children_kib) * 1024 / 1e6


def setup_probe(args):
    """Wall time of a fresh process that starts, imports necfix, generates
    the workload's inputs and checks them, then exits."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    # No timeout: with one, the wait polls at up to 50 ms intervals.
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def best_times(outcomes):
    """Each request's fastest time over the run, by label."""
    best = {}
    for o in outcomes:
        best[o.label] = min(o.seconds, best.get(o.label, o.seconds))
    return best


def setup(name, seed):
    """Import necfix from this checkout and build the workload's inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    import necfix.cli

    if not Path(necfix.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"necfix was imported from {necfix.__file__}, not from this checkout")
    return necfix, workloads.build_plan(name, seed, OUT_DIR, necfix)


# --- the two kinds of run -----------------------------------------------------


def timed_run(necfix, plan, args):
    """Passes of the request list for --seconds, with one set-up probe after
    each pass, so that the probes sample the host over the whole run."""
    outcomes, passes, probes, round_s = [], [], [], None
    start = time.perf_counter()
    while time_left(start, round_s, args.seconds):
        round_start = time.perf_counter()
        batch = run_pass(necfix, plan.ops)
        outcomes += batch
        passes.append(pass_seconds(batch))
        if not probes:  # before any set-up probe adds a child of its own
            pool_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        probes.append(setup_probe(args))
        round_s = time.perf_counter() - round_start
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(args))
    rss = peak_rss_mb(pool_kib)
    best = best_times(outcomes)
    latencies = [o.seconds for o in outcomes]
    wall_s = sum(best.values())
    metrics = {
        "setup_s": statistics.median(probes),
        "wall_s": wall_s,
        "requests_per_s": len(plan.ops) / wall_s,
        "latency_p50_ms": percentile(best.values(), 50) * 1e3,
        "peak_rss_mb": rss,
    }
    notes = {
        "wall_s": f"sum of each request's fastest time; {len(passes)} passes of {len(plan.ops)} requests",
        "setup_s": f"median of {len(probes)} fresh processes",
        "latency_p50_ms": f"over the fastest times of {len(best)} requests ({len(latencies)} samples)",
    }
    extra = []
    rows = sum(op.rows for op in plan.ops)
    if rows:
        extra.append(("rows_per_s", rows / wall_s, "1/s", f"{rows} rows per pass"))
    q = tail_percentile(len(latencies))
    if q is None:
        extra.append(("latency_p90_ms", None, "ms", f"n={len(latencies)}: no percentile >= p50 has 10 samples beyond it"))
    else:
        extra.append((f"latency_p{q}_ms", percentile(latencies, q) * 1e3, "ms", f"over all {len(latencies)} samples, {len(latencies) - rank(len(latencies), q)} beyond"))
    failed = sum(o.error is not None for o in outcomes)
    extra.append(("failed_share", failed / len(outcomes), "", f"{failed}/{len(outcomes)}"))
    return outcomes, metrics, notes, extra, []


def traced_run(necfix, plan, args):
    """An untraced reference pass of the timed request list, then untraced and
    traced passes of the traced list in turn for --seconds.  Figures are
    medians over the passes; the overhead is the traced median minus the
    untraced one."""
    reference = run_pass(necfix, plan.ops)
    outcomes = list(reference)
    untraced, per_pass, problems, round_s = [], [], [], None
    start = time.perf_counter()
    while time_left(start, round_s, args.seconds):
        round_start = time.perf_counter()
        if untraced or plan.traced_ops != plan.ops:
            baseline = run_pass(necfix, plan.traced_ops)
            outcomes += baseline
        else:
            baseline = reference
        untraced.append(pass_seconds(baseline))
        tracer = Tracer()
        with tracer.installed(necfix):
            batch = run_pass(necfix, plan.traced_ops)
        outcomes += batch
        figures = tracer.metrics()
        figures["trace.wall_s"] = pass_seconds(batch)
        problems += identity_problems(plan, tracer, batch, reference)
        per_pass.append(figures)
        round_s = time.perf_counter() - round_start
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    notes = {
        "census.candidates": "checked: = sum of epimorphism.reject.* + census.accepted",
        "census.rows": "checked: = rows in the untraced trailers",
        "trace.wall_s": f"median of {len(per_pass)} traced passes",
        "trace.untraced_wall_s": f"median of {len(untraced)} untraced passes",
    }
    return outcomes, metrics, notes, [], problems


def identity_problems(plan, tracer, traced, reference):
    """Counter identities of one traced pass, and equality of its outputs with
    the untraced reference pass (which may use another worker count)."""
    counts = tracer.counts
    problems = []
    rejected = sum(n for key, n in counts.items() if key.startswith("epimorphism.reject."))
    if counts["census.candidates"] != rejected + counts["census.accepted"]:
        problems.append(f"candidates {counts['census.candidates']} != rejected {rejected} + accepted {counts['census.accepted']}")
    trailer_rows = sum(o.rows for o in reference)
    if counts["census.rows"] != trailer_rows:
        problems.append(f"traced rows {counts['census.rows']} != untraced trailer rows {trailer_rows}")
    if plan.accepted is None:
        if counts["census.accepted"] < counts["census.rows"]:
            problems.append(f"accepted {counts['census.accepted']} < rows {counts['census.rows']}")
    elif counts["census.accepted"] != plan.accepted:
        problems.append(f"accepted {counts['census.accepted']} != expected {plan.accepted}")
    if counts["oracle.disagreements"]:
        problems.append(f"{counts['oracle.disagreements']} oracle disagreements")
    expected = {o.label: o.digest for o in reference}
    for o in traced:
        if o.digest != expected.get(o.label):
            problems.append(f"{o.label}: traced output {o.digest} differs from untraced {expected.get(o.label)}")
    return problems


# --- reporting ----------------------------------------------------------------


def report(args, spec, outcomes, metrics, notes, extra, problems):
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    failed = sum(o.error is not None for o in outcomes)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests {len(outcomes)}  failed {failed}")
    for o in outcomes:
        if o.error is not None:
            print(f"  FAILED {o.label}: {o.error}")
    for problem in problems:
        print(f"  CHECK {problem}")
    for name in units:
        print(f"  {name:<42} {metrics[name]:>14.6g} {units[name]:<6} {notes.get(name, '')}")
    for name, value, unit, note in extra:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<42} {shown:>14} {unit:<6} {note}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return correct


def run_all(args):
    """Every workload in its own process, so each has its own peak RSS."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(child.stdout)
        try:
            result = json.loads(child.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if result is None:
            summary["correct"] = False
            print(f"workload {name} exited with {child.returncode} and no result")
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return summary["correct"]


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.workload == "all":
        return 0 if run_all(args) else 1
    necfix, plan = setup(args.workload, args.seed)
    if args.setup_only:
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    try:
        run = traced_run if args.trace else timed_run
        correct = report(args, spec, *run(necfix, plan, args))
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
