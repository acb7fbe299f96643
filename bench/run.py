"""Seeded end-to-end and per-layer benchmark of the cpref command line.

Usage, from the repository root:

    python3 bench/run.py --workload oracle-sweep --seed 1 --seconds 20 --trace 0

One client sends queries in a closed loop, each one ``cpref.cli.run(argv)``
call with the argv a shell user would type, from a single process.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
wraps the package's public functions and reports per-layer metrics instead.
Every metric is printed by name with its unit, the answers are checked after
the loop, and the last line of standard output is one JSON object.  A wrong
answer makes the run exit with status 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread for the numerical libraries, in this process and in the fresh
# processes it starts: threads of a library contending with other tenants'
# load make its speed far less steady than the interpreter's.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

import workloads  # noqa: E402
from check import EXIT_EXHAUSTED, Checker  # noqa: E402

MIN_QUERIES = 110  # at least ten samples beyond the 90th percentile
SETUP_REPEATS = 3
COLD_REPEATS = 4
PROBE_EVERY_S = 0.2
NOMINAL_PROBE_S = 0.0015
# A fresh interpreter importing a fixed set of standard modules: the same
# kind of work as starting cpref, and as slow or fast at the same moment.
IMPORT_PROBE = [
    sys.executable,
    "-c",
    "import argparse, asyncio, csv, decimal, email.parser, http.client, json, "
    "logging, sqlite3, ssl, tarfile, unittest, xml.etree.ElementTree, zipfile",
]
NOMINAL_IMPORT_PROBE_S = 0.12


def _probe_task():
    """Fixed interpreter work (tuple building, hashing, dict updates) whose
    time tracks how fast this machine runs Python code right now."""
    counts: dict = {}
    for i in range(4000):
        key = (i % 97, i % 89, "v%d" % (i % 13))
        counts[key] = counts.get(key, 0) + len(key)
    return sum(counts.values())


class SpeedProbe:
    """Times ``_probe_task`` now and then during a run.  On a shared machine
    the speed of the processor drifts by tens of percent over minutes, so
    each end-to-end time is divided by the speed factor (median probe time
    over its nominal time) measured around it: runs made at different
    moments then compare.  Raw times are printed alongside."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self, count: int = 1) -> float:
        """Take ``count`` samples; the speed factor they give."""
        gc.disable()  # a collection of the program's objects is not speed
        try:
            _probe_task()  # warm the caches the program's work just used
            for _ in range(count):
                start = time.perf_counter()
                _probe_task()
                self.samples.append(time.perf_counter() - start)
        finally:
            gc.enable()
        self.last = time.perf_counter()
        return self.factor(self.samples[-count:])

    def maybe_sample(self):
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.sample()

    @staticmethod
    def factor(samples) -> float:
        return statistics.median(samples) / NOMINAL_PROBE_S


def import_package():
    """Import cpref from this checkout's sources; (module, seconds)."""
    if not (SRC / "cpref" / "__init__.py").is_file():
        raise SystemExit(f"error: no cpref sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    cpref = importlib.import_module("cpref")
    importlib.import_module("cpref.cli")
    elapsed = time.perf_counter() - start
    if Path(cpref.__file__).resolve().parent != SRC / "cpref":
        raise SystemExit(f"error: imported cpref from {cpref.__file__}, not {SRC}")
    return cpref, elapsed


def generate(name: str, seed: int, scale: str, workdir: Path):
    """Write the seeded inputs SETUP_REPEATS times, insisting on identical
    bytes; (workload, queries, median generation seconds)."""
    times, snapshots = [], []
    for r in range(SETUP_REPEATS):
        target = workdir if r == 0 else workdir.with_name(f"{workdir.name}.again{r}")
        start = time.perf_counter()
        wl = workloads.build(name, seed, scale)
        queries = wl.write(target)
        times.append(time.perf_counter() - start)
        snapshots.append({p.name: p.read_bytes() for p in sorted(target.iterdir())})
        if r:
            shutil.rmtree(target)
    if any(s != snapshots[0] for s in snapshots[1:]):
        raise SystemExit("error: the same seed produced different inputs")
    return wl, queries, statistics.median(times)


def execute(cli, argv):
    """(status, report, diagnostics, raised) of one in-process query."""
    try:
        result = cli.run(argv)
    except Exception as exc:  # a raise is a failed query, not a crashed benchmark
        return 2, "", repr(exc), True
    return result.status, result.report, result.diagnostics, False


def closed_loop(cli, queries, seconds: float, min_queries: int, passes: int | None = None, probe=None):
    """Run whole passes over the query list, one query after another, until
    ``seconds`` have passed and ``min_queries`` have completed, or for exactly
    ``passes`` passes.  Whole passes keep the mix of every run the same.
    With a probe, the machine's speed is sampled between queries (untimed)
    and each pass gets the factor of its samples, or None if it had too few.
    Returns (latencies, outcomes by query index, wall seconds, pass factors)."""
    latencies, outcomes, factors = [], {}, []
    start = time.perf_counter()
    while True:
        mark = len(probe.samples) if probe else 0
        for index, query in enumerate(queries):
            t0 = time.perf_counter()
            outcome = execute(cli, query["argv"])
            latencies.append(time.perf_counter() - t0)
            outcomes.setdefault(index, []).append(outcome)
            if probe:
                probe.maybe_sample()
        taken = probe.samples[mark:] if probe else []
        factors.append(SpeedProbe.factor(taken) if len(taken) >= 3 else None)
        if passes is not None:
            if len(factors) >= passes:
                break
        elif len(latencies) >= min_queries and time.perf_counter() - start >= seconds:
            break
    return latencies, outcomes, time.perf_counter() - start, factors


def _spawn(argv, **kwargs):
    """(wall seconds, completed process) of one fresh process."""
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, **kwargs)
    return time.perf_counter() - start, proc


def import_speed() -> float:
    """Start-up speed factor: the import probe's time over its nominal time."""
    seconds, proc = _spawn(IMPORT_PROBE)
    if proc.returncode:
        raise SystemExit(f"error: the import probe failed: {proc.stderr}")
    return seconds / NOMINAL_IMPORT_PROBE_S


def cold_starts(queries, workdir: Path, outcomes_by_argv):
    """Wall seconds of fresh ``python -m cpref`` processes replaying the
    workload's first queries, each of which must print what the in-process
    run did; (raw median, median with each scaled by the start-up speed
    probed right after it, errors)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    raw, scaled, errors = [], [], []
    for _ in range(COLD_REPEATS):
        for query in queries:
            seconds, proc = _spawn([sys.executable, "-m", "cpref", *query["argv"]], cwd=workdir, env=env)
            raw.append(seconds)
            scaled.append(seconds / import_speed())
            status, report = outcomes_by_argv[tuple(query["argv"])]
            if proc.returncode != status or proc.stdout != (report + "\n" if report else ""):
                errors.append(f"cold {' '.join(query['argv'])}: exit {proc.returncode}, expected {status}")
    return statistics.median(raw), statistics.median(scaled), errors


def check_outcomes(checker: Checker, queries, outcomes):
    """(failed executions, exhausted executions, messages); an execution
    counts as one or the other, never both."""
    failed = exhausted = 0
    messages = []
    for index, runs in sorted(outcomes.items()):
        query = queries[index]
        status, report, diagnostics, raised = runs[0]
        if raised or status == 2:
            error = f"exit {status}: {diagnostics}"
        else:
            error = checker.verify(query, status, report)
        if error is None and any(r[:2] != runs[0][:2] for r in runs[1:]):
            error = "answer changed between repetitions"
        if error is not None:
            failed += len(runs)
            messages.append(f"{' '.join(query['argv'])}: {error}")
        else:
            exhausted += sum(r[0] == EXIT_EXHAUSTED for r in runs)
    return failed, exhausted, messages


def percentile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q) - 1]


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    probe = SpeedProbe()
    import_factor = statistics.median(import_speed() for _ in range(3))
    cpref, import_s = import_package()
    from cpref import cli

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    cwd = os.getcwd()
    try:
        wl, queries, gen_s = generate(name, seed, scale, workdir)
        gen_factor = probe.sample(10)
        os.chdir(workdir)
        execute(cli, queries[0]["argv"])  # warm-up: lazy imports and first-call set-up
        if trace:
            metrics, (latencies, outcomes) = _traced(cpref, cli, queries, seconds, import_s, workdir)
        else:
            latencies, outcomes, raw, metrics = _timed(cli, queries, seconds, probe)
        os.chdir(cwd)
        failed, exhausted, messages = check_outcomes(Checker(wl, workdir, cpref), queries, outcomes)
        attempted = len(latencies)
        if trace:
            metrics["loop.fail_ratio"] = (failed / attempted, "ratio")
            metrics["loop.exhausted_ratio"] = (exhausted / attempted, "ratio")
        else:
            argv_outcomes = {tuple(queries[i]["argv"]): runs[0][:2] for i, runs in outcomes.items()}
            cold = [q for q in wl.cold if tuple(q["argv"]) in argv_outcomes]
            raw["cold_start_s"], cold_s, cold_errors = cold_starts(cold, workdir, argv_outcomes)
            messages += cold_errors
            raw["setup_s"] = import_s + gen_s
            metrics["cold_start_s"] = (cold_s, "s")
            metrics["setup_s"] = (import_s / import_factor + gen_s / gen_factor, "s")
            metrics["answered_ratio"] = ((attempted - failed - exhausted) / attempted, "ratio")
            for name, value in raw.items():
                print(f"raw {name} = {value:.6g}", file=sys.stderr)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "exhausted": exhausted,
        "messages": messages,
        "metrics": metrics,
    }


def _loop_metrics(latencies, n_queries):
    ordered = sorted(latencies)
    # Each query's time is its median over the passes, so that a burst of
    # load from outside the benchmark during one pass does not move the rate.
    per_query = [statistics.median(latencies[i::n_queries]) for i in range(n_queries)]
    return {
        "throughput_qps": n_queries / sum(per_query),
        "latency_p50_ms": percentile(ordered, 50) * 1e3,
        "latency_p90_ms": percentile(ordered, 90) * 1e3,
    }


def _timed(cli, queries, seconds, probe: SpeedProbe):
    """(latencies, outcomes, raw figures, end-to-end metrics of the loop);
    the metrics take each pass's latencies at its probed speed."""
    mark = len(probe.samples)
    latencies, outcomes, wall, factors = closed_loop(cli, queries, seconds, MIN_QUERIES, probe=probe)
    overall = SpeedProbe.factor(probe.samples[mark:] or probe.samples)
    n = len(queries)
    scaled = [
        latency / (factors[i // n] or overall) for i, latency in enumerate(latencies)
    ]
    raw = _loop_metrics(latencies, n)
    raw["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = {"throughput_qps": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms"}
    metrics = {name: (value, units[name]) for name, value in _loop_metrics(scaled, n).items()}
    metrics["peak_rss_mb"] = (raw["peak_rss_mb"], "MB")
    p90 = raw["latency_p90_ms"] / 1e3
    print(
        f"samples: {len(latencies)} queries in {len(factors)} passes of {n} ({wall:.1f} s), "
        f"{sum(v > p90 for v in latencies)} beyond p90; speed factor {overall:.3f}",
        file=sys.stderr,
    )
    return latencies, outcomes, raw, metrics


def _traced(cpref, cli, queries, seconds, import_s, workdir):
    """Half the time untraced, then the same queries again traced; the
    ratio of the two walls is the tracing overhead."""
    from tracing import Tracer, layer_metrics

    latencies, outcomes, plain_wall, plain_passes = closed_loop(cli, queries, seconds / 2, 1)
    tracer = Tracer(cpref)
    tracer.install()
    try:
        traced_latencies, traced_outcomes, traced_wall, _ = closed_loop(
            cli, queries, 0, 0, passes=len(plain_passes)
        )
    finally:
        tracer.uninstall()
    tracer.write(WORK / f"spans-{workdir.name}.tsv")
    for index, runs in traced_outcomes.items():
        outcomes[index].extend(runs)
    metrics = layer_metrics(tracer, len(traced_latencies), import_s, traced_wall / plain_wall)
    return metrics, (latencies + traced_latencies, outcomes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for message in result["messages"]:
        print(f"WRONG: {message}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {result['attempted']} queries, "
          f"{result['failed']} failed, {result['exhausted']} exhausted")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result["metrics"].items()},
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
