"""The repository benchmark: grid throughput, service latency, reload cost.

Run from the repository root::

    python3 perfbench/run.py --workload grid_cameras --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seconds 25        # every workload in turn
    python3 perfbench/run.py --write-spec              # regenerate BENCHMARK.json

Workloads, metric names, units, bounds and the per-layer -> end-to-end
mapping live in ``catalogue.py``.  Each run prints readable detail lines
(host, seed, the per-workload metrics with their sample counts) and, as
its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The exit code is 0 only when every
correctness gate held and no operation failed.

``--trace 0`` sets the workload up at least ``SETUP_REPEATS`` times
(``setup_s`` is the median) and then measures for ``--seconds`` with
the program unmodified; a host-speed probe (``calibrate.py``) runs
before, between and after the operations, and the CPU-bound figures
(``catalogue.AT_REFERENCE_SPEED``) are reported at reference speed.
``--trace 1`` first runs one untraced set-up plus timed phase, then
installs the layer wrappers (``layers.py``) and repeats the
same work traced; ``trace.overhead_s`` is the traced wall clock minus
the untraced one, and the per-layer seconds plus ``unattributed_s`` sum
to the traced wall clock ``trace.wall_s``.

All files the benchmark writes live under ``.perfbench_work/`` in the
current directory and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import catalogue

SETUP_REPEATS = 3
MAX_SETUP_REPEATS = 9
SETUP_BUDGET_S = 4.0
RUN_SECONDS = 25
WORK_DIR = ".perfbench_work"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def supported(count: int, q: float) -> bool:
    """Whether at least ten of ``count`` samples lie beyond percentile ``q``."""
    return count - max(1, math.ceil(q / 100 * count)) >= 10


def tail(values: list[float]) -> tuple[float, float] | None:
    """``(q, value)`` for the highest of p99.9/p99/p95/p90 the samples support."""
    for q in (99.9, 99.0, 95.0, 90.0):
        if supported(len(values), q):
            return q, percentile(values, q)
    return None


def describe_latencies(name: str, values: list[float]) -> str:
    if not values:
        return f"{name}: no samples"
    text = f"{name}: p50 {statistics.median(values):.3f} ms"
    high = tail(values)
    if high is not None:
        text += f", p{high[0]:g} {high[1]:.3f} ms"
    return text + f" (n={len(values)})"


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def make_workload(name: str, seed: int, root: Path, workdir: Path, smoke: bool):
    if name.startswith("grid_"):
        import grid_workloads

        plan = grid_workloads.SMOKE_PLAN if smoke else grid_workloads.PLAN
        return grid_workloads.GridWorkload(plan, seed, workdir)
    import serve_workloads

    kind = {
        "serve_predict": serve_workloads.ServePredict,
        "serve_reload": serve_workloads.ServeReload,
    }[name]
    return kind("tiny" if smoke else "small", seed, root, workdir)


@contextmanager
def stopped_on_error(workload):
    """Kill what the workload started (a server) when anything goes wrong."""
    try:
        yield
    except BaseException:
        workload.abort()
        raise


def _details(name: str, workload, measured: dict) -> list[str]:
    details = measured["details"]
    lines = []
    if name.startswith("grid_"):
        lines.append(
            f"fits_per_s: {measured['ops_per_s']:.4f} 1/s, {details['cells']} cells x "
            f"{details['repetitions_per_cell']} over the summed per-fraction median "
            f"round times ({measured['completed']} repetitions in {details['rounds']} rounds)"
        )
        for fraction, values in details["round_ms"].items():
            lines.append(describe_latencies(f"round_ms at fraction {fraction}", values))
        lines.append(
            "effective train sources per fraction: "
            + json.dumps(workload.effective_train_sources)
        )
    else:
        lines.append(describe_latencies("predict_ms", details["predict_ms"]))
        lines.append(
            f"predict_rps: {details['predict_rps']:.4f} 1/s, "
            "median over blocks of completions"
        )
        if "match_ms" in details:
            lines.append(describe_latencies("match_ms", details["match_ms"]))
        if "reload_ms" in details:
            lines.append(describe_latencies("reload_ms", details["reload_ms"]))
            lines.append(
                f"reload rate: {measured['ops_per_s']:.4f} sources/s over "
                f"{details['cycles']} cycles; per-position median ms "
                + ", ".join(f"{value:.1f}" for value in details["position_ms"])
            )
    lines.append(f"f1_mean: {measured['f1_mean']:.6f}")
    lines.append(
        f"error_rate: {measured['failed'] / max(1, measured['attempted']):.6f} "
        f"({measured['failed']} of {measured['attempted']} operations)"
    )
    return lines


def run_untraced(name: str, args, root: Path, workdir: Path) -> tuple[dict, list[str], list[str]]:
    from calibrate import HostSpeed

    speed = HostSpeed()
    speed.start()
    try:
        return _run_untraced(name, args, root, workdir, speed)
    finally:
        speed.close()


def _run_untraced(name: str, args, root: Path, workdir: Path, speed) -> tuple[dict, list[str], list[str]]:
    from calibrate import PROBES, REFERENCE_PROBE_S

    workload = make_workload(name, args.seed, root, workdir, args.smoke)
    workload.idle = speed.sample
    setups: list[float] = []
    with stopped_on_error(workload):
        speed.sample(PROBES)
        # Cheap set-ups repeat more often, so their median is as steady
        # as that of the expensive ones.
        while len(setups) < SETUP_REPEATS or (
            len(setups) < MAX_SETUP_REPEATS and sum(setups) < SETUP_BUDGET_S
        ):
            if setups:
                workload.close()
                speed.sample()
            started = perf_counter()
            workload.setup()
            setups.append(perf_counter() - started)
        measured = workload.measure(seconds=args.seconds)
        problems = workload.check()
        workload.close()
        speed.sample(PROBES)
    if not measured["samples"] or not measured["ops_per_s"]:
        problems.append("no operation completed in the timed phase")
    raw = {
        "setup_s": statistics.median(setups),
        "ops_per_s": measured["ops_per_s"],
        "latency_p50_ms": measured["latency_ms"],
    }
    scaling = catalogue.AT_REFERENCE_SPEED[name]
    values = dict(raw)
    for metric, cpus in scaling.items():
        rate = catalogue.END_TO_END[metric][1] == "higher"
        values[metric] *= speed.factor(cpus) ** (-1 if rate else 1)
    values["peak_rss_mb"] = peak_rss_mb()
    values["f1_mean"] = measured["f1_mean"]
    operation, latency = catalogue.OPERATION[name]
    lines = [
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
        f"ops_per_s counts {operation}; latency_p50_ms is the {latency}",
        f"host speed: probe median {speed.median_s(1) * 1000:.2f} ms on the fastest "
        f"CPU, {speed.median_s(2) * 1000:.2f} ms on all, over {len(speed.samples)} "
        f"probes; reference {REFERENCE_PROBE_S * 1000:.2f} ms; as measured: "
        + ", ".join(f"{metric} {raw[metric]:.4f}" for metric in scaling),
        *_details(name, workload, measured),
    ]
    metrics = {
        key: {"value": value, "unit": catalogue.END_TO_END[key][0]}
        for key, value in values.items()
    }
    return {"measured": measured, "metrics": metrics}, lines, problems


def run_traced(name: str, args, root: Path, workdir: Path) -> tuple[dict, list[str], list[str]]:
    from layers import install
    from spans import Tracer, attribute, collect

    workload = make_workload(name, args.seed, root, workdir / "untraced", args.smoke)
    with stopped_on_error(workload):
        # A first set-up pays one-off costs (imports) that neither timed
        # pass should carry, so the two passes differ only by tracing.
        workload.setup()
        workload.close()
        started = perf_counter()
        workload.setup()
        reference = workload.measure(seconds=args.seconds)
        untraced_wall = perf_counter() - started
        problems = workload.check()
        workload.close()

    tracer = Tracer(workdir / "spans")
    undo = install(tracer)
    workload = make_workload(name, args.seed, root, workdir / "traced", args.smoke)
    workload.tracer, workload.trace_dir = tracer, tracer.directory
    try:
        with stopped_on_error(workload):
            window_start = perf_counter()
            workload.setup()
            measured = workload.measure(operations=reference["operations"])
            window_end = perf_counter()
            problems += workload.check()
            workload.close()
    finally:
        undo()

    recorded = collect(tracer)
    shares = attribute(recorded["segments"], window_start, window_end)
    wall = window_end - window_start
    unattributed = shares.pop(None, 0.0)
    values: dict[str, float] = {}
    for label in catalogue.SPAN_LABELS:
        values[f"{label}_s"] = shares.pop(label, 0.0)
    if shares:
        problems.append(f"spans with no per-layer metric: {sorted(shares)}")
    attributed = sum(values.values())
    if abs(attributed + unattributed - wall) > 1e-6 * max(1.0, wall):
        problems.append(
            f"layer seconds {attributed:.6f} + unattributed {unattributed:.6f} "
            f"!= wall clock {wall:.6f}"
        )
    values["unattributed_s"] = unattributed
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - untraced_wall

    counters = recorded["counters"]
    computed = counters.get("pipeline.name_distance_computed", 0)
    hits = counters.get("pipeline.name_distance_cache_hit", 0)
    pool_seconds = counters.get("parallel.pool_run_s", 0.0)
    workers = getattr(workload, "workers", 0)
    statz = getattr(workload, "statz", {})
    for metric, (unit, _, _) in catalogue.PER_LAYER.items():
        if metric in values:
            continue
        if metric == "pipeline.name_distance_hit_ratio":
            values[metric] = hits / (hits + computed) if hits + computed else 0.0
        elif metric == "parallel.worker_busy_frac":
            values[metric] = (
                counters.get("parallel.worker_busy_s", 0.0) / (workers * pool_seconds)
                if workers and pool_seconds
                else 0.0
            )
        elif metric.startswith("admission.") and unit == "count":
            values[metric] = statz.get(metric.split(".", 1)[1], 0)
        else:
            values[metric] = counters.get(metric, 0)

    lines = [
        f"traced window {wall:.4f} s, untraced {untraced_wall:.4f} s, "
        f"overhead {values['trace.overhead_s']:+.4f} s",
        f"layer seconds {attributed:.4f} + unattributed {unattributed:.4f} "
        f"= {attributed + unattributed:.4f} s",
        f"name-distance memo: {hits} hits of {hits + computed} rows",
        *(
            f"  {metric:34s} {values[metric]:12.4f} s"
            for metric in sorted(
                (m for m in values if m.endswith("_s") and not m.startswith("trace.")),
                key=lambda m: -values[m],
            )
            if values[metric]
        ),
        *_details(name, workload, measured),
    ]
    metrics = {
        metric: {"value": values[metric], "unit": unit}
        for metric, (unit, _, _) in catalogue.PER_LAYER.items()
    }
    return {"measured": measured, "metrics": metrics}, lines, problems


def host_line(args) -> str:
    return "host: " + json.dumps(
        {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
        }
    )


def run_one(args, root: Path) -> int:
    name = args.workload
    workdir = root / WORK_DIR / f"{name}-{os.getpid()}"
    print(f"workload {name}: {catalogue.WORKLOADS[name]}", flush=True)
    print(host_line(args), flush=True)
    runner = run_traced if args.trace else run_untraced
    try:
        outcome, lines, problems = runner(name, args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass
    for line in lines:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    measured = outcome["measured"]
    result = {
        "correct": not problems,
        "attempted": int(measured["attempted"]),
        "failed": int(measured["failed"]),
        "metrics": outcome["metrics"],
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and not result["failed"] else 1


def run_all(args, root: Path) -> int:
    """Every workload in its own process, then a summary line per workload."""
    summary = {}
    status = 0
    for name in catalogue.WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        completed = subprocess.run(command, cwd=root, capture_output=True, text=True)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        status = status or completed.returncode
    for name, result in summary.items():
        if result is None:
            print(f"{name}: no result")
            continue
        metrics = ", ".join(
            f"{metric} {entry['value']:.4f} {entry['unit']}"
            for metric, entry in result["metrics"].items()
        )
        print(f"{name}: correct={result['correct']} failed={result['failed']}: {metrics}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=list(catalogue.WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload")
    target.add_argument(
        "--write-spec", action="store_true", help="regenerate BENCHMARK.json"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny-scale datasets, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    # One BLAS thread per process, inherited by pool workers and the
    # server: two workers on two CPUs with OpenBLAS's default threading
    # oversubscribe, and identical grid rounds then took 4.4-7.9 s.
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    root = Path.cwd()
    if args.write_spec:
        spec = catalogue.benchmark_spec(RUN_SECONDS)
        (root / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")
        return 0
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "error: run from the repository root (src/repro not found)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.all:
        return run_all(args, root)
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
