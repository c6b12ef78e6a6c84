"""What the benchmark measures: workloads, metrics, units, bounds, mapping.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``), so the names here are the
names every later performance change claims against.

End-to-end metrics apply to every workload; the operation behind
``ops_per_s`` and ``latency_p50_ms`` differs per workload (``OPERATION``).
Per-layer ``*_s`` metrics are shares of the traced run's wall clock
(see ``spans.attribute``): they sum, with ``unattributed_s``, to
``trace.wall_s``.
"""

from __future__ import annotations

WORKLOADS = {
    "grid_cameras": (
        "ExperimentRunner.run on cameras/small (75,478 pairs), 9 configs per round, "
        "train fraction 0.1 or 0.2, paper network, 2 workers, journal: gather, "
        "scaler and NN forward over held-out pairs dominate"
    ),
    "serve_predict": (
        "repro serve --http, one leapme headphones tenant, 2 closed-loop clients; "
        "assumed mix: uniform 1-64 pair /predict, every 16th request a /match: "
        "per-request HTTP, admission and JSON dominate"
    ),
    "serve_reload": (
        "a cameras tenant built from half its sources gets the rest one by one "
        "via /add-source beside a /predict client: reload rate of the delta "
        "feature path, copy-on-swap and journal"
    ),
}

#: What one operation is, per workload, for ops_per_s / latency_p50_ms.
OPERATION = {
    "grid_cameras": (
        "repetitions fitted and scored per second of a pass over both fractions",
        "median round time per fraction, summed over the fractions",
    ),
    "serve_predict": ("/predict and /match replies", "/predict round trip"),
    "serve_reload": (
        "sources added per second of /add-source round trips, per-position medians",
        "/predict round trip during reloads",
    ),
}

#: Figures reported at reference host speed (``calibrate.py``), per
#: workload: metric -> the CPUs its work keeps busy (times are scaled by
#: the host-speed factor, rates divided by it).  They are the CPU-bound
#: figures.  Set-ups and reloads run one thread at a time; a grid round
#: fits on two pool workers.  The serve workloads' /predict round trips
#: and serve_predict's completion rate wait on the client's 40 ms
#: delayed-ACK timer, which does not slow down with the host, so they
#: stay as measured.
AT_REFERENCE_SPEED = {
    "grid_cameras": {"setup_s": 1, "ops_per_s": 2, "latency_p50_ms": 2},
    "serve_predict": {"setup_s": 1},
    "serve_reload": {"setup_s": 1, "ops_per_s": 1},
}

#: name -> (unit, better, bound).  Each bound is set from two ten-seed
#: sets of 25 s runs on the 2-CPU reference host, where the spread is
#: (third quartile - first quartile) / median over the ten runs:
#: - ops_per_s, latency_p50_ms: spreads reached 0.081 (grid_cameras and
#:   serve_reload, at reference speed; as measured, the host's drift
#:   gave 0.15); the bound is the largest allowed, 0.25.
#: - setup_s: spreads 0.07-0.17 per workload and the two sets' medians
#:   moved by up to 0.06; the bound is 0.25, no smaller than any other.
#: - peak_rss_mb: spreads reached 0.075 (the serve_predict server's peak
#:   is either about 242 or 261 MB, so no spread can pass 0.08); the
#:   bound is 0.12.
#: - f1_mean: moves only with the grid's classifier seed, spreads reached
#:   0.024; the bound is about twice that, so a change that costs the
#:   grid more than 5% of its F1 is refused.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.12),
    "f1_mean": ("ratio", "higher", 0.05),
}

_ALL = "all workloads"
_GC = "grid_cameras"
_SP, _SR = "serve_predict", "serve_reload"

#: name -> (unit, better, [(end-to-end metric it should move, workloads)])
PER_LAYER = {
    "datasets.load_s": ("s", "lower", [("setup_s", _ALL)]),
    "embeddings.train_s": ("s", "lower", [("setup_s", _ALL)]),
    "feature_cache.universe_s": ("s", "lower", [("setup_s", _ALL)]),
    "feature_cache.candidates": ("count", "lower", [("setup_s", _ALL)]),
    "feature_cache.subset_s": ("s", "lower", [("ops_per_s", _GC)]),
    "feature_cache.subset_calls": ("count", "lower", [("ops_per_s", _GC)]),
    "pipeline.build_s": (
        "s", "lower", [("setup_s", _ALL), ("ops_per_s", _SR)]
    ),
    "pipeline.name_distance_s": (
        "s", "lower", [("setup_s", _ALL), ("ops_per_s", _SR)]
    ),
    "pipeline.name_distance_computed": (
        "count", "lower", [("setup_s", _ALL), ("ops_per_s", _SR)]
    ),
    "pipeline.name_distance_cache_hit": (
        "count", "higher", [("setup_s", _ALL), ("ops_per_s", _SR)]
    ),
    "pipeline.name_distance_hit_ratio": (
        "ratio", "higher", [("setup_s", _ALL), ("ops_per_s", _SR)]
    ),
    "feature_cache.with_source_s": ("s", "lower", [("ops_per_s", _SR)]),
    "feature_cache.gather_s": (
        "s", "lower", [("ops_per_s", _GC), ("latency_p50_ms", _SP)]
    ),
    "feature_cache.gather_rows": (
        "count", "lower", [("ops_per_s", _GC), ("latency_p50_ms", _SP)]
    ),
    "classifier.scale_s": (
        "s", "lower", [("ops_per_s", _GC), ("latency_p50_ms", _SP)]
    ),
    "classifier.scale_rows": (
        "count", "lower", [("ops_per_s", _GC), ("latency_p50_ms", _SP)]
    ),
    "nn.forward_s": ("s", "lower", [("ops_per_s", _GC), ("latency_p50_ms", _SP)]),
    "nn.forward_rows": (
        "count", "lower", [("ops_per_s", _GC), ("latency_p50_ms", _SP)]
    ),
    "nn.train_s": ("s", "lower", [("ops_per_s", _GC)]),
    "nn.train_epochs": ("count", "lower", [("ops_per_s", _GC)]),
    "evaluation.metrics_s": ("s", "lower", [("ops_per_s", _GC)]),
    "checkpoint.append_s": ("s", "lower", [("ops_per_s", _GC)]),
    "checkpoint.appends": ("count", "lower", [("ops_per_s", _GC)]),
    "parallel.pool_startup_s": ("s", "lower", [("ops_per_s", _GC)]),
    "parallel.deferred_score_s": ("s", "lower", [("ops_per_s", _GC)]),
    "parallel.worker_item_s": ("s", "lower", [("ops_per_s", _GC)]),
    "parallel.worker_busy_frac": (
        "ratio", "higher", [("ops_per_s", _GC)]
    ),
    "supervisor.respawns": ("count", "lower", [("ops_per_s", _GC)]),
    "admission.wait_s": ("s", "lower", [("latency_p50_ms", f"{_SP}, {_SR}")]),
    "admission.admitted": ("count", "higher", [("ops_per_s", f"{_SP}, {_SR}")]),
    "admission.shed": ("count", "lower", [("ops_per_s", f"{_SP}, {_SR}")]),
    "admission.expired": ("count", "lower", [("ops_per_s", f"{_SP}, {_SR}")]),
    "server.startup_s": ("s", "lower", [("setup_s", f"{_SP}, {_SR}")]),
    "registry.create_s": ("s", "lower", [("setup_s", f"{_SP}, {_SR}")]),
    "registry.predict_s": ("s", "lower", [("latency_p50_ms", _SP)]),
    "registry.match_s": ("s", "lower", [("ops_per_s", _SP)]),
    "registry.add_source_s": ("s", "lower", [("ops_per_s", _SR)]),
    "server.transport_s": (
        "s", "lower", [("latency_p50_ms", _SP), ("ops_per_s", _SP)]
    ),
    "server.response_bytes": ("bytes", "lower", [("ops_per_s", _SP)]),
    "serve_journal.append_s": ("s", "lower", [("ops_per_s", _SR)]),
    "serve_journal.appends": ("count", "lower", [("ops_per_s", _SR)]),
    "unattributed_s": ("s", "lower", [("every metric", _ALL)]),
    "trace.wall_s": ("s", "lower", [("every metric", _ALL)]),
    "trace.overhead_s": ("s", "lower", [("every metric", _ALL)]),
}

#: Per-layer ``*_s`` metrics that are attributed span labels (the rest
#: of the ``*_s`` names are derived: unattributed, wall, overhead).
SPAN_LABELS = tuple(
    name[: -len("_s")]
    for name in PER_LAYER
    if name.endswith("_s")
    and name not in ("unattributed_s", "trace.wall_s", "trace.overhead_s")
)


def benchmark_spec(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _) in PER_LAYER.items()
        ],
    }
