"""Layer wrappers for the traced run: spans around the program's public calls.

``install`` patches functions of the program's layers so that each call
records a span (see ``spans.py``) and the counters the catalogue names.
It is called only in traced mode -- in the benchmark process before any
pool forks, and in the server process by ``server_entry.py`` -- so the
untraced run executes the program unmodified.  ``install`` returns a
function that restores every patched attribute.

Most wrappers sit on public functions.  Where no public function
isolates a layer -- pool start-up and the worker entry point, the
parent's deferred scoring, the admission wait, the HTTP handler verbs --
the wrapper sits on the private function that does the work; a rename
there makes ``install`` fail instead of silently dropping the layer.
"""

from __future__ import annotations

import functools
from concurrent.futures import process as futures_process
from time import perf_counter

from spans import LANE_HEADER, Tracer, span


def _pairs_rows(args, kwargs, result):
    pairs = args[1] if len(args) > 1 else kwargs["pairs"]
    return {"feature_cache.gather_rows": len(getattr(pairs, "pairs", pairs))}


def install(tracer: Tracer) -> callable:
    """Wrap the program's layer functions; returns the undo function."""
    import repro.datasets as datasets
    import repro.datasets.registry as dataset_registry
    import repro.evaluation.metrics as evaluation_metrics
    import repro.evaluation.parallel as parallel
    import repro.evaluation.runner as runner
    from repro.core import pipeline
    from repro.core.feature_cache import PairFeatureStore, PairUniverse
    from repro.core.matcher import LeapmeMatcher
    from repro.evaluation.checkpoint import RunJournal
    from repro.evaluation.supervisor import PoolSupervisor
    from repro.ml.scaling import StandardScaler
    from repro.nn.network import Sequential
    from repro.serve import admission, registry, server
    from repro.serve.journal import RegistryJournal

    patched: list[tuple[object, str, object]] = []

    def patch(owner, name: str, replacement) -> None:
        patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def wrap(owner, name: str, label: str, **options) -> None:
        patch(owner, name, span(tracer, label, getattr(owner, name), **options))

    # Set-up layers: dataset generation / CSV load and embedding training.
    for owner in (datasets, dataset_registry):
        wrap(owner, "load_dataset", "datasets.load")
        wrap(owner, "build_domain_embeddings", "embeddings.train")
    wrap(registry, "load_dataset_csv", "datasets.load")
    wrap(registry, "fallback_embeddings", "embeddings.train")

    # Candidate generation and the feature store.
    wrap(
        PairUniverse, "__init__", "feature_cache.universe",
        measure=lambda args, kwargs, result: {
            "feature_cache.candidates": len(args[0])
        },
    )
    wrap(
        PairUniverse, "subset", "feature_cache.subset",
        measure=lambda args, kwargs, result: {"feature_cache.subset_calls": 1},
    )
    wrap(PairFeatureStore, "features", "feature_cache.gather", measure=_pairs_rows)
    wrap(
        PairFeatureStore, "scoring_features", "feature_cache.gather",
        measure=_pairs_rows,
    )
    wrap(PairFeatureStore, "with_source", "feature_cache.with_source")
    wrap(LeapmeMatcher, "build_feature_store", "pipeline.build")
    patch(pipeline, "name_distance_block", _name_distances(tracer, pipeline))

    # Classifier, network, metrics.
    wrap(
        StandardScaler, "transform", "classifier.scale",
        measure=lambda args, kwargs, result: {
            "classifier.scale_rows": len(result)
        },
    )
    wrap(
        Sequential, "fit", "nn.train",
        measure=lambda args, kwargs, result: {
            "nn.train_epochs": len(result.losses)
        },
    )
    wrap(
        Sequential, "predict_proba", "nn.forward",
        measure=lambda args, kwargs, result: {"nn.forward_rows": len(result)},
    )
    for owner in (evaluation_metrics, runner, parallel):
        wrap(owner, "evaluate_scores", "evaluation.metrics")
    wrap(
        RunJournal, "append", "checkpoint.append",
        measure=lambda args, kwargs, result: {"checkpoint.appends": 1},
    )

    # The process-pool grid.
    wrap(parallel, "_prebuild_shared", "parallel.pool_startup")
    wrap(
        futures_process.ProcessPoolExecutor, "_spawn_process",
        "parallel.pool_startup",
    )
    wrap(parallel._ScoreResolver, "resolve_pending", "parallel.deferred_score")
    patch(parallel, "_execute_item", _worker_item(tracer, parallel._execute_item))
    patch(PoolSupervisor, "run", _pool_run(tracer, PoolSupervisor.run))

    # The service.
    wrap(admission._Slot, "__enter__", "admission.wait")
    wrap(registry.TenantRegistry, "create", "registry.create")
    wrap(registry.TenantRegistry, "predict_payload", "registry.predict")
    wrap(registry.TenantRegistry, "match_payload", "registry.match")
    wrap(registry.TenantRegistry, "add_source", "registry.add_source")
    wrap(
        RegistryJournal, "append", "serve_journal.append",
        measure=lambda args, kwargs, result: {"serve_journal.appends": 1},
    )
    for verb in ("do_GET", "do_POST", "do_DELETE"):
        patch(server._Handler, verb, _adopt_lane(tracer, getattr(server._Handler, verb)))

    def undo() -> None:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)

    return undo


def _name_distances(tracer: Tracer, pipeline):
    """Span + memo hit/computed counts around the name-distance kernel."""
    original = pipeline.name_distance_block

    @functools.wraps(original)
    def name_distance_block(name_pairs, **kwargs):
        counters = kwargs.get("counters")
        if counters is None:
            counters = kwargs["counters"] = {}
        computed = counters.get("computed", 0)
        hits = counters.get("cache_hit", 0)
        tracer.enter("pipeline.name_distance")
        try:
            return original(name_pairs, **kwargs)
        finally:
            tracer.exit()
            tracer.count(
                "pipeline.name_distance_computed",
                counters.get("computed", 0) - computed,
            )
            tracer.count(
                "pipeline.name_distance_cache_hit",
                counters.get("cache_hit", 0) - hits,
            )

    return name_distance_block


def _worker_item(tracer: Tracer, original):
    """The pool worker's entry point: a span, busy time, and a dump.

    Worker processes never return to the benchmark, so each one writes
    its spans to the trace directory after every item it runs.
    """

    @functools.wraps(original)
    def _execute_item(cell, repetition):
        started = perf_counter()
        tracer.enter("parallel.worker_item")
        try:
            return original(cell, repetition)
        finally:
            tracer.exit()
            tracer.count("parallel.worker_busy_s", perf_counter() - started)
            tracer.dump()

    return _execute_item


def _pool_run(tracer: Tracer, original):
    """Not a span (the parent only waits here): pool lifetime + respawns."""

    @functools.wraps(original)
    def run(self):
        started = perf_counter()
        try:
            return original(self)
        finally:
            tracer.count("parallel.pool_run_s", perf_counter() - started)
            tracer.count("supervisor.respawns", self.respawns)

    return run


def _adopt_lane(tracer: Tracer, original):
    """Server handler verbs: record the request's spans on the client's lane."""

    @functools.wraps(original)
    def handle(self):
        tracer.adopt_lane(self.headers.get(LANE_HEADER))
        try:
            return original(self)
        finally:
            tracer.adopt_lane(None)

    return handle
