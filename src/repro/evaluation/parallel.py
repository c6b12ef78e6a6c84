"""Process-pool grid execution: parallel, byte-identical to serial.

``ExperimentRunner.run(workers=N)`` lands here.  The grid is flattened
into (cell, repetition) work items and fanned out to a
``ProcessPoolExecutor``; the parent consumes results **in serial grid
order** -- cells in dataset/fraction/matcher order, repetitions
ascending -- and is the only process that touches the journal.

Why the parallel grid is bit-identical to the serial one:

* every repetition's randomness derives from ``(seed, repetition
  [, attempt])`` alone -- the split from ``default_rng((seed,
  repetition))``, the training sample from ``default_rng([seed,
  repetition, 1709 + attempt-1])`` -- so a worker computes exactly the
  numbers the serial loop would;
* workers run the *same* ``_run_repetition`` function as the serial
  path and ship back picklable ``_Outcome`` records; the parent folds
  them into results and journals them with the same helpers the serial
  path uses, in the same order, so journal files match byte for byte;
* workers never write the journal: durability stays a single-writer,
  fsynced append stream, and resume semantics are unchanged (already
  journaled repetitions are restored in the parent and never
  submitted).

A ``BaseException`` escaping a repetition (e.g. the fault harness's
``SimulatedKill``) propagates from the worker through ``future.result()``
at that item's position in serial order; later completed items are
discarded unjournaled, leaving exactly the journal prefix a serial kill
would have left.

Workers keep per-process caches (matcher per cell, pair universe and
feature store per dataset).  With ``share_features=True`` under the
``fork`` start method the parent prebuilds universes and stores before
creating the pool; a prebuilt store is the staged pipeline's full
package -- the :class:`~repro.core.pipeline.FeatureSchema`, the
columnar float32 per-property stage outputs and the assembled
full-width matrix, all read-only -- so children inherit schema +
columns through copy-on-write pages rather than re-deriving ad-hoc
matrices, and the construction cost is paid exactly once per grid.
Under ``spawn`` each worker builds its own, at most once per dataset.

Prebuilt stores also enable **two-stage scoring**: a worker whose store
the parent holds runs pair build + fit only and ships back a
:class:`~repro.evaluation.runner._PendingScore` (the fitted classifier,
pre-pickled) instead of scoring.  The parent resolves pendings in
serial order after the pool drains (:class:`_ScoreResolver`), replaying
the deterministic test split against its own store's float32 rows --
the same features the worker would have gathered, so identical scores
and journals.  Scoring in the parent runs uncontended instead of
time-slicing against sibling workers.

Failure model: the pool is run by
:class:`~repro.evaluation.supervisor.PoolSupervisor` -- a dead worker
respawns the pool and re-dispatches its items, a hung repetition is
killed at the ``cell_timeout`` deadline, poison items are quarantined as
structured ``failed`` journal records, and SIGINT/SIGTERM drain the
completed serial-order prefix into the journal before raising
:class:`~repro.errors.GridInterrupted`.  Completed outcomes are
journaled *progressively* (still in exact serial order, still only by
the parent), so even a hard parent kill leaves the longest durable
prefix rather than nothing.
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from queue import Empty
from time import perf_counter

import numpy as np

from repro.data.model import Dataset
from repro.data.splits import split_sources
from repro.errors import ConfigurationError, GridInterrupted
from repro.evaluation.checkpoint import (
    STATUS_FAILED,
    STATUS_OK,
    RunJournal,
    run_key,
)
from repro.evaluation.metrics import evaluate_scores
from repro.evaluation.runner import (
    ExperimentResult,
    PhaseTimings,
    RetryPolicy,
    RunSettings,
    _apply_journal_entry,
    _apply_outcome,
    _journal_outcome,
    _Outcome,
    _PendingScore,
    _run_repetition,
    blocked_test_quality,
    probe_policy_embeddings,
)
from repro.evaluation.supervisor import PoolSupervisor, SupervisorPolicy
from repro.nn.guards import assert_finite


@dataclass(frozen=True)
class GridCell:
    """One (dataset, fraction, matcher) cell of the flattened grid."""

    index: int
    dataset_index: int
    label: str
    settings: RunSettings


# Worker-process state, populated once by the pool initializer and
# extended lazily with per-cell matchers and per-dataset shared
# features.  Module-level because worker functions must be importable.
_STATE: dict = {}

# Shared features prebuilt by the parent just before forking the pool.
# Fork children inherit these via copy-on-write -- the store matrices
# are read-only, so the pages stay physically shared and no worker pays
# the construction cost again.  Empty under spawn, where children build
# their own.
_PREBUILT: dict = {}


def _init_worker_process(
    factories,
    datasets,
    retry_policy,
    share_features,
    start_queue=None,
    defer_scores=False,
    policy=None,
) -> None:
    """Pool initializer run *in the worker*: signals, then shared state.

    Workers ignore SIGINT (the parent's handler owns the Ctrl-C
    shutdown; workers are reaped by the supervisor) and reset SIGTERM to
    the default, since fork children would otherwise inherit the
    parent's drain-and-exit handler.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    _init_worker(
        factories,
        datasets,
        retry_policy,
        share_features,
        start_queue,
        defer_scores,
        policy,
    )


def _init_worker(
    factories,
    datasets,
    retry_policy,
    share_features,
    start_queue=None,
    defer_scores=False,
    policy=None,
) -> None:
    prebuilt_stores = dict(_PREBUILT.get("stores", ()))
    _STATE.clear()
    _STATE.update(
        factories=factories,
        datasets=datasets,
        retry_policy=retry_policy,
        share_features=share_features,
        start_queue=start_queue,
        defer_scores=defer_scores,
        policy=policy,
        # Keys whose store the *parent* also holds: only repetitions on
        # one of these may defer their score phase (the parent must be
        # able to gather the very same features).
        prebuilt_stores=frozenset(prebuilt_stores),
        matchers={},
        universes=dict(_PREBUILT.get("universes", ())),
        stores=prebuilt_stores,
    )


def _prebuild_shared(factories, datasets, dataset_indices, policy=None) -> None:
    """Build pair universes and feature stores once, in the parent.

    Only called when the pool uses the ``fork`` start method: children
    then find the results in ``_PREBUILT`` instead of each rebuilding
    them.  Stores are keyed by ``(dataset_index, id(embeddings))`` --
    ids survive fork, so a worker's factory-made matcher resolves the
    same key.  Matchers that do not support stores are skipped; they
    prepare per worker as before.  ``policy`` prunes the universes; an
    embedding-bucket policy resolves against the store-building
    matcher's own embeddings.
    """
    from repro.core.feature_cache import PairUniverse

    universes: dict = {}
    stores: dict = {}
    for dataset_index in sorted(dataset_indices):
        dataset = datasets[dataset_index]
        for label in factories:
            matcher = factories[label]()
            build = getattr(matcher, "build_feature_store", None)
            embeddings = getattr(matcher, "embeddings", None)
            if (
                build is None
                or embeddings is None
                or getattr(matcher, "attach_store", None) is None
            ):
                continue
            key = (dataset_index, id(embeddings))
            if key in stores:
                continue
            universe = universes.get(dataset_index)
            if universe is None:
                universe = universes[dataset_index] = PairUniverse(
                    dataset, policy, embeddings=embeddings
                )
            stores[key] = build(dataset, universe)
    _PREBUILT.clear()  # repro: noqa[REP008] parent-side by construction: runs strictly before the pool forks
    _PREBUILT.update(universes=universes, stores=stores)  # repro: noqa[REP008] pre-fork COW prebuild (see docstring)


def _worker_universe(dataset_index: int):
    universe = _STATE["universes"].get(dataset_index)
    if universe is None:
        from repro.core.feature_cache import PairUniverse

        policy = _STATE.get("policy")
        embeddings = None
        if policy is not None and not policy.is_null:
            embeddings = probe_policy_embeddings(_STATE["factories"])
        universe = PairUniverse(
            _STATE["datasets"][dataset_index], policy, embeddings=embeddings
        )
        _STATE["universes"][dataset_index] = universe
    return universe


def _worker_matcher(cell: GridCell):
    matcher = _STATE["matchers"].get(cell.index)
    if matcher is not None:
        return matcher
    dataset: Dataset = _STATE["datasets"][cell.dataset_index]
    matcher = _STATE["factories"][cell.label]()
    attach = getattr(matcher, "attach_store", None)
    build = getattr(matcher, "build_feature_store", None)
    embeddings = getattr(matcher, "embeddings", None)
    if (
        _STATE["share_features"]
        and attach is not None
        and build is not None
        and embeddings is not None
    ):
        store_key = (cell.dataset_index, id(embeddings))
        store = _STATE["stores"].get(store_key)
        if store is None:
            store = _STATE["stores"][store_key] = build(
                dataset, _worker_universe(cell.dataset_index)
            )
        attach(store)
    else:
        matcher.prepare(dataset)
    _STATE["matchers"][cell.index] = matcher
    return matcher


def _execute_item(cell: GridCell, repetition: int):
    """Worker entry point: run one repetition, return its ``_Outcome``.

    The split is recomputed locally from ``(seed, repetition)`` --
    identical to the serial loop's stream by construction.  The first
    act is reporting the start to the supervisor's channel, so the
    ``--cell-timeout`` clock measures this repetition's own run time,
    never queueing or pool start-up.
    """
    start_queue = _STATE.get("start_queue")
    if start_queue is not None:
        try:
            start_queue.put((cell.index, repetition))
        except Exception:  # pragma: no cover # repro: noqa[REP005] start-report is best-effort; a worker must never die for telemetry
            pass
    dataset: Dataset = _STATE["datasets"][cell.dataset_index]
    rng = np.random.default_rng((cell.settings.seed, repetition))
    split = split_sources(dataset, cell.settings.train_fraction, rng)
    universe = (
        _worker_universe(cell.dataset_index) if _STATE["share_features"] else None
    )
    matcher = _worker_matcher(cell)
    defer_key = None
    if _STATE.get("defer_scores"):
        embeddings = getattr(matcher, "embeddings", None)
        store = getattr(matcher, "store", None)
        if embeddings is not None and store is not None:
            key = (cell.dataset_index, id(embeddings))
            # ids survive fork, so "same key + same object" proves the
            # parent holds this very store and can score against it.
            if key in _STATE["prebuilt_stores"] and store is _STATE["stores"].get(key):
                defer_key = key
    return _run_repetition(
        matcher,
        dataset,
        cell.settings,
        repetition,
        split,
        _STATE["retry_policy"],
        time.sleep,
        universe=universe,
        defer_key=defer_key,
    )


def _pool_context():
    """Prefer ``fork``: cheap start-up and no pickling of factories."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _quarantine_outcome(item: tuple[int, int], reason: str, faults: int) -> _Outcome:
    """The structured failure recorded for a quarantined (cell, rep) item."""
    return _Outcome(
        status=STATUS_FAILED,
        error_type=reason,
        error_message=(
            f"quarantined by the pool supervisor after {faults} "
            f"{reason} fault(s)"
        ),
        attempts=faults,
    )


def run_grid_parallel(
    factories: dict[str, "callable"],
    datasets: list[Dataset],
    *,
    train_fractions: tuple[float, ...],
    repetitions: int,
    seed: int,
    negative_ratio: float,
    journal: RunJournal | None,
    resume: bool,
    retry_policy: RetryPolicy | None,
    workers: int,
    share_features: bool,
    supervisor: SupervisorPolicy | None = None,
    candidate_policy=None,
) -> list[ExperimentResult]:
    """Run the experiment grid on ``workers`` supervised processes.

    Returns the same ``ExperimentResult`` list, with the same journal
    side effects, as the serial ``ExperimentRunner.run`` -- only faster.
    ``supervisor`` tunes the failure model (worker-death respawns,
    per-item deadlines, poison quarantine); the defaults match PR 2's
    behaviour on healthy grids byte for byte.
    """
    if workers < 2:
        raise ConfigurationError("run_grid_parallel needs workers >= 2")
    retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
    policy = supervisor if supervisor is not None else SupervisorPolicy()

    cells: list[GridCell] = []
    results: list[ExperimentResult] = []
    keys: list[str | None] = []
    restored: list[dict] = []
    for dataset_index, dataset in enumerate(datasets):
        for fraction in train_fractions:
            settings = RunSettings(
                train_fraction=fraction,
                repetitions=repetitions,
                negative_ratio=negative_ratio,
                seed=seed,
            )
            for label in factories:
                cell = GridCell(
                    index=len(cells),
                    dataset_index=dataset_index,
                    label=label,
                    settings=settings,
                )
                cells.append(cell)
                results.append(
                    ExperimentResult(
                        matcher_name=label,
                        dataset_name=dataset.name,
                        settings=settings,
                    )
                )
                key = (
                    run_key(label, dataset, settings)
                    if journal is not None
                    else None
                )
                keys.append(key)
                restored.append(
                    journal.entries(key)
                    if (journal is not None and resume)
                    else {}
                )

    # Serial grid order: cells outermost, repetitions innermost.
    pending: list[tuple[int, int]] = [
        (cell.index, repetition)
        for cell in cells
        for repetition in range(repetitions)
        if not (
            (entry := restored[cell.index].get(repetition)) is not None
            and entry.status != STATUS_FAILED
        )
    ]

    drain = _SerialDrain(cells, results, keys, restored, journal)
    outcomes: dict[tuple[int, int], object] = {}
    #: Blocked universes the parent holds (prebuilt or stats-only);
    #: reused for the per-result pair-recall/reduction annotation.
    parent_universes: dict[int, object] = {}

    def on_complete(item: tuple[int, int], outcome) -> None:
        # Progressive drain: each completion extends the journaled
        # serial-order prefix as far as it now reaches, so the journal
        # grows during the run exactly as a serial run's would.
        outcomes[item] = outcome
        drain.advance(outcomes)

    defer_scores = False
    if pending:
        context = _pool_context()
        if share_features and context.get_start_method() == "fork":
            _prebuild_shared(
                factories,
                datasets,
                {cells[index].dataset_index for index, _ in pending},
                candidate_policy,
            )
            parent_universes.update(_PREBUILT["universes"])
            # Two-stage execution: workers fit, the parent scores after
            # the drain.  Only meaningful when there is a prebuilt store
            # the parent can gather the same features from.
            defer_scores = bool(_PREBUILT["stores"])
            if defer_scores:
                drain.resolver = _ScoreResolver(
                    cells,
                    datasets,
                    _PREBUILT["universes"],
                    _PREBUILT["stores"],
                )
        stop = threading.Event()
        received_signum: int | None = None

        def _on_signal(signum, frame) -> None:
            # Async-signal-safe: a plain nonlocal rebind (last signal
            # wins) instead of a list append inside the handler.
            nonlocal received_signum
            received_signum = signum
            stop.set()

        installed: dict[int, object] = {}
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    installed[signum] = signal.signal(signum, _on_signal)
                except (ValueError, OSError):  # pragma: no cover
                    pass

        # Workers report the (cell, repetition) they are *about to run*
        # on this queue; the supervisor's deadline clock starts at that
        # report, not at submission.  One fresh queue per pool
        # generation, so a dead generation's reports can never start
        # the clock on a re-dispatched item.
        start_queue_box: list = [None]

        def make_pool() -> ProcessPoolExecutor:
            start_queue_box[0] = context.Queue()
            return ProcessPoolExecutor(
                max_workers=min(workers, len(pending)),
                mp_context=context,
                initializer=_init_worker_process,
                initargs=(
                    factories,
                    datasets,
                    retry_policy,
                    share_features,
                    start_queue_box[0],
                    defer_scores,
                    candidate_policy,
                ),
            )

        def poll_started() -> list[tuple[int, int]]:
            started: list[tuple[int, int]] = []
            start_queue = start_queue_box[0]
            while start_queue is not None:
                try:
                    started.append(start_queue.get_nowait())
                except Empty:
                    break
            return started

        serial_fallback_ready = False

        def run_serial(item: tuple[int, int]):
            # Degraded path: execute in the parent, reusing the worker
            # entry point against parent-local (or prebuilt) state.
            nonlocal serial_fallback_ready
            if not serial_fallback_ready:
                _init_worker(
                    factories, datasets, retry_policy, share_features,
                    policy=candidate_policy,
                )
                serial_fallback_ready = True
            return _execute_item(cells[item[0]], item[1])

        pool_supervisor = PoolSupervisor(
            pending,
            make_pool=make_pool,
            submit=lambda pool, item: pool.submit(
                _execute_item, cells[item[0]], item[1]
            ),
            on_complete=on_complete,
            quarantine_outcome=_quarantine_outcome,
            run_serial=run_serial,
            window=min(workers, len(pending)),
            policy=policy,
            stop=stop,
            poll_started=poll_started,
        )
        try:
            try:
                pool_supervisor.run()
            except GridInterrupted as interrupted:
                # Outcomes harvested during shutdown are already
                # journaled by the progressive drain -- except deferred
                # scores, whose training effort is preserved by scoring
                # them now, before the prefix is sealed.  Attach the
                # signal for the caller's exit code.
                drain.enable_resolution()
                drain.advance(outcomes)
                interrupted.signum = received_signum
                raise
        finally:
            _PREBUILT.clear()  # repro: noqa[REP008] post-run cleanup: the pool is gone, no child can observe this
            if serial_fallback_ready:
                _STATE.clear()  # repro: noqa[REP008] degraded-serial state lives in the parent by design
            for signum, previous in installed.items():
                signal.signal(signum, previous)

    drain.enable_resolution()
    drain.advance(outcomes)
    if candidate_policy is not None and not candidate_policy.is_null:
        # Annotate every cell with the candidate-generation quality of
        # its dataset's pruned universe.  Prebuilt universes are reused;
        # datasets that never prebuilt one (spawn, or fully resumed
        # runs) get a stats-only universe built here in the parent.
        from repro.core.feature_cache import PairUniverse

        for cell, result in zip(cells, results):
            universe = parent_universes.get(cell.dataset_index)
            if universe is None:
                universe = parent_universes[cell.dataset_index] = PairUniverse(
                    datasets[cell.dataset_index],
                    candidate_policy,
                    embeddings=probe_policy_embeddings(factories),
                )
            stats = universe.blocking_stats()
            result.pair_recall = stats["pair_recall"]
            result.reduction_ratio = stats["reduction_ratio"]
    return results


class _ScoreResolver:
    """Parent-side completion of deferred score phases.

    Workers whose feature store was prebuilt by the parent ship back a
    :class:`_PendingScore` -- training done, scoring not -- and the
    parent finishes each one here, after the pool has drained, so the
    score phase runs uncontended instead of time-slicing against
    sibling workers.  The test split is replayed deterministically from
    ``(seed, repetition)``, features are the store's float32 rows (the
    same gather the worker would make), so scores, qualities and
    journals match the serial grid byte for byte.

    The resolver keeps direct references to the prebuilt universes and
    stores: resolution happens after ``_PREBUILT`` has been cleared.
    """

    def __init__(self, cells, datasets, universes, stores) -> None:
        self._cells = cells
        self._datasets = datasets
        self._universes = dict(universes)
        self._stores = dict(stores)

    def resolve_pending(
        self, cell_index: int, repetition: int, pending: _PendingScore
    ) -> _Outcome:
        from repro.core.config import FeatureConfig

        cell = self._cells[cell_index]
        timings = (
            pending.timings if pending.timings is not None else PhaseTimings()
        )
        try:
            dataset = self._datasets[cell.dataset_index]
            rng = np.random.default_rng((cell.settings.seed, repetition))
            split = split_sources(dataset, cell.settings.train_fraction, rng)
            universe = self._universes[cell.dataset_index]
            store = self._stores[pending.store_key]
            config = FeatureConfig.from_label(pending.config_label)
            classifier = pickle.loads(pending.classifier)
            started = perf_counter()
            test = universe.subset(list(split.train_sources), within=False)
            timings.pair_build += perf_counter() - started
            started = perf_counter()
            features = store.scoring_features(test.pairs, config)
            timings.feature_assembly += perf_counter() - started
            started = perf_counter()
            scores = classifier.match_scores(features)
            timings.score += perf_counter() - started
            assert_finite(scores, "similarity scores")
            quality = evaluate_scores(scores, test.labels(), pending.threshold)
            if universe.is_blocked:
                quality = blocked_test_quality(
                    quality, universe, list(split.train_sources)
                )
            return _Outcome(
                status=STATUS_OK,
                quality=quality,
                degradation=pending.degradation,
                attempts=pending.attempts,
                timings=timings,
            )
        except Exception as error:  # noqa: BLE001 -- isolation boundary
            return _Outcome(
                status=STATUS_FAILED,
                error_type=type(error).__name__,
                error_message=str(error),
                attempts=pending.attempts,
                timings=timings,
            )


class _SerialDrain:
    """Incremental serial-order fold of restored entries and outcomes.

    Maintains a cursor over the flattened (cell, repetition) grid.  Each
    :meth:`advance` applies journal-restored entries and any available
    outcomes from the cursor forward, journaling executed outcomes in
    the parent in exactly the order the serial runner would emit them,
    and stops at the first item that is neither restored nor completed.
    Progressive calls therefore never double-apply anything.

    A :class:`_PendingScore` at the cursor stalls the drain while the
    pool is still running (its scoring must wait for an idle parent);
    once :meth:`enable_resolution` is called -- after the pool drains,
    or while journaling the prefix of an interrupted run -- pendings
    are resolved in serial order through the attached resolver.
    """

    def __init__(
        self,
        cells: list[GridCell],
        results: list[ExperimentResult],
        keys: list[str | None],
        restored: list[dict],
        journal: RunJournal | None,
    ) -> None:
        self._results = results
        self._keys = keys
        self._restored = restored
        self._journal = journal
        self._slots: list[tuple[int, int]] = [
            (cell.index, repetition)
            for cell in cells
            for repetition in range(cell.settings.repetitions)
        ]
        self._position = 0
        self.resolver: _ScoreResolver | None = None
        self._resolve = False

    def enable_resolution(self) -> None:
        """Allow pendings at the cursor to be scored (pool is drained)."""
        self._resolve = True

    def advance(self, outcomes: dict[tuple[int, int], object]) -> None:
        while self._position < len(self._slots):
            cell_index, repetition = self._slots[self._position]
            entry = self._restored[cell_index].get(repetition)
            if entry is not None and entry.status != STATUS_FAILED:
                _apply_journal_entry(self._results[cell_index], entry)
                self._position += 1
                continue
            outcome = outcomes.get((cell_index, repetition))
            if outcome is None:
                return
            if isinstance(outcome, _PendingScore):
                if not self._resolve or self.resolver is None:
                    return
                outcome = self.resolver.resolve_pending(
                    cell_index, repetition, outcome
                )
            del outcomes[(cell_index, repetition)]
            _apply_outcome(self._results[cell_index], repetition, outcome)
            if self._journal is not None:
                _journal_outcome(
                    self._journal, self._keys[cell_index], repetition, outcome
                )
            self._position += 1
