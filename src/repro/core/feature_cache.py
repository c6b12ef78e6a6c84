"""Shared pair-feature store: the full Table I matrix, computed once.

The evaluation grid of Section V re-scores the *same* candidate pairs
under nine feature configurations, two training fractions and many
repetitions.  The seed implementation recomputed, per grid cell:

* the cross-source pair enumeration (``build_pairs``, quadratic in the
  property count), once per repetition per cell;
* the pair feature matrix, even though every config's matrix is a
  column subset of one full matrix (see
  :class:`repro.core.pipeline.FeatureSchema`).

This module hoists both.  :class:`PairUniverse` enumerates all
cross-source pairs of a dataset exactly once and serves every
``(sources, within)`` subset by filtering that enumeration -- the
result is element-identical to ``build_pairs``.  :class:`PairFeatureStore`
is a thin gather over the staged pipeline's outputs: the full-width
float32 matrix over the universe is assembled once from the cached
per-property stage columns, then any (pair set, config) request is a
row gather plus a column slice; the gathered full-width submatrix is
cached per pair set, so the nine configs of a grid cell share one
gather and eight of them are zero-copy column views of it.

Stores are keyed by the dataset's content fingerprint: a store never
answers for a dataset it was not built from.  :meth:`PairFeatureStore.add_source`
is the incremental-ingestion path: merging a new source featurizes only
the new properties (the pipeline's fingerprint-keyed row cache serves
every old one) and only the new cross-source pairs, while old pair rows
are copied from the existing matrix.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from time import perf_counter

import numpy as np

from repro.blocking.blockers import Blocker
from repro.blocking.policy import CandidatePolicy
from repro.core.config import FeatureConfig
from repro.core.pair_features import pair_feature_matrix
from repro.core.pipeline import FEATURE_DTYPE
from repro.core.property_features import PropertyFeatureTable
from repro.data.model import Dataset, PropertyRef
from repro.data.pairs import (
    LabeledPair,
    PairSet,
    cross_source_index_pairs,
    sample_training_pairs,
    source_block_bounds,
)
from repro.errors import ConfigurationError


class PairUniverse:
    """The candidate cross-source pairs of a dataset, enumerated once.

    Candidate generation is policy-driven: under the default ``null``
    :class:`~repro.blocking.policy.CandidatePolicy` the universe holds
    every cross-source pair and ``subset`` reproduces
    :func:`repro.data.pairs.build_pairs` exactly (same pair objects,
    same order).  Under a blocking policy only the blocker's candidates
    are enumerated -- the full cross product is never materialised --
    and every downstream consumer (subsets, feature stores, scoring)
    automatically operates on the pruned universe.  Pair identity is
    tracked as sorted index pairs into the sorted property list, never
    as per-pair ``frozenset`` keys.
    """

    def __init__(
        self,
        dataset: Dataset,
        policy: CandidatePolicy | None = None,
        *,
        embeddings=None,
        blocker: Blocker | None = None,
    ) -> None:
        self.dataset = dataset
        self.dataset_fingerprint = dataset.fingerprint()
        self.policy = policy if policy is not None else CandidatePolicy.null()
        self._all_sources = set(dataset.sources())
        properties = dataset.properties()
        if self.policy.is_null:
            # The exact-equivalence path: lexicographic (i, j) index
            # order is the seed nested-loop enumeration order.
            self._blocker: Blocker | None = None
            index_pairs = cross_source_index_pairs(properties)
        else:
            # A pre-resolved blocker is the delta-ingestion handoff: the
            # grown universe reuses the parent's instance so per-property
            # sketch memos survive the merge.
            self._blocker = (
                blocker if blocker is not None else self.policy.resolve(embeddings)
            )
            index_pairs = self._blocker.candidate_index_pairs(dataset, properties)
        pairs: list[LabeledPair] = []
        row_of: dict[tuple[int, int], int] = {}
        for row, (i, j) in enumerate(index_pairs):
            left, right = properties[i], properties[j]
            pairs.append(LabeledPair(left, right, dataset.is_match(left, right)))
            row_of[(i, j)] = row
        self.pairs: tuple[LabeledPair, ...] = tuple(pairs)
        self._row_of = row_of
        self._index_of: dict[PropertyRef, int] = {
            ref: index for index, ref in enumerate(properties)
        }
        self._block_sizes = [
            end - start for start, end in source_block_bounds(properties)
        ]
        self._stats_cache: dict | None = None
        self._subset_cache: dict[tuple[frozenset[str], bool], PairSet] = {}
        # rows_of is a per-pair Python loop; the same (memoised) pair
        # list recurs for every config of a grid cell, so cache the row
        # arrays by list identity.  Entries hold a strong reference to
        # the list, which keeps the id stable while cached.  Sizing: a
        # grid touches repetitions+1 entries per train fraction, and the
        # entries are small (index arrays / pair lists), so the caps sit
        # well above any realistic repetition count.
        self._rows_cache: OrderedDict[int, tuple[object, np.ndarray]] = OrderedDict()
        self._rows_cache_size = 256
        self._sample_cache: OrderedDict[tuple, tuple[object, PairSet]] = OrderedDict()
        self._sample_cache_size = 256
        # The memo dicts above are mutated on lookup (LRU move_to_end /
        # eviction), so concurrent read-only *requests* -- the serve
        # layer's thread-per-connection handlers all gathering from one
        # warm store -- must serialise cache access.  The lock guards
        # only the bookkeeping; the enumeration itself is immutable.
        self._cache_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.pairs)

    def subset(
        self, sources: list[str] | None = None, *, within: bool = True
    ) -> PairSet:
        """The ``build_pairs(dataset, sources, within=...)`` pair set."""
        if sources is None:
            selected = self._all_sources
        else:
            unknown = set(sources) - self._all_sources
            if unknown:
                raise ConfigurationError(f"unknown sources: {sorted(unknown)}")
            selected = set(sources)
        # The same split recurs across the nine configs of a grid cell;
        # memoise so the filter runs once per (sources, within).
        cache_key = (frozenset(selected), within)
        with self._cache_lock:
            cached = self._subset_cache.get(cache_key)
            if cached is not None:
                return cached
        kept = [
            pair
            for pair in self.pairs
            if (pair.left.source in selected and pair.right.source in selected)
            == within
        ]
        with self._cache_lock:
            result = self._subset_cache.setdefault(cache_key, PairSet(kept))
        return result

    def training_sample(
        self,
        candidates: PairSet,
        negative_ratio: float,
        rng_seed: tuple[int, ...],
    ) -> PairSet:
        """Memoised :func:`sample_training_pairs` over a memoised subset.

        Every config of a grid cell draws the same training sample (the
        rng is reseeded from ``rng_seed`` per draw), so the sample --
        like the subset it comes from -- is computed once and the shared
        ``PairSet`` object lets the row/gather caches downstream hit.
        The draw consumes a fresh generator exactly as the direct path
        does, so the sampled content is bit-identical.
        """
        key = (id(candidates), float(negative_ratio), tuple(rng_seed))
        with self._cache_lock:
            cached = self._sample_cache.get(key)
            if cached is not None and cached[0] is candidates:
                self._sample_cache.move_to_end(key)
                return cached[1]
        sample = sample_training_pairs(
            candidates, negative_ratio, np.random.default_rng(list(rng_seed))
        )
        with self._cache_lock:
            self._sample_cache[key] = (candidates, sample)
            if len(self._sample_cache) > self._sample_cache_size:
                self._sample_cache.popitem(last=False)
        return sample

    @property
    def is_blocked(self) -> bool:
        """Whether a non-null candidate policy pruned this universe."""
        return self._blocker is not None

    def total_cross_pairs(self) -> int:
        """Full cross-product pair count, from per-source counts only."""
        total = sum(self._block_sizes)
        all_pairs = total * (total - 1) // 2
        within = sum(size * (size - 1) // 2 for size in self._block_sizes)
        return all_pairs - within

    def blocking_stats(self) -> dict:
        """Candidate counts and quality of this universe's policy.

        ``pair_recall`` measures kept true matches against the *full*
        ground truth (``dataset.matching_pairs()``), so a pruned true
        pair lowers it even though the universe never enumerated the
        pair; ``reduction_ratio`` is the fraction of the cross product
        pruned.  The null policy reports 1.0 / 0.0 by construction.
        """
        if self._stats_cache is None:
            total = self.total_cross_pairs()
            candidates = len(self.pairs)
            true_total = len(self.dataset.matching_pairs())
            kept_true = sum(1 for pair in self.pairs if pair.label)
            self._stats_cache = {
                "policy": self.policy.label,
                "candidates": candidates,
                "total_pairs": total,
                "reduction_ratio": (
                    1.0 - candidates / total if total else 0.0
                ),
                "pair_recall": (
                    kept_true / true_total if true_total else 1.0
                ),
            }
        return dict(self._stats_cache)

    def missed_true_pairs(
        self, sources: list[str] | None = None, *, within: bool = True
    ) -> int:
        """True matches the policy pruned from a ``(sources, within)`` slice.

        Evaluation adds these to the false negatives so F1 stays honest
        against the full ground truth even when the test pairs come from
        a pruned universe.  Zero under the null policy by construction.
        """
        if not self.is_blocked:
            return 0
        if sources is None:
            selected = self._all_sources
        else:
            unknown = set(sources) - self._all_sources
            if unknown:
                raise ConfigurationError(f"unknown sources: {sorted(unknown)}")
            selected = set(sources)
        slice_true = 0
        for key in self.dataset.matching_pairs():
            left, right = tuple(key)
            both_inside = left.source in selected and right.source in selected
            if within == both_inside:
                slice_true += 1
        kept_true = sum(
            1 for pair in self.subset(sources, within=within).pairs if pair.label
        )
        return slice_true - kept_true

    def _row_lookup(self, left: PropertyRef, right: PropertyRef) -> int | None:
        """Universe row of an unordered ref pair, or ``None``."""
        i = self._index_of.get(left)
        j = self._index_of.get(right)
        if i is None or j is None:
            return None
        return self._row_of.get((i, j) if i < j else (j, i))

    def row_of(self, pair: LabeledPair | tuple[PropertyRef, PropertyRef]) -> int:
        """Universe row of an (unordered) pair."""
        left, right = (
            (pair.left, pair.right) if isinstance(pair, LabeledPair) else pair
        )
        row = self._row_lookup(left, right)
        if row is None:
            raise ConfigurationError(
                "pair is not part of this dataset's cross-source universe"
                + (
                    f" under blocking policy {self.policy.label!r}"
                    if self.is_blocked
                    else ""
                )
            )
        return row

    def rows_of(
        self, pairs: list[LabeledPair] | list[tuple[PropertyRef, PropertyRef]]
    ) -> np.ndarray:
        """Universe rows of many pairs, in order."""
        with self._cache_lock:
            cached = self._rows_cache.get(id(pairs))
            if cached is not None and cached[0] is pairs:
                self._rows_cache.move_to_end(id(pairs))
                return cached[1]
        rows = np.array([self.row_of(pair) for pair in pairs], dtype=np.intp)
        rows.setflags(write=False)
        with self._cache_lock:
            self._rows_cache[id(pairs)] = (pairs, rows)
            if len(self._rows_cache) > self._rows_cache_size:
                self._rows_cache.popitem(last=False)
        return rows


class PairFeatureStore:
    """Full-width pair features over a :class:`PairUniverse`, shared.

    The matrix is assembled once at construction (a thin gather over
    the pipeline's columnar stage outputs); every
    ``features(pairs, config)`` call afterwards is a cached row gather
    plus a column slice.  The store is read-only: the full matrix and
    the cached gathers have their write flags cleared, so the views
    handed to different grid cells cannot corrupt each other.
    """

    def __init__(
        self,
        table: PropertyFeatureTable,
        universe: PairUniverse,
        *,
        gather_cache_size: int = 64,
        gather_cache_bytes: int = 1 << 30,
        matrix: np.ndarray | None = None,
    ) -> None:
        if table.dataset_fingerprint != universe.dataset_fingerprint:
            raise ConfigurationError(
                "feature table and pair universe come from different datasets"
            )
        self.table = table
        self.universe = universe
        self.dataset_fingerprint = universe.dataset_fingerprint
        self.schema = table.pipeline.schema
        self.timings: dict[str, float] = {}
        # A prebuilt matrix is the delta-construction path
        # (with_source): the caller assembled it from copied old rows
        # plus freshly featurized new ones and it is already
        # bit-identical to what _assemble would produce.
        if matrix is None:
            matrix = self._assemble(table, list(universe.pairs))
        self.matrix = matrix
        # Gathers are the memory-heavy cache (full-width row submatrices).
        # A grid touches repetitions+1 of them per train fraction, so the
        # count cap sits above realistic repetition counts; the byte
        # budget bounds worst-case memory at large dataset scales.
        self._gather_cache: OrderedDict[bytes, np.ndarray] = OrderedDict()
        self._gather_cache_size = gather_cache_size
        self._gather_cache_bytes = gather_cache_bytes
        self._gather_bytes = 0
        # Serialises gather-cache bookkeeping so concurrent read-only
        # requests (serve-layer handler threads) can share one store.
        self._cache_lock = threading.Lock()

    def _assemble(
        self, table: PropertyFeatureTable, pairs: list[LabeledPair]
    ) -> np.ndarray:
        """Full-width float32 rows for ``pairs``, via the pipeline."""
        pipeline = table.pipeline
        started = perf_counter()
        distance_before = pipeline.stage_seconds.get("name_distance", 0.0)
        matrix = pipeline.pair_matrix(table, pairs, FeatureConfig())
        matrix.setflags(write=False)
        self.timings["name_distances"] = self.timings.get(
            "name_distances", 0.0
        ) + (pipeline.stage_seconds.get("name_distance", 0.0) - distance_before)
        self.timings["build"] = self.timings.get("build", 0.0) + (
            perf_counter() - started
        )
        return matrix

    @property
    def pipeline(self):
        """The :class:`~repro.core.pipeline.FeaturePipeline` rows come from."""
        return self.table.pipeline

    @classmethod
    def build(
        cls,
        dataset: Dataset,
        embeddings,
        universe: PairUniverse | None = None,
        *,
        policy: CandidatePolicy | None = None,
    ) -> "PairFeatureStore":
        """Construct table, universe and store in one step.

        ``policy`` selects the candidate-generation policy when no
        prebuilt ``universe`` is given; ``embeddings`` double as the
        vector source for embedding-bucket policies.
        """
        if universe is None:
            universe = PairUniverse(dataset, policy, embeddings=embeddings)
        table = PropertyFeatureTable(dataset, embeddings)
        return cls(table, universe)

    def serves(self, dataset: Dataset) -> bool:
        """Whether this store was built from ``dataset``'s content."""
        return self.dataset_fingerprint == dataset.fingerprint()

    def _delta_parts(
        self, addition: Dataset
    ) -> tuple[PropertyFeatureTable, PairUniverse, np.ndarray, PairSet]:
        """The PR 5 incremental merge, without touching this store.

        Builds the merged table/universe/matrix beside the current
        state: only the new properties are featurized (the pipeline's
        fingerprint-keyed row cache serves every existing one) and only
        the new candidate pairs are assembled -- existing pair rows are
        copied from the current matrix.  The merged universe inherits
        this store's candidate policy *and* its resolved blocker, so
        under a bucket policy the old properties' sketches are memo
        hits and re-blocking is a bucket lookup plus fresh sketches for
        the new source -- never a new-times-all cross walk.
        Bit-identical to rebuilding the store from scratch on the
        merged dataset under the same policy.
        """
        base = self.universe.dataset
        combined = base.merged_with(addition)
        table = PropertyFeatureTable(
            combined, self.table.pipeline.embeddings, pipeline=self.table.pipeline
        )
        universe = PairUniverse(
            combined,
            self.universe.policy,
            blocker=self.universe._blocker,
        )
        old_universe = self.universe
        width = self.schema.total_width
        matrix = np.empty((len(universe), width), dtype=FEATURE_DTYPE)
        kept_dst: list[int] = []
        kept_src: list[int] = []
        new_rows: list[int] = []
        new_pairs: list[LabeledPair] = []
        for row, pair in enumerate(universe.pairs):
            old_row = old_universe._row_lookup(pair.left, pair.right)
            if old_row is None:
                new_rows.append(row)
                new_pairs.append(pair)
            else:
                kept_dst.append(row)
                kept_src.append(old_row)
        if kept_dst:
            matrix[np.array(kept_dst, dtype=np.intp)] = self.matrix[
                np.array(kept_src, dtype=np.intp)
            ]
        if new_pairs:
            matrix[np.array(new_rows, dtype=np.intp)] = self._assemble(
                table, new_pairs
            )
        matrix.setflags(write=False)
        return table, universe, matrix, PairSet(new_pairs)

    def add_source(self, addition: Dataset) -> PairSet:
        """Ingest a new source incrementally; returns the new pairs.

        ``addition`` must contain only sources the store's dataset does
        not already have.  The store's dataset, universe, table and
        matrix are replaced by merged equivalents via the
        :meth:`_delta_parts` increment.  Mutates *this* store in place
        (the batch-ingestion contract); concurrent readers must use
        :meth:`with_source` instead.
        """
        table, universe, matrix, new_pairs = self._delta_parts(addition)
        self.table = table
        self.matrix = matrix
        self.universe = universe
        self.dataset_fingerprint = universe.dataset_fingerprint
        with self._cache_lock:
            self._gather_cache.clear()
            self._gather_bytes = 0
        return new_pairs

    def with_source(self, addition: Dataset) -> tuple["PairFeatureStore", PairSet]:
        """A *new* store with ``addition`` fused in; this store untouched.

        The copy-on-swap counterpart of :meth:`add_source`: the serve
        layer's graceful reload builds the successor store beside the
        live one (same :meth:`_delta_parts` increment, so the new matrix
        is bit-identical to a cold rebuild on the merged dataset) and
        swaps it in atomically while in-flight requests keep reading the
        old store.  The two stores share the staged pipeline -- and so
        its fingerprint-keyed row cache -- but nothing mutable.
        """
        table, universe, matrix, new_pairs = self._delta_parts(addition)
        store = PairFeatureStore(
            table,
            universe,
            gather_cache_size=self._gather_cache_size,
            gather_cache_bytes=self._gather_cache_bytes,
            matrix=matrix,
        )
        return store, new_pairs

    def _gathered(self, rows: np.ndarray) -> np.ndarray:
        key = rows.tobytes()
        with self._cache_lock:
            cached = self._gather_cache.get(key)
            if cached is not None:
                self._gather_cache.move_to_end(key)
                return cached
        gathered = self.matrix[rows]
        gathered.setflags(write=False)
        with self._cache_lock:
            self._gather_cache[key] = gathered
            self._gather_bytes += gathered.nbytes
            while self._gather_cache and (
                len(self._gather_cache) > self._gather_cache_size
                or self._gather_bytes > self._gather_cache_bytes
            ):
                _, evicted = self._gather_cache.popitem(last=False)
                self._gather_bytes -= evicted.nbytes
        return gathered

    def _covers(
        self, pairs: list[LabeledPair] | list[tuple[PropertyRef, PropertyRef]]
    ) -> bool:
        """Whether every pair has a row in this store's universe."""
        lookup = self.universe._row_lookup
        for pair in pairs:
            left, right = (
                (pair.left, pair.right)
                if isinstance(pair, LabeledPair)
                else pair
            )
            if lookup(left, right) is None:
                return False
        return True

    def features(
        self,
        pairs: list[LabeledPair] | list[tuple[PropertyRef, PropertyRef]] | PairSet,
        config: FeatureConfig,
    ) -> np.ndarray:
        """Feature matrix for ``pairs`` under ``config``.

        Zero-copy whenever the config's blocks are adjacent in the full
        schema (eight of the nine grid cells): the result is a column
        view of the cached row gather.  Under a blocking policy a
        request may include pairs the universe pruned (the incremental
        clusterer scores arbitrary new-vs-existing links); those
        requests are assembled directly from the staged pipeline, which
        yields the same feature values as universe rows would.
        """
        if isinstance(pairs, PairSet):
            pairs = pairs.pairs
        if not pairs:
            return np.zeros((0, self.schema.width(config)), dtype=FEATURE_DTYPE)
        if self.universe.is_blocked and not self._covers(pairs):
            return pair_feature_matrix(self.table, list(pairs), config)
        rows = self.universe.rows_of(pairs)
        columns = self.schema.active_columns(config)
        return self._gathered(rows)[:, columns]

    #: The score phase's gather: the same float32 rows as :meth:`features`
    #: (the classifier upcasts them block by block, exactly), under its
    #: own name so score-phase gathers can be told apart from training
    #: ones when the store is traced.
    scoring_features = features
