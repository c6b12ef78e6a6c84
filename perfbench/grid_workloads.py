"""Grid workloads: rounds of ``ExperimentRunner.run`` over a fixed dataset.

The dataset is generated with seed 0 and the runner's train-source
splits come from ``SPLIT_SEED``, so every run does the same amount of
work; ``--seed`` seeds the classifier (weight initialisation and batch
shuffling), which changes the fitted networks but not their cost.
Varying the splits instead would change the training-set sizes, and
with them the cost of a run, by more than the bounds allow.

One *round* is one full ``ExperimentRunner.run`` call over the nine
feature configs at one train fraction; rounds cycle through the
fractions until ``--seconds`` have passed, and every round must
reproduce the aggregates of the first round at its fraction exactly.
A pass over every fraction is estimated as the sum of the per-fraction
median round times: short rounds give a run many samples, so a stall of
the shared host moves few of them and the medians not at all.
"""

from __future__ import annotations

import json
import shutil
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

SPLIT_SEED = 0
DATASET = "cameras"
REPETITIONS = 1
WORKERS = 2
#: Feature configs per round (``FeatureConfig.grid()``).
CONFIGS = 9


@dataclass(frozen=True)
class GridPlan:
    scale: str
    #: Train fractions whose effective train-source counts differ at ``scale``.
    fractions: tuple[float, ...]


PLAN = GridPlan("small", (0.1, 0.2))
#: The tiny-scale variant for the benchmark's own tests.
SMOKE_PLAN = GridPlan("tiny", (0.2, 0.6))


def true_heldout_pairs(dataset, train_sources) -> int:
    """True matches with at least one property outside ``train_sources``.

    Counted from the alignment alone: per reference property, the
    cross-source pairs of all its properties minus those of its
    training-source properties.
    """
    per_reference: dict[str, Counter] = defaultdict(Counter)
    for ref, reference in dataset.alignment.items():
        per_reference[reference][ref.source] += 1
    train = set(train_sources)

    def cross_pairs(counts) -> int:
        total = sum(counts)
        return (total * total - sum(c * c for c in counts)) // 2

    return sum(
        cross_pairs(by_source.values())
        - cross_pairs([n for source, n in by_source.items() if source in train])
        for by_source in per_reference.values()
    )


class GridWorkload:
    """One grid workload: set-up, timed rounds, correctness gates."""

    workers = WORKERS

    def __init__(self, plan: GridPlan, seed: int, workdir: Path) -> None:
        self.plan = plan
        self.seed = seed
        self.workdir = workdir
        self.dataset = None
        self.embeddings = None
        self.rounds: list[dict] = []
        self.effective_train_sources: dict[float, list[int]] = {}
        self._journals = 0
        #: Called before each round, outside its timing (the host-speed probe).
        self.idle = lambda: None

    @property
    def cells(self) -> int:
        """Cells of one pass over every fraction."""
        return CONFIGS * len(self.plan.fractions)

    def setup(self) -> None:
        """Generate the dataset, train embeddings, fill the distance memo."""
        from repro.core import pipeline
        from repro.core.feature_cache import PairUniverse
        from repro.datasets import build_domain_embeddings, load_dataset
        from repro.datasets.registry import clear_embedding_cache

        clear_embedding_cache()
        pipeline.clear_distance_memo()
        self.dataset = load_dataset(DATASET, scale=self.plan.scale, seed=0)
        self.embeddings = build_domain_embeddings(DATASET, scale=self.plan.scale)
        universe = PairUniverse(self.dataset)
        pipeline.name_distance_block(
            [(pair.left.name, pair.right.name) for pair in universe.pairs]
        )

    def close(self) -> None:
        self.dataset = self.embeddings = None

    abort = close

    def measure(self, seconds: float | None = None, operations: int | None = None) -> dict:
        """Run rounds until ``seconds`` pass (or exactly ``operations`` rounds).

        Rounds cycle through the plan's fractions; at least one round per
        fraction runs whatever ``seconds`` says.
        """
        from repro.core import FeatureConfig, LeapmeConfig, LeapmeMatcher
        from repro.evaluation import ExperimentRunner, RunJournal

        embeddings = self.embeddings
        network = LeapmeConfig(seed=self.seed)
        runner = ExperimentRunner(
            {
                config.label(): (
                    lambda config=config: LeapmeMatcher(
                        embeddings, config, config=network
                    )
                )
                for config in FeatureConfig.grid()
            }
        )
        fractions = self.plan.fractions
        self.rounds = []
        started = perf_counter()
        while True:
            fraction = fractions[len(self.rounds) % len(fractions)]
            self.idle()
            self._journals += 1
            journal_dir = self.workdir / f"journal-{self._journals}"
            journal = RunJournal(journal_dir / "grid.journal")
            round_started = perf_counter()
            results = runner.run(
                [self.dataset],
                train_fractions=(fraction,),
                repetitions=REPETITIONS,
                seed=SPLIT_SEED,
                workers=WORKERS,
                share_features=True,
                journal=journal,
            )
            self.rounds.append(
                {
                    "fraction": fraction,
                    "seconds": perf_counter() - round_started,
                    "results": results,
                    "journal": journal_dir,
                }
            )
            elapsed = perf_counter() - started
            if operations is not None:
                if len(self.rounds) >= operations:
                    break
            elif elapsed >= seconds and len(self.rounds) >= len(fractions):
                break
        per_fraction = {
            fraction: [
                entry["seconds"] for entry in self.rounds if entry["fraction"] == fraction
            ]
            for fraction in fractions
        }
        pass_seconds = sum(
            statistics.median(values) for values in per_fraction.values() if values
        )
        fits = sum(
            len(result.qualities) for entry in self.rounds for result in entry["results"]
        )
        not_run = sum(
            result.skipped_repetitions
            for entry in self.rounds
            for result in entry["results"]
        )
        first = [
            result
            for fraction in fractions
            for entry in self.rounds[: len(fractions)]
            if entry["fraction"] == fraction
            for result in entry["results"]
        ]
        return {
            "wall_s": elapsed,
            "operations": len(self.rounds),
            "completed": fits,
            "ops_per_s": self.cells * REPETITIONS / pass_seconds,
            "latency_ms": pass_seconds * 1000,
            "samples": len(self.rounds),
            "attempted": len(self.rounds) * CONFIGS * REPETITIONS,
            "failed": not_run,
            "f1_mean": sum(result.f1 for result in first) / len(first),
            "details": {
                "cells": self.cells,
                "repetitions_per_cell": REPETITIONS,
                "rounds": len(self.rounds),
                "round_ms": {
                    str(fraction): [round(value * 1000, 1) for value in values]
                    for fraction, values in per_fraction.items()
                },
            },
        }

    def check(self) -> list[str]:
        """Correctness gates over every round; returns the problems found."""
        from repro.data.splits import repeated_source_splits

        problems: list[str] = []
        reps = REPETITIONS
        expected_true: dict[float, list[int]] = {}
        self.effective_train_sources = {}
        for fraction in self.plan.fractions:
            splits = list(
                repeated_source_splits(self.dataset, fraction, reps, SPLIT_SEED)
            )
            self.effective_train_sources[fraction] = [
                len(split.train_sources) for split in splits
            ]
            expected_true[fraction] = [
                true_heldout_pairs(self.dataset, split.train_sources)
                for split in splits
            ]
        counts = {
            fraction: set(values)
            for fraction, values in self.effective_train_sources.items()
        }
        fractions = list(counts)
        for i, first in enumerate(fractions):
            for second in fractions[i + 1 :]:
                if counts[first] & counts[second]:
                    problems.append(
                        f"train fractions {first} and {second} give the same "
                        f"effective train-source count {sorted(counts[first] & counts[second])}"
                    )

        reference: dict[float, list] = {}
        for index, entry in enumerate(self.rounds):
            results = entry["results"]
            if len(results) != CONFIGS or any(
                result.settings.train_fraction != entry["fraction"] for result in results
            ):
                problems.append(
                    f"round {index}: {len(results)} cells, expected {CONFIGS} "
                    f"at train fraction {entry['fraction']}"
                )
            aggregate = []
            for result in results:
                cell = f"round {index} {result.matcher_name}@{result.settings.train_fraction}"
                done = len(result.qualities) + result.skipped_repetitions
                if done != reps:
                    problems.append(f"{cell}: {done} repetitions accounted, expected {reps}")
                if result.skipped_repetitions == 0:
                    for repetition, quality in enumerate(result.qualities):
                        truth = expected_true[result.settings.train_fraction][repetition]
                        found = quality.true_positives + quality.false_negatives
                        if found != truth:
                            problems.append(
                                f"{cell} rep {repetition}: TP+FN={found}, "
                                f"{truth} true held-out pairs"
                            )
                aggregate.append(
                    (
                        result.matcher_name,
                        result.settings.train_fraction,
                        [
                            (q.true_positives, q.false_positives, q.false_negatives)
                            for q in result.qualities
                        ],
                        result.skipped_repetitions,
                    )
                )
            if aggregate != reference.setdefault(entry["fraction"], aggregate):
                problems.append(
                    f"round {index}: aggregates differ from the first round "
                    f"at train fraction {entry['fraction']}"
                )
            # Raw lines, not the latest-record-wins view, so that a
            # duplicated append shows as well as a dropped one.
            lines = (entry["journal"] / "grid.journal").read_text().splitlines()
            records = [json.loads(line) for line in lines[1:]]
            slots = {(record["key"], record["repetition"]) for record in records}
            if len(records) != CONFIGS * reps or len(slots) != len(records):
                problems.append(
                    f"round {index}: journal holds {len(records)} records for "
                    f"{len(slots)} (cell, repetition) slots, expected "
                    f"{CONFIGS * reps} of each"
                )
            shutil.rmtree(entry["journal"], ignore_errors=True)
        return problems
