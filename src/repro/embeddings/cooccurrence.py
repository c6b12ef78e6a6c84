"""Windowed word co-occurrence counting over a tokenised corpus.

This is the statistics-gathering half of GloVe: for every pair of words
appearing within ``window`` tokens of each other we accumulate a weight of
``1 / distance``, the same harmonic weighting GloVe uses.  Counts are stored
in a scipy CSR matrix so even large synthetic corpora stay cheap.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.embeddings.vocab import Vocabulary
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - scipy is imported where it is used
    from scipy import sparse


@dataclass(frozen=True)
class CooccurrenceCounts:
    """Symmetric co-occurrence matrix plus the vocabulary indexing it."""

    vocabulary: Vocabulary
    matrix: sparse.csr_matrix

    @property
    def nnz(self) -> int:
        """Number of stored (non-zero) co-occurrence cells."""
        return self.matrix.nnz

    def count(self, a: str, b: str) -> float:
        """Co-occurrence weight between two words (0 when either is unknown)."""
        ia = self.vocabulary.get(a.lower())
        ib = self.vocabulary.get(b.lower())
        if ia is None or ib is None:
            return 0.0
        return float(self.matrix[ia, ib])


def build_cooccurrence(
    sentences: Iterable[list[str]],
    vocabulary: Vocabulary | None = None,
    window: int = 4,
) -> CooccurrenceCounts:
    """Count harmonic-weighted co-occurrences within ``window`` tokens.

    Parameters
    ----------
    sentences:
        Tokenised sentences; tokens are lower-cased before counting.
    vocabulary:
        Optional pre-built vocabulary.  When omitted, one is built from the
        sentences themselves (frequency-ordered).  Tokens missing from an
        explicit vocabulary are skipped.
    window:
        Maximum distance between co-occurring tokens.
    """
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    from scipy import sparse

    materialized = [[token.lower() for token in sentence] for sentence in sentences]
    if vocabulary is None:
        vocabulary = Vocabulary.from_corpus(materialized)
    size = len(vocabulary)
    accumulator: dict[tuple[int, int], float] = {}
    for sentence in materialized:
        ids = [vocabulary.get(token) for token in sentence]
        for position, center in enumerate(ids):
            if center is None:
                continue
            upper = min(len(ids), position + window + 1)
            for offset in range(position + 1, upper):
                context = ids[offset]
                if context is None:
                    continue
                weight = 1.0 / (offset - position)
                accumulator[(center, context)] = (
                    accumulator.get((center, context), 0.0) + weight
                )
                accumulator[(context, center)] = (
                    accumulator.get((context, center), 0.0) + weight
                )
    if accumulator:
        keys = np.array(list(accumulator.keys()), dtype=np.int64)
        values = np.array(list(accumulator.values()), dtype=np.float64)
        matrix = sparse.csr_matrix(
            (values, (keys[:, 0], keys[:, 1])), shape=(size, size)
        )
    else:
        matrix = sparse.csr_matrix((size, size), dtype=np.float64)
    return CooccurrenceCounts(vocabulary=vocabulary, matrix=matrix)
