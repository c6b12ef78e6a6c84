"""GloVe-style embedding training: PPMI weighting + truncated SVD.

GloVe factorises a log-co-occurrence matrix; the count-based classic that
approximates the same geometry is the truncated SVD of the positive
pointwise-mutual-information (PPMI) matrix (Levy & Goldberg, 2014, showed
the two families are near-equivalent).  Using PPMI+SVD keeps training exact,
deterministic and fast in scipy, which matters for a reproducible test
suite -- the downstream matcher only needs the *geometry* (synonyms close,
non-synonyms far), not GloVe's specific loss.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.embeddings.base import WordEmbeddings
from repro.embeddings.cooccurrence import CooccurrenceCounts
from repro.errors import ConfigurationError, DimensionError

if TYPE_CHECKING:  # pragma: no cover - scipy is imported where it is used
    from scipy import sparse


def ppmi_matrix(counts: sparse.csr_matrix, shift: float = 0.0) -> sparse.csr_matrix:
    """Positive (shifted) PMI transform of a co-occurrence matrix.

    ``pmi(w, c) = log(#(w,c) * total / (#(w) * #(c)))`` clipped at zero,
    optionally shifted by ``log(k)`` to emulate negative sampling with
    ``k`` negatives (pass ``shift=log(k)``).
    """
    if counts.shape[0] != counts.shape[1]:
        raise DimensionError(f"co-occurrence matrix must be square, got {counts.shape}")
    from scipy import sparse

    coo = counts.tocoo()
    total = coo.data.sum()
    if total == 0:
        return sparse.csr_matrix(counts.shape, dtype=np.float64)
    row_sums = np.asarray(counts.sum(axis=1)).ravel()
    col_sums = np.asarray(counts.sum(axis=0)).ravel()
    with np.errstate(divide="ignore"):
        pmi = np.log(coo.data * total / (row_sums[coo.row] * col_sums[coo.col]))
    pmi -= shift
    keep = pmi > 0
    return sparse.csr_matrix(
        (pmi[keep], (coo.row[keep], coo.col[keep])), shape=counts.shape
    )


def train_glove_like(
    counts: CooccurrenceCounts,
    dimension: int = 300,
    shift: float = 0.0,
    eigenvalue_power: float = 0.5,
    anisotropy: float = 0.0,
    seed: int = 0,
) -> WordEmbeddings:
    """Train embeddings from co-occurrence counts via PPMI + truncated SVD.

    Parameters
    ----------
    counts:
        Output of :func:`repro.embeddings.cooccurrence.build_cooccurrence`.
    dimension:
        Embedding dimensionality.  Capped at ``vocab_size - 1`` (an svds
        requirement); rows are zero-padded back up to ``dimension`` so the
        caller always receives the dimensionality it asked for, matching the
        fixed 300-d feature layout of the paper.
    shift:
        PPMI shift (``log k``), 0 for plain PPMI.
    eigenvalue_power:
        Power applied to the singular values when forming word vectors;
        0.5 (symmetric split) is the standard choice that best matches
        GloVe geometry.
    anisotropy:
        Strength of the common component added to every word vector.
        Published embeddings are strongly anisotropic -- all vectors share
        a dominant "common discourse" direction (Arora et al., 2017), so
        the cosine of two *unrelated* words sits around
        ``anisotropy^2 / (1 + anisotropy^2)`` instead of 0.  Training
        SVD on a clean synthetic corpus yields isotropic vectors; this
        parameter restores the realistic noise floor.  0 disables it.
    seed:
        Seed for the svds starting vector, making training deterministic.
    """
    if dimension < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
    vocab_size = len(counts.vocabulary)
    if vocab_size == 0:
        raise ConfigurationError("cannot train embeddings on an empty vocabulary")
    matrix = ppmi_matrix(counts.matrix, shift=shift)
    rank = min(dimension, vocab_size - 1)
    if rank < 1 or matrix.nnz == 0:
        vectors = np.zeros((vocab_size, dimension))
        return WordEmbeddings(counts.vocabulary, vectors)
    from scipy.sparse.linalg import svds

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(vocab_size)
    u, s, _ = svds(matrix.astype(np.float64), k=rank, v0=v0)
    # svds returns singular values in ascending order; flip to descending.
    order = np.argsort(s)[::-1]
    u, s = u[:, order], s[order]
    vectors = u * (s ** eigenvalue_power)
    # Fix the sign convention so training is fully deterministic: make the
    # largest-magnitude entry of every component positive.
    for j in range(vectors.shape[1]):
        column = vectors[:, j]
        pivot = np.argmax(np.abs(column))
        if column[pivot] < 0:
            vectors[:, j] = -column
    if vectors.shape[1] < dimension:
        pad = np.zeros((vocab_size, dimension - vectors.shape[1]))
        vectors = np.hstack([vectors, pad])
    if anisotropy > 0.0:
        norms = np.linalg.norm(vectors, axis=1)
        mean_norm = float(norms[norms > 0].mean()) if (norms > 0).any() else 1.0
        common = np.ones(dimension) / np.sqrt(dimension)
        vectors = vectors + anisotropy * mean_norm * common
    return WordEmbeddings(counts.vocabulary, vectors)
