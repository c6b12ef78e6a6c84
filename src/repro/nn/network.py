"""The :class:`Sequential` network with mini-batch training.

Mirrors the small slice of Keras the paper uses: stack Dense/activation
layers, train with mini-batches under a phased learning-rate schedule,
read out class probabilities from the softmax head.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, DimensionError, NotFittedError
from repro.nn.guards import assert_finite, check_loss
from repro.nn.layers import Layer
from repro.nn.losses import SoftmaxCrossEntropy, softmax
from repro.nn.optimizers import Adam, Optimizer
from repro.nn.schedule import TrainingSchedule

#: Rows per block in :meth:`Sequential.predict_proba`: the hidden layers'
#: temporaries for one block stay cache-sized instead of scaling with
#: the scored matrix.
INFERENCE_BLOCK_ROWS = 1024


@dataclass
class TrainingHistory:
    """Per-epoch training diagnostics collected by :meth:`Sequential.fit`."""

    losses: list[float] = field(default_factory=list)
    learning_rates: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.losses)


class Sequential:
    """An ordered stack of layers with a softmax-cross-entropy head."""

    def __init__(self, layers: list[Layer]) -> None:
        if not layers:
            raise ConfigurationError("network must contain at least one layer")
        self.layers = list(layers)
        self._loss = SoftmaxCrossEntropy()
        self._fitted = False

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Run all layers, caching what backward needs; returns the raw logits.

        The training pass: it writes layer state, so it is not for
        inference on a shared network (see :meth:`predict_proba`).
        """
        outputs = np.asarray(inputs, dtype=np.float64)
        for layer in self.layers:
            outputs = layer.forward(outputs, training=training)  # repro: noqa[REP012] training only: fit runs it on a network no other thread holds yet
        return outputs

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Back-propagate through all layers; returns the input gradient."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> list[np.ndarray]:
        """All trainable arrays, in layer order."""
        params: list[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def gradients(self) -> list[np.ndarray]:
        """All gradient arrays, aligned with :meth:`parameters`."""
        grads: list[np.ndarray] = []
        for layer in self.layers:
            grads.extend(layer.gradients())
        return grads

    def fit(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        schedule: TrainingSchedule,
        batch_size: int = 32,
        optimizer: Optimizer | None = None,
        rng: np.random.Generator | None = None,
        shuffle: bool = True,
    ) -> TrainingHistory:
        """Train with mini-batch gradient descent under a phase schedule.

        Parameters
        ----------
        inputs, labels:
            Training matrix ``(n, features)`` and integer class labels
            ``(n,)``.
        schedule:
            Epoch/learning-rate phases; the optimiser's learning rate is
            reassigned at each phase boundary (state such as Adam moments
            is kept, matching how Keras handles ``lr`` changes).
        batch_size:
            Mini-batch size (the paper uses 32).
        optimizer:
            Defaults to :class:`Adam`, Keras's conventional choice.
        rng:
            Source of shuffling randomness; pass a seeded generator for
            reproducible training.

        Raises
        ------
        NumericError
            If ``inputs`` contains NaN/Inf values.
        TrainingDivergedError
            If any epoch's mean loss becomes non-finite.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        assert_finite(inputs, "training inputs")
        labels = np.asarray(labels, dtype=np.int64)
        if inputs.ndim != 2:
            raise ConfigurationError(f"inputs must be 2-D, got shape {inputs.shape}")
        if len(inputs) != len(labels):
            raise ConfigurationError(
                f"inputs ({len(inputs)}) and labels ({len(labels)}) disagree"
            )
        if len(inputs) == 0:
            raise ConfigurationError("cannot fit on an empty training set")
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        optimizer = optimizer if optimizer is not None else Adam()
        rng = rng if rng is not None else np.random.default_rng(0)
        history = TrainingHistory()
        n = len(inputs)
        for learning_rate in schedule.epoch_rates():
            optimizer.learning_rate = learning_rate
            order = rng.permutation(n) if shuffle else np.arange(n)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, n, batch_size):
                batch = order[start : start + batch_size]
                logits = self.forward(inputs[batch], training=True)
                loss = self._loss.forward(logits, labels[batch])
                self.backward(self._loss.backward())
                optimizer.step(self.parameters(), self.gradients())
                epoch_loss += loss
                batches += 1
            history.losses.append(check_loss(epoch_loss / batches, len(history.losses)))
            history.learning_rates.append(learning_rate)
        self._fitted = True
        return history

    def predict_proba(self, inputs: np.ndarray, scaler=None) -> np.ndarray:
        """Class probabilities ``(n, classes)`` from the softmax head.

        The stateless inference path: every layer runs its pure
        :meth:`~repro.nn.layers.Layer.infer`, so threads may share one
        fitted network.  ``inputs`` (float32 or float64) are walked in
        blocks of :data:`INFERENCE_BLOCK_ROWS` rows; each block is
        upcast, passed through ``scaler.transform`` when a scaler is
        given, and through every hidden layer into one preallocated
        buffer of last-hidden activations.  The final layer and the
        softmax then run once over the full height: the BLAS result of
        a narrow product can change bits with the row count, so only
        the hidden layers are blocked, which keeps the output
        bit-identical to scaling and forwarding the whole matrix at once.
        """
        if not self._fitted:
            raise NotFittedError("network has not been trained; call fit() first")
        inputs = np.asarray(inputs)
        if inputs.ndim != 2:
            raise DimensionError(f"inputs must be 2-D, got shape {inputs.shape}")
        rows = len(inputs)
        bounds = _block_bounds(rows, INFERENCE_BLOCK_ROWS)
        hidden = None
        for start, stop in zip(bounds, bounds[1:]):
            block = self._hidden_infer(inputs[start:stop], scaler)
            if hidden is None:
                if stop == rows:
                    hidden = block
                    break
                hidden = np.empty((rows, block.shape[1]))
            hidden[start:stop] = block
        return softmax(self.layers[-1].infer(hidden))

    def _hidden_infer(self, block: np.ndarray, scaler) -> np.ndarray:
        """One block through the optional scaler and every hidden layer."""
        if scaler is not None:
            block = scaler.transform(block)
        else:
            block = np.asarray(block, dtype=np.float64)
        for layer in self.layers[:-1]:
            block = layer.infer(block)
        return block

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Hard class predictions ``(n,)``."""
        return self.predict_proba(inputs).argmax(axis=1)

    def num_parameters(self) -> int:
        """Total count of trainable scalars."""
        return sum(p.size for p in self.parameters())


def _block_bounds(rows: int, step: int) -> list[int]:
    """Row boundaries of the inference blocks: ``[0, step, 2*step, ..., rows]``.

    A one-row tail joins the block before it: NumPy multiplies a
    one-row matrix with a matrix-vector routine whose summation order
    differs from the matrix-matrix one, so a lone last row would not be
    bit-identical to the same row scored inside a taller matrix.  Zero
    rows make one empty block, so the output still has its class width.
    """
    bounds = list(range(0, max(rows, 1), step)) + [rows]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return bounds
