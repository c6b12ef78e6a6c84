"""Elementwise activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer


class ReLU(Layer):
    """Rectified linear unit, the hidden activation used by LEAPME."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def infer(self, inputs: np.ndarray) -> np.ndarray:
        # Bit for bit ``np.where(inputs > 0, inputs, 0.0)`` at a fraction
        # of its cost: fmax maps NaN and negatives to a zero, and adding
        # +0.0 turns a -0.0 into +0.0 while leaving every other value as is.
        outputs = np.fmax(inputs, 0.0)
        outputs += 0.0
        return outputs

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = inputs > 0
        return self.infer(inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._mask


class Sigmoid(Layer):
    """Logistic sigmoid."""

    def __init__(self) -> None:
        self._outputs: np.ndarray | None = None

    def infer(self, inputs: np.ndarray) -> np.ndarray:
        # Numerically stable piecewise formulation.
        out = np.empty_like(inputs, dtype=np.float64)
        positive = inputs >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-inputs[positive]))
        exp_x = np.exp(inputs[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
        return out

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        self._outputs = self.infer(inputs)
        return self._outputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        out = self._outputs
        return grad_output * out * (1.0 - out)


class Tanh(Layer):
    """Hyperbolic tangent."""

    def __init__(self) -> None:
        self._outputs: np.ndarray | None = None

    def infer(self, inputs: np.ndarray) -> np.ndarray:
        return np.tanh(inputs)

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        self._outputs = self.infer(inputs)
        return self._outputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * (1.0 - self._outputs**2)
