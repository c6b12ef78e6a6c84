"""Stateless row-blocked inference is bit-identical to the full-height pass.

``Sequential.predict_proba`` scales and runs the hidden layers block by
block and only the final layer over the full height.  The oracle below
is the inference path it replaced -- upcast and scale the whole matrix,
run every layer's training ``forward`` formula over the full height,
softmax -- written out with those formulas, so a change to the layers
cannot move the oracle along with it.  Every comparison is exact
(``np.array_equal``), not a tolerance.
"""

import numpy as np
import pytest

from repro.core import FeatureConfig, PairFeatureStore
from repro.core.classifier import LeapmeClassifier
from repro.core.config import LeapmeConfig
from repro.nn import network as network_module
from repro.nn.activations import ReLU
from repro.nn.layers import Dense
from repro.nn.schedule import TrainingSchedule

#: Block size for the multi-block cases: the tiny store's 1632 rows make
#: 17 blocks, the last one partial.
SMALL_BLOCK = 100

#: Copies of the tiny store's rows in the tall input.  Past a few
#: thousand rows the BLAS product with the two-column final layer takes
#: a path whose bits differ from a block-sized product, so this is the
#: case that shows the final layer must run over the full height.
TALL_COPIES = 6


def full_height_proba(classifier, features):
    """The pre-blocking inference path: one full-height pass, softmax."""
    state = classifier.fitted_state()
    outputs = np.asarray(features, dtype=np.float64)
    if state.scaler is not None:
        outputs = np.subtract(outputs, state.scaler.mean_)
        outputs /= state.scaler.scale_
    for layer in state.network.layers:
        if isinstance(layer, Dense):
            outputs = outputs @ layer.weights + layer.bias
        elif isinstance(layer, ReLU):
            outputs = np.where(outputs > 0, outputs, 0.0)
        else:  # pragma: no cover - the LEAPME network has no other layers
            raise TypeError(f"oracle has no formula for {type(layer).__name__}")
    shifted = outputs - outputs.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


@pytest.fixture(scope="module")
def store(tiny_headphones, tiny_embeddings):
    return PairFeatureStore.build(tiny_headphones, tiny_embeddings)


@pytest.fixture(scope="module")
def fitted(store):
    """One briefly trained classifier per grid config, with its features."""
    pairs = store.universe.pairs
    labels = np.array([int(pair.label) for pair in pairs])
    train = np.random.default_rng(7).choice(len(pairs), 400, replace=False)
    config = LeapmeConfig(schedule=TrainingSchedule.constant(2, 1e-3))
    models = {}
    for feature_config in FeatureConfig.grid():
        features = store.features(pairs, feature_config)
        classifier = LeapmeClassifier(config).fit(features[train], labels[train])
        models[feature_config.label()] = (classifier, features)
    return models


def blocked_scores(classifier, features):
    state = classifier.fitted_state()
    return state.network.predict_proba(features, scaler=state.scaler)


@pytest.mark.parametrize(
    "label", [config.label() for config in FeatureConfig.grid()]
)
class TestNineConfigs:
    def test_tall_input_at_the_default_block(self, fitted, label):
        classifier, features = fitted[label]
        features = np.tile(features, (TALL_COPIES, 1))
        rows, block = len(features), network_module.INFERENCE_BLOCK_ROWS
        assert rows > 2 * block and rows % block > 1
        assert np.array_equal(
            blocked_scores(classifier, features),
            full_height_proba(classifier, features),
        )

    def test_many_blocks_ending_in_a_partial_one(self, fitted, label, monkeypatch):
        classifier, features = fitted[label]
        assert len(features) % SMALL_BLOCK not in (0, 1)
        monkeypatch.setattr(network_module, "INFERENCE_BLOCK_ROWS", SMALL_BLOCK)
        assert np.array_equal(
            blocked_scores(classifier, features),
            full_height_proba(classifier, features),
        )

    def test_match_scores_is_the_positive_column(self, fitted, label, monkeypatch):
        classifier, features = fitted[label]
        monkeypatch.setattr(network_module, "INFERENCE_BLOCK_ROWS", SMALL_BLOCK)
        assert np.array_equal(
            classifier.match_scores(features),
            full_height_proba(classifier, features)[:, 1],
        )


class TestBlockEdges:
    @pytest.fixture()
    def model(self, fitted, monkeypatch):
        monkeypatch.setattr(network_module, "INFERENCE_BLOCK_ROWS", SMALL_BLOCK)
        return fitted["both/both"]

    @pytest.mark.parametrize(
        "rows",
        [
            0,
            1,
            2,
            SMALL_BLOCK - 1,
            SMALL_BLOCK,
            SMALL_BLOCK + 1,
            3 * SMALL_BLOCK,
            3 * SMALL_BLOCK + 1,
            3 * SMALL_BLOCK + 2,
        ],
    )
    def test_row_counts(self, model, rows):
        classifier, features = model
        subset = features[:rows]
        scores = blocked_scores(classifier, subset)
        assert scores.shape == (rows, 2)
        assert np.array_equal(scores, full_height_proba(classifier, subset))

    def test_float32_and_float64_inputs_agree(self, model):
        classifier, features = model
        assert features.dtype == np.float32
        assert np.array_equal(
            blocked_scores(classifier, features),
            blocked_scores(classifier, features.astype(np.float64)),
        )

    def test_block_bounds(self):
        bounds = network_module._block_bounds
        assert bounds(0, 4) == [0, 0]
        assert bounds(1, 4) == [0, 1]
        assert bounds(4, 4) == [0, 4]
        assert bounds(5, 4) == [0, 5]
        assert bounds(6, 4) == [0, 4, 6]
        assert bounds(9, 4) == [0, 4, 9]
        assert bounds(10, 4) == [0, 4, 8, 10]


def test_relu_infer_matches_the_where_formula_bit_for_bit():
    values = np.array(
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.5, -1.5]
    )
    inputs = np.tile(values, (3, 7))
    expected = np.where(inputs > 0, inputs, 0.0)
    assert np.array_equal(
        ReLU().infer(inputs).view(np.int64), expected.view(np.int64)
    )
