"""Exactness of shared state under real thread contention.

These are the behavioural twins of the analyzer's REP012 findings: the
breaker counter and the admission totals are incremented from handler
threads, so their values must be *exact* -- a lost update here is the
race the lock regions exist to prevent.  Likewise a tenant's fitted
network is shared by every request thread, so inference must leave its
layers exactly as it found them.
"""

import json
import sys
import threading

import numpy as np

from repro.core.classifier import LeapmeClassifier
from repro.core.config import LeapmeConfig
from repro.nn.schedule import TrainingSchedule

from tests.serve.conftest import make_registry, make_spec, request
from tests.serve.test_http import create_tenant


def hammer(n_threads, work):
    """Run ``work(index)`` on N threads through a start barrier."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def runner(index):
        barrier.wait(timeout=10.0)
        try:
            work(index)
        except BaseException as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=runner, args=(index,))
        for index in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert errors == []
    assert not any(thread.is_alive() for thread in threads)


class TestBreakerCounterExactness:
    def test_concurrent_failures_count_exactly(self, tmp_path):
        # Threshold far above the traffic: every increment must land.
        registry = make_registry(tmp_path, breaker_threshold=10_000)
        registry.create(make_spec(tmp_path))
        n_threads, per_thread = 8, 25

        def work(_index):
            for _ in range(per_thread):
                registry.record_failure("t1", ValueError("boom"))

        hammer(n_threads, work)
        summary = registry.tenant_summaries()["t1"]
        assert summary["failures"] == n_threads * per_thread
        assert summary["status"] == "ready"

    def test_breaker_opens_exactly_once_at_threshold(self, tmp_path):
        registry = make_registry(tmp_path, breaker_threshold=8)
        registry.create(make_spec(tmp_path))
        opened = []

        def work(_index):
            if registry.record_failure("t1", ValueError("boom")):
                opened.append(True)

        hammer(16, work)
        assert len(opened) == 1
        summary = registry.tenant_summaries()["t1"]
        assert summary["status"] == "quarantined"
        # The journal saw exactly one quarantine record for the tenant.
        events = [
            event
            for event in registry.journal.events()
            if event.status == "quarantined"
        ]
        assert len(events) == 1

    def test_success_resets_between_contending_failures(self, tmp_path):
        registry = make_registry(tmp_path, breaker_threshold=10_000)
        registry.create(make_spec(tmp_path))

        def work(index):
            for _ in range(10):
                registry.record_failure("t1", ValueError("boom"))
        hammer(4, work)
        registry.record_success("t1")
        assert registry.tenant_summaries()["t1"]["failures"] == 0


class TestStatzExactTotals:
    def test_concurrent_clients_yield_exact_admission_totals(
        self, service, tmp_path
    ):
        create_tenant(service, tmp_path)
        baseline = json.loads(request(service, "GET", "/statz")[2])
        before = baseline["admission"]
        n_threads, per_thread = 6, 4
        statuses = []
        record = statuses.append
        lock = threading.Lock()

        def work(_index):
            for _ in range(per_thread):
                status, _, _ = request(service, "POST", "/tenants/t1/match")
                with lock:
                    record(status)

        hammer(n_threads, work)
        assert statuses == [200] * (n_threads * per_thread)
        after = json.loads(request(service, "GET", "/statz")[2])["admission"]
        total = n_threads * per_thread
        assert after["admitted"] == before["admitted"] + total
        assert after["completed"] == before["completed"] + total
        assert after["active"] == 0 and after["waiting"] == 0

    def test_failure_free_traffic_leaves_counter_at_zero(
        self, service, tmp_path
    ):
        create_tenant(service, tmp_path)

        def work(_index):
            status, _, _ = request(service, "POST", "/tenants/t1/match")
            assert status == 200

        hammer(6, work)
        tenants = json.loads(request(service, "GET", "/statz")[2])["tenants"]
        assert tenants["t1"]["failures"] == 0


def layer_attributes(network):
    """A shallow snapshot of every layer's attributes."""
    return [dict(vars(layer)) for layer in network.layers]


def assert_layers_untouched(network, snapshot):
    """No layer attribute was added, dropped or rebound."""
    for layer, attributes in zip(network.layers, snapshot):
        assert vars(layer).keys() == attributes.keys()
        for name, value in attributes.items():
            assert vars(layer)[name] is value, (type(layer).__name__, name)


class TestSharedNetworkInference:
    def test_threads_scoring_one_classifier_match_serial(self):
        rng = np.random.default_rng(3)
        features = rng.random((5000, 12), dtype=np.float32)
        labels = (features[:, 0] > features[:, 1]).astype(np.int64)
        classifier = LeapmeClassifier(
            LeapmeConfig(schedule=TrainingSchedule.constant(2, 1e-3))
        ).fit(features[:600], labels[:600])
        network = classifier.fitted_state().network
        serial = classifier.match_scores(features)
        snapshot = layer_attributes(network)
        results = [None] * 8

        def work(index):
            for _ in range(3):
                results[index] = classifier.match_scores(features)

        # Switch threads often, so the eight scorers interleave inside
        # each other's blocks.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            hammer(8, work)
        finally:
            sys.setswitchinterval(interval)
        for scores in results:
            assert np.array_equal(scores, serial)
        assert_layers_untouched(network, snapshot)

    def test_match_keeps_no_request_matrix_on_the_tenant(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path, system="leapme"))
        matcher = registry.get("t1").state.matcher
        network = matcher.classifier.fitted_state().network
        snapshot = layer_attributes(network)
        bodies = [None] * 8

        def work(index):
            bodies[index] = registry.match_payload("t1")

        hammer(8, work)
        assert all(body == bodies[0] for body in bodies)
        # The layers hold exactly what training left there: no request
        # rebinds an attribute, so none keeps its matrix alive.
        assert_layers_untouched(network, snapshot)
