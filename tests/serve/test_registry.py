"""Tenant registry: bootstrap, copy-on-swap reload, breaker, warm restart."""

import json

import numpy as np
import pytest

from repro.data.model import PropertyRef
from repro.errors import (
    ConfigurationError,
    DataError,
    ReproError,
    TenantQuarantinedError,
)
from repro.serve import TenantRegistry, TenantSpec
from repro.testing import write_poison_csv
from repro.serve.journal import REASON_CIRCUIT_OPEN, REASON_POISON_TENANT

from tests.serve.conftest import (
    make_registry,
    make_spec,
    match_body,
    write_extra_source,
)


class TestSpec:
    def test_needs_exactly_one_input(self):
        with pytest.raises(ConfigurationError):
            TenantSpec(tenant="t", dataset="d", instances="x.csv")
        with pytest.raises(ConfigurationError):
            TenantSpec(tenant="t")

    def test_tenant_id_must_be_slash_free(self):
        with pytest.raises(ConfigurationError):
            TenantSpec(tenant="a/b", dataset="d")

    def test_record_round_trip(self, tmp_path):
        spec = make_spec(tmp_path, system="leapme")
        assert TenantSpec.from_record("t1", spec.to_record()) == spec

    def test_fingerprint_tracks_content(self, tmp_path):
        spec = make_spec(tmp_path)
        before = spec.input_fingerprint()
        with open(spec.instances, "a", encoding="utf-8") as handle:
            handle.write("srcA,weight,e9,99 kg box\n")
        assert spec.input_fingerprint() != before


class TestBootstrap:
    def test_create_warms_and_matches(self, tmp_path):
        registry = make_registry(tmp_path)
        tenant = registry.create(make_spec(tmp_path))
        assert tenant.state is not None
        payload = registry.match_payload("t1")
        assert payload["pairs"] > 0
        assert payload["matches"]
        assert payload == registry.match_payload("t1")

    def test_duplicate_tenant_rejected(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path))
        with pytest.raises(DataError):
            registry.create(make_spec(tmp_path))

    def test_unreadable_inputs_rejected_without_registering(self, tmp_path):
        registry = make_registry(tmp_path)
        spec = TenantSpec(tenant="gone", instances=str(tmp_path / "no.csv"))
        with pytest.raises(DataError, match="cannot read bootstrap inputs"):
            registry.create(spec)
        assert registry.get("gone") is None

    def test_poison_spec_is_quarantined_not_fatal(self, tmp_path):
        registry = make_registry(tmp_path)
        broken = tmp_path / "broken.csv"
        write_poison_csv(broken)
        spec = TenantSpec(tenant="bad", instances=str(broken))
        with pytest.raises(ReproError):
            registry.create(spec)
        tenant = registry.get("bad")
        assert tenant.quarantined
        assert tenant.quarantine.reason == REASON_POISON_TENANT
        assert set(registry.journal.quarantined()) == {"bad"}
        # The registry itself keeps accepting healthy tenants.
        registry.create(make_spec(tmp_path, tenant="good"))
        assert registry.match_payload("good")["matches"]

    def test_supervised_without_positives_is_poison(self, tmp_path):
        registry = make_registry(tmp_path)
        spec = make_spec(
            tmp_path, tenant="nolabels", system="leapme", with_alignment=False
        )
        with pytest.raises(ConfigurationError):
            registry.create(spec)
        assert registry.get("nolabels").quarantined


class TestCopyOnSwapReload:
    def test_add_source_swaps_a_new_snapshot(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path))
        old_state = registry.get("t1").state
        extra = write_extra_source(tmp_path)
        delta = registry.add_source("t1", extra)
        new_state = registry.get("t1").state
        assert new_state is not old_state
        assert old_state.sources == ()
        assert new_state.sources[-1][0] == "extra.csv"
        assert delta["order"] == 1
        assert delta["properties"] == 2
        assert delta["pairs"] > 0
        assert "srcC" in registry.match_payload("t1")["sources"] or (
            registry.match_payload("t1")["sources"] == ["extra.csv"]
        )

    def test_overlapping_source_rejected(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path))
        duplicate = tmp_path / "dupe.csv"
        duplicate.write_text(
            "source,property,entity,value\nsrcA,weight,e0,10 kg box\n"
        )
        with pytest.raises(DataError):
            registry.add_source("t1", duplicate)
        assert registry.get("t1").state.sources == ()

    def test_leapme_delta_reload_matches_cold_rebuild(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path, system="leapme"))
        extra = write_extra_source(tmp_path)
        registry.add_source("t1", extra)
        warm = match_body(registry, "t1")

        cold_dir = tmp_path / "cold"
        cold_dir.mkdir()
        cold = TenantRegistry()
        cold.load()
        cold.create(make_spec(tmp_path, system="leapme"))
        cold.add_source("t1", extra)
        assert match_body(cold, "t1") == warm


class TestBlockedTenants:
    def test_spec_blocking_round_trip(self, tmp_path):
        spec = make_spec(tmp_path, system="leapme", blocking="minhash:seed=7")
        assert TenantSpec.from_record("t1", spec.to_record()) == spec
        assert spec.to_record()["blocking"] == "minhash:seed=7"
        assert spec.policy().label == "minhash:seed=7"

    def test_unblocked_spec_record_has_no_blocking_key(self, tmp_path):
        assert "blocking" not in make_spec(tmp_path).to_record()

    def test_invalid_blocking_label_fails_at_spec_time(self, tmp_path):
        with pytest.raises(ConfigurationError, match="blocking"):
            make_spec(tmp_path, blocking="sorted-neighborhood")

    def test_blocked_tenant_reports_blocking_everywhere(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path, system="leapme", blocking="minhash"))
        payload = registry.match_payload("t1")
        assert payload["blocking"] == "minhash"
        assert payload["matches"]
        entry = registry.tenant_summaries()["t1"]
        assert entry["blocking"] == "minhash"
        assert entry["candidate_pairs"] == payload["pairs"]
        assert entry["candidate_pairs"] < entry["total_cross_pairs"]
        assert 0.0 < entry["reduction_ratio"] <= 1.0

    def test_null_tenant_payload_keeps_pre_blocking_shape(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path, system="leapme"))
        payload = registry.match_payload("t1")
        assert "blocking" not in payload
        entry = registry.tenant_summaries()["t1"]
        assert entry["blocking"] == "null"
        assert "total_cross_pairs" not in entry

    def test_blocked_delta_reload_matches_cold_blocked_rebuild(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path, system="leapme", blocking="minhash"))
        extra = write_extra_source(tmp_path)
        registry.add_source("t1", extra)
        warm = match_body(registry, "t1")

        cold = TenantRegistry()
        cold.load()
        cold.create(make_spec(tmp_path, system="leapme", blocking="minhash"))
        cold.add_source("t1", extra)
        assert match_body(cold, "t1") == warm

    def test_blocked_warm_restart_is_byte_identical(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path, system="leapme", blocking="minhash"))
        extra = write_extra_source(tmp_path)
        registry.add_source("t1", extra)
        before = match_body(registry, "t1")
        restarted = TenantRegistry(registry.journal)
        counts = restarted.load()
        assert counts == {"tenants": 1, "sources": 1, "quarantined": 0}
        assert match_body(restarted, "t1") == before
        assert restarted.match_payload("t1")["blocking"] == "minhash"


class TestBreaker:
    def test_consecutive_failures_quarantine_the_tenant(self, tmp_path):
        registry = make_registry(tmp_path, breaker_threshold=3)
        registry.create(make_spec(tmp_path))
        error = RuntimeError("scorer exploded")
        assert registry.record_failure("t1", error) is False
        assert registry.record_failure("t1", error) is False
        assert registry.record_failure("t1", error) is True
        with pytest.raises(TenantQuarantinedError):
            registry.match_payload("t1")
        event = registry.journal.quarantined()["t1"]
        assert event.reason == REASON_CIRCUIT_OPEN
        assert event.failures == 3

    def test_success_resets_the_failure_count(self, tmp_path):
        registry = make_registry(tmp_path, breaker_threshold=2)
        registry.create(make_spec(tmp_path))
        registry.record_failure("t1", RuntimeError("one"))
        registry.record_success("t1")
        assert registry.record_failure("t1", RuntimeError("two")) is False
        assert not registry.get("t1").quarantined

    def test_quarantine_spares_other_tenants(self, tmp_path):
        registry = make_registry(tmp_path, breaker_threshold=1)
        registry.create(make_spec(tmp_path, tenant="sick"))
        registry.create(make_spec(tmp_path, tenant="healthy"))
        registry.record_failure("sick", RuntimeError("boom"))
        with pytest.raises(TenantQuarantinedError):
            registry.match_payload("sick")
        assert registry.match_payload("healthy")["matches"]


class TestPredict:
    def test_predict_scores_explicit_pairs(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path))
        payload = registry.predict_payload(
            "t1", [["srcA", "weight", "srcB", "wt"]]
        )
        assert len(payload["scores"]) == 1
        assert payload["decisions"] == [True]

    def test_unknown_property_is_a_client_error(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path))
        with pytest.raises(DataError):
            registry.predict_payload("t1", [["srcA", "nope", "srcB", "wt"]])
        with pytest.raises(DataError):
            registry.predict_payload("t1", [["srcA", "weight"]])

    def test_property_index_is_per_snapshot_and_read_only(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path))
        old_state = registry.get("t1").state
        index = old_state.property_index
        assert set(index) == {
            (ref.source, ref.name) for ref in old_state.dataset.properties()
        }
        assert all(index[key] == PropertyRef(*key) for key in index)
        with pytest.raises(TypeError):
            index[("srcZ", "x")] = PropertyRef("srcZ", "x")
        registry.add_source("t1", write_extra_source(tmp_path))
        new_state = registry.get("t1").state
        # Copy-on-swap: the reload built a new index; the old one is
        # exactly what it was.
        assert new_state.property_index is not index
        assert ("srcC", "mass") in new_state.property_index
        assert ("srcC", "mass") not in index
        payload = registry.predict_payload(
            "t1", [["srcA", "weight", "srcC", "mass"]]
        )
        assert len(payload["scores"]) == 1


class TestMatchRowCache:
    def test_repeated_match_reuses_the_universe_rows(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path, system="leapme"))
        state = registry.get("t1").state
        universe = state.matcher.store.universe
        first = match_body(registry, "t1")
        cached = len(universe._rows_cache)
        for _ in range(20):
            assert match_body(registry, "t1") == first
        assert len(universe._rows_cache) == cached
        # Scoring the universe's own tuple equals scoring a copy of it.
        assert np.array_equal(
            state.matcher.score_pairs(state.dataset, universe.pairs),
            state.matcher.score_pairs(state.dataset, list(universe.pairs)),
        )


class TestWarmRestart:
    @pytest.mark.parametrize("system", ["lsh", "leapme"])
    def test_restart_is_byte_identical_to_cold_rebuild(self, tmp_path, system):
        registry = make_registry(tmp_path)
        spec = make_spec(tmp_path, system=system)
        registry.create(spec)
        extra = write_extra_source(tmp_path)
        registry.add_source("t1", extra)
        before = match_body(registry, "t1")

        restarted = TenantRegistry(registry.journal)
        counts = restarted.load()
        assert counts == {"tenants": 1, "sources": 1, "quarantined": 0}
        assert match_body(restarted, "t1") == before

        cold = TenantRegistry()
        cold.load()
        cold.create(spec)
        cold.add_source("t1", extra)
        assert match_body(cold, "t1") == before

    def test_restart_refuses_changed_bootstrap_inputs(self, tmp_path):
        registry = make_registry(tmp_path)
        spec = make_spec(tmp_path)
        registry.create(spec)
        with open(spec.instances, "a", encoding="utf-8") as handle:
            handle.write("srcA,weight,e9,99 kg box\n")
        with pytest.raises(DataError, match="changed since creation"):
            TenantRegistry(registry.journal).load()

    def test_restart_quarantines_tenant_with_missing_reload_source(
        self, tmp_path
    ):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path))
        extra = write_extra_source(tmp_path)
        registry.add_source("t1", extra)
        extra.unlink()
        restarted = TenantRegistry(registry.journal)
        counts = restarted.load()
        assert counts["quarantined"] == 1
        assert restarted.get("t1").quarantined

    def test_restart_pins_quarantined_tenants_without_rebuild(self, tmp_path):
        registry = make_registry(tmp_path, breaker_threshold=1)
        registry.create(make_spec(tmp_path))
        registry.record_failure("t1", RuntimeError("boom"))
        restarted = TenantRegistry(registry.journal)
        counts = restarted.load()
        assert counts == {"tenants": 0, "sources": 0, "quarantined": 1}
        tenant = restarted.get("t1")
        assert tenant.quarantined
        assert tenant.state is None
        assert tenant.quarantine.reason == REASON_CIRCUIT_OPEN

    def test_restart_skips_removed_tenants(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path))
        registry.remove("t1")
        restarted = TenantRegistry(registry.journal)
        assert restarted.load()["tenants"] == 0
        assert restarted.get("t1") is None
        assert restarted.ready()


class TestSummaries:
    def test_statuses_and_stage_calls(self, tmp_path):
        registry = make_registry(tmp_path, breaker_threshold=1)
        registry.create(make_spec(tmp_path, tenant="ready", system="leapme"))
        registry.create(make_spec(tmp_path, tenant="sick"))
        registry.record_failure("sick", RuntimeError("boom"))
        summaries = registry.tenant_summaries()
        assert summaries["ready"]["status"] == "ready"
        assert summaries["ready"]["stage_calls"]
        assert summaries["sick"]["status"] == "quarantined"
        assert summaries["sick"]["reason"] == REASON_CIRCUIT_OPEN
