"""repro.journal: torn-header repair on the shared append, and the codec."""

import json

import pytest

from repro.errors import JournalError
from repro.evaluation.checkpoint import STATUS_OK, JournalEntry, RunJournal
from repro.evaluation.metrics import MatchQuality
from repro.ingest.journal import STATUS_FUSED, IngestJournal, SourceEvent
from repro.journal import peek_journal_type
from repro.serve.journal import TENANT_CREATED, RegistryJournal, TenantEvent

#: One journal class per flavour, with an event it can append.
FLAVOURS = {
    "run": (RunJournal, JournalEntry("cell", 0, STATUS_OK, quality=MatchQuality(3, 1, 0))),
    "ingest": (
        IngestJournal,
        SourceEvent("a.csv", "f1", STATUS_FUSED, order=1, properties=2, pairs=1, matches=0),
    ),
    "registry": (
        RegistryJournal,
        TenantEvent("t1", TENANT_CREATED, spec={"system": "lsh"}, fingerprint="aa"),
    ),
}


@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
class TestTornHeader:
    def test_append_after_a_torn_header_writes_the_header(self, flavour, tmp_path):
        # A kill mid-way through the very first append leaves a prefix of
        # the header line and nothing else.  The next append must not
        # treat the file as headed: that journal could never be read.
        journal_class, event = FLAVOURS[flavour]
        path = tmp_path / "torn.journal"
        header = json.dumps({"type": journal_class.HEADER_TYPE, "version": 1})
        path.write_text(header[:14], encoding="utf-8")
        assert peek_journal_type(path) is None
        journal_class(path).append(event)
        assert journal_class(path).events() == [event]
        assert path.read_text(encoding="utf-8").splitlines()[0] == header


class TestCodec:
    def test_int_fields_are_coerced_on_read(self, tmp_path):
        journal = RegistryJournal(tmp_path / "registry.journal")
        event = journal.decode(
            {"type": "tenant", "tenant": "t", "status": "source-added",
             "order": 2.0, "properties": "3", "pairs": 4, "failures": None}
        )
        assert (event.order, event.properties, event.pairs) == (2, 3, 4)
        assert event.failures is None

    def test_missing_required_field_names_the_flavour(self, tmp_path):
        journal = RegistryJournal(tmp_path / "registry.journal")
        with pytest.raises(JournalError, match="malformed registry-journal record"):
            journal.decode({"type": "tenant", "status": "created"})

    def test_non_object_spec_is_malformed(self, tmp_path):
        journal = RegistryJournal(tmp_path / "registry.journal")
        with pytest.raises(JournalError, match="spec must be an object"):
            journal.decode({"tenant": "t", "status": "created", "spec": [1]})
