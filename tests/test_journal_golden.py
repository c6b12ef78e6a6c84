"""Golden journals: the on-disk format of all three journals, pinned.

The files under ``tests/journals/`` were written before the journals
shared :mod:`repro.journal`; see the README there.  Each must read back
to exactly the events listed here, describe itself with the committed
text, and be reproduced byte for byte by appending those events again.
"""

import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import DataError, TransientDataError
from repro.evaluation.checkpoint import (
    REASON_TIMEOUT,
    REASON_WORKER_CRASH,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    JournalEntry,
    RunJournal,
)
from repro.evaluation.metrics import MatchQuality
from repro.ingest.journal import (
    REASON_DUPLICATE,
    REASON_POISON,
    REASON_RETRIES_EXHAUSTED,
    STATUS_ADMITTED,
    STATUS_DISCOVERED,
    STATUS_FEATURIZED,
    STATUS_FUSED,
    STATUS_QUARANTINED,
    STATUS_RETRYING,
    IngestJournal,
    SourceEvent,
)
from repro.journal import error_fields
from repro.serve.journal import (
    REASON_CIRCUIT_OPEN,
    REASON_POISON_TENANT,
    TENANT_BOOTSTRAPPED,
    TENANT_CREATED,
    TENANT_QUARANTINED,
    TENANT_REMOVED,
    TENANT_SOURCE_ADDED,
    RegistryJournal,
    TenantEvent,
)

GOLDEN = Path(__file__).parent / "journals"

CELL_A = "leapme|headphones|0f1e2d3c4b5a6978"
CELL_B = "lsh|cameras|8796a5b4c3d2e1f0"


def _skip(key, repetition, reason):
    return JournalEntry(key, repetition, STATUS_SKIPPED, error_type="skip", error=reason)


def _failed(key, repetition, attempts, error_type, error):
    return JournalEntry(
        key, repetition, STATUS_FAILED, attempts=attempts,
        error_type=error_type, error=error,
    )


RUN_EVENTS = [
    JournalEntry(CELL_A, 0, STATUS_OK, quality=MatchQuality(10, 1, 2)),
    JournalEntry(
        CELL_A, 1, STATUS_OK, quality=MatchQuality(7, 0, 3),
        degradation="no-embeddings", attempts=2,
    ),
    _skip(CELL_A, 2, "no positive training pairs"),
    _failed(CELL_A, 3, 3, "ValueError", "singular scaler"),
    _failed(CELL_A, 4, 2, REASON_WORKER_CRASH, "worker exited with code -9"),
    _failed(CELL_A, 5, 1, "RuntimeError", "transient"),
    JournalEntry(CELL_A, 5, STATUS_OK, quality=MatchQuality(9, 2, 1)),
    JournalEntry(CELL_B, 0, STATUS_OK, quality=MatchQuality(0, 0, 4)),
    _failed(CELL_B, 1, 1, REASON_TIMEOUT, "cell deadline 30.0 s exceeded"),
    _skip(CELL_B, 2, ""),
]

RUN_TORN_EVENTS = [
    JournalEntry(CELL_A, 0, STATUS_OK, quality=MatchQuality(10, 1, 2)),
    _skip(CELL_A, 1, "no positive training pairs"),
]


def _source_lifecycle(file, fingerprint, *tail):
    return [
        SourceEvent(file, fingerprint, STATUS_DISCOVERED),
        SourceEvent(file, fingerprint, STATUS_ADMITTED),
        *tail,
    ]


def _retry(file, fingerprint, attempt, error):
    return SourceEvent(
        file, fingerprint, STATUS_RETRYING, attempt=attempt, **error_fields(error)
    )


def _quarantine(file, fingerprint, reason, error, attempts):
    return SourceEvent(
        file, fingerprint, STATUS_QUARANTINED, reason=reason, attempt=attempts,
        **error_fields(error),
    )


INGEST_EVENTS = [
    *_source_lifecycle(
        "cameras_a.csv", "aa11",
        SourceEvent("cameras_a.csv", "aa11", STATUS_FEATURIZED, properties=7, pairs=21),
        SourceEvent(
            "cameras_a.csv", "aa11", STATUS_FUSED,
            order=1, properties=7, pairs=21, matches=5,
        ),
    ),
    *_source_lifecycle(
        "cameras_b.csv", "bb22",
        _retry("cameras_b.csv", "bb22", 1, OSError("file vanished")),
        SourceEvent("cameras_b.csv", "bb22", STATUS_FEATURIZED, properties=4, pairs=40),
        SourceEvent(
            "cameras_b.csv", "bb22", STATUS_FUSED,
            order=2, properties=4, pairs=40, matches=0,
        ),
    ),
    *_source_lifecycle(
        "cameras_c.csv", "cc33",
        _retry("cameras_c.csv", "cc33", 1, TransientDataError("locked")),
        _retry("cameras_c.csv", "cc33", 2, TransientDataError("locked")),
        _quarantine(
            "cameras_c.csv", "cc33", REASON_RETRIES_EXHAUSTED,
            TransientDataError("locked"), 3,
        ),
    ),
    *_source_lifecycle(
        "poison.csv", "dd44",
        _quarantine(
            "poison.csv", "dd44", REASON_POISON,
            DataError("no usable rows in poison.csv"), 1,
        ),
    ),
    *_source_lifecycle(
        "cameras_a_copy.csv", "ee55",
        _quarantine(
            "cameras_a_copy.csv", "ee55", REASON_DUPLICATE,
            DataError("source already present: cameras_a"), 1,
        ),
    ),
    SourceEvent("growing.csv", "ff66", STATUS_DISCOVERED),
    *_source_lifecycle("settled.csv", "0a77"),
    *_source_lifecycle(
        "flaky.csv", "1b88", _retry("flaky.csv", "1b88", 1, OSError("read error"))
    ),
]

SPEC_A = {
    "system": "leapme", "instances": ["shop-a/base.csv"],
    "alignment": "shop-a/align.csv", "seed": 3, "threshold": 0.5,
}
SPEC_B = {"system": "lsh", "dataset": "headphones", "scale": "tiny", "seed": 0}


def _bootstrapped(tenant, properties, pairs):
    return TenantEvent(tenant, TENANT_BOOTSTRAPPED, properties=properties, pairs=pairs)


def _source_added(tenant, file, fingerprint, order, properties, pairs):
    return TenantEvent(
        tenant, TENANT_SOURCE_ADDED, file=file, fingerprint=fingerprint,
        order=order, properties=properties, pairs=pairs,
    )


REGISTRY_EVENTS = [
    TenantEvent("shop-a", TENANT_CREATED, spec=SPEC_A, fingerprint="9f2c0011aabb"),
    _bootstrapped("shop-a", 12, 66),
    _source_added("shop-a", "feeds/extra.csv", "77aa", 1, 7, 21),
    _source_added("shop-a", "feeds/more.csv", "88bb", 2, 3, 30),
    TenantEvent("shop-b", TENANT_CREATED, spec=SPEC_B),
    _bootstrapped("shop-b", 20, 190),
    TenantEvent(
        "shop-c", TENANT_CREATED,
        spec={"system": "leapme", "instances": ["missing.csv"]}, fingerprint="0000",
    ),
    TenantEvent(
        "shop-c", TENANT_QUARANTINED, reason=REASON_POISON_TENANT, failures=0,
        **error_fields(DataError("no such file: missing.csv")),
    ),
    TenantEvent("shop-d", TENANT_CREATED, spec=SPEC_B),
    _bootstrapped("shop-d", 20, 190),
    TenantEvent(
        "shop-d", TENANT_QUARANTINED, reason=REASON_CIRCUIT_OPEN, failures=5,
        **error_fields(RuntimeError("predict blew up")),
    ),
    TenantEvent("shop-e", TENANT_CREATED, spec=SPEC_B),
    _bootstrapped("shop-e", 20, 190),
    _source_added("shop-e", "feeds/e.csv", "99cc", 1, 2, 9),
    TenantEvent("shop-e", TENANT_REMOVED),
]

CASES = {
    "run": (RunJournal, RUN_EVENTS),
    "ingest": (IngestJournal, INGEST_EVENTS),
    "registry": (RegistryJournal, REGISTRY_EVENTS),
    "run-torn": (RunJournal, RUN_TORN_EVENTS),
}


def _golden_bytes(name: str) -> bytes:
    """The fixture's bytes, less a torn final line."""
    data = (GOLDEN / f"{name}.journal").read_bytes()
    return data[: data.rindex(b"\n") + 1]


def _describe_text(name: str, path: Path) -> str:
    text = (GOLDEN / f"{name}.describe.txt").read_text(encoding="utf-8")
    return text.replace("<journal>", str(path))


@pytest.mark.parametrize("name", sorted(CASES))
class TestGoldenJournals:
    def test_reads_the_recorded_events(self, name):
        journal_class, events = CASES[name]
        assert journal_class(GOLDEN / f"{name}.journal").events() == events

    def test_describe_is_unchanged(self, name):
        journal_class, _ = CASES[name]
        path = GOLDEN / f"{name}.journal"
        assert journal_class(path).describe() + "\n" == _describe_text(name, path)

    def test_appending_the_events_reproduces_the_bytes(self, name, tmp_path):
        journal_class, events = CASES[name]
        journal = journal_class(tmp_path / f"{name}.journal")
        for event in events:
            journal.append(event)
        assert journal.path.read_bytes() == _golden_bytes(name)

    def test_cli_describe_dispatches_on_the_header(self, name, capsys):
        path = GOLDEN / f"{name}.journal"
        assert main(["describe", "--journal", str(path)]) == 0
        assert capsys.readouterr().out == _describe_text(name, path)


def test_append_after_the_torn_tail_replaces_it(tmp_path):
    path = tmp_path / "run-torn.journal"
    shutil.copyfile(GOLDEN / "run-torn.journal", path)
    extra = JournalEntry(CELL_A, 2, STATUS_OK, quality=MatchQuality(1, 0, 0))
    RunJournal(path).append(extra)
    fresh = RunJournal(tmp_path / "fresh.journal")
    for event in [*RUN_TORN_EVENTS, extra]:
        fresh.append(event)
    assert path.read_bytes() == fresh.path.read_bytes()
    assert RunJournal(path).events() == [*RUN_TORN_EVENTS, extra]
