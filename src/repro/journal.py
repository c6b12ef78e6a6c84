"""The one journal format and durability contract.

The run, ingestion and registry journals are this mechanism over
different events: each subsystem keeps only its event dataclass, the
class attributes that name its format, and its read-side views.

A journal is JSONL: a header line ``{"type": HEADER_TYPE, "version":
VERSION}``, then one line per event, ``{"type": RECORD_TYPE}`` plus every
field that is not ``None``, keys sorted.  Each event is one fsynced
``O_APPEND`` write (:func:`repro.ioutils.fsync_append_line`).  A kill
mid-write leaves at most one torn *final* line: readers drop it, and the
next append truncates it and, if that leaves the file empty, writes the
header in the same write -- so even a torn header is repaired.  Torn
lines anywhere else raise :class:`~repro.errors.JournalError`, as do a
wrong header ``type`` and an unsupported ``version``.  For one identity,
the last event wins.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, ClassVar

from repro.errors import JournalError
from repro.ioutils import fsync_append_line


def peek_journal_type(path: str | Path) -> str | None:
    """The ``type`` of a journal file's header line, or ``None``.

    Reads only the first line; used to dispatch a path to the journal
    class that owns it without parsing -- or validating -- the whole
    file.  Returns ``None`` for a missing, empty, or torn-headed file.
    """
    path = Path(path)
    if not path.exists():
        return None
    with path.open("r", encoding="utf-8") as handle:
        first = handle.readline()
    try:
        header = json.loads(first)
    except json.JSONDecodeError:
        return None
    if not isinstance(header, dict):
        return None
    kind = header.get("type")
    return kind if isinstance(kind, str) else None


def read_journal_records(
    path: str | Path, *, header_type: str, version: int, kind: str
) -> list[dict]:
    """Body records of a JSONL journal, torn-tail tolerant.

    A missing file reads as an empty journal.  ``kind`` names the
    journal flavour in error messages (``"a run journal"``).
    """
    path = Path(path)
    if not path.exists():
        return []
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    records: list[dict] = []
    for number, line in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if number == len(lines) - 1:
                # Torn final line from a kill mid-append: recoverable.
                continue
            raise JournalError(
                f"corrupt journal line {number + 1} in {path}"
            ) from None
        records.append(record)
    if records:
        header = records[0]
        if header.get("type") != header_type:
            raise JournalError(f"not {kind} (missing header): {path}")
        if header.get("version") != version:
            raise JournalError(
                f"unsupported journal version {header.get('version')!r} "
                f"in {path}"
            )
    return records[1:]


def error_fields(error: BaseException) -> dict[str, str]:
    """The ``error_type``/``error`` pair a failure event carries."""
    return {"error_type": type(error).__name__, "error": str(error)}


class Journal:
    """Append-only JSONL journal of one subsystem's events.

    Subclasses set the class attributes below; ``EVENT`` is the frozen
    dataclass a body line decodes to.  A missing journal reads as an
    empty one, so fresh and resumed runs construct it identically.
    """

    HEADER_TYPE: ClassVar[str]
    VERSION: ClassVar[int] = 1
    RECORD_TYPE: ClassVar[str]
    EVENT: ClassVar[type]
    #: Fields coerced back to ``int`` on read.
    INT_FIELDS: ClassVar[tuple[str, ...]] = ()
    #: Names the flavour when the header is wrong: ``"a run journal"``.
    KIND: ClassVar[str]
    #: Names the flavour when a record is malformed: ``"registry-journal"``.
    LABEL: ClassVar[str]

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def append(self, event) -> None:
        """Durably record one event (a single fsynced line)."""
        fsync_append_line(
            self.path,
            json.dumps(self.encode(event), sort_keys=True),
            header=json.dumps({"type": self.HEADER_TYPE, "version": self.VERSION}),
        )

    def events(self) -> list:
        """Every event, in append order (torn tail dropped)."""
        records = read_journal_records(
            self.path,
            header_type=self.HEADER_TYPE,
            version=self.VERSION,
            kind=self.KIND,
        )
        return [
            self.decode(record)
            for record in records
            if record.get("type") == self.RECORD_TYPE
        ]

    def latest(self) -> dict:
        """Latest event per ``event.key``, in first-seen order."""
        latest: dict = {}
        for event in self.events():
            latest[event.key] = event
        return latest

    def encode(self, event) -> dict[str, Any]:
        """The journal line of ``event``: its type plus non-``None`` fields."""
        record: dict[str, Any] = {"type": self.RECORD_TYPE}
        for field in dataclasses.fields(event):
            value = getattr(event, field.name)
            if value is not None:
                record[field.name] = value
        return record

    def decode(self, record: dict):
        """Inverse of :meth:`encode`; a malformed record raises JournalError."""
        try:
            values = {
                field.name: (
                    record[field.name]
                    if field.default is dataclasses.MISSING
                    else record.get(field.name, field.default)
                )
                for field in dataclasses.fields(self.EVENT)
            }
            for name in self.INT_FIELDS:
                if values[name] is not None:
                    values[name] = int(values[name])
            return self.EVENT(**values)
        except (KeyError, TypeError, ValueError) as problem:
            raise JournalError(f"malformed {self.LABEL} record: {problem}") from None
