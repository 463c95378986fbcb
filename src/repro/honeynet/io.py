"""Session-log persistence: self-verifying JSONL export/import.

The analyses only consume :class:`SessionRecord`s, so a dataset written
with :func:`write_jsonl` and read back with :func:`read_jsonl` is fully
analyzable — and real Cowrie logs exported into the same schema can be
fed straight into the pipeline.  The format is one JSON object per
line with an explicit schema version.

Exports are self-verifying at three layers:

* each line carries a sequence number (``"seq"``) and a content
  checksum (``"sha"``, :mod:`repro.integrity.checksums`) over the whole
  envelope;
* the file gets a sidecar manifest (line count + rolling digest,
  :mod:`repro.integrity.manifest`) computed over the *clean* lines
  before any injected corruption touches them;
* the write itself is atomic (temp + fsync + rename), so a killed
  export never leaves a half-written dataset.

Reading is strict by default — any damage raises
:class:`SessionLogError` with path/line/reason context.  The lenient
mode (:func:`recover_jsonl`) instead reconstructs everything
recoverable: duplicated lines are dropped by sequence number, reordered
lines are re-sorted, and every unrecoverable line is quarantined with
provenance (:mod:`repro.integrity.quarantine`) so the loss shows up in
conservation accounting instead of vanishing.

The checksum lives in the line *envelope*, not in
:func:`session_to_dict` itself: the dataset digest
(:meth:`repro.honeynet.database.SessionDatabase.digest`) hashes the
record dict and must not change shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro import telemetry
from repro.honeypot.session import (
    CommandRecord,
    FileEvent,
    FileOp,
    LoginAttempt,
    Protocol,
    SessionRecord,
)
from repro.integrity.checksums import RECORD_CHECKSUM_KEY, seal, verify_seal
from repro.integrity.manifest import (
    Manifest,
    ManifestError,
    build_manifest,
    file_manifest,
    read_manifest,
    write_manifest,
)
from repro.integrity.quarantine import QUARANTINE_DIR_NAME, QuarantineStore
from repro.util.fsio import atomic_write_text

#: Format version written into every line.
SCHEMA_VERSION = 1

#: Envelope key carrying the line's position in the written sequence.
SEQ_KEY = "seq"

#: Envelope keys that are persistence metadata, not record content.
ENVELOPE_KEYS = (SEQ_KEY, RECORD_CHECKSUM_KEY)


class SessionLogError(ValueError):
    """Raised for malformed or incompatible session-log data.

    Carries structured context — ``path``, ``line`` (1-based) and a
    stable ``reason`` slug — so callers (and the quarantine store) can
    report *where* and *why* without parsing the message.
    """

    def __init__(
        self,
        message: str,
        *,
        path: Path | str | None = None,
        line: int | None = None,
        reason: str | None = None,
    ) -> None:
        context = []
        if path is not None:
            context.append(str(path))
        if line is not None:
            context.append(f"line {line}")
        prefix = ": ".join(context)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.path = str(path) if path is not None else None
        self.line = line
        self.reason = reason


def session_to_dict(session: SessionRecord) -> dict:
    """The JSON-serializable form of one session record."""
    return {
        "v": SCHEMA_VERSION,
        "session_id": session.session_id,
        "honeypot_id": session.honeypot_id,
        "honeypot_ip": session.honeypot_ip,
        "honeypot_port": session.honeypot_port,
        "protocol": session.protocol.value,
        "client_ip": session.client_ip,
        "client_port": session.client_port,
        "start": session.start,
        "end": session.end,
        "ssh_version": session.ssh_version,
        "logins": [
            [attempt.username, attempt.password, attempt.success]
            for attempt in session.logins
        ],
        "commands": [
            [record.raw, record.known, record.output]
            for record in session.commands
        ],
        "uris": list(session.uris),
        "file_events": [
            [event.path, event.op.value, event.sha256, event.source]
            for event in session.file_events
        ],
        "timed_out": session.timed_out,
        "bot_label": session.bot_label,
    }


def session_from_dict(payload: dict) -> SessionRecord:
    """Rebuild a session record from its JSON form.

    Envelope metadata (``"seq"``, ``"sha"``) is tolerated and, when a
    checksum is present, verified — a record that parses but fails its
    checksum is corrupt, not merely odd.
    """
    version = payload.get("v")
    if version != SCHEMA_VERSION:
        raise SessionLogError(
            f"unsupported session-log version: {version!r}",
            reason="unsupported-version",
        )
    if RECORD_CHECKSUM_KEY in payload and not verify_seal(payload):
        raise SessionLogError(
            "record content does not match its checksum",
            reason="checksum-mismatch",
        )
    try:
        return SessionRecord(
            session_id=payload["session_id"],
            honeypot_id=payload["honeypot_id"],
            honeypot_ip=payload["honeypot_ip"],
            honeypot_port=payload["honeypot_port"],
            protocol=Protocol(payload["protocol"]),
            client_ip=payload["client_ip"],
            client_port=payload["client_port"],
            start=payload["start"],
            end=payload["end"],
            ssh_version=payload.get("ssh_version"),
            logins=[
                LoginAttempt(username, password, bool(success))
                for username, password, success in payload.get("logins", [])
            ],
            commands=[
                CommandRecord(raw=raw, known=bool(known), output=output)
                for raw, known, output in payload.get("commands", [])
            ],
            uris=list(payload.get("uris", [])),
            file_events=[
                FileEvent(path, FileOp(op), sha256, source)
                for path, op, sha256, source in payload.get("file_events", [])
            ],
            timed_out=bool(payload.get("timed_out", False)),
            bot_label=payload.get("bot_label"),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SessionLogError(
            f"malformed session-log record: {error}",
            reason="malformed-record",
        ) from error


def write_jsonl(
    sessions: Iterable[SessionRecord],
    path: Path | str,
    *,
    corruptor=None,
    manifest: bool = True,
) -> int:
    """Write sessions to a JSONL file; returns the clean record count.

    The write is atomic; each line is sealed with a sequence number and
    content checksum; a sidecar manifest pins the clean content.  An
    optional :class:`~repro.faults.corruption.LogCorruptor` is applied
    *after* the manifest is computed — it models damage in the storage
    path, not in the writer.
    """
    path = Path(path)
    lines: list[str] = []
    for sequence, session in enumerate(sessions):
        envelope = session_to_dict(session)
        envelope[SEQ_KEY] = sequence
        lines.append(json.dumps(seal(envelope)))
    document = build_manifest(lines)
    written = corruptor.corrupt_lines(lines) if corruptor is not None else lines
    atomic_write_text(path, "".join(line + "\n" for line in written))
    if manifest:
        write_manifest(path, document)
    telemetry.count("integrity.records_written", document.lines)
    return document.lines


def iter_jsonl(path: Path | str) -> Iterator[SessionRecord]:
    """Stream session records from a JSONL file, strictly."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise SessionLogError(
                    "invalid JSON",
                    path=path,
                    line=line_number,
                    reason="invalid-json",
                ) from error
            try:
                yield session_from_dict(payload)
            except SessionLogError as error:
                raise SessionLogError(
                    str(error),
                    path=path,
                    line=line_number,
                    reason=error.reason,
                ) from error


def read_jsonl(
    path: Path | str,
    *,
    mode: str = "strict",
    quarantine: Path | str | QuarantineStore | None = None,
) -> list[SessionRecord]:
    """Load all session records from a JSONL file.

    ``mode="strict"`` (the default) raises :class:`SessionLogError` on
    the first damaged line and, when a sidecar manifest exists, on any
    divergence between the manifest and the bytes on disk.

    ``mode="lenient"`` recovers instead: see :func:`recover_jsonl`.
    Damaged lines land in ``quarantine`` (default: a ``quarantine/``
    directory next to the file).
    """
    path = Path(path)
    if mode == "strict":
        records = list(iter_jsonl(path))
        try:
            expected = read_manifest(path)
        except ManifestError as error:
            raise SessionLogError(
                str(error), path=path, reason="manifest-unreadable"
            ) from error
        if expected is not None:
            actual = file_manifest(path)
            if (actual.lines, actual.sha256) != (expected.lines, expected.sha256):
                raise SessionLogError(
                    "file content diverges from its manifest "
                    f"({actual.lines} lines on disk, {expected.lines} promised)",
                    path=path,
                    reason="manifest-mismatch",
                )
        return records
    if mode == "lenient":
        if quarantine is None:
            quarantine = path.parent / QUARANTINE_DIR_NAME
        return recover_jsonl(path, quarantine=quarantine).records
    raise ValueError(f"unknown read mode: {mode!r}")


# ----------------------------------------------------------------------
# lenient recovery
# ----------------------------------------------------------------------

@dataclass
class RecoveryReport:
    """What a lenient read found, recovered and lost for one file."""

    path: str
    physical_lines: int = 0
    blank_lines: int = 0
    #: Lines that parsed and passed their checksum (duplicates included).
    parsed: int = 0
    #: Records returned after dedup + reordering.
    recovered: int = 0
    duplicates: int = 0
    #: Lines observed out of sequence order (repaired by sorting).
    reordered: int = 0
    #: ``(line_number, reason)`` for every quarantined physical line.
    bad_lines: tuple[tuple[int, str], ...] = ()
    #: Sequence numbers that should exist but no surviving line carries.
    missing_seqs: tuple[int, ...] = ()
    manifest_lines: int | None = None
    manifest_match: bool | None = None

    @property
    def quarantined(self) -> int:
        """Physical lines quarantined (unparseable or checksum-failed)."""
        return len(self.bad_lines)

    @property
    def missing(self) -> int:
        return len(self.missing_seqs)

    @property
    def lost(self) -> int:
        """Records that could not be recovered at all."""
        return self.quarantined + self.missing

    @property
    def lossless(self) -> bool:
        """True when every written record was recovered (damage, if
        any, was limited to duplicates and reordering)."""
        return self.lost == 0

    def conservation_balanced(self) -> bool:
        """Line-level conservation over the recovery boundary."""
        lines_ok = self.physical_lines == (
            self.parsed + self.blank_lines + self.quarantined
        )
        records_ok = self.parsed == self.recovered + self.duplicates
        manifest_ok = self.manifest_lines is None or (
            self.manifest_lines == self.recovered + self.missing
        )
        return lines_ok and records_ok and manifest_ok


@dataclass
class RecoveredLog:
    """Everything a lenient read returns."""

    records: list[SessionRecord]
    report: RecoveryReport
    quarantine: QuarantineStore | None = field(default=None, repr=False)


def recover_jsonl(
    path: Path | str,
    *,
    quarantine: Path | str | QuarantineStore | None = None,
) -> RecoveredLog:
    """Recover everything recoverable from a possibly damaged JSONL file.

    Duplicated lines are dropped by sequence number, reordered lines are
    re-sorted, and every unrecoverable line — invalid JSON, failed
    checksum, bad schema version, malformed record, no integer sequence
    number, or a sequence number the manifest promised but nothing
    carries — is appended to the quarantine store with provenance.
    ``quarantine=None`` scans without writing anything (used by
    ``repro verify``).
    """
    path = Path(path)
    store: QuarantineStore | None = None
    if isinstance(quarantine, QuarantineStore):
        store = quarantine
    elif quarantine is not None:
        store = QuarantineStore(quarantine)

    report = RecoveryReport(path=str(path))
    try:
        expected = read_manifest(path)
    except ManifestError:
        expected = None  # noted via manifest_match=None; data still recovered
    if expected is not None:
        report.manifest_lines = expected.lines

    bad: list[tuple[int, str, str]] = []  # (line_number, reason, raw)
    kept: list[tuple[int, SessionRecord]] = []  # (seq, record)
    text = path.read_text(encoding="utf-8")
    raw_lines = text.split("\n")
    if raw_lines and raw_lines[-1] == "":
        raw_lines.pop()
    report.physical_lines = len(raw_lines)
    for line_number, raw in enumerate(raw_lines, start=1):
        if not raw.strip():
            report.blank_lines += 1
            continue
        reason: str | None = None
        payload = None
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError:
            reason = "invalid-json"
        if reason is None and not isinstance(payload, dict):
            reason = "invalid-json"
        record = None
        if reason is None:
            try:
                record = session_from_dict(payload)
            except SessionLogError as error:
                reason = error.reason or "malformed-record"
        if reason is None and not isinstance(payload.get(SEQ_KEY), int):
            # Every writer stamps ``seq``; without it the line cannot be
            # ordered or deduplicated.
            reason = "missing-seq"
        if reason is not None:
            bad.append((line_number, reason, raw))
            continue
        kept.append((payload[SEQ_KEY], record))
        report.parsed += 1

    records = _order_records(kept, report)
    if expected is not None:
        seen = {seq for seq, _ in kept}
        report.missing_seqs = tuple(
            seq for seq in range(expected.lines) if seq not in seen
        )
        actual = file_manifest(path)
        report.manifest_match = (
            (actual.lines, actual.sha256) == (expected.lines, expected.sha256)
        )
    report.bad_lines = tuple((number, reason) for number, reason, _ in bad)
    report.recovered = len(records)

    if store is not None:
        for line_number, reason, raw in bad:
            store.add(path=path, line=line_number, reason=reason, raw=raw)
        for sequence in report.missing_seqs:
            store.add(
                path=path,
                line=None,
                seq=sequence,
                reason="missing-line",
                raw="",
            )
    telemetry.count("integrity.recovered_records", report.recovered)
    if report.duplicates:
        telemetry.count("integrity.recovered_duplicates", report.duplicates)
    if report.reordered:
        telemetry.count("integrity.recovered_reordered", report.reordered)
    if report.lost:
        telemetry.count("integrity.lost_records", report.lost)
    return RecoveredLog(records=records, report=report, quarantine=store)


def _order_records(
    kept: list[tuple[int, SessionRecord]], report: RecoveryReport
) -> list[SessionRecord]:
    """Dedup by sequence number and re-sort, updating the report."""
    by_seq: dict[int, SessionRecord] = {}
    previous = -1
    for seq, record in kept:
        if seq < previous:
            report.reordered += 1
        previous = max(previous, seq)
        if seq in by_seq:
            report.duplicates += 1
        else:
            by_seq[seq] = record
    return [by_seq[seq] for seq in sorted(by_seq)]


def collector_accounting_for_recovery(report: RecoveryReport) -> dict[str, int]:
    """Conservation-law counters for a collector restored from a recovery.

    Treats the written file as the generation boundary: every line the
    writer meant to persist is either recovered, deduplicated, or
    quarantined (mangled lines and missing lines both count as
    quarantined losses), so

        generated == stored + deduplicated + quarantined

    balances by construction.
    """
    lost = report.lost
    return {
        "generated": report.recovered + report.duplicates + lost,
        "dropped_outage": 0,
        "dropped_sensor_down": 0,
        "retried": 0,
        "deduplicated": report.duplicates,
        "dead_lettered": 0,
        "quarantined": lost,
    }


__all__ = [
    "Manifest",
    "RecoveredLog",
    "RecoveryReport",
    "SCHEMA_VERSION",
    "SEQ_KEY",
    "SessionLogError",
    "collector_accounting_for_recovery",
    "iter_jsonl",
    "read_jsonl",
    "recover_jsonl",
    "session_from_dict",
    "session_to_dict",
    "write_jsonl",
]
