"""Parsing of per-session cursor event files into validated event sequences."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

from .errors import EmptySession, NoSessions, SchemaError


@dataclass(frozen=True)
class SchemaMap:
    """Column layout of a session file.

    timestamp_col, x_col and y_col must be pairwise distinct.
    """

    timestamp_col: str
    x_col: str
    y_col: str
    state_col: str | None = None
    delimiter: str = ","
    has_header: bool = True

    def __post_init__(self):
        names = {self.timestamp_col, self.x_col, self.y_col}
        if len(names) != 3:
            raise SchemaError("timestamp, x and y columns must be distinct")
        if len(self.delimiter) != 1:
            raise SchemaError("delimiter must be a single character")


@dataclass(frozen=True)
class RawEvent:
    t: float
    x: float
    y: float
    state: str | None = None


@dataclass(frozen=True)
class Session:
    user_id: str
    session_id: str
    events: tuple[RawEvent, ...]


@dataclass
class ParseReport:
    """Row accounting for one parsed file: dropped + events = data rows."""

    file: str
    events: int = 0
    dropped: int = 0

    def as_record(self) -> dict:
        return {"file": self.file, "events": self.events, "dropped": self.dropped}


def _is_finite(value: float) -> bool:
    return value == value and value not in (float("inf"), float("-inf"))


def parse_session(
    data: bytes | str,
    schema: SchemaMap,
    user_id: str,
    session_id: str,
) -> tuple[Session, ParseReport]:
    """Parse one delimiter-separated session file.

    Rows with unparseable timestamp/x/y, negative or non-finite timestamps,
    and rows whose timestamp falls below the running maximum are dropped and
    counted. Duplicate timestamps are kept.
    """
    if isinstance(data, bytes):
        text = data.decode("utf-8", errors="replace")
    else:
        text = data
    report = ParseReport(file=session_id)

    reader = csv.reader(io.StringIO(text), delimiter=schema.delimiter)
    rows = list(reader)
    if schema.has_header:
        if not rows:
            raise EmptySession(f"{session_id}: file is empty")
        header = [name.strip() for name in rows[0]]
        try:
            idx_t = header.index(schema.timestamp_col)
            idx_x = header.index(schema.x_col)
            idx_y = header.index(schema.y_col)
        except ValueError as exc:
            raise SchemaError(f"{session_id}: missing column: {exc}") from None
        idx_state = (
            header.index(schema.state_col)
            if schema.state_col is not None and schema.state_col in header
            else None
        )
        if schema.state_col is not None and idx_state is None:
            raise SchemaError(f"{session_id}: missing column: {schema.state_col!r}")
        data_rows = rows[1:]
    else:
        # headerless files address columns by integer position encoded as str
        idx_t, idx_x, idx_y = (
            int(schema.timestamp_col),
            int(schema.x_col),
            int(schema.y_col),
        )
        idx_state = int(schema.state_col) if schema.state_col is not None else None
        data_rows = rows

    events: list[RawEvent] = []
    t_max = float("-inf")
    for row in data_rows:
        if not row:
            continue
        try:
            t = float(row[idx_t])
            x = float(row[idx_x])
            y = float(row[idx_y])
        except (ValueError, IndexError):
            report.dropped += 1
            continue
        if not (_is_finite(t) and _is_finite(x) and _is_finite(y)) or t < 0:
            report.dropped += 1
            continue
        if t < t_max:
            # out-of-order event: dropping (not sorting) avoids fabricating
            # kinematics from reordered samples
            report.dropped += 1
            continue
        t_max = t
        state = row[idx_state].strip() if idx_state is not None and idx_state < len(row) else None
        events.append(RawEvent(t=t, x=x, y=y, state=state))

    if not events:
        raise EmptySession(f"{session_id}: no valid rows")
    report.events = len(events)
    return Session(user_id=user_id, session_id=session_id, events=tuple(events)), report


def load_user(
    paths: list[str | Path],
    schema: SchemaMap,
    user_id: str,
) -> tuple[list[Session], list[ParseReport]]:
    """Parse all session files of one user, in input order.

    Files that raise EmptySession are skipped; their report carries zero
    events. Raises NoSessions if nothing parses.
    """
    if not paths:
        raise NoSessions(f"{user_id}: no input files")
    sessions: list[Session] = []
    reports: list[ParseReport] = []
    for path in paths:
        path = Path(path)
        try:
            session, report = parse_session(
                path.read_bytes(), schema, user_id, session_id=path.stem
            )
        except (EmptySession, OSError):
            reports.append(ParseReport(file=path.stem, events=0, dropped=0))
            continue
        report.file = path.stem
        sessions.append(session)
        reports.append(report)
    if not sessions:
        raise NoSessions(f"{user_id}: all {len(paths)} files failed to parse")
    return sessions, reports
