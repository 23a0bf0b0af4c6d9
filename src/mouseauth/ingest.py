"""Parsing of per-session cursor event files into validated t/x/y columns."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

import numpy as np

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
class Session:
    """The kept rows of one session file as aligned columns.

    t, x and y are 1-D float arrays of equal length with every value finite
    and t non-negative and non-decreasing; state[i] is row i's state field,
    or None without a state column.
    """

    user_id: str
    session_id: str
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    state: tuple[str | None, ...]


@dataclass
class ParseReport:
    """Row accounting for one parsed file: dropped + events = data rows."""

    file: str
    events: int = 0
    dropped: int = 0


def parse_session(
    data: bytes | str,
    schema: SchemaMap,
    user_id: str,
    session_id: str,
) -> tuple[Session, ParseReport]:
    """Parse one delimiter-separated session file.

    Rows with an unparseable or non-finite timestamp/x/y, a negative
    timestamp, or a timestamp below the running maximum are dropped and
    counted. Duplicate timestamps are kept. A leading UTF-8 byte-order mark
    is ignored.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    # a leading byte-order mark (spreadsheet exports write one) is not data
    text = data.removeprefix("\ufeff")
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

    parsed: list[tuple[float, float, float]] = []
    states: list[str | None] = []
    for row in data_rows:
        if not row:
            continue
        try:
            parsed.append((float(row[idx_t]), float(row[idx_x]), float(row[idx_y])))
        except (ValueError, IndexError):
            report.dropped += 1
            continue
        states.append(
            row[idx_state].strip() if idx_state is not None and idx_state < len(row) else None
        )

    t, x, y = np.array(parsed, dtype=float).reshape(-1, 3).T
    valid = np.isfinite(t) & np.isfinite(x) & np.isfinite(y) & (t >= 0)
    # a row below the running maximum of earlier valid timestamps is dropped,
    # not sorted, so no kinematics are fabricated from reordered samples. Such
    # a row lies below the maximum, so it never raises it either: the maximum
    # over valid rows equals the one over kept rows.
    keep = valid & (t >= np.maximum.accumulate(np.where(valid, t, -np.inf)))
    report.events = int(np.count_nonzero(keep))
    report.dropped += len(parsed) - report.events
    if not report.events:
        raise EmptySession(f"{session_id}: no valid rows")
    session = Session(
        user_id=user_id,
        session_id=session_id,
        t=t[keep],
        x=x[keep],
        y=y[keep],
        state=tuple(compress(states, keep)),
    )
    return session, report


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
