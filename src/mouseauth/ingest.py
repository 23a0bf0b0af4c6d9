"""Parsing of per-session cursor event files into validated t/x/y columns."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptySession, MouseAuthError


@dataclass(frozen=True)
class SchemaMap:
    """Header names of a session file's timestamp, x and y columns.

    The three names must be pairwise distinct strings.
    """

    timestamp_col: str
    x_col: str
    y_col: str

    def __post_init__(self):
        names = (self.timestamp_col, self.x_col, self.y_col)
        if not all(isinstance(name, str) for name in names):
            raise MouseAuthError(f"column names must be strings, got {names!r}")
        if len(set(names)) != 3:
            raise MouseAuthError("timestamp, x and y columns must be distinct")


@dataclass(frozen=True)
class Session:
    """The kept rows of one session file as aligned columns.

    t, x and y are 1-D float arrays of equal length with every value finite
    and t non-negative and non-decreasing.
    """

    user_id: str
    session_id: str
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray


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
    """Parse one comma-separated session file with a header row.

    The timestamp, x and y columns are found by header name; every other
    column is ignored. Rows with an unparseable or non-finite timestamp/x/y,
    a negative timestamp, or a timestamp below the running maximum are
    dropped and counted. Duplicate timestamps are kept. A leading UTF-8
    byte-order mark is ignored.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    # a leading byte-order mark (spreadsheet exports write one) is not data
    text = data.removeprefix("\ufeff")
    report = ParseReport(file=session_id)

    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise EmptySession(f"{session_id}: file is empty")
    header = [name.strip() for name in rows[0]]
    try:
        idx_t = header.index(schema.timestamp_col)
        idx_x = header.index(schema.x_col)
        idx_y = header.index(schema.y_col)
    except ValueError as exc:
        raise MouseAuthError(f"{session_id}: missing column: {exc}") from None

    parsed: list[tuple[float, float, float]] = []
    for row in rows[1:]:
        if not row:
            continue
        try:
            parsed.append((float(row[idx_t]), float(row[idx_x]), float(row[idx_y])))
        except (ValueError, IndexError):
            report.dropped += 1

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
    return Session(user_id, session_id, t[keep], x[keep], y[keep]), report


def load_user(
    paths: list[str | Path],
    schema: SchemaMap,
    user_id: str,
) -> tuple[list[Session], list[ParseReport]]:
    """Parse all session files of one user, in input order.

    Files that raise EmptySession are skipped; their report carries zero
    events. A file that cannot be read raises OSError. Raises MouseAuthError
    if nothing parses.
    """
    if not paths:
        raise MouseAuthError(f"{user_id}: no input files")
    sessions: list[Session] = []
    reports: list[ParseReport] = []
    for path in paths:
        path = Path(path)
        try:
            session, report = parse_session(
                path.read_bytes(), schema, user_id, session_id=path.stem
            )
        except EmptySession:
            reports.append(ParseReport(file=path.stem))
            continue
        sessions.append(session)
        reports.append(report)
    if not sessions:
        raise MouseAuthError(f"{user_id}: all {len(paths)} files failed to parse")
    return sessions, reports
