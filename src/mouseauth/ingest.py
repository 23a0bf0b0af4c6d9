"""Parsing of per-session cursor event files into validated t/x/y columns."""

from __future__ import annotations

import codecs
import csv
import io
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MouseAuthError


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
    events: int
    dropped: int


def parse_session(
    data: bytes | str,
    schema: SchemaMap,
    user_id: str,
    session_id: str,
) -> tuple[Session, ParseReport]:
    """Parse one comma-separated session file with a header row.

    The timestamp, x and y columns are found by header name; every other
    column is ignored. Rows are split as the csv module splits them: CR LF
    and a bare CR end a line, and a blank line is skipped. Rows with an
    unparseable or non-finite timestamp/x/y, a field longer than
    csv.field_size_limit(), a negative timestamp, or a timestamp below the
    running maximum are dropped and counted. Duplicate timestamps are kept.
    Bytes are decoded as UTF-8 with errors replaced, and a leading byte-order
    mark is ignored. A file with no valid row gives a session with no
    events, and a 0-byte file one with no rows either.
    """
    errors = "replace"
    if isinstance(data, str):  # bench/test_bench.py passes read_text()
        # a str round-trips through these bytes unchanged, lone surrogates included
        data, errors = data.encode("utf-8", "surrogatepass"), "surrogatepass"
    # a leading byte-order mark (spreadsheet exports write one) is not data
    data = data.removeprefix(codecs.BOM_UTF8)
    values = None if b'"' in data or b"\0" in data else _read_plain(data, errors, schema,
                                                                     session_id)
    if values is None:
        # quoting, a NUL (a csv error before Python 3.11) and an ill-formed
        # number such as 1.2.3 leave the whole file to the csv module
        reader = csv.reader(io.StringIO(data.decode("utf-8", errors), newline=""))
        values = _read_rows(reader, _columns(reader, schema, session_id)[1])

    t, x, y = values.T
    valid = np.isfinite(t) & np.isfinite(x) & np.isfinite(y) & (t >= 0)
    # a row below the running maximum of earlier valid timestamps is dropped,
    # not sorted, so no kinematics are fabricated from reordered samples. Such
    # a row lies below the maximum, so it never raises it either: the maximum
    # over valid rows equals the one over kept rows.
    keep = valid & (t >= np.maximum.accumulate(np.where(valid, t, -np.inf)))
    events = int(np.count_nonzero(keep))
    report = ParseReport(file=session_id, events=events, dropped=len(values) - events)
    return Session(user_id, session_id, t[keep], x[keep], y[keep]), report


# the bytes a t, x or y field may hold for np.loadtxt to convert it: on these,
# its parser accepts, rejects and rounds exactly as float() does
NUMBER_BYTES = b"0123456789+-.eE"
# a bytes.translate table: 1 for a byte that is neither a number byte nor a field end
_OTHER_BYTE = bytes(byte not in NUMBER_BYTES + b",\n" for byte in range(256))


def _columns(reader, schema: SchemaMap, session_id: str) -> tuple[int, list[int]]:
    """The header's field count and the t, x and y columns' places in it."""
    try:
        header = [name.strip() for name in next(reader, [])]
    except csv.Error as exc:
        raise MouseAuthError(f"{session_id}: unreadable header: {exc}") from None
    try:
        return len(header), [header.index(name) for name in
                             (schema.timestamp_col, schema.x_col, schema.y_col)]
    except ValueError as exc:
        raise MouseAuthError(f"{session_id}: missing column: {exc}") from None


def _float_row(fields: list[str], cols: list[int]) -> tuple[float, float, float]:
    """float() of a row's t, x and y fields; raises ValueError or IndexError."""
    return float(fields[cols[0]]), float(fields[cols[1]]), float(fields[cols[2]])


def _read_rows(reader, cols: list[int]) -> np.ndarray:
    """The (t, x, y) values of each row a csv reader yields, NaN where
    float() or the reader rejects the row; a blank line is no row."""
    rows = []
    while True:
        try:
            fields = next(reader)
            if fields:
                rows.append(_float_row(fields, cols))
        except StopIteration:
            return np.array(rows, dtype=float).reshape(-1, 3)
        except (csv.Error, ValueError, IndexError):  # csv.Error: a field past the size limit
            rows.append((np.nan, np.nan, np.nan))


def _read_plain(data: bytes, errors: str, schema: SchemaMap,
                session_id: str) -> np.ndarray | None:
    """_read_rows for a file without quotes or NULs, whose rows are its
    non-blank lines split at every comma, or None if np.loadtxt rejects a
    field such as 1.2.3. One pass over the bytes finds the rows and fields,
    one np.loadtxt call converts the rows whose t, x and y fields hold only
    NUMBER_BYTES, and the csv module reads the other rows."""
    if not data:  # a 0-byte file: no header and no rows
        return np.zeros((0, 3))
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))  # each field's end byte
    last = np.flatnonzero(buf[ends] == ord("\n"))  # each line's last field
    header = data[:ends[last[0]]].decode("utf-8", errors)
    width, cols = _columns(csv.reader([header]), schema, session_id)
    span = np.diff(ends, prepend=-1)  # each field's bytes and end byte
    first, count = last[:-1] + 1, np.diff(last)  # each data line's first field and field count
    nonblank = (count > 1) | (span[first] > 1)
    if not nonblank.all():
        first, count = first[nonblank], count[nonblank]  # now per row
    if not len(first):
        return np.zeros((0, 3))

    # the bulk: rows of the header's width whose t, x and y fields are not
    # empty, and none of whose fields may be past the csv size limit (the
    # csv module counts characters, so it reads some rows left out here)
    bulk = count == width
    limit = csv.field_size_limit()
    if span.max() > limit + 1:
        bulk[np.searchsorted(first, np.flatnonzero(span > limit + 1), "right") - 1] = False
    rows = np.flatnonzero(bulk)
    fields = [first[rows] + col for col in sorted(cols)]  # the t, x and y fields, in file order
    nonempty = (span[fields[0]] > 1) & (span[fields[1]] > 1) & (span[fields[2]] > 1)
    if not nonempty.all():
        rows, fields = rows[nonempty], [f[nonempty] for f in fields]

    # one text line per row for np.loadtxt: a bulk row's t, x and y fields in
    # file order, and NaN for a row with a byte outside NUMBER_BYTES or
    # outside the bulk; usecols puts the values in t, x, y order
    picked = np.zeros(len(span), dtype=bool)
    for f in fields:
        picked[f] = True
    text = buf[np.repeat(picked, span)]  # every byte is in, or ends, one field
    line_end = np.cumsum(span[fields[0]] + span[fields[1]] + span[fields[2]]) - 1
    text[line_end] = ord("\n")
    raw = text.tobytes()
    texts = raw.decode("latin-1").split("\n")[:-1]
    unread = np.flatnonzero(np.frombuffer(raw.translate(_OTHER_BYTE), dtype=bool))
    unread = np.unique(np.searchsorted(line_end, unread))
    for i in unread.tolist():
        texts[i] = "nan,nan,nan"
    other = np.ones(len(first), dtype=bool)
    other[rows] = False
    lines, at = [], 0
    for i, row in enumerate(np.flatnonzero(other).tolist()):
        lines += texts[at:row - i]
        lines.append("nan,nan,nan")
        at = row - i
    lines += texts[at:]
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                            usecols=[sorted(cols).index(col) for col in cols])
    except ValueError:
        return None
    # the csv module reads the rows np.loadtxt read as NaN
    other[rows[unread]] = True
    other = np.flatnonzero(other)
    if len(other):
        starts, stops = ends[first[other] - 1] + 1, ends[first[other] + count[other] - 1]
        lines = (data[a:b].decode("utf-8", errors) for a, b in zip(starts.tolist(), stops.tolist()))
        values[other] = _read_rows(csv.reader(lines), cols)
    return values


def load_user(
    paths: list[str | Path],
    schema: SchemaMap,
    user_id: str,
) -> tuple[list[Session], list[ParseReport]]:
    """Parse all session files of one user: one session and one report per
    path, in input order.

    A file with no valid row gives a session with no events. A file that
    cannot be read raises OSError. Raises MouseAuthError if no file has an
    event, or if two files share a session id (a file's stem).
    """
    if not paths:
        raise MouseAuthError(f"{user_id}: no input files")
    repeated = [sid for sid, k in Counter(Path(path).stem for path in paths).items() if k > 1]
    if repeated:
        raise MouseAuthError(f"{user_id}: more than one input file for session {repeated[0]}")
    parsed = [parse_session(Path(path).read_bytes(), schema, user_id, session_id=Path(path).stem)
              for path in paths]
    sessions, reports = (list(column) for column in zip(*parsed))
    if not any(report.events for report in reports):
        raise MouseAuthError(f"{user_id}: all {len(paths)} files failed to parse")
    return sessions, reports
