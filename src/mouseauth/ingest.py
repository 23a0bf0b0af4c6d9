"""Parsing of per-session cursor event files into validated t/x/y columns."""

from __future__ import annotations

import codecs
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
    column is ignored. Rows are split as the csv module splits them: CR LF
    and a bare CR end a line, and a blank line is skipped. Rows with an
    unparseable or non-finite timestamp/x/y, a field longer than
    csv.field_size_limit(), a negative timestamp, or a timestamp below the
    running maximum are dropped and counted. Duplicate timestamps are kept.
    Bytes are decoded as UTF-8 with errors replaced, and a leading byte-order
    mark is ignored.
    """
    errors = "replace"
    if isinstance(data, str):
        # a str round-trips through these bytes unchanged, lone surrogates included
        data, errors = data.encode("utf-8", "surrogatepass"), "surrogatepass"
    # a leading byte-order mark (spreadsheet exports write one) is not data
    data = data.removeprefix(codecs.BOM_UTF8)
    if not data:
        raise EmptySession(f"{session_id}: file is empty")
    if b'"' in data or b"\0" in data:
        # quoting, and a NUL (a csv error before Python 3.11), stay the csv module's
        values, rows = _read_csv(data.decode("utf-8", errors), schema, session_id)
    else:
        values, rows = _read_plain(data, errors, schema, session_id)

    t, x, y = values.T
    valid = np.isfinite(t) & np.isfinite(x) & np.isfinite(y) & (t >= 0)
    # a row below the running maximum of earlier valid timestamps is dropped,
    # not sorted, so no kinematics are fabricated from reordered samples. Such
    # a row lies below the maximum, so it never raises it either: the maximum
    # over valid rows equals the one over kept rows.
    keep = valid & (t >= np.maximum.accumulate(np.where(valid, t, -np.inf)))
    events = int(np.count_nonzero(keep))
    if not events:
        raise EmptySession(f"{session_id}: no valid rows")
    report = ParseReport(file=session_id, events=events, dropped=rows - events)
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


def _read_csv(text: str, schema: SchemaMap, session_id: str) -> tuple[np.ndarray, int]:
    """The (t, x, y) values of the rows that parse, in file order, and the
    number of data rows; the csv module splits the rows."""
    reader = csv.reader(io.StringIO(text, newline=""))
    _, cols = _columns(reader, schema, session_id)
    parsed: list[tuple[float, float, float]] = []
    rows = 0
    while True:
        try:
            fields = next(reader)
        except StopIteration:
            break
        except csv.Error:  # a field past the size limit; the reader resumes on the next line
            rows += 1
            continue
        if not fields:
            continue
        rows += 1
        try:
            parsed.append(_float_row(fields, cols))
        except (ValueError, IndexError):
            pass
    return np.array(parsed, dtype=float).reshape(-1, 3), rows


def _read_plain(data: bytes, errors: str, schema: SchemaMap,
                session_id: str) -> tuple[np.ndarray, int]:
    """_read_csv for a file without quotes or NULs, whose rows are its lines
    split at every comma. One pass over the bytes finds the lines and fields,
    the rows whose t, x and y fields hold NUMBER_BYTES are converted in bulk,
    and only the rest take float() field by field. A bulk row that float()
    cannot read either stays NaN, so parse_session drops and counts it."""
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
    first, count = last[:-1] + 1, np.diff(last)  # per data line

    regular = count == width
    limit = csv.field_size_limit()
    if span.max() > limit + 1:  # the csv module rejects the row; it counts characters
        too_long = np.zeros(len(last), dtype=bool)
        too_long[np.searchsorted(last, np.flatnonzero(span > limit + 1))] = True
        regular &= ~too_long[1:]
    bulk = np.flatnonzero(regular)
    fields = [first[bulk] + col for col in sorted(cols)]  # the t, x and y fields, in file order
    nonempty = (span[fields[0]] > 1) & (span[fields[1]] > 1) & (span[fields[2]] > 1)
    if not nonempty.all():
        bulk, fields = bulk[nonempty], [f[nonempty] for f in fields]
    usecols = [sorted(cols).index(col) for col in cols]  # t, x and y among the fields
    values, unread = _convert_in_bulk(buf, span, fields, usecols)

    # float() for the other rows: in place for those of the bulk, merged in
    # file order for the rest; a blank line is no row
    blank = (count == 1) & (span[first] == 1)
    other = ~blank
    other[bulk] = False
    other = np.flatnonzero(other)
    line_start, line_end = ends[first - 1] + 1, ends[last[1:]]
    lines = bulk[unread]
    read, got = _float_rows(data, errors, cols, line_start[lines], line_end[lines])
    if read:
        values[unread[read]] = got
    read, got = _float_rows(data, errors, cols, line_start[other], line_end[other])
    if read:
        values = np.insert(values, np.searchsorted(bulk, other[read]), got, axis=0)
    return values, len(first) - int(np.count_nonzero(blank))


def _float_rows(data: bytes, errors: str, cols: list[int], starts: np.ndarray,
                ends: np.ndarray) -> tuple[list[int], list[tuple[float, float, float]]]:
    """float() of the t, x and y fields of each line data[start:end]: which
    lines it reads, by their place in ``starts``, and their values. A line is
    not read where float() fails or the csv module would reject the row."""
    limit = csv.field_size_limit()
    read, values = [], []
    for i, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
        fields = data[start:end].decode("utf-8", errors).split(",")
        if end - start > limit and max(map(len, fields)) > limit:
            continue
        try:
            values.append(_float_row(fields, cols))
        except (ValueError, IndexError):
            continue
        read.append(i)
    return read, values


def _convert_in_bulk(buf: np.ndarray, span: np.ndarray, fields: list[np.ndarray],
                     usecols: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Convert rows of three fields, given as three arrays of field numbers in
    file order, with one np.loadtxt call over those fields' bytes; ``usecols``
    puts the values in t, x, y order.

    Returns the values and the rows left unread, whose values are NaN: a row
    with a byte outside NUMBER_BYTES, and every row if np.loadtxt rejects one.
    """
    rows = len(fields[0])
    if not rows:
        return np.zeros((0, 3)), np.zeros(0, dtype=int)
    picked = np.zeros(len(span), dtype=bool)
    for f in fields:
        picked[f] = True
    text = buf[np.repeat(picked, span)]  # every byte is in, or ends, one field
    line_end = np.cumsum(span[fields[0]] + span[fields[1]] + span[fields[2]]) - 1
    text[line_end] = ord("\n")
    raw = text.tobytes()
    lines = raw.decode("latin-1").split("\n")[:-1]
    other = np.frombuffer(raw.translate(_OTHER_BYTE), dtype=bool)
    unread = np.unique(np.searchsorted(line_end, np.flatnonzero(other)))
    for row in unread.tolist():
        lines[row] = "nan,nan,nan"
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, usecols=usecols, ndmin=2), unread
    except ValueError:  # an ill-formed number such as 1.2.3
        return np.full((rows, 3), np.nan), np.arange(rows)


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
