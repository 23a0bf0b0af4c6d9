import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mouseauth import ingest
from mouseauth.cli import PRESETS, main
from mouseauth.errors import MouseAuthError
from mouseauth.ingest import ParseReport, SchemaMap, load_user, parse_session
from mouseauth.synth import SynthSpec, generate, to_session_csv

SCHEMA = SchemaMap(timestamp_col="t", x_col="x", y_col="y")


def row_by_row(rows, idx_t, idx_x, idx_y):
    """Reference: the per-row validity rule parse_session applies in one pass.

    Returns the kept (t, x, y) rows and the dropped count.
    """
    kept, dropped, t_max = [], 0, float("-inf")
    for row in rows:
        if not row:
            continue
        try:
            t, x, y = float(row[idx_t]), float(row[idx_x]), float(row[idx_y])
        except (ValueError, IndexError):
            dropped += 1
            continue
        finite = all(v == v and v not in (float("inf"), float("-inf")) for v in (t, x, y))
        if not finite or t < 0 or t < t_max:
            dropped += 1
            continue
        t_max = t
        kept.append((t, x, y))
    return kept, dropped


def test_parse_three_rows():
    session, report = parse_session(
        b"t,x,y\n0,0,0\n0.008,3,4\n0.016,6,8", SCHEMA, "u", "s"
    )
    assert len(session.t) == len(session.x) == len(session.y) == 3
    assert report.events == 3 and report.dropped == 0
    assert session.x[1] == 3 and session.y[1] == 4


def test_malformed_row_skipped():
    session, report = parse_session(
        b"t,x,y\n0,0,0\n0.01,abc,4\n0.02,6,8", SCHEMA, "u", "s"
    )
    assert session.t.tolist() == [0, 0.02]
    assert report.dropped == 1


def test_header_only_is_empty():
    session, report = parse_session(b"t,x,y\n", SCHEMA, "u", "s")
    assert report == ParseReport("s", events=0, dropped=0)
    assert session.t.shape == session.x.shape == session.y.shape == (0,)


@pytest.mark.parametrize("data, dropped", [
    (b"", 0), (b"\xef\xbb\xbf", 0), ("", 0), ("\ufeff", 0),  # no header, no rows
    (b"t,x,y\nbad,0,0\nnan,1,0\n-1,2,0\n", 3),
])
def test_a_file_without_a_valid_row_is_a_session_with_no_events(data, dropped):
    session, report = parse_session(data, SCHEMA, "u", "s")
    assert report == ParseReport("s", events=0, dropped=dropped)
    assert session.t.shape == session.x.shape == session.y.shape == (0,)


def test_missing_column():
    with pytest.raises(MouseAuthError, match="s: missing column"):
        parse_session(b"t,x\n0,0\n", SCHEMA, "u", "s")
    # a header field past the csv module's limit leaves no header to read
    long = "t" * (csv.field_size_limit() + 1)
    with pytest.raises(MouseAuthError, match="s: unreadable header"):
        parse_session(f"t,x,y,{long}\n0,0,0,a\n".encode(), SCHEMA, "u", "s")


def test_distinct_columns_required():
    with pytest.raises(MouseAuthError, match="columns must be distinct"):
        SchemaMap(timestamp_col="t", x_col="t", y_col="y")


def test_out_of_order_rows_dropped_not_sorted():
    session, report = parse_session(
        b"t,x,y\n0,0,0\n5,1,1\n3,9,9\n6,2,2", SCHEMA, "u", "s"
    )
    assert session.t.tolist() == [0, 5, 6]
    assert session.x.tolist() == [0, 1, 2]
    assert report.dropped == 1


def test_duplicate_timestamps_kept():
    session, _ = parse_session(b"t,x,y\n1,0,0\n1,1,1\n2,2,2", SCHEMA, "u", "s")
    assert session.t.tolist() == [1, 1, 2]


def test_negative_timestamp_dropped():
    session, report = parse_session(b"t,x,y\n-1,0,0\n0,1,1\n1,2,2", SCHEMA, "u", "s")
    assert session.t.tolist() == [0, 1]
    assert report.dropped == 1


def test_balabit_layout_reads_client_timestamp():
    schema = SchemaMap(**PRESETS["balabit"]["schema"])
    data = (b"record timestamp,client timestamp,button,state,x,y\n"
            b"7.5,0.25,NoButton,Move,10,20\n"
            b"7.6,0.5,Left,Pressed,11,22\n")
    session, report = parse_session(data, schema, "u", "s")
    assert report == ParseReport("s", events=2, dropped=0)
    assert session.t.tolist() == [0.25, 0.5]
    assert session.x.tolist() == [10, 11] and session.y.tolist() == [20, 22]


def test_parse_deterministic():
    data = b"t,x,y\n0,0,0\n1,1,2\n2,3,4"
    a, b = parse_session(data, SCHEMA, "u", "s")[0], parse_session(data, SCHEMA, "u", "s")[0]
    for col in ("t", "x", "y"):
        assert np.array_equal(getattr(a, col), getattr(b, col))


@given(
    st.lists(
        st.tuples(
            st.floats(0, 1e4, allow_nan=False),
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(-1e6, 1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_monotonicity_and_row_accounting(rows):
    body = "".join(f"{t!r},{x!r},{y!r}\n" for t, x, y in rows)
    session, report = parse_session(("t,x,y\n" + body).encode(), SCHEMA, "u", "s")
    assert np.all(np.diff(session.t) >= 0)
    assert report.events + report.dropped == len(rows)


def test_load_user_two_files(tmp_path):
    for name in ("a", "b"):
        (tmp_path / f"{name}.csv").write_text("t,x,y\n0,0,0\n1,1,1\n")
    sessions, reports = load_user(
        [tmp_path / "a.csv", tmp_path / "b.csv"], SCHEMA, "u"
    )
    assert [s.session_id for s in sessions] == ["a", "b"]
    assert len(reports) == 2


def test_load_user_keeps_a_file_without_a_valid_row(tmp_path):
    (tmp_path / "good.csv").write_text("t,x,y\n0,0,0\n1,1,1\n")
    (tmp_path / "bad.csv").write_text("t,x,y\nbad,0,0\nnan,1,0\n-1,2,0\n")
    (tmp_path / "empty.csv").write_bytes(b"")
    sessions, reports = load_user(
        [tmp_path / "good.csv", tmp_path / "bad.csv", tmp_path / "empty.csv"], SCHEMA, "u"
    )
    assert [s.session_id for s in sessions] == ["good", "bad", "empty"]
    assert [len(s.t) for s in sessions] == [2, 0, 0]
    assert reports == [ParseReport("good", 2, 0), ParseReport("bad", 0, 3),
                       ParseReport("empty", 0, 0)]


def test_load_user_rejects_a_repeated_session_id(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "s0.csv").write_text("t,x,y\n0,0,0\n1,1,1\n")
    with pytest.raises(MouseAuthError, match="u: more than one input file for session s0"):
        load_user([tmp_path / "a" / "s0.csv", tmp_path / "b" / "s0.csv"], SCHEMA, "u")


def test_load_user_no_files():
    with pytest.raises(MouseAuthError, match="u: no input files"):
        load_user([], SCHEMA, "u")


def test_load_user_all_fail(tmp_path):
    (tmp_path / "empty.csv").write_text("t,x,y\n")
    with pytest.raises(MouseAuthError, match="u: all 1 files failed to parse"):
        load_user([tmp_path / "empty.csv"], SCHEMA, "u")


def test_report_record(tmp_path, capsys):
    vel = generate(SynthSpec("gaussian_iid", {"mean": 10, "std": 1}, 700, seed=3))
    lines = to_session_csv(vel).splitlines()
    lines.insert(5, "0.04,junk,0")
    (tmp_path / "s.csv").write_text("\n".join(lines) + "\n")
    code = main(["sufficiency", "--user", "u", "--out", str(tmp_path / "out"),
                 str(tmp_path / "s.csv")])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["parse_reports"] == [{"file": "s", "events": 701, "dropped": 1}]


# field tokens: every way a value can be malformed, text, a field holding a
# comma, tokens float() reads but the bulk converter leaves to it, and plain
# numbers that make some rows negative or out of order
TOKENS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0.0", "junk", "", " 2 ", "1_0", "١٢",
                     "+.5e-3", "1.2.3", "Infinity", "NoButton", "1,5"]),
    st.integers(-2, 12).map(str),
    st.floats(-1, 12, allow_nan=False).map(repr),
)


@st.composite
def session_files(draw):
    """A session file with optional state and button columns, which parsing
    ignores, and an optional leading byte-order mark, as str or bytes, with
    its column names and the rows the csv module reads from it.

    Lines end in LF, CR LF or a bare CR. Half of the files are written by
    csv.writer, which quotes a field that holds a comma (or, with QUOTE_ALL,
    every field); the other half join the fields with commas, so a field
    that holds one reads as two.
    """
    extra = [name for name in ("state", "button") if draw(st.booleans())]
    names = draw(st.permutations(["t", "x", "y"] + extra))
    width = len(names)
    drawn = draw(st.lists(
        st.one_of(st.lists(TOKENS, min_size=width, max_size=width),
                  st.lists(TOKENS, max_size=width - 1)),  # short and blank rows
        max_size=30,
    ))
    writer = draw(st.booleans())
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    out = io.StringIO()
    for row in [names] + drawn:
        ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        if writer:
            csv.writer(out, lineterminator=ending, quoting=quoting).writerow(row)
        else:
            out.write(",".join(row) + ending)
    if writer:
        rows = [row for row in drawn if row]  # csv.writer quotes a lone empty field
    else:
        # a blank line, and so a row of one empty field, is skipped
        rows = [line.split(",") for line in map(",".join, drawn) if line]
    text = out.getvalue()
    if draw(st.booleans()):
        text = "\ufeff" + text
    if draw(st.booleans()):
        text = text.encode()
    return text, names, rows


@settings(max_examples=500)
@given(session_files())
def test_parse_matches_row_by_row(case):
    text, names, rows = case
    idx = {name: i for i, name in enumerate(names)}
    kept, dropped = row_by_row(rows, idx["t"], idx["x"], idx["y"])
    session, report = parse_session(text, SCHEMA, "u", "s")
    assert report == ParseReport("s", events=len(kept), dropped=dropped)
    assert report.dropped + report.events == len(rows)
    # bit for bit: -0.0 must stay -0.0
    for col, values in zip("txy", np.array(kept, dtype=float).reshape(-1, 3).T):
        assert getattr(session, col).tobytes() == values.tobytes()


# tokens the csv module reads differently from a split at commas: a quote
# inside an unquoted field, an unterminated quote, "", quoted commas and line
# ends, a NUL and a bare CR
QUOTING_TOKENS = st.one_of(
    st.sampled_from(['a"b', '1"', '"5', '""', '"""', '"1,5"', '"2\n3"', '"4\r\n"', '"7"',
                     '"-0.0"', "\0", "1\0", "x\ry", "\r", "nan", "junk", ""]),
    st.integers(-2, 12).map(str),
    st.floats(-1, 12, allow_nan=False).map(repr),
)


@st.composite
def quoting_files(draw):
    """A file of QUOTING_TOKENS joined with commas, as str or bytes, and
    its column names."""
    extra = [name for name in ("state", "button") if draw(st.booleans())]
    names = draw(st.permutations(["t", "x", "y"] + extra))
    rows = draw(st.lists(st.lists(QUOTING_TOKENS, max_size=len(names) + 1), max_size=30))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(rows),
                            max_size=len(rows)))
    text = ",".join(names) + "\n" + "".join(
        ",".join(row) + ending for row, ending in zip(rows, endings))
    return (text.encode() if draw(st.booleans()) else text), names


@settings(max_examples=300)
@given(quoting_files())
def test_parse_matches_the_csv_module_on_quoting_files(case):
    data, names = case
    text = data.decode() if isinstance(data, bytes) else data
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    rows = []
    while True:
        try:
            rows.append(next(reader))
        except StopIteration:
            break
        except csv.Error:  # the row is dropped and counted
            rows.append(["csv error"])
    idx = {name: i for i, name in enumerate(names)}
    kept, dropped = row_by_row(rows, idx["t"], idx["x"], idx["y"])
    session, report = parse_session(data, SCHEMA, "u", "s")
    assert report == ParseReport("s", events=len(kept), dropped=dropped)
    assert report.dropped + report.events == len([row for row in rows if row])  # no blank line
    for col, values in zip("txy", np.array(kept, dtype=float).reshape(-1, 3).T):
        assert getattr(session, col).tobytes() == values.tobytes()


@settings(max_examples=300)
@given(st.lists(st.one_of(st.text(ingest.NUMBER_BYTES.decode(), min_size=1, max_size=10),
                          st.floats().map(repr).filter(lambda s: s.isascii() and "n" not in s)),
                min_size=1, max_size=5))
def test_loadtxt_reads_number_bytes_as_float_does(tokens):
    # the premise of the bulk converter: on these bytes np.loadtxt accepts,
    # rejects and rounds exactly as float() does
    try:
        expected = [float(token) for token in tokens]
    except ValueError:
        with pytest.raises(ValueError):
            np.loadtxt(tokens, delimiter=",", comments=None, ndmin=1)
        return
    got = np.loadtxt(tokens, delimiter=",", comments=None, ndmin=1)
    assert got.tobytes() == np.array(expected).tobytes()


def test_only_rows_outside_the_bulk_take_float(monkeypatch):
    # 4,950 plain rows and 50 malformed ones: only those 50 are read field by field
    calls = []

    def counted(fields, cols):
        calls.append(fields)
        return float_row(fields, cols)

    float_row = ingest._float_row
    monkeypatch.setattr(ingest, "_float_row", counted)
    malformed = ["{t},junk,0", "nan,{t},1", "{t},1", "{t},1_0,2", "{t}, 2 ,3"]
    lines = ["t,x,y"]
    for i in range(5000):
        t = repr(i * 0.01)
        lines.append((malformed[i // 100 % 5] if i % 100 == 7 else "{t},{t},-{t}").format(t=t))
    session, report = parse_session("\n".join(lines).encode(), SCHEMA, "u", "s")
    assert len(calls) == 50
    # junk, nan and the short row are dropped; float() reads 1_0 and " 2 "
    assert report == ParseReport("s", events=4970, dropped=30)
    x_at = dict(zip(session.t.tolist(), session.x.tolist()))
    assert x_at[307 * 0.01] == 10.0 and x_at[407 * 0.01] == 2.0


@pytest.mark.parametrize("quote", ["", '"'])
def test_field_past_the_csv_limit_drops_its_row(quote):
    # the csv module raised out of parse_session; now the row is dropped and
    # counted, and reading resumes on the next line
    long = quote + "1" * (csv.field_size_limit() + 1) + quote
    data = f"t,x,y,state\n0,0,0,a\n1,1,1,{long}\n2,2,2,b\n3,{long},3,c\n4,4,4,d\n"
    session, report = parse_session(data.encode(), SCHEMA, "u", "s")
    assert report == ParseReport("s", events=3, dropped=2)
    assert session.t.tolist() == [0, 2, 4]


def test_csv_limit_counts_characters_not_bytes():
    wide = "é" * csv.field_size_limit()  # twice as many bytes as the limit
    data = f"t,x,y,state\n0,0,0,{wide}\n1,1,1,a\n"
    _, report = parse_session(data.encode(), SCHEMA, "u", "s")
    assert report == ParseReport("s", events=2, dropped=0)


def test_field_past_the_csv_limit_in_cli(tmp_path, capsys):
    # `mouseauth sufficiency` died with a traceback on such a file
    vel = generate(SynthSpec("gaussian_iid", {"mean": 10, "std": 1}, 700, seed=3))
    lines = to_session_csv(vel).splitlines()
    lines.insert(5, "0.04," + "1" * (csv.field_size_limit() + 1) + ",0")
    (tmp_path / "s.csv").write_text("\n".join(lines) + "\n")
    code = main(["sufficiency", "--user", "u", "--out", str(tmp_path / "out"),
                 str(tmp_path / "s.csv")])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["parse_reports"] == [{"file": "s", "events": 701, "dropped": 1}]


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_line_endings(ending):
    data = ending.join(["t,x,y", "0,0,0", "", "1,1,1", "2,2,2"])
    session, report = parse_session(data.encode(), SCHEMA, "u", "s")
    assert session.t.tolist() == [0, 1, 2]
    assert report == ParseReport("s", events=3, dropped=0)


def test_ill_formed_number_falls_back_to_float():
    # 1.2.3 holds only number bytes, so np.loadtxt sees it and rejects the
    # file's bulk; float() then reads every row
    session, report = parse_session(b"t,x,y\n0,0,0\n1,1.2.3,1\n2,2,2", SCHEMA, "u", "s")
    assert session.t.tolist() == [0, 2]
    assert report == ParseReport("s", events=2, dropped=1)
