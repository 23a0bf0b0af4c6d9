import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mouseauth.cli import main
from mouseauth.errors import EmptySession, NoSessions, SchemaError
from mouseauth.ingest import ParseReport, SchemaMap, load_user, parse_session
from mouseauth.synth import SynthSpec, generate, to_session_csv

SCHEMA = SchemaMap(timestamp_col="t", x_col="x", y_col="y")


def row_by_row(rows, idx_t, idx_x, idx_y, idx_state):
    """Reference: the per-row validity rule parse_session applies in one pass.

    Returns the kept (t, x, y, state) rows and the dropped count.
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
        state = row[idx_state].strip() if idx_state is not None and idx_state < len(row) else None
        kept.append((t, x, y, state))
    return kept, dropped


def test_parse_three_rows():
    session, report = parse_session(
        b"t,x,y\n0,0,0\n0.008,3,4\n0.016,6,8", SCHEMA, "u", "s"
    )
    assert len(session.t) == len(session.x) == len(session.y) == 3
    assert report.events == 3 and report.dropped == 0
    assert session.x[1] == 3 and session.y[1] == 4
    assert session.state == (None, None, None)


def test_malformed_row_skipped():
    session, report = parse_session(
        b"t,x,y\n0,0,0\n0.01,abc,4\n0.02,6,8", SCHEMA, "u", "s"
    )
    assert session.t.tolist() == [0, 0.02]
    assert report.dropped == 1


def test_header_only_is_empty():
    with pytest.raises(EmptySession):
        parse_session(b"t,x,y\n", SCHEMA, "u", "s")


def test_missing_column():
    with pytest.raises(SchemaError):
        parse_session(b"t,x\n0,0\n", SCHEMA, "u", "s")


def test_distinct_columns_required():
    with pytest.raises(SchemaError):
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


def test_state_column():
    schema = SchemaMap(timestamp_col="t", x_col="x", y_col="y", state_col="state")
    session, _ = parse_session(b"t,x,y,state\n0,0,0,Move\n1,1,1,Drag", schema, "u", "s")
    assert session.state == ("Move", "Drag")


def test_parse_deterministic():
    data = b"t,x,y\n0,0,0\n1,1,2\n2,3,4"
    a, b = parse_session(data, SCHEMA, "u", "s")[0], parse_session(data, SCHEMA, "u", "s")[0]
    for col in ("t", "x", "y"):
        assert np.array_equal(getattr(a, col), getattr(b, col))
    assert a.state == b.state


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
    try:
        session, report = parse_session(("t,x,y\n" + body).encode(), SCHEMA, "u", "s")
    except EmptySession:
        return
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


def test_load_user_skips_empty_file(tmp_path):
    (tmp_path / "good.csv").write_text("t,x,y\n0,0,0\n1,1,1\n")
    (tmp_path / "empty.csv").write_text("t,x,y\n")
    sessions, reports = load_user(
        [tmp_path / "good.csv", tmp_path / "empty.csv"], SCHEMA, "u"
    )
    assert len(sessions) == 1
    skipped = [r for r in reports if r.events == 0]
    assert len(skipped) == 1 and skipped[0].file == "empty"


def test_load_user_no_files():
    with pytest.raises(NoSessions):
        load_user([], SCHEMA, "u")


def test_load_user_all_fail(tmp_path):
    (tmp_path / "empty.csv").write_text("t,x,y\n")
    with pytest.raises(NoSessions):
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


# field tokens: every way a value can be malformed, plus plain numbers that
# make some rows negative or out of order
TOKENS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0.0", "junk", "", " 2 "]),
    st.integers(-2, 12).map(str),
    st.floats(-1, 12, allow_nan=False).map(repr),
)


@st.composite
def session_files(draw):
    """A session file with optional header, state column and leading byte-order
    mark, as str or bytes, with its schema and rows."""
    header = draw(st.booleans())
    names = draw(st.permutations(["t", "x", "y"] + (["state"] if draw(st.booleans()) else [])))
    width = len(names)
    rows = draw(st.lists(
        st.one_of(st.lists(TOKENS, min_size=width, max_size=width),
                  st.lists(TOKENS, max_size=width - 1)),  # short and blank rows
        max_size=30,
    ))
    if header:
        schema = SchemaMap("t", "x", "y", state_col="state" if "state" in names else None)
    else:
        # headerless files address columns by position
        pos = {name: str(i) for i, name in enumerate(names)}
        schema = SchemaMap(pos["t"], pos["x"], pos["y"], state_col=pos.get("state"),
                           has_header=False)
    lines = ([",".join(names)] if header else []) + [",".join(row) for row in rows]
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    if draw(st.booleans()):
        text = "\ufeff" + text
    if draw(st.booleans()):
        text = text.encode()
    return text, schema, names, rows


@settings(max_examples=400)
@given(session_files())
def test_parse_matches_row_by_row(case):
    text, schema, names, rows = case
    idx = {name: i for i, name in enumerate(names)}
    # a row of one empty field is a blank line, which the csv reader skips
    rows = [row for row in rows if row not in ([], [""])]
    kept, dropped = row_by_row(rows, idx["t"], idx["x"], idx["y"], idx.get("state"))
    if not kept:
        with pytest.raises(EmptySession):
            parse_session(text, schema, "u", "s")
        return
    session, report = parse_session(text, schema, "u", "s")
    assert report == ParseReport("s", events=len(kept), dropped=dropped)
    assert report.dropped + report.events == len(rows)
    for col, values in zip("txy", zip(*kept)):
        # bit for bit: -0.0 must stay -0.0
        assert getattr(session, col).tobytes() == np.array(values, dtype=float).tobytes()
    assert session.state == tuple(row[3] for row in kept)
