"""Weighted-point CSV I/O: the C-parsed loader, the row reader and the block writer.

Every test here runs with warnings as errors, so no warning from the C
reader (such as numpy's "input contained no data") can leak to callers.
"""

import csv
import io
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from wkmeans import baselines, cli, core
from wkmeans.core import (
    PointFileError,
    WeightedPointSet,
    load_weighted_points,
    save_weighted_points,
)
from wkmeans.sampling import RandomSource

# Where libcst is installed, Hypothesis imports it to report a failure, and
# its import warns; without the second filter that turns a test failure into
# a pytest internal error.
pytestmark = pytest.mark.filterwarnings("error", "ignore::DeprecationWarning:libcst")


def _csv_writer_reference(P: WeightedPointSet, labels=None, lineterminator="\r\n") -> str:
    """The row-at-a-time writer both outputs used: `csv.writer` over repr'd floats.

    With `lineterminator="\\r\\n"` and no labels this is the old
    `save_weighted_points`; with "\\n" and labels, the old `--format csv`.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=lineterminator)
    header = [f"x{i + 1}" for i in range(P.dim)] + ["weight"]
    writer.writerow(header if labels is None else header + ["cluster"])
    for i in range(P.n):
        row = [repr(float(v)) for v in P.coords[i]] + [repr(float(P.weights[i]))]
        writer.writerow(row if labels is None else row + [int(labels[i])])
    return buf.getvalue()


def _row_reader_load(path) -> WeightedPointSet:
    """The loader with the C reader left out: header check, then `float` row by row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        data = core._read_rows(reader, core._read_header(reader))
    try:
        return WeightedPointSet(data[:, :-1], data[:, -1])
    except ValueError as exc:
        raise PointFileError(2, str(exc)) from None


def _outcome(load, path):
    """(coords bytes, weights bytes) or the PointFileError text."""
    try:
        P = load(path)
    except PointFileError as exc:
        return str(exc)
    return P.coords.tobytes(), P.weights.tobytes()


_COORD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e300, -1e300, 1e-300, -1e-300]),
)
_WEIGHT = st.one_of(
    st.floats(0.0, 1.7976931348623157e308, exclude_min=True),
    st.sampled_from([5e-324, 2.0**-1022, 1e-300, 1e300, 1.0]),
)


@st.composite
def _point_sets(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 50))
    coords = draw(st.lists(st.lists(_COORD, min_size=d, max_size=d), min_size=n, max_size=n))
    weights = draw(st.lists(_WEIGHT, min_size=n, max_size=n))
    return WeightedPointSet(np.array(coords), np.array(weights))


@given(_point_sets(), st.sampled_from([core._WRITE_ROWS, 1, 3]))
def test_point_file_round_trip_is_bit_identical(tmp_path_factory, P, block):
    """save -> load gives the same doubles bit for bit, and the bytes csv.writer wrote.

    Small blocks put block boundaries between rows; the bytes must not move.
    """
    path = tmp_path_factory.mktemp("rt") / "pts.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_WRITE_ROWS", block)
        save_weighted_points(path, P)
    assert path.read_bytes() == _csv_writer_reference(P).encode("utf-8")
    Q = load_weighted_points(path)
    assert Q.coords.tobytes() == P.coords.tobytes()
    assert Q.weights.tobytes() == P.weights.tobytes()


@given(_point_sets(), st.data())
def test_cluster_rows_match_the_csv_writer(P, data):
    """The `--format csv` rows, labels included, equal the old csv.writer output."""
    labels = np.array(data.draw(st.lists(st.integers(0, 40), min_size=P.n, max_size=P.n)))
    buf = io.StringIO()
    core._write_rows(buf, P, "\n", labels)
    assert buf.getvalue() == _csv_writer_reference(P, labels, "\n")


def test_cluster_csv_output_matches_the_csv_writer(tmp_path, capsys):
    """`wkmeans cluster --format csv` writes the old bytes to a file and to stdout."""
    P = WeightedPointSet(
        np.random.default_rng(5).normal(5e6, 300.0, (300, 3)),
        np.random.default_rng(6).lognormal(0.0, 1.0, 300),
    )
    points = tmp_path / "pts.csv"
    save_weighted_points(points, P)
    result = baselines.kmeanspp_lloyd(P, 3, RandomSource(4))
    want = _csv_writer_reference(P, result.assignment, "\n")
    args = ["cluster", "--input", str(points), "--k", "3", "--solver", "kmeanspp-lloyd",
            "--seed", "4", "--format", "csv"]
    out = tmp_path / "out.csv"
    assert cli.main(args + ["--output", str(out)]) == 0
    assert out.read_bytes() == want.encode("utf-8")
    capsys.readouterr()
    assert cli.main(args) == 0
    assert capsys.readouterr().out == want


# Fields and lines that the two readers could disagree on.
_FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from([
        "1", "-0.0", "+1.5", "1E5", "2e-3", ".5", "5.", " 1.5 ", "\t2\t", "1e400", "1e-400",
        '"2.5"', '"3" ', ' "4"', '"1,5"', '"1""2"', '1"2', '"7\n"', '"8\r\n"',
        "1_000", "0x10", "#1", "", " ", "nan", "inf", "-Infinity", "\xa01", "١",
        "1.0\x00",
    ]),
)
_EXTRA_LINES = st.sampled_from(["", "   ", "\t", '""', "#", "# note", ","])
_NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _point_files(draw):
    width = draw(st.integers(2, 4))
    header = ",".join([f"x{i + 1}" for i in range(width - 1)] + ["weight"])
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(_EXTRA_LINES))
        else:
            # Mostly full rows, sometimes one field short or over.
            fields = width + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
            lines.append(",".join(draw(st.lists(_FIELDS, min_size=fields, max_size=fields))))
    newline = draw(_NEWLINES)
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    return text


@given(_point_files())
@example("x1,weight\n1.0,2.0\n")
@example("x1,weight\r\n1.0,2.0\r\n\r\n   \r\n3.0,4.0")
@example('x1,x2,weight\n"1.0",+2E1,3\n')
@example("x1,weight\n1_000,1\n")
@example("x1,weight\n1.0,1\n#1,1\n")
@example("x1,weight\n1.0,,1\n")
@example("x1,weight\n")
@example("x1,weight\n\n   \n")
@example("x1,weight\n1.0,-1\n")
@example("x1,weight\n1.0,2.0\n3.0\n")
def test_c_reader_matches_row_reader(tmp_path_factory, text):
    """Each file loads to the same arrays, or fails with the same message, both ways."""
    path = tmp_path_factory.mktemp("diff") / "pts.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_weighted_points, path) == _outcome(_row_reader_load, path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("", "line 2: no data rows"),
        ("\n  \n", "line 2: no data rows"),
        ("0.0,1.0\noops,1.0\n", "line 3: bad number: could not convert string to float: 'oops'"),
        ("0.0,1.0\n#1,1\n", "line 3: bad number: could not convert string to float: '#1'"),
        ("0.0,1.0\n1,,1\n", "line 3: expected 2 fields, got 3"),
        ("0.0,1.0\n\n1\n", "line 4: expected 2 fields, got 1"),
        ("0.0,-2.0\n", "line 2: weights must be positive and finite"),
        ("inf,1.0\n", "line 2: coordinates must be finite"),
    ],
)
def test_point_file_error_messages(tmp_path, body, message):
    """Errors keep the row reader's text and line, whichever reader saw them first."""
    path = tmp_path / "pts.csv"
    path.write_text("x1,weight\n" + body)
    with pytest.raises(PointFileError) as err:
        load_weighted_points(path)
    assert str(err.value) == message


# 200,000 characters, past the csv module's default field limit of 131,072.
_LONG_NUMBER = "1." + "0" * 199_998


@pytest.mark.parametrize(
    "text, line",
    [
        ("x1," + "w" * 200_000 + "\n1,1\n", 1),
        # The C reader takes the long number; the `1_000` row sends the file
        # to the row reader, which meets the long field first.
        (f"x1,weight\n2,1\n{_LONG_NUMBER},1\n1_000,1\n", 3),
    ],
    ids=["header", "body"],
)
def test_oversized_field_is_a_point_file_error(tmp_path, capsys, text, line):
    """The csv module's field limit names the line, in the library and the CLI."""
    path = tmp_path / "pts.csv"
    path.write_text(text)
    with pytest.raises(PointFileError) as err:
        load_weighted_points(path)
    assert str(err.value).startswith(f"line {line}: field larger than field limit")
    assert cli.main(["cluster", "--input", str(path), "--k", "1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}: field larger")


def test_plain_files_skip_the_row_reader(tmp_path, monkeypatch):
    """Ordinary files are parsed by the C reader alone; `1_000` needs the row reader."""
    path = tmp_path / "pts.csv"
    path.write_text('x1,x2,weight\r\n1.5,"-2",1e-3\r\n\r\n+4,5E2,6\r\n')

    def refuse(reader, width):
        raise AssertionError("row reader used")

    with monkeypatch.context() as m:
        m.setattr(core, "_read_rows", refuse)
        P = load_weighted_points(path)
    assert P.coords.tolist() == [[1.5, -2.0], [4.0, 500.0]]
    assert P.weights.tolist() == [1e-3, 6.0]
    path.write_text("x1,weight\n1_000,2\n")
    assert load_weighted_points(path).coords.tolist() == [[1000.0]]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_from_a_pipe(tmp_path):
    """A pipe cannot be read twice; the row reader still gets the whole body."""
    fifo = tmp_path / "pts.fifo"
    os.mkfifo(fifo)
    text = "x1,weight\n1.0,2.0\n1_000,3.0\n"
    writer = threading.Thread(target=lambda: fifo.write_text(text), daemon=True)
    writer.start()
    P = load_weighted_points(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert P.coords.tolist() == [[1.0], [1000.0]]
    assert P.weights.tolist() == [2.0, 3.0]
