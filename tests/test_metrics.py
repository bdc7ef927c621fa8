"""The metrics CSV codec: bytes equal to csv.writer's, exact round-trips, and
malformed files rejected with the file and line named."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from samlab.diagnostics import NORM_TRACE_FIELDS, read_norm_trace, write_norm_trace
from samlab.errors import ConfigurationError
from samlab.metrics import (FIELD_ORDER, MalformedRowError, MetricsRecord, _column_type,
                            _read_columns, read_metrics_csv, write_metrics_csv)

from helpers import oracle_read_rows, oracle_write_rows

_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, float("inf"), float("-inf"),
                0.1, 1.0 / 3.0, 2.0**53 + 1.0]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=True))


def _value(kind):
    value = {"bool": st.booleans(), "int": st.integers(-2**70, 2**70), "float": _FLOATS}[kind]
    if kind == "float":  # numpy scalars are written like the Python floats they hold
        value = st.one_of(value, value.map(np.float64))
    return value


def _cell(kind):
    return st.one_of(st.none(), _value(kind))


_INDEPENDENT = st.lists(st.fixed_dictionaries({name: _cell(_column_type(name))
                                               for name in FIELD_ORDER}), max_size=40)


@st.composite
def _repeating(draw):
    """Rows whose cells repeat a few objects per column, in runs that cross a block.

    Every float column's pool holds distinct 0.0 and -0.0 objects, as Python
    and numpy floats, next to drawn values and None: a writer that memoised
    by equality instead of identity would write one zero's repr for the other.
    """
    pools = {}
    for name in FIELD_ORDER:
        kind = _column_type(name)
        pool = draw(st.lists(_cell(kind), min_size=1, max_size=3))
        if kind == "float":
            pool += [0.0, -0.0, np.float64(0.0), np.float64(-0.0), None]
        pools[name] = pool
    runs = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(1, 30)), max_size=8))
    rows = []
    for pick, length in runs:
        rows += [{name: pool[pick % len(pool)] for name, pool in pools.items()}
                 for _ in range(length)]
    return rows


_RECORDS = st.one_of(_INDEPENDENT, _repeating())


def _normalise(row):
    """The value a cell reads back as: the Python type of its column."""
    cast = {"bool": bool, "int": int, "float": float}
    return {k: None if v is None else cast[_column_type(k)](v) for k, v in row.items()}


def _key(rows):
    # repr tells -0.0 from 0.0, which == does not
    return [repr(sorted(row.items())) for row in rows]


@settings(deadline=None)  # timing on a shared host is not what this checks
@given(rows=_RECORDS)
def test_metrics_codec_matches_csv_writer_and_round_trips(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("codec")
    records = [MetricsRecord(**row) for row in rows]
    write_metrics_csv(tmp / "new.csv", records)
    oracle_write_rows(tmp / "old.csv", FIELD_ORDER, rows, _column_type)
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()
    back = [vars(rec) for rec in read_metrics_csv(tmp / "new.csv")]
    assert _key(back) == _key([_normalise(row) for row in rows])
    assert _key(back) == _key(oracle_read_rows(tmp / "old.csv", FIELD_ORDER, _column_type))


@settings(deadline=None)  # timing on a shared host is not what this checks
@given(rows=_RECORDS)
def test_one_formatting_pass_writes_both_files_as_two_writes(tmp_path_factory, rows):
    """A metrics file and its norm-trace projection from one pass equal two separate writes.

    The drawn rows hold runs of None, distinct 0.0 and -0.0 objects and float
    objects repeated across blocks.
    """
    tmp = tmp_path_factory.mktemp("projection")
    records = [MetricsRecord(**row) for row in rows]
    write_metrics_csv(tmp / "metrics.csv", records, [(tmp / "norm_trace.csv", NORM_TRACE_FIELDS)])
    write_metrics_csv(tmp / "metrics_alone.csv", records)
    write_norm_trace(tmp / "norm_trace_alone.csv", rows)
    assert (tmp / "metrics.csv").read_bytes() == (tmp / "metrics_alone.csv").read_bytes()
    assert (tmp / "norm_trace.csv").read_bytes() == (tmp / "norm_trace_alone.csv").read_bytes()


# float cells that are their own edge cases: NaN, both zeros and both infinities
_SPECIAL_FLOATS = [float("nan"), 0.0, -0.0, float("inf"), float("-inf")]


@st.composite
def _columns(draw):
    """1-130 rows, as columns: each column all empty, never empty, or mixed.

    A column's cells are picked from a small pool of objects, so the same
    object repeats, in runs and apart; float pools always hold NaN, both
    zeros and both infinities.
    """
    count = draw(st.integers(1, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for name in FIELD_ORDER:
        kind = _column_type(name)
        fill = draw(st.sampled_from(["empty", "full", "mixed"]))
        if fill == "empty":
            columns[name] = [None] * count
            continue
        pool = draw(st.lists(_value(kind), min_size=1, max_size=3))
        if kind == "float":
            pool += _SPECIAL_FLOATS
        if fill == "mixed":
            pool.append(None)
        runs = rng.integers(1, 20, size=count)  # run lengths; only the first count cells are used
        picks = np.repeat(rng.integers(0, len(pool), size=count), runs)[:count]
        columns[name] = [pool[i] for i in picks.tolist()]
    return columns


def _expected_columns(columns, header):
    """The ``header`` columns as they read back, by repr: NaN matches NaN, -0.0 differs from 0.0."""
    cast = {"bool": bool, "int": int, "float": float}
    return [[repr(None if v is None else cast[_column_type(name)](v)) for v in columns[name]]
            for name in header]


@settings(deadline=None)  # timing on a shared host is not what this checks
@given(columns=_columns(), names=st.lists(st.sampled_from(FIELD_ORDER), min_size=1, unique=True))
def test_read_columns_returns_the_written_columns(tmp_path_factory, columns, names):
    tmp = tmp_path_factory.mktemp("columns")
    count = len(columns["iteration"])
    records = [MetricsRecord(**{name: columns[name][i] for name in FIELD_ORDER})
               for i in range(count)]
    write_metrics_csv(tmp / "metrics.csv", records, [(tmp / "trace.csv", NORM_TRACE_FIELDS),
                                                     (tmp / "names.csv", names)])

    def read(path, header, names=None):
        got = _read_columns(path, header, names)
        assert all(type(column) is list and len(column) == count for column in got)
        return [[repr(v) for v in column] for column in got]

    assert read(tmp / "metrics.csv", FIELD_ORDER) == _expected_columns(columns, FIELD_ORDER)
    assert read(tmp / "metrics.csv", FIELD_ORDER, names) == _expected_columns(columns, names)
    assert read(tmp / "trace.csv", NORM_TRACE_FIELDS) == _expected_columns(columns,
                                                                         NORM_TRACE_FIELDS)
    # the projection text read back is the projection file that the same write wrote
    for projection, path in ((NORM_TRACE_FIELDS, "trace.csv"), (names, "names.csv")):
        got, text = _read_columns(tmp / "metrics.csv", FIELD_ORDER, names, projection)
        assert [[repr(v) for v in column] for column in got] == _expected_columns(columns, names)
        assert text.encode("ascii") == (tmp / path).read_bytes()


@pytest.mark.parametrize("cell, text", [
    ('"0.5"', "0.5"),  # a quoted cell projects as the cell it tokenizes to
    ('" 0.5"', " 0.5"),
    ('"0.5\r"', None), ('"0.5\n"', None), ('"0.5\r\n"', None),  # a row over two lines
])
def test_projection_text_is_joined_from_the_tokenized_cells(tmp_path, cell, text):
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, [MetricsRecord(iteration=1, epoch=0, train_loss=0.25, l2_sgd=0.5,
                                           sampled=False, cumulative_grad_evals=1,
                                           wall_clock_seconds=0.1)])
    data = path.read_text(encoding="ascii").replace(",0.5,", f",{cell},")
    path.write_bytes(data.encode("ascii"))
    (l2_sgd,), got = _read_columns(path, FIELD_ORDER, ["l2_sgd"], NORM_TRACE_FIELDS)
    assert l2_sgd == [0.5]
    head = ",".join(NORM_TRACE_FIELDS) + "\r\n"
    assert got == (None if text is None else head + f"1,{text},,,,\r\n")


def _trace_rows(count):
    """Deterministic norm-trace rows with every column type and empty cells."""
    rng = np.random.default_rng(count)
    rows = []
    for i in range(count):
        stale = None if i % 3 == 0 else bool(i % 2)
        rows.append({"iteration": i + 1, "l2_sgd": float(rng.standard_normal()),
                     "l2_psf": None if stale is None else float(rng.exponential()),
                     "l2_sgd_subset": float(rng.standard_normal()) * 1e-300,
                     "l2_psf_subset": None if i % 5 == 0 else -0.0,
                     "psf_stale": stale})
    return rows


def _records(count):
    records = []
    for row in _trace_rows(count):
        i = row["iteration"]
        records.append(MetricsRecord(
            iteration=i, epoch=i // 25, train_loss=row["l2_sgd"] ** 2, l2_sgd=row["l2_sgd"],
            sampled=i % 2 == 0, cumulative_grad_evals=2 * i, wall_clock_seconds=i * 1e-3,
            eval_loss=None if i % 25 else 0.5, l2_psf=row["l2_psf"],
            psf_stale=row["psf_stale"], p=0.3 if i > 10 else None, v_fallback=i % 7 == 0))
    return records


BLOCK_EDGES = [0, 1, 255, 256, 257, 513]


@pytest.mark.parametrize("count", BLOCK_EDGES)
def test_metrics_file_block_edges(tmp_path, count):
    records = _records(count)
    write_metrics_csv(tmp_path / "new.csv", records)
    oracle_write_rows(tmp_path / "old.csv", FIELD_ORDER, [vars(r) for r in records],
                      _column_type)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert _key([vars(r) for r in read_metrics_csv(tmp_path / "new.csv")]) == _key(
        [vars(r) for r in records])


@pytest.mark.parametrize("count", BLOCK_EDGES)
def test_norm_trace_file_block_edges(tmp_path, count):
    rows = _trace_rows(count)
    write_norm_trace(tmp_path / "new.csv", rows)
    oracle_write_rows(tmp_path / "old.csv", NORM_TRACE_FIELDS, rows, _column_type)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert _key(read_norm_trace(tmp_path / "new.csv")) == _key(rows)


# ---------------------------------------------------------------------------
# malformed files: (file writer, reader, rows, header)

FILES = {
    "metrics": (write_metrics_csv, read_metrics_csv, lambda n: _records(n), FIELD_ORDER),
    "norm_trace": (write_norm_trace, read_norm_trace, lambda n: _trace_rows(n),
                   NORM_TRACE_FIELDS),
}


def _tamper(path, line, edit):
    """Apply ``edit`` to the cells of 1-based ``line`` of a CSV file."""
    lines = path.read_bytes().decode("ascii").split("\r\n")
    lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
    path.write_bytes("\r\n".join(lines).encode("ascii", errors="surrogateescape"))


def _set_column(header, name, value):
    def edit(cells):
        cells[header.index(name)] = value
        return cells
    return edit


TAMPERS = {
    "extra cell": (lambda header: lambda cells: cells + ["0"], "expected"),
    "short row": (lambda header: lambda cells: cells[:-1], "expected"),
    "bad float": (lambda header: _set_column(header, "l2_sgd", "1.0x"), "cannot parse l2_sgd"),
    "bad int": (lambda header: _set_column(header, "iteration", "2.5"),
                "cannot parse iteration"),
    "bad bool": (lambda header: _set_column(header, "psf_stale", "yes"),
                 "cannot parse psf_stale"),
    "non-ascii byte": (lambda header: _set_column(header, "l2_sgd", "1.5\udcc3"),
                       "byte 0xc3 is not ASCII"),
}


@pytest.mark.parametrize("file", FILES)
@pytest.mark.parametrize("tamper", TAMPERS)
@pytest.mark.parametrize("line", [2, 300])  # in the first block, and in a later one
def test_malformed_row_names_file_and_line(tmp_path, file, tamper, line):
    write, read, make_rows, header = FILES[file]
    path = tmp_path / f"{file}.csv"
    write(path, make_rows(400))
    edit, message = TAMPERS[tamper]
    _tamper(path, line, edit(header))
    with pytest.raises(MalformedRowError, match=f"line {line}: {message}") as err:
        read(path)
    assert isinstance(err.value, ConfigurationError)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("file", FILES)
@pytest.mark.parametrize("bad_name", ["xiteration", "iteration\udcc3"])
def test_wrong_header_is_configuration_error(tmp_path, file, bad_name):
    write, read, make_rows, _ = FILES[file]
    path = tmp_path / f"{file}.csv"
    write(path, make_rows(3))
    _tamper(path, 1, lambda cells: [bad_name] + cells[1:])
    with pytest.raises(ConfigurationError, match="unexpected CSV header") as err:
        read(path)
    assert not isinstance(err.value, MalformedRowError)


def test_write_metrics_csv_writes_new_files(tmp_path):
    # a second name keeps each earlier file, so a rewrite in place would show through it
    metrics, trace = tmp_path / "metrics.csv", tmp_path / "norm_trace.csv"
    for path in (metrics, trace):
        path.write_bytes(b"earlier")
        os.link(path, tmp_path / f"earlier_{path.name}")
    records = [MetricsRecord(iteration=1, epoch=0, train_loss=0.5, l2_sgd=1.0, sampled=False,
                             cumulative_grad_evals=1, wall_clock_seconds=0.1)]
    write_metrics_csv(metrics, records, [(trace, NORM_TRACE_FIELDS)])
    for path in (metrics, trace):
        assert (tmp_path / f"earlier_{path.name}").read_bytes() == b"earlier"
    assert read_metrics_csv(metrics) == records
    assert trace.read_bytes().startswith(",".join(NORM_TRACE_FIELDS).encode() + b"\r\n")
