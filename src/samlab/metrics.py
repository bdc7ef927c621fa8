"""Per-iteration metrics records and the package's one CSV codec.

The column order below is the stable on-disk schema; every metrics file
starts with exactly this header. Other CSV files (the norm trace) are column
projections of it, written and read by the same codec. Floats are written
with ``repr`` so reading a file back reproduces every value bit-exactly;
empty cells mean "not measured this iteration" and load as ``None``.

The codec works a block of rows (``_BLOCK_ROWS``) at a time, one column at a
time, which keeps the per-cell cost down while holding only one block of raw
text in memory. A float column formats a run of one object once (vSAM rows
repeat their window's ``p``, ``s``, ``c_var`` and ``c_norm``). The one reader,
``_read_columns``, parses every cell into columns: a block's column with no
empty cell by ``map(parse, cells)``, an all-empty one as ``[None] * n``. The
record and trace readers are row views of its columns. Given a projection, it
also joins that projection's text from the cells as tokenized, so a projection
file can be compared with it byte for byte.

Formatting is one pass per block: a write may name column projections of
its rows, and each projection's file is joined from the cells already
formatted for the full file, so a run's ``metrics.csv`` and
``norm_trace.csv`` come from one formatting of its records. A cell's text
depends only on its column's type and value, so a projection's bytes are
those of a separate write of the same rows.

The bytes are exactly what ``csv.writer`` (the default dialect) writes for
the same rows: no cell can hold a comma, a quote or a line break, because a
header name is an identifier and a cell is empty, ``0``/``1``, an ``int`` or
a float ``repr``; such rows need no quoting, so joining the cells with
commas and ending each line with CRLF is all the writer does. Reading still
tokenizes with ``csv.reader``. A wrong header raises ``ConfigurationError``;
a row with the wrong number of cells, a cell that does not parse, or a byte
outside ASCII raises ``MalformedRowError`` naming the file and line.
"""

from __future__ import annotations

import csv
import re
from contextlib import ExitStack
from dataclasses import dataclass, fields
from itertools import islice
from pathlib import Path

from .errors import ConfigurationError

FIELD_ORDER = [
    "iteration",
    "epoch",
    "train_loss",
    "eval_loss",
    "eval_accuracy",
    "l2_sgd",
    "l2_psf",
    "psf_stale",
    "l2_sgd_subset",
    "l2_psf_subset",
    "sampled",
    "p",
    "s",
    "v",
    "r",
    "c_var",
    "c_norm",
    "v_fallback",
    "dot_sgd_psf",
    "cumulative_grad_evals",
    "wall_clock_seconds",
]

_INT_FIELDS = {"iteration", "epoch", "cumulative_grad_evals"}
_BOOL_FIELDS = {"psf_stale", "sampled", "v_fallback"}
# wall-clock-class fields: timings and what is computed from them (a summary's AIS,
# a report's AIS mean and spread), outside the bit-identity contract of a run's output
WALL_CLOCK_FIELDS = {"wall_clock_seconds", "ais", "ais_mean", "ais_std"}


@dataclass
class MetricsRecord:
    iteration: int
    epoch: int
    train_loss: float
    l2_sgd: float
    sampled: bool
    cumulative_grad_evals: int
    wall_clock_seconds: float
    eval_loss: float | None = None
    eval_accuracy: float | None = None
    l2_psf: float | None = None
    psf_stale: bool | None = None
    l2_sgd_subset: float | None = None
    l2_psf_subset: float | None = None
    p: float | None = None
    s: float | None = None
    v: float | None = None
    r: float | None = None
    c_var: float | None = None
    c_norm: float | None = None
    v_fallback: bool | None = None
    dot_sgd_psf: float | None = None


assert set(FIELD_ORDER) == {f.name for f in fields(MetricsRecord)}


class MalformedRowError(ConfigurationError):
    """A data row of a CSV file has the wrong number of cells or a cell that does not parse."""


# rows per block: 256-row blocks were no faster and raised the peak RSS of a
# four-run moons experiment by 0.2-0.3 MB of transient cell strings
_BLOCK_ROWS = 64
# per column type: cell -> value (never given ""); a bad cell raises ValueError or KeyError
_PARSE = {"bool": {"1": True, "0": False}.__getitem__, "int": int, "float": float}


def _column_type(name):
    return "bool" if name in _BOOL_FIELDS else "int" if name in _INT_FIELDS else "float"


def _format_column(kind, values):
    if kind == "float":
        # a run of one object is formatted once; by identity, never by
        # equality, since 0.0 == -0.0 but their reprs differ
        last, cell = None, ""
        return [cell if v is last else (cell := "" if (last := v) is None else repr(float(v)))
                for v in values]
    if kind == "int":
        return ["" if v is None else str(int(v)) for v in values]
    return ["" if v is None else "1" if v else "0" for v in values]


def remove_regular_file(path) -> None:
    """Remove a regular file at ``path``, so that a writer that opens ``path`` next makes a
    new file rather than truncating the old one in place: a hard link to the old file
    keeps its bytes. A symlink, FIFO or device at ``path`` stays and is written through,
    so that ``/dev/stdout`` or a shell's ``>(cmd)`` takes a file's bytes.
    """
    path = Path(path)
    if path.is_file() and not path.is_symlink():
        path.unlink()


def _write_rows(path, header, rows, projections=()) -> None:
    """Write ``header``, then each row (a mapping holding every header column).

    Each ``(path, names)`` of ``projections`` gets a file of the ``names``
    columns of the same rows, joined from the same formatted cells. Bytes
    equal ``csv.writer``'s: no cell needs quoting (see the module docstring),
    so a line is its cells joined by commas, ended by CRLF. Each output is
    written as ``remove_regular_file`` says.
    """
    kinds = [_column_type(name) for name in header]
    rows = iter(rows)
    with ExitStack() as stack:
        outputs = []
        for out, names in [(path, header), *projections]:
            remove_regular_file(out)
            fh = stack.enter_context(open(out, "w", newline="", encoding="ascii"))
            fh.write(",".join(names) + "\r\n")
            outputs.append((fh, [header.index(name) for name in names]))
        while block := list(islice(rows, _BLOCK_ROWS)):
            columns = [_format_column(kind, [row[name] for row in block])
                       for name, kind in zip(header, kinds)]
            for fh, picks in outputs:
                lines = zip(*[columns[j] for j in picks])
                fh.write("\r\n".join(map(",".join, lines)) + "\r\n")


def _read_columns(path, header, names=None, projection=None):
    """The ``names`` columns (default: all) of a file that ``_write_rows`` wrote with ``header``.

    Each is a list of parsed values. Every cell is parsed, named or not, and a
    malformed file raises the errors that the module docstring names.
    Given ``projection`` (names), it returns ``(columns, text)``, ``text`` being
    what ``_write_rows`` writes for that projection of the cells as tokenized,
    or None if a row spans lines (a quoted cell holds a line break).
    """
    parsers = [_PARSE[_column_type(name)] for name in header]
    columns = [[] for _ in header]
    picks = [header.index(name) for name in projection or ()]
    text = [",".join(projection)] if projection is not None else None
    try:
        with open(path, "r", newline="", encoding="ascii") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != header:
                raise ConfigurationError(f"unexpected CSV header in {path}")
            first = 0  # data rows before the block
            while block := list(islice(reader, _BLOCK_ROWS)):
                for offset, row in enumerate(block):
                    if len(row) != len(header):
                        line = _row_line(path, first + offset)
                        raise MalformedRowError(f"{path}, line {line}: expected "
                                                 f"{len(header)} cells, found {len(row)}")
                block_cells = list(zip(*block))
                if text is not None:
                    text += map(",".join, zip(*[block_cells[j] for j in picks]))
                try:
                    for column, parse, cells in zip(columns, parsers, block_cells):
                        empty = cells.count("")
                        if not empty:
                            column += map(parse, cells)
                        elif empty == len(cells):
                            column += [None] * empty
                        else:
                            column += [None if c == "" else parse(c) for c in cells]
                except (ValueError, KeyError):
                    raise _bad_cell(path, first, header, block) from None
                first += len(block)
    except UnicodeDecodeError:
        raise _non_ascii(path) from None
    columns = [columns[header.index(name)] for name in names or header]
    if text is None:
        return columns
    # one line per row, after the header's, unless a quoted cell holds a line break
    return columns, "\r\n".join(text) + "\r\n" if reader.line_num == first + 1 else None


def _row_line(path, index) -> int:
    """The line on which data row ``index`` (from 0) starts; for error messages only.

    A quoted cell may hold a line break, so the file is read again and rows
    are counted with ``csv.reader``.
    """
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        for _ in islice(reader, index + 1):  # the header and the rows before
            pass
        return reader.line_num + 1


def _non_ascii(path) -> ConfigurationError:
    """The error naming the line of the first byte of ``path`` outside ASCII."""
    with open(path, "rb") as fh:
        data = fh.read()
    pos = re.search(rb"[\x80-\xff]", data).start()
    line = data.count(b"\n", 0, pos) + 1
    if line == 1:
        return ConfigurationError(f"unexpected CSV header in {path}")
    return MalformedRowError(f"{path}, line {line}: byte {data[pos]:#x} is not ASCII")


def _bad_cell(path, first, header, block) -> MalformedRowError:
    """The error naming the first cell of ``block``, data rows ``first`` on, that does not parse."""
    for offset, row in enumerate(block):
        for name, cell in zip(header, row):
            try:
                if cell != "":
                    _PARSE[_column_type(name)](cell)
            except (ValueError, KeyError):
                return MalformedRowError(f"{path}, line {_row_line(path, first + offset)}: "
                                         f"cannot parse {name} cell {cell!r}")
    lines = _row_line(path, first), _row_line(path, first + len(block) - 1)
    return MalformedRowError(f"{path}, lines {lines[0]}-{lines[1]}: bad cell")


def write_metrics_csv(path, records, projections=()) -> None:
    """Write ``records`` to ``path``, and each ``(path, names)`` projection from the same cells."""
    _write_rows(path, FIELD_ORDER, (vars(rec) for rec in records), projections)


def read_metrics_csv(path) -> list[MetricsRecord]:
    names = [f.name for f in fields(MetricsRecord)]
    return [MetricsRecord(*values) for values in zip(*_read_columns(path, FIELD_ORDER, names))]
