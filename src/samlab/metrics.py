"""Per-iteration metrics records and the package's one CSV codec.

``MetricsRecord`` is the stable on-disk schema: its fields, in order, are
``FIELD_ORDER``, the header that every metrics file starts with. Other CSV
files (the norm trace) are column projections of it, written and read by the
same codec. Floats are written with ``repr`` so reading a file back
reproduces every value bit-exactly; empty cells mean "not measured this
iteration" and load as ``None``.

Records are slotted (no ``__dict__``, so ``vars(record)`` raises
``TypeError``; ``dataclasses.asdict`` works), and the codec takes rows as
sequences of values in header order: ``write_metrics_csv`` reads a record's
fields with one ``attrgetter``. It works a block of rows (``_BLOCK_ROWS``) at a
time, one column at a time (``zip(*block)``), which keeps the per-cell cost
down while holding only one block of raw text in memory. A float column
formats a run of one object once (vSAM rows repeat their window's ``p``,
``s``, ``c_var`` and ``c_norm``). The one reader, ``_read_columns``, parses
every cell into columns: a block's column with no empty cell by
``map(parse, cells)``, an all-empty one as ``[None] * n``, and a window column
(``_WINDOW_FIELDS``) one run of equal adjacent cells at a time, parsing the
run's text once, so a run's values are one float object. Equal text, not equal
value, makes a run: ``0.0`` and ``-0.0`` are two. The record and trace readers
are row views of its columns. Given a projection, it also joins that
projection's text from the cells as tokenized, so a projection file can be
compared with it byte for byte.

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
commas and ending each line with CRLF is all the writer does. So a file
that has that shape (ASCII, no quote, one row per CRLF-ended line, each with
the header's number of cells) is tokenized by splitting its lines at commas,
which gives ``csv.reader``'s cells; every other file, and a file with a cell
that does not parse, is read with ``csv.reader``, so the values and errors
never depend on which tokenizer ran. A wrong header raises
``ConfigurationError``; a row with the wrong number of cells, a cell that
does not parse or is longer than ``csv.field_size_limit()``, or a byte
outside ASCII raises ``MalformedRowError`` naming the file and line.
"""

from __future__ import annotations

import csv
import re
from contextlib import ExitStack
from dataclasses import dataclass, fields
from itertools import groupby, islice, repeat
from operator import attrgetter
from pathlib import Path

from .errors import ConfigurationError

# one value per sampler window: vSAM rows repeat these in runs, which the reader parses once
_WINDOW_FIELDS = {"p", "s", "c_var", "c_norm"}
# wall-clock-class fields: timings and what is computed from them (a summary's AIS,
# a report's AIS mean and spread), outside the bit-identity contract of a run's output
WALL_CLOCK_FIELDS = {"wall_clock_seconds", "ais", "ais_mean", "ais_std"}


@dataclass(slots=True)
class MetricsRecord:
    """One iteration's row of ``metrics.csv``, its fields in the file's column order.

    Slotted: it has no ``__dict__``. A field left None is an empty cell.
    """

    iteration: int | None = None
    epoch: int | None = None
    train_loss: float | None = None
    eval_loss: float | None = None
    eval_accuracy: float | None = None
    l2_sgd: float | None = None
    l2_psf: float | None = None
    psf_stale: bool | None = None
    l2_sgd_subset: float | None = None
    l2_psf_subset: float | None = None
    sampled: bool | None = None
    p: float | None = None
    s: float | None = None
    v: float | None = None
    r: float | None = None
    c_var: float | None = None
    c_norm: float | None = None
    v_fallback: bool | None = None
    dot_sgd_psf: float | None = None
    cumulative_grad_evals: int | None = None
    wall_clock_seconds: float | None = None


# the header of every metrics file
FIELD_ORDER = [f.name for f in fields(MetricsRecord)]
# column -> "int", "bool" or "float": the type of its MetricsRecord field, less its "| None"
_column_type = {f.name: f.type.partition(" ")[0] for f in fields(MetricsRecord)}.__getitem__


class MalformedRowError(ConfigurationError):
    """A data row of a CSV file has the wrong number of cells or a cell that does not parse."""


# rows per block: 256-row blocks were no faster and raised the peak RSS of a
# four-run moons experiment by 0.2-0.3 MB of transient cell strings
_BLOCK_ROWS = 64
# per column type: cell -> value (never given ""); a bad cell raises ValueError or KeyError
_PARSE = {"bool": {"1": True, "0": False}.__getitem__, "int": int, "float": float}


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
    """Write ``header``, then each row (a sequence of its values in header order).

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
            columns = [_format_column(kind, values) for kind, values in zip(kinds, zip(*block))]
            for fh, picks in outputs:
                lines = zip(*[columns[j] for j in picks])
                fh.write("\r\n".join(map(",".join, lines)) + "\r\n")


def _read_columns(path, header, projection=None):
    """The columns of a file that ``_write_rows`` wrote with ``header``, in ``header`` order.

    Each is a list of parsed values. A malformed file raises the errors that
    the module docstring names.
    Given ``projection`` (names), it returns ``(columns, text)``, ``text`` being
    what ``_write_rows`` writes for that projection of the cells as tokenized,
    or None if a row spans lines (a quoted cell holds a line break).

    The file's bytes are read once. If they have the writer's shape, each
    block of ``_BLOCK_ROWS`` lines is tokenized by joining its lines and
    splitting the text at commas, which gives the cells ``csv.reader`` would.
    The shape: ASCII without a quote, every CR and LF in a CRLF, a CRLF at
    the end, the first line ``header`` joined by commas, no blank line
    (``_writer_lines``), every other line holding ``len(header)`` cells, and
    no block of lines longer than ``csv.field_size_limit()``, so no cell is.
    Any other file, and a file with a cell that does not parse, is read by
    ``_read_columns_csv``, whose columns, text and errors this function
    returns or raises for every file.
    """
    with open(path, "rb") as fh:
        lines = _writer_lines(fh.read(), header)
    if lines is None:
        return _read_columns_csv(path, header, projection)
    state = _ColumnState(header, projection)
    width, limit = len(header), csv.field_size_limit()
    try:
        for first in range(0, len(lines), _BLOCK_ROWS):
            block = lines[first:first + _BLOCK_ROWS]
            # a "\r" cell between lines, which no line holds: every line holds width cells
            # exactly when the cells every (width + 1)th are those "\r"s and no other cell is
            text = ",\r,".join(block)
            cells = text.split(",")
            if len(text) > limit or len(cells) != len(block) * (width + 1) - 1 \
                    or cells[width::width + 1].count("\r") != len(block) - 1:
                return _read_columns_csv(path, header, projection)
            state.add([cells[j::width + 1] for j in range(width)])
    except (ValueError, KeyError):
        return _read_columns_csv(path, header, projection)  # which names the cell
    return state.result(True)


def _writer_lines(data, header):
    """The data lines of ``data``, a file's bytes, or None unless it is ASCII without a
    quote, every CR and LF is in a CRLF, it ends with one, its first line is ``header``
    joined by commas, and no line is blank."""
    if not data.isascii() or b'"' in data or not data.endswith(b"\r\n"):
        return None
    lines = data.decode("ascii").split("\r\n")
    rest = "".join(lines)  # the file less its CRLFs
    if "\r" in rest or "\n" in rest or lines[0] != ",".join(header):
        return None
    del lines[0], lines[-1]  # the header, and the empty text after the final CRLF
    return None if "" in lines else lines


class _ColumnState:
    """The columns, and the projection's text, of the data rows read so far."""

    def __init__(self, header, projection):
        self.parsers = [_PARSE[_column_type(name)] for name in header]
        self.by_run = [name in _WINDOW_FIELDS for name in header]
        self.columns = [[] for _ in header]
        self.picks = [header.index(name) for name in projection or ()]
        self.text = [",".join(projection)] if projection is not None else None

    def add(self, block_cells):
        """Parse a block given as its columns of cells; a bad cell raises ValueError or KeyError."""
        if self.text is not None:
            self.text += map(",".join, zip(*[block_cells[j] for j in self.picks]))
        for column, parse, runs, cells in zip(self.columns, self.parsers, self.by_run,
                                              block_cells):
            empty = cells.count("")
            if empty == len(cells):
                column += [None] * empty
            elif runs:
                for cell, run in groupby(cells):
                    value = None if cell == "" else parse(cell)
                    column += repeat(value, len(list(run)))
            elif not empty:
                column += map(parse, cells)
            else:
                column += [None if c == "" else parse(c) for c in cells]

    def result(self, one_line_rows):
        """The columns, or ``(columns, text)`` given a projection; text None unless
        ``one_line_rows`` (each row was one line)."""
        if self.text is None:
            return self.columns
        return self.columns, "\r\n".join(self.text) + "\r\n" if one_line_rows else None


def _read_columns_csv(path, header, projection=None):
    """``_read_columns`` for any file, tokenized by ``csv.reader``.

    A ``csv.Error`` on a data row (a cell longer than
    ``csv.field_size_limit()``) raises ``MalformedRowError`` naming the line
    on which the reader stopped.
    """
    state = _ColumnState(header, projection)
    try:
        with open(path, "r", newline="", encoding="ascii") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != header:
                raise ConfigurationError(f"unexpected CSV header in {path}")
            first = 0  # data rows before the block
            while block := _next_block(reader, path):
                for offset, row in enumerate(block):
                    if len(row) != len(header):
                        line = _row_line(path, first + offset)
                        raise MalformedRowError(f"{path}, line {line}: expected "
                                                 f"{len(header)} cells, found {len(row)}")
                try:
                    state.add(list(zip(*block)))
                except (ValueError, KeyError):
                    raise _bad_cell(path, first, header, block) from None
                first += len(block)
    except UnicodeDecodeError:
        raise _non_ascii(path) from None
    # one line per row, after the header's, unless a quoted cell holds a line break
    return state.result(reader.line_num == first + 1)


def _next_block(reader, path) -> list:
    """The next ``_BLOCK_ROWS`` data rows of ``reader``, of ``path``."""
    try:
        return list(islice(reader, _BLOCK_ROWS))
    except csv.Error as err:
        raise MalformedRowError(f"{path}, line {reader.line_num}: {err}") from None


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
    _write_rows(path, FIELD_ORDER, map(attrgetter(*FIELD_ORDER), records), projections)


def read_metrics_csv(path) -> list[MetricsRecord]:
    return [MetricsRecord(*values) for values in zip(*_read_columns(path, FIELD_ORDER))]
