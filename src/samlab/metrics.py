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

For rows of two or more columns, the bytes are exactly what ``csv.writer``
(the default dialect) writes for the same rows: no cell can hold a comma, a
quote or a line break, because a header name is an identifier and a cell is
empty, ``0``/``1``, an ``int`` or a float ``repr``; such rows need no quoting,
so joining the cells with commas and ending each line with CRLF is all the
writer does. A one-column row whose cell is empty is the exception: it is
written as a blank line, which ``csv.writer`` writes as ``""`` and the reader
refuses. No file the package writes has one column.

There is one tokenizer: the reader splits the file at CRLF and each line at
commas, and refuses a file that is not in the writer's shape. (A cell is
read by its column's parser, so other text of the same value, ``0.50`` for
``0.5``, reads as that value.) A first line other than the header (a wrong
name, a byte outside ASCII, LF line ends, an over-long line) raises
``ConfigurationError``. A later line raises
``MalformedRowError`` naming the file and line when it holds a byte outside
ASCII, a CR or LF outside a CRLF (``float()`` would strip it), not the
header's number of cells (a blank line holds none), a cell longer than
``_CELL_LIMIT`` or a cell that does not parse (a quoted cell is one), or
when no CRLF ends the file.
"""

from __future__ import annotations

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
# the longest cell read, as csv's default field_size_limit(): float() reads a longer run
# of digits as inf, so a longer cell is refused
_CELL_LIMIT = 131_072
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
    columns of the same rows, joined from the same formatted cells. A line is
    its cells joined by commas, ended by CRLF: ``csv.writer``'s bytes for two
    or more columns (see the module docstring). Each output is
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

    Each is a list of parsed values. Given ``projection`` (names), it returns
    ``(columns, text)``, ``text`` being what ``_write_rows`` writes for that
    projection of the cells read. A file the writer cannot have written raises
    the errors that the module docstring names.

    The file's bytes are read once and split at CRLF. Each block of
    ``_BLOCK_ROWS`` lines is tokenized by joining its lines and splitting the
    text at commas. The checks here look at the whole file or a whole block;
    only a refusal looks for the line at fault (``_refusal``), from the first
    line of the block that failed.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    # latin-1 keeps each byte one character, so a refusal can name a byte outside ASCII
    lines = data.decode("latin-1").split("\r\n")
    if len(lines) < 2 or lines[0] != ",".join(header):
        raise ConfigurationError(f"unexpected CSV header in {path}")
    end = len(lines) - 1  # lines[end] is the text after the final CRLF, empty in a whole file
    rest = "".join(lines)  # the file less its CRLFs: ``in`` finds a CR or LF in it by memchr
    # ASCII, every CR and LF in a CRLF, a CRLF at the end and no blank line
    shaped = data.isascii() and "\r" not in rest and "\n" not in rest and not lines[end] \
        and lines.count("") == 1
    del data, rest  # two copies of the file, which the parse below would hold at its peak
    if not shaped:
        raise _refusal(path, header, lines, 1)
    state = _ColumnState(header, projection)
    width = len(header)
    for first in range(1, end, _BLOCK_ROWS):
        block = lines[first:min(first + _BLOCK_ROWS, end)]
        # a "\r" cell between lines, which no line holds: with the right number of cells,
        # a line too long and one too short put a "\r" in a column, and no parser takes it
        text = ",\r,".join(block)
        cells = text.split(",")
        if len(cells) == len(block) * (width + 1) - 1 \
                and (len(text) <= _CELL_LIMIT or max(map(len, cells)) <= _CELL_LIMIT):
            try:
                state.add([cells[j::width + 1] for j in range(width)])
                continue
            except (ValueError, KeyError):
                pass
        raise _refusal(path, header, lines, first)
    return state.result()


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

    def result(self):
        """The columns, or ``(columns, text)`` given a projection."""
        if self.text is None:
            return self.columns
        return self.columns, "\r\n".join(self.text) + "\r\n"


def _refusal(path, header, lines, first) -> MalformedRowError:
    """The error naming the first of ``lines`` (a file split at CRLF), from index ``first``
    on, that the writer cannot have written."""
    end = len(lines) - 1
    for index in range(first, end + 1):
        if problem := _line_problem(lines[index], header, index == end):
            return MalformedRowError(f"{path}, line {index + 1}: {problem}")
    raise AssertionError(f"{path} was refused, but no line of it is at fault")


def _line_problem(line, header, last):
    """Why the writer cannot write ``line`` as a data row, or None; ``last`` is true for the
    text after the file's final CRLF, which is empty in a whole file."""
    if not line.isascii():
        return f"byte {next(ord(c) for c in line if not c.isascii()):#x} is not ASCII"
    if "\r" in line or "\n" in line:
        return "a CR or LF outside a CRLF"
    if last:
        return "no CRLF at the end of the file" if line else None
    cells = line.split(",") if line else []  # a blank line holds no cell
    if max(map(len, cells), default=0) > _CELL_LIMIT:
        return f"field larger than field limit ({_CELL_LIMIT})"
    if len(cells) != len(header):
        return f"expected {len(header)} cells, found {len(cells)}"
    for name, cell in zip(header, cells):
        try:
            if cell:
                _PARSE[_column_type(name)](cell)
        except (ValueError, KeyError):
            return f"cannot parse {name} cell {cell!r}"
    return None


def write_metrics_csv(path, records, projections=()) -> None:
    """Write ``records`` to ``path``, and each ``(path, names)`` projection from the same cells."""
    _write_rows(path, FIELD_ORDER, map(attrgetter(*FIELD_ORDER), records), projections)


def read_metrics_csv(path) -> list[MetricsRecord]:
    return [MetricsRecord(*values) for values in zip(*_read_columns(path, FIELD_ORDER))]
