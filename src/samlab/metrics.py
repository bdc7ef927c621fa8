"""Per-iteration metrics records and the package's one CSV codec.

The column order below is the stable on-disk schema; every metrics file
starts with exactly this header. Other CSV files (the norm trace) are column
projections of it, written and read by the same codec. Floats are written
with ``repr`` so reading a file back reproduces every value bit-exactly;
empty cells mean "not measured this iteration" and load as ``None``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

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
WALL_CLOCK_FIELDS = {"wall_clock_seconds"}


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


# per column type: value -> cell (never given None) and cell -> value (never given "")
_FORMAT = {"bool": lambda v: "1" if v else "0", "int": lambda v: str(int(v)),
           "float": lambda v: repr(float(v))}
_PARSE = {"bool": "1".__eq__, "int": int, "float": float}


def _column_type(name):
    return "bool" if name in _BOOL_FIELDS else "int" if name in _INT_FIELDS else "float"


def _write_rows(path, header, rows) -> None:
    """Write ``header``, then each row (a mapping holding every header column)."""
    columns = [(name, _FORMAT[_column_type(name)]) for name in header]
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if row[name] is None else fmt(row[name])
                             for name, fmt in columns])


def _read_rows(path, header) -> list[dict]:
    """Rows of a file written by ``_write_rows`` with this exact header."""
    parsers = [_PARSE[_column_type(name)] for name in header]
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise ConfigurationError(f"unexpected CSV header in {path}")
        return [{name: None if cell == "" else parse(cell)
                 for name, parse, cell in zip(header, parsers, row)}
                for row in reader]


def write_metrics_csv(path, records) -> None:
    _write_rows(path, FIELD_ORDER, (vars(rec) for rec in records))


def read_metrics_csv(path) -> list[MetricsRecord]:
    return [MetricsRecord(**row) for row in _read_rows(path, FIELD_ORDER)]
