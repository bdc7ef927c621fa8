"""Synthetic 2-D classification datasets and seeded batch scheduling.

Datasets serialize to a small self-describing text container:

    line 1: the magic string ``SHRPDS1``
    line 2: a JSON header ``{"kind", "seed", "noise", "n", "dim", "classes"}``
    line 3: the column row ``x0,...,x{dim-1},y``
    then one CSV row per example; floats are written with ``repr`` so a
    round-trip reproduces every value bit-exactly.

The reader accepts exactly that layout: the six header keys, with a kind,
``n``, seed and noise that ``DatasetConfig`` accepts (so ``n`` >= 2, as
``generate_dataset`` makes) and an integer ``dim`` >= 0, the column row,
and ``n`` rows of ``dim + 1`` parseable cells. Anything else raises a
ConfigurationError naming the first bad line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, check_number
from .metrics import remove_regular_file

MAGIC = "SHRPDS1"
HEADER_KEYS = {"kind", "seed", "noise", "n", "dim", "classes"}

DATASET_KINDS = ("blobs", "moons", "xor")


@dataclass
class Batch:
    """One mini-batch: inputs are rows, targets and indices align with them.

    ``targets`` is read-only: a writable array is copied, then frozen.
    """

    inputs: np.ndarray
    targets: np.ndarray
    indices: np.ndarray
    # (targets, n_classes, flat index of each row's target logit, one-hot target
    # mask), kept by make_batches or by samlab.objectives (its module docstring)
    target_index: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        targets = np.asarray(self.targets)
        if targets.flags.writeable:
            targets = targets.copy()
            targets.flags.writeable = False
        self.targets = targets
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.inputs.ndim != 2:
            raise ConfigurationError("batch inputs must be a matrix")
        n = self.inputs.shape[0]
        if n == 0:
            raise ConfigurationError("batch is empty")
        if self.targets.shape[0] != n or self.indices.shape[0] != n:
            raise ConfigurationError("batch inputs, targets, and indices disagree on row count")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    def rows(self, start: int, stop: int) -> "Batch":
        """Rows ``start:stop`` as a batch of views, without checking again what this one passed.

        ``start:stop`` must select at least one row.
        """
        batch = object.__new__(Batch)
        batch.inputs = self.inputs[start:stop]
        batch.targets = self.targets[start:stop]
        batch.indices = self.indices[start:stop]
        batch.target_index = None
        return batch


@dataclass(frozen=True)
class DatasetConfig:
    """A dataset's definition, checked here for a config file, Python and ``generate_dataset``."""

    kind: str
    n: int
    seed: int
    noise: float = 0.0

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ConfigurationError(f"kind must be one of {DATASET_KINDS}, not {self.kind!r}")
        check_number("n", self.n, int, 2)  # one example per class
        check_number("noise", self.noise, float, 0)
        check_number("seed", self.seed, int, 0)


@dataclass
class Dataset:
    """A generated dataset: inputs as rows, integer class targets, and how it was drawn."""

    kind: str
    seed: int
    noise: float
    inputs: np.ndarray
    targets: np.ndarray

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.targets.max()) + 1


def generate_dataset(kind: str, n: int, noise: float, seed: int) -> Dataset:
    """Deterministic 2-class point cloud, classes as balanced as n allows."""
    DatasetConfig(kind, n, seed, noise)  # checks the arguments

    rng = np.random.default_rng(seed)
    # alternate classes so every prefix is as balanced as possible
    targets = np.arange(n, dtype=np.int64) % 2
    inputs = np.empty((n, 2), dtype=np.float64)

    if kind == "blobs":
        centers = np.array([[-1.0, -1.0], [1.0, 1.0]])
        inputs[:] = centers[targets] + noise * rng.standard_normal((n, 2))
    elif kind == "moons":
        # two interleaving half circles; angles evenly spaced within each class
        for cls in (0, 1):
            rows = np.flatnonzero(targets == cls)
            t = np.linspace(0.0, math.pi, rows.size, endpoint=True)
            if cls == 0:
                pts = np.column_stack([np.cos(t), np.sin(t)])
            else:
                pts = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
            inputs[rows] = pts
        inputs += noise * rng.standard_normal((n, 2))
    else:  # xor
        quadrants = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]])
        quad_idx = np.arange(n) % 4
        # opposite quadrants share a class: (+,+)/(-,-) -> 0, (+,-)/(-,+) -> 1
        targets = (quad_idx % 2).astype(np.int64)
        inputs[:] = quadrants[quad_idx] + noise * rng.standard_normal((n, 2))

    return Dataset(kind=kind, seed=seed, noise=noise, inputs=inputs, targets=targets)


def serialize_dataset(ds: Dataset) -> str:
    header = {
        "kind": ds.kind,
        "seed": ds.seed,
        "noise": ds.noise,
        "n": ds.n,
        "dim": ds.dim,
        "classes": ds.n_classes,
    }
    lines = [MAGIC, json.dumps(header, sort_keys=True)]
    lines.append(",".join([f"x{j}" for j in range(ds.dim)] + ["y"]))
    # Python floats and ints format as numpy's scalars do through float() and int()
    inputs = np.asarray(ds.inputs, dtype=np.float64).tolist()
    targets = ds.targets.astype(np.int64, copy=False).tolist()
    lines += [",".join([*map(repr, row), str(y)]) for row, y in zip(inputs, targets)]
    return "\n".join(lines) + "\n"


def save_dataset(ds: Dataset, path) -> None:
    """Write ``ds`` to ``path``, as ``metrics.remove_regular_file`` says."""
    remove_regular_file(path)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_dataset(ds))


def deserialize_dataset(text: str) -> Dataset:
    lines = text.splitlines()
    if not lines or lines[0] != MAGIC:
        raise ConfigurationError(f"not a dataset file: missing {MAGIC!r} magic")

    def bad(lineno, what):
        return ConfigurationError(f"dataset line {lineno}: {what}")

    try:
        header = json.loads(lines[1])
    except (IndexError, ValueError) as err:
        raise bad(2, f"unreadable header ({err})") from None
    if not isinstance(header, dict) or set(header) != HEADER_KEYS:
        raise bad(2, f"the header must hold exactly the keys {sorted(HEADER_KEYS)}")
    try:
        DatasetConfig(header["kind"], header["n"], header["seed"], header["noise"])
        check_number("dim", header["dim"], int, 0)
        check_number("classes", header["classes"], int, 1)
    except ConfigurationError as err:
        raise bad(2, str(err)) from None
    n, dim = header["n"], header["dim"]
    columns = ",".join([f"x{j}" for j in range(dim)] + ["y"])
    if lines[2:3] != [columns]:
        raise bad(3, f"expected the column row {columns!r}")
    if len(lines) != 3 + n:
        raise bad(min(len(lines), 3 + n) + 1, f"expected {n} rows, found {len(lines) - 3}")
    inputs = np.empty((n, dim), dtype=np.float64)
    targets = np.empty(n, dtype=np.int64)
    for i, line in enumerate(lines[3:]):
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise bad(i + 4, f"expected {dim + 1} cells, found {len(parts)}")
        try:
            inputs[i] = [float(p) for p in parts[:dim]]
            targets[i] = int(parts[dim])
        except (ValueError, OverflowError) as err:
            raise bad(i + 4, str(err)) from None
    ds = Dataset(kind=header["kind"], seed=header["seed"], noise=header["noise"],
                 inputs=inputs, targets=targets)
    if header["classes"] != ds.n_classes:
        raise bad(2, f"classes must equal the rows' class count {ds.n_classes}, "
                     f"not {header['classes']!r}")
    return ds


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="ascii") as fh:
        return deserialize_dataset(fh.read())


def dataset_checksum(ds: Dataset) -> str:
    """SHA-256 of the serialized form; pinned in tests as a regression value."""
    import hashlib  # here, not at the top: only ``gen-data`` needs it, and it loads OpenSSL

    return hashlib.sha256(serialize_dataset(ds).encode("ascii")).hexdigest()


def split_sizes(n: int) -> tuple[int, int]:
    """(training rows, held-out rows) of ``train_test_split`` on ``n`` rows: 20% held out."""
    n_test = int(round(n * 0.2))
    return n - n_test, n_test


def train_test_split(ds: Dataset):
    """Seeded 80/20 split (``split_sizes``) derived from the dataset's own seed."""
    perm = np.random.default_rng([ds.seed, 17]).permutation(ds.n)
    n_test = split_sizes(ds.n)[1]
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    train = Dataset(ds.kind, ds.seed, ds.noise, ds.inputs[train_idx], ds.targets[train_idx])
    test = Dataset(ds.kind, ds.seed, ds.noise, ds.inputs[test_idx], ds.targets[test_idx])
    return train, test


def make_batches(ds: Dataset, batch_size: int, seed: int, epoch: int,
                 n_classes: int | None = None) -> list[Batch]:
    """Seeded permutation of the dataset, cut into batches; the last may be short.

    The epoch is gathered and checked once; each batch is a row slice of it.
    Given ``n_classes``, as the training loop gives an MLP's, the same pass
    checks the epoch's targets and keeps each batch's slices of their index
    and mask on the batch (``target_index``), so nothing outlives the batches.
    """
    if batch_size < 1 or batch_size > ds.n:
        raise ConfigurationError(f"batch_size must be in [1, {ds.n}], got {batch_size}")
    perm = np.random.default_rng([seed, epoch]).permutation(ds.n)
    # take along rows copies what fancy indexing does, without its per-call setup
    targets = ds.targets.take(perm)
    targets.flags.writeable = False  # so the epoch's targets need no copy
    whole = Batch(ds.inputs.take(perm, axis=0), targets, perm)
    starts = range(0, ds.n, batch_size)
    if n_classes is None:
        return [whole.rows(start, start + batch_size) for start in starts]
    index, onehot = _index_targets(whole.targets, n_classes, batch_size)
    batches = []
    for start in starts:
        batch = whole.rows(start, stop := start + batch_size)
        batch.target_index = (batch.targets, n_classes, index[start:stop], onehot[start:stop])
        batches.append(batch)
    return batches


def _index_targets(targets: np.ndarray, n_classes: int, batch_size: int):
    """Checked targets' (flat index of each target logit in its batch, one-hot mask).

    Row i is row i % batch_size of its batch. The mask is a read-only (rows,
    n_classes) float64 array of 0.0 with 1.0 at each target.
    """
    if targets.dtype.kind not in "iu":
        raise ConfigurationError(f"batch targets must be integers, got dtype {targets.dtype}")
    as_int = targets.astype(np.int64, copy=False)
    # one unsigned maximum: a negative target reads as at least 2**63
    if np.maximum.reduce(as_int.view(np.uint64)) >= n_classes:
        raise ConfigurationError("batch targets out of range for the mlp output layer")
    onehot = np.zeros((as_int.size, n_classes))
    onehot.reshape(-1)[np.arange(0, onehot.size, n_classes) + as_int] = 1.0
    onehot.flags.writeable = False
    offsets = np.arange(0, batch_size * n_classes, n_classes)
    index = np.empty_like(as_int)
    full = as_int.size - as_int.size % batch_size
    np.add(as_int[:full].reshape(-1, batch_size), offsets, out=index[:full].reshape(-1, batch_size))
    np.add(as_int[full:], offsets[:as_int.size - full], out=index[full:])
    return index, onehot


def batches_per_epoch(n: int, batch_size: int) -> int:
    return math.ceil(n / batch_size)
