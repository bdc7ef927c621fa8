import ast
import dataclasses
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import samlab
from samlab.data import (DATASET_KINDS, Batch, Dataset, batches_per_epoch, dataset_checksum,
                         deserialize_dataset, generate_dataset, load_dataset,
                         make_batches, save_dataset, serialize_dataset, split_sizes,
                         train_test_split)
from samlab.errors import ConfigurationError

from helpers import oracle_make_batches

SRC = Path(__file__).resolve().parent.parent / "src"

# regression value captured from the first verified run of the generator
MOONS_200_N01_S7_SHA256 = "c78099c421a196d4ba6fd544c689b676a5b6c878fa84733e3bdf2f42869db963"


def test_blobs_zero_noise_collapse_to_centers():
    ds = generate_dataset("blobs", 4, 0.0, seed=0)
    assert np.sum(ds.targets == 0) == 2
    assert np.sum(ds.targets == 1) == 2
    for row, y in zip(ds.inputs, ds.targets):
        center = (-1.0, -1.0) if y == 0 else (1.0, 1.0)
        assert tuple(row) == center


def test_same_seed_is_byte_identical():
    a = serialize_dataset(generate_dataset("moons", 50, 0.2, seed=3))
    b = serialize_dataset(generate_dataset("moons", 50, 0.2, seed=3))
    assert a == b


def test_different_seed_differs():
    a = serialize_dataset(generate_dataset("moons", 50, 0.2, seed=3))
    b = serialize_dataset(generate_dataset("moons", 50, 0.2, seed=4))
    assert a != b


def test_moons_regression_checksum():
    ds = generate_dataset("moons", 200, 0.1, seed=7)
    assert dataset_checksum(ds) == MOONS_200_N01_S7_SHA256


@pytest.mark.parametrize("kind", ["blobs", "moons", "xor"])
def test_classes_balanced(kind):
    ds = generate_dataset(kind, 40, 0.1, seed=2)
    counts = np.bincount(ds.targets, minlength=2)
    assert abs(int(counts[0]) - int(counts[1])) <= 2  # xor balances by quadrant


def test_generate_validation():
    with pytest.raises(ConfigurationError):
        generate_dataset("blobs", 1, 0.0, seed=0)
    with pytest.raises(ConfigurationError):
        generate_dataset("blobs", 10, -0.1, seed=0)
    with pytest.raises(ConfigurationError):
        generate_dataset("rings", 10, 0.0, seed=0)


def test_serialization_round_trip_exact(tmp_path):
    ds = generate_dataset("xor", 37, 0.35, seed=11)
    path = tmp_path / "ds.shrpds"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.kind == ds.kind and back.seed == ds.seed and back.noise == ds.noise
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.targets, ds.targets)


def test_save_dataset_writes_a_new_file(tmp_path):
    # a second name keeps the earlier file, so a rewrite in place would show through it
    path = tmp_path / "ds.shrpds"
    path.write_bytes(b"earlier")
    os.link(path, tmp_path / "earlier")
    ds = generate_dataset("moons", 12, 0.1, seed=4)
    save_dataset(ds, path)
    assert (tmp_path / "earlier").read_bytes() == b"earlier"
    assert path.read_text(encoding="ascii") == serialize_dataset(ds)


def test_magic_string_checked():
    with pytest.raises(ConfigurationError):
        deserialize_dataset("NOTADATASET\n{}\nx0,x1,y\n")


@settings(deadline=None, max_examples=60)
@given(kind=st.sampled_from(["blobs", "moons", "xor"]), n=st.integers(2, 120),
       noise=st.one_of(st.just(0.0), st.floats(0.0, 5.0)), seed=st.integers(0, 2**32 - 1))
def test_generate_save_load_round_trip(tmp_path_factory, kind, n, noise, seed):
    ds = generate_dataset(kind, n, noise, seed)
    path = tmp_path_factory.mktemp("ds") / "ds.shrpds"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert (back.kind, back.seed, back.noise) == (kind, seed, noise)
    assert back.inputs.tobytes() == ds.inputs.tobytes()
    assert np.array_equal(back.targets, ds.targets)
    assert serialize_dataset(back) == path.read_text(encoding="ascii")


def _damaged(edit):
    lines = serialize_dataset(generate_dataset("moons", 6, 0.1, seed=2)).splitlines()
    edit(lines)
    return "\n".join(lines) + "\n"


def _edit_header(lines, edit):
    header = json.loads(lines[1])
    edit(header)
    lines[1] = json.dumps(header)


@pytest.mark.parametrize("edit, line, message", [
    (lambda lines: lines.pop(), 9, "expected 6 rows, found 5"),
    (lambda lines: lines.__setitem__(-1, lines[-1][:12]), 9, "expected 3 cells, found 1"),
    (lambda lines: lines.append("0.5,0.5,1"), 10, "expected 6 rows, found 7"),
    (lambda lines: _edit_header(lines, lambda h: h.pop("dim")), 2,
     "the header must hold exactly the keys"),
    (lambda lines: _edit_header(lines, lambda h: h.update(bogus=1)), 2,
     "the header must hold exactly the keys"),
    (lambda lines: lines.__setitem__(1, lines[1][:20]), 2, "unreadable header"),
    (lambda lines: lines.__setitem__(2, "x0,x1,label"), 3, "expected the column row"),
    (lambda lines: lines.__setitem__(5, lines[5].rsplit(",", 1)[0]), 6, "expected 3 cells"),
    (lambda lines: lines.__setitem__(4, "0.5,zero,1"), 5, "could not convert string"),
    (lambda lines: lines.__setitem__(4, "0.5,0.5,1.0"), 5, "invalid literal for int()"),
    # the header's kind, n, seed and noise are DatasetConfig's, its dim an integer >= 0
    (lambda lines: _edit_header(lines, lambda h: h.update(kind="rings")), 2,
     "kind must be one of ('blobs', 'moons', 'xor'), not 'rings'"),
    (lambda lines: _edit_header(lines, lambda h: h.update(seed="x")), 2,
     "seed must be an integer >= 0, not 'x'"),
    (lambda lines: _edit_header(lines, lambda h: h.update(noise=-5)), 2,
     "noise must be a finite number >= 0, not -5"),
    (lambda lines: _edit_header(lines, lambda h: h.update(n=1)), 2,
     "n must be an integer >= 2, not 1"),
    (lambda lines: _edit_header(lines, lambda h: h.update(dim=-1)), 2,
     "dim must be an integer >= 0, not -1"),
    # the header's classes is the rows' class count
    (lambda lines: _edit_header(lines, lambda h: h.update(classes="x")), 2,
     "classes must be an integer >= 1, not 'x'"),
    (lambda lines: _edit_header(lines, lambda h: h.update(classes=5)), 2,
     "classes must equal the rows' class count 2, not 5"),
    (lambda lines: _edit_header(lines, lambda h: h.update(classes=-1)), 2,
     "classes must be an integer >= 1, not -1"),
], ids=["truncated_at_row_end", "truncated_in_row", "extra_row", "missing_header_key",
        "unknown_header_key", "truncated_header", "wrong_columns", "short_row", "bad_float",
        "bad_target", "unknown_kind", "string_seed", "negative_noise", "one_row", "negative_dim",
        "string_classes", "other_classes", "negative_classes"])
def test_malformed_dataset_names_the_line(edit, line, message):
    with pytest.raises(ConfigurationError, match=f"^dataset line {line}: {re.escape(message)}"):
        deserialize_dataset(_damaged(edit))


_NOT_A_NUMBER = st.one_of(st.text(max_size=5), st.booleans(), st.none(),
                          st.lists(st.integers(), max_size=2))
# per header key, values of the wrong type or out of range: what the header's checks reject
_BAD_HEADER_VALUES = {
    "kind": st.one_of(st.text(max_size=8).filter(lambda kind: kind not in DATASET_KINDS),
                      st.integers(), st.floats(), st.booleans(), st.none()),
    "n": st.one_of(st.integers(max_value=1), st.floats(), _NOT_A_NUMBER),
    "seed": st.one_of(st.integers(max_value=-1), st.floats(), _NOT_A_NUMBER),
    "noise": st.one_of(st.integers(max_value=-1), st.floats(max_value=-1e-300),
                       st.sampled_from([math.nan, math.inf, -math.inf]), _NOT_A_NUMBER),
    "dim": st.one_of(st.integers(max_value=-1), st.floats(), _NOT_A_NUMBER),
}


@settings(deadline=None, max_examples=100)  # timing on a shared host is not what this checks
@given(kind=st.sampled_from(DATASET_KINDS), n=st.integers(2, 12), data=st.data())
def test_a_header_value_of_the_wrong_type_or_range_is_rejected(tmp_path_factory, kind, n, data):
    path = tmp_path_factory.mktemp("ds") / "ds.shrpds"
    save_dataset(generate_dataset(kind, n, 0.1, seed=3), path)
    lines = path.read_text(encoding="ascii").splitlines()
    key = data.draw(st.sampled_from(sorted(_BAD_HEADER_VALUES)), label="key")
    value = data.draw(_BAD_HEADER_VALUES[key], label="value")
    _edit_header(lines, lambda header: header.update({key: value}))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(ConfigurationError, match="^dataset line 2: "):
        load_dataset(path)


def test_batch_shape_validation():
    with pytest.raises(ConfigurationError):
        Batch(np.zeros((3, 2)), np.zeros(2), np.arange(3))
    with pytest.raises(ConfigurationError):
        Batch(np.zeros((0, 2)), np.zeros(0), np.zeros(0))


def test_batch_sizes_last_short():
    ds = generate_dataset("blobs", 10, 0.1, seed=1)
    batches = make_batches(ds, 3, seed=0, epoch=0)
    assert [b.size for b in batches] == [3, 3, 3, 1]
    assert batches_per_epoch(10, 3) == 4


def test_fixed_seed_epoch_gives_identical_permutation():
    ds = generate_dataset("blobs", 16, 0.1, seed=1)
    a = make_batches(ds, 5, seed=9, epoch=2)
    b = make_batches(ds, 5, seed=9, epoch=2)
    assert all(np.array_equal(x.indices, y.indices) for x, y in zip(a, b))
    c = make_batches(ds, 5, seed=9, epoch=3)
    assert any(not np.array_equal(x.indices, y.indices) for x, y in zip(a, c))


def test_epoch_is_a_partition():
    ds = generate_dataset("moons", 23, 0.1, seed=4)
    batches = make_batches(ds, 6, seed=0, epoch=5)
    seen = np.concatenate([b.indices for b in batches])
    assert sorted(seen.tolist()) == list(range(23))


@settings(deadline=None)  # timing on a shared host is not what this checks
@given(kind=st.sampled_from(["blobs", "moons", "xor"]), n=st.integers(2, 300),
       data=st.data(), seed=st.integers(0, 2**32 - 1), epoch=st.integers(0, 1000))
def test_make_batches_matches_per_batch_gather(kind, n, data, seed, epoch):
    """One gather per epoch gives the batches one gather per batch gave, byte for byte."""
    ds = generate_dataset(kind, n, 0.2, seed=seed % 1000)
    batch_size = data.draw(st.integers(1, n), label="batch_size")
    got = make_batches(ds, batch_size, seed, epoch)
    want = oracle_make_batches(ds, batch_size, seed, epoch)
    assert len(got) == len(want) == batches_per_epoch(n, batch_size)
    for a, b in zip(got, want):
        for x, y in ((a.inputs, b.inputs), (a.targets, b.targets), (a.indices, b.indices)):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()


def _assert_same_batches(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for x, y in ((a.inputs, b.inputs), (a.targets, b.targets), (a.indices, b.indices)):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()
        assert not a.targets.flags.writeable and a.target_index is None


@pytest.mark.parametrize("inputs_dtype", [np.int64, np.int32, np.float32])
@pytest.mark.parametrize("targets_dtype", [np.int64, np.uint8])
def test_batches_of_other_dtypes_equal_batch_constructed_ones(inputs_dtype, targets_dtype):
    """The epoch is checked and converted once; each slice equals ``Batch(...)`` on its rows."""
    ds = generate_dataset("blobs", 37, 3.0, seed=2)
    other = Dataset(ds.kind, ds.seed, ds.noise, ds.inputs.astype(inputs_dtype),
                    ds.targets.astype(targets_dtype))
    got = make_batches(other, 8, seed=1, epoch=3)
    assert [b.size for b in got] == [8, 8, 8, 8, 5]
    assert all(b.inputs.dtype == np.float64 and b.indices.dtype == np.int64 for b in got)
    _assert_same_batches(got, oracle_make_batches(other, 8, seed=1, epoch=3))


def test_rows_of_a_batch_are_views_with_no_kept_index():
    ds = generate_dataset("moons", 20, 0.1, seed=1)
    whole = Batch(ds.inputs, ds.targets, np.arange(ds.n))
    whole.target_index = ("kept",)
    part = whole.rows(5, 12)
    assert part.size == 7 and part.target_index is None
    for x, y in ((part.inputs, whole.inputs), (part.targets, whole.targets),
                 (part.indices, whole.indices)):
        assert np.shares_memory(x, y) and np.array_equal(x, y[5:12])
    _assert_same_batches([part], [Batch(ds.inputs[5:12], ds.targets[5:12], np.arange(5, 12))])


def test_batch_size_bounds():
    ds = generate_dataset("blobs", 8, 0.1, seed=0)
    with pytest.raises(ConfigurationError):
        make_batches(ds, 0, seed=0, epoch=0)
    with pytest.raises(ConfigurationError):
        make_batches(ds, 9, seed=0, epoch=0)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 48, 600, 2001])
def test_split_sizes_are_the_split_row_counts(n):
    train, test = train_test_split(generate_dataset("moons", n, 0.1, seed=1))
    assert split_sizes(n) == (train.n, test.n)


def test_train_test_split_is_deterministic_partition():
    ds = generate_dataset("moons", 50, 0.1, seed=6)
    train_a, test_a = train_test_split(ds)
    train_b, test_b = train_test_split(ds)
    assert np.array_equal(train_a.inputs, train_b.inputs)
    assert np.array_equal(test_a.inputs, test_b.inputs)
    assert train_a.n + test_a.n == ds.n
    assert test_a.n == 10


def test_importing_samlab_loads_no_hashlib():
    """hashlib loads OpenSSL, and only ``dataset_checksum`` needs it: it imports it when called."""
    code = ("import sys, numpy, samlab, samlab.cli; print('hashlib' in sys.modules); "
            "samlab.dataset_checksum(samlab.generate_dataset('moons', 4, 0.1, 0)); "
            "print('hashlib' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def test_every_samlab_dataclass_has_its_own_docstring():
    """``dataclass`` writes a missing docstring from ``inspect.signature``, at import."""
    seen, missing = [], []
    for info in pkgutil.iter_modules(samlab.__path__):
        module = importlib.import_module(f"samlab.{info.name}")
        docs = {node.name: ast.get_docstring(node)
                for node in ast.walk(ast.parse(inspect.getsource(module)))
                if isinstance(node, ast.ClassDef)}
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                seen.append(obj.__qualname__)
                if not docs[obj.__name__]:
                    missing.append(f"{module.__name__}.{obj.__qualname__}")
    assert len(seen) >= 10 and not missing, missing
