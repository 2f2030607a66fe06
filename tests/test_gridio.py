"""Grid file format and canonical hashing tests."""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbon_fbsde.errors import ArtifactError
from carbon_fbsde.gridio import (
    canonical_json,
    file_sha256,
    jsonable,
    read_grid,
    sha256_hex,
    start_slice_csv,
    write_grid,
)
from carbon_fbsde.pde_kernel import ValueGrid


def sample_grid(with_axes: bool = False) -> ValueGrid:
    rng = np.random.default_rng(42)
    times = np.linspace(0.0, 1.0, 6)
    e = np.linspace(-1.0, 1.0, 9)
    if with_axes:
        p = np.linspace(-2.0, 2.0, 4)
        values = rng.random((6, 4, 9))
        return ValueGrid(times=times, e_nodes=e, values=values, rate=0.05,
                         p_nodes=p, meta={"label": "sample", "n_steps": 5})
    values = rng.random((6, 9))
    return ValueGrid(times=times, e_nodes=e, values=values, rate=0.05,
                     meta={"label": "sample"})


@pytest.mark.parametrize("with_axes", [False, True])
def test_grid_round_trip(tmp_path, with_axes):
    grid = sample_grid(with_axes)
    path = tmp_path / "g.grid"
    digest = write_grid(grid, path)
    assert digest == file_sha256(path)

    back = read_grid(path)
    assert np.array_equal(back.values, grid.values)
    assert np.array_equal(back.times, grid.times)
    assert back.rate == grid.rate
    assert back.meta == grid.meta
    if with_axes:
        assert np.array_equal(back.p_nodes, grid.p_nodes)


def test_grid_bytes_are_deterministic(tmp_path):
    grid = sample_grid(True)
    d1 = write_grid(grid, tmp_path / "a.grid")
    d2 = write_grid(grid, tmp_path / "b.grid")
    assert d1 == d2
    assert (tmp_path / "a.grid").read_bytes() == (tmp_path / "b.grid").read_bytes()


def test_read_grid_rejects_foreign_files(tmp_path):
    junk = tmp_path / "junk.grid"
    junk.write_bytes(b"PNG\x89 definitely not a grid")
    with pytest.raises(ArtifactError):
        read_grid(junk)


def test_read_grid_rejects_truncation(tmp_path):
    path = tmp_path / "g.grid"
    write_grid(sample_grid(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(ArtifactError):
        read_grid(path)


def test_read_grid_checks_a_recorded_digest(tmp_path):
    path = tmp_path / "g.grid"
    digest = write_grid(sample_grid(True), path)
    assert np.array_equal(read_grid(path, digest).values, sample_grid(True).values)
    with pytest.raises(ArtifactError, match="sha256 mismatch"):
        read_grid(path, "0" * 64)


MAGIC = b"CFBGRID1"


def raw_grid(head: bytes, payload: bytes = b"") -> bytes:
    return MAGIC + struct.pack("<Q", len(head)) + head + payload


@pytest.fixture(scope="module")
def valid_blob(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("valid") / "g.grid"
    write_grid(sample_grid(True), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "g.grid"


@pytest.mark.parametrize("blob", [
    MAGIC + b"\x00\x01",
    raw_grid(b"{}"),
    raw_grid(b"[]"),
    raw_grid(json.dumps({"times": [0.0, 1.0], "e_nodes": [0.0], "p_nodes": None,
                         "eparam_nodes": None, "rate": 0.0, "shape": [2.0, 1.5],
                         "meta": {}}).encode(), bytes(24)),
], ids=["short-prefix", "empty-object-header", "list-header", "shape-off-axes"])
def test_read_grid_maps_malformed_files_to_artifact_error(tmp_path, blob):
    path = tmp_path / "bad.grid"
    path.write_bytes(blob)
    with pytest.raises(ArtifactError):
        read_grid(path)


def test_read_grid_refuses_a_recorded_emissions_axis(tmp_path):
    """As a reserve-rule period priced by an earlier version carries."""
    path = tmp_path / "old.grid"
    path.write_bytes(raw_grid(json.dumps({
        "times": [0.0, 1.0], "e_nodes": [0.0, 0.5], "p_nodes": None,
        "eparam_nodes": [0.0, 0.5], "rate": 0.0, "shape": [2, 2, 2],
        "meta": {}}).encode(), bytes(64)))
    with pytest.raises(ArtifactError, match=r"recorded-emissions axis \(eparam_nodes\)"):
        read_grid(path)


def test_read_grid_maps_a_missing_file_to_artifact_error(tmp_path):
    with pytest.raises(ArtifactError):
        read_grid(tmp_path / "absent.grid")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_grids_raise_only_artifact_error(valid_blob, fuzz_path, data):
    """Any truncation or single-byte flip of a valid grid either still
    parses into a consistent grid or raises ArtifactError; checked
    against the recorded digest it always raises ArtifactError."""
    blob = valid_blob
    head_end = 16 + struct.unpack("<Q", blob[8:16])[0]
    if data.draw(st.booleans(), label="truncate"):
        damaged = blob[:data.draw(st.integers(0, len(blob) - 1), label="keep")]
    else:
        at = data.draw(st.one_of(st.integers(0, head_end - 1),
                                 st.integers(0, len(blob) - 1)), label="at")
        damaged = bytearray(blob)
        damaged[at] ^= data.draw(st.integers(1, 255), label="mask")
    fuzz_path.write_bytes(damaged)
    with pytest.raises(ArtifactError):
        read_grid(fuzz_path, hashlib.sha256(blob).hexdigest())
    try:
        grid = read_grid(fuzz_path)
    except ArtifactError:
        return
    axes = (grid.times, grid.p_nodes, grid.e_nodes)
    assert grid.values.shape == tuple(a.size for a in axes if a is not None)


def test_canonical_json_is_order_insensitive():
    a = canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}})
    b = canonical_json({"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1})
    assert a == b
    assert " " not in a, "canonical form must be compact"


def test_jsonable_handles_numpy():
    out = jsonable({"x": np.float64(0.5), "n": np.int64(3),
                    "v": np.array([1.0, 2.0]), "t": (1, 2)})
    assert out == {"x": 0.5, "n": 3, "v": [1.0, 2.0], "t": [1, 2]}


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=0, max_size=256))
def test_sha256_hex_matches_hashlib(blob):
    assert sha256_hex(blob) == hashlib.sha256(blob).hexdigest()


def test_start_slice_csv(tmp_path):
    grid = sample_grid()
    out = tmp_path / "slice.csv"
    start_slice_csv(grid, out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + grid.e_nodes.size
