"""Grid file format and canonical hashing tests."""

import hashlib
import json
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from carbon_fbsde.cli import main
from carbon_fbsde.config import preset_coefficients
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
from carbon_fbsde.model import CapFunction, indicator_terminal
from carbon_fbsde.pde_kernel import SliceSink, SolverConfig, ValueGrid, solve_one_period


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


# ----------------------------------------------------------------------
# stretch tables and the first format
# ----------------------------------------------------------------------

TABLE = [(2, 6, 0.8), (3, 6, 0.85), (3, 7, 0.9), (4, 7, 0.95), (4, 8, 0.97), (0, 9, 1.0)]


def banded_grid() -> ValueGrid:
    """A factor grid whose slices hold 0 left of their stretch and their
    bound right of it."""
    grid = sample_grid(True)
    for s, (c0, c1, bound) in zip(grid.values, TABLE):
        s[..., :c0] = 0.0
        s[..., c1:] = bound
    grid.stretches = list(TABLE)
    return grid


@pytest.fixture(scope="module")
def banded_blob(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("banded") / "g.grid"
    write_grid(banded_grid(), path)
    return path.read_bytes()


def split(blob: bytes) -> tuple:
    """``(header, payload)`` of a grid file."""
    n = struct.unpack("<Q", blob[8:16])[0]
    return json.loads(blob[16:16 + n]), blob[16 + n:]


def joined(magic: bytes, header: dict, payload: bytes) -> bytes:
    head = json.dumps(header).encode()  # NaN and Infinity as JSON reads them
    return magic + struct.pack("<Q", len(head)) + head + payload


def test_a_banded_grid_stores_its_stretches_alone(tmp_path, banded_blob):
    header, payload = split(banded_blob)
    assert banded_blob[:8] == b"CFBGRID2"
    assert header["stretches"] == [list(entry) for entry in TABLE]
    assert len(payload) == 8 * 4 * sum(c1 - c0 for c0, c1, _ in TABLE)
    path = tmp_path / "g.grid"
    path.write_bytes(banded_blob)
    grid = banded_grid()
    back = read_grid(path, hashlib.sha256(banded_blob).hexdigest())
    assert np.array_equal(back.values.view(np.uint64), grid.values.view(np.uint64))
    assert back.stretches == TABLE
    scanned = read_grid(path, scan=lambda g: [s.copy() for s in g.values])
    assert np.array_equal(np.array(scanned), grid.values)
    write_grid(back, tmp_path / "again.grid")
    assert (tmp_path / "again.grid").read_bytes() == banded_blob


def first_format_blob(grid: ValueGrid) -> bytes:
    """The file of the first format: no stretch table, whole slices."""
    header = {"times": grid.times.tolist(), "e_nodes": grid.e_nodes.tolist(),
              "p_nodes": None if grid.p_nodes is None else grid.p_nodes.tolist(),
              "eparam_nodes": None, "rate": grid.rate, "shape": list(grid.values.shape),
              "meta": jsonable(grid.meta)}
    head = canonical_json(header).encode("utf-8")
    return (b"CFBGRID1" + struct.pack("<Q", len(head)) + head
            + np.ascontiguousarray(grid.values, dtype="<f8").tobytes())


def test_a_first_format_file_reads_as_whole_stretches_and_verifies(tmp_path):
    coeffs = preset_coefficients("no-factor", {"m0": 1.2, "m2": 1.0}, 0.05)
    config = SolverConfig(e_min=-1.0, e_max=1.0, n_e=120)
    solved = solve_one_period(coeffs, indicator_terminal(CapFunction.constant(0.0)),
                              0.0, 0.5, config)
    blob = first_format_blob(solved)
    path = tmp_path / "old.grid"
    path.write_bytes(blob)
    back = read_grid(path, hashlib.sha256(blob).hexdigest())
    assert np.array_equal(back.values.view(np.uint64), solved.values.view(np.uint64))
    assert back.stretches == [(0, 120, 0.0)] * solved.values.shape[0]
    scanned = read_grid(path, scan=lambda g: [s.copy() for s in g.values])
    assert np.array_equal(np.array(scanned).view(np.uint64), solved.values.view(np.uint64))
    assert main(["verify", str(path)]) == 0
    # written again, it is a file of the current format with the same values
    write_grid(back, tmp_path / "new.grid")
    assert (tmp_path / "new.grid").read_bytes()[:8] == b"CFBGRID2"
    again = read_grid(tmp_path / "new.grid")
    assert np.array_equal(again.values.view(np.uint64), solved.values.view(np.uint64))


def _set(table, i, at, value):
    table[i][at] = value


MALFORMED_TABLES = {
    "short-table": lambda t: t.pop(),
    "long-table": lambda t: t.append([0, 9, 1.0]),
    "c0-past-c1": lambda t: t.__setitem__(1, [6, 3, 0.85]),
    "c1-past-n_e": lambda t: _set(t, 2, 1, 10),
    "negative-c0": lambda t: _set(t, 2, 0, -1),
    "fractional-c0": lambda t: _set(t, 0, 0, 2.5),
    "nan-bound": lambda t: _set(t, 3, 2, math.nan),
    "infinite-bound": lambda t: _set(t, 3, 2, math.inf),
    "word-bound": lambda t: _set(t, 3, 2, "x"),
    "short-entry": lambda t: t.__setitem__(0, [2, 6]),
    "wider-than-the-payload": lambda t: _set(t, 0, 1, 7),
}


@pytest.mark.parametrize("damage", sorted(MALFORMED_TABLES))
def test_a_malformed_stretch_table_exits_6(tmp_path, banded_blob, damage):
    header, payload = split(banded_blob)
    MALFORMED_TABLES[damage](header["stretches"])
    path = tmp_path / "bad.grid"
    path.write_bytes(joined(b"CFBGRID2", header, payload))
    with pytest.raises(ArtifactError):
        read_grid(path)
    assert main(["verify", str(path)]) == 6


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_stretch_tables_raise_only_artifact_error(banded_blob, fuzz_path, data):
    """A table of another length, an entry whose columns are not whole
    numbers with ``0 <= c0 <= c1 <= n_e`` or whose bound is not a finite
    float, and a payload whose size disagrees with the table each raise
    ArtifactError."""
    header, payload = split(banded_blob)
    table = header["stretches"]
    kind = data.draw(st.sampled_from(["length", "columns", "bound", "payload"]), label="kind")
    i = data.draw(st.integers(0, len(table) - 1), label="entry")
    if kind == "length":
        n = data.draw(st.integers(0, 12).filter(lambda n: n != len(TABLE)), label="n")
        table[:] = (table * 3)[:n]
    elif kind == "columns":
        column = st.one_of(st.integers(-3, 12), st.floats(allow_nan=True), st.none(),
                           st.booleans(), st.text(max_size=2))
        c0, c1 = data.draw(column, label="c0"), data.draw(column, label="c1")
        assume(not (type(c0) is int and type(c1) is int and 0 <= c0 <= c1 <= 9))
        table[i][:2] = [c0, c1]
    elif kind == "bound":
        table[i][2] = data.draw(st.one_of(
            st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(), st.none(),
            st.booleans(), st.text(max_size=2), st.lists(st.floats(0, 1), max_size=2)),
            label="bound")
    else:
        cut = data.draw(st.integers(-64, 64).filter(bool), label="bytes")
        payload = payload[:cut] if cut < 0 else payload + bytes(cut)
    fuzz_path.write_bytes(joined(b"CFBGRID2", header, payload))
    with pytest.raises(ArtifactError):
        read_grid(fuzz_path)


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


@pytest.fixture()
def whole_calls(monkeypatch):
    """Every ``SliceSink.whole`` call as ``(module, caller)``."""
    calls = []
    expand = SliceSink.whole

    def spy(out, cells, c0, bound):
        caller = sys._getframe(1)
        calls.append((caller.f_globals["__name__"].rpartition(".")[2], caller.f_code.co_name))
        expand(out, cells, c0, bound)
    monkeypatch.setattr(SliceSink, "whole", staticmethod(spy))
    return calls


def test_the_price_commands_read_back_expands_no_slice(tmp_path, whole_calls):
    """Each grid file's read-back hands the diagnostics stretches: besides
    the march's own calls only the start slice each solve keeps is
    expanded, plus at most slice 0 for the left tail; ``simulate`` still
    expands the slices of its ring."""
    multi, infinite = tmp_path / "multi", tmp_path / "infinite"
    assert main(["price-multi", "--config", "preset:two-period-factor",
                 "--out", str(multi)]) == 0
    assert whole_calls and ("pde_kernel", "put") in whole_calls
    assert {"pde_kernel"} == {module for module, _ in whole_calls}
    assert whole_calls.count(("pde_kernel", "put")) == 2  # one kept slice a period
    assert whole_calls.count(("pde_kernel", "diagnostics")) <= 2  # one per grid

    whole_calls.clear()
    assert main(["verify", str(multi)]) == 0
    assert set(whole_calls) <= {("pde_kernel", "diagnostics")} and len(whole_calls) <= 2

    whole_calls.clear()
    assert main(["price-infinite", "--config", "preset:rolling-r005",
                 "--out", str(infinite)]) == 0
    assert set(whole_calls) <= {("pde_kernel", "put"), ("pde_kernel", "_march"),
                                ("pde_kernel", "diagnostics")}
    assert whole_calls.count(("pde_kernel", "diagnostics")) <= 1

    whole_calls.clear()
    assert main(["simulate", "--config", "preset:two-period-factor", "--field",
                 str(multi / "field"), "--paths", "200", "--out", str(tmp_path / "sim")]) == 0
    assert ("gridio", "_next") in whole_calls
