"""End-to-end CLI tests, run in-process through main()."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from carbon_fbsde import gridio
from carbon_fbsde.cli import main
from carbon_fbsde.gridio import read_grid, write_grid
from carbon_fbsde.pde_kernel import ValueGrid

TINY_FINITE = {
    "label": "tiny-finite",
    "rate": 0.0,
    "horizon": "finite",
    "periods": [1.0],
    "cap": {"kind": "levels", "parameters": {"levels": [0.0]}},
    "coefficients": {"preset": "no-factor",
                     "parameters": {"m0": 1.2, "m2": 1.0}},
    "grid": {"e_min": -2.0, "e_max": 2.0, "n_e": 64},
    "simulation": {"n_paths": 16, "steps_per_period": 16,
                   "keep_paths": 4, "e0": 0.5},
}

TINY_ROLLING = {
    "label": "tiny-rolling",
    "rate": 0.05,
    "horizon": "infinite",
    "period_length": 1.0,
    "cap": {"kind": "per-period", "parameters": {"allocation": 1.0}},
    "coefficients": {"preset": "no-factor",
                     "parameters": {"m0": 1.0, "m2": 1.0}},
    "grid": {"e_min": -1.5, "e_max": 2.5, "n_e": 80},
    "simulation": {"n_paths": 8, "steps_per_period": 16, "n_periods": 2},
}


@pytest.fixture()
def finite_config(tmp_path):
    path = tmp_path / "finite.json"
    path.write_text(json.dumps(TINY_FINITE))
    return path


@pytest.fixture()
def rolling_config(tmp_path):
    path = tmp_path / "rolling.json"
    path.write_text(json.dumps(TINY_ROLLING))
    return path


def manifest_of(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


# ----------------------------------------------------------------------
# price-multi
# ----------------------------------------------------------------------

def test_price_multi_writes_the_artifact_set(tmp_path, finite_config):
    out = tmp_path / "run"
    assert main(["price-multi", "--config", str(finite_config),
                 "--out", str(out)]) == 0
    manifest = manifest_of(out)
    assert manifest["command"] == "price-multi"
    assert manifest["verification"]["diagnostics_passed"] is True
    for rel in manifest["artifacts"]:
        assert (out / rel["path"]).exists(), f"missing artifact {rel['path']}"
    assert (out / "diagnostics.json").exists()
    assert (out / "field" / "period_1.grid").exists()


def test_price_multi_is_reproducible(tmp_path, finite_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["price-multi", "--config", str(finite_config), "--out", str(out1)]) == 0
    assert main(["price-multi", "--config", str(finite_config), "--out", str(out2)]) == 0
    m1, m2 = manifest_of(out1), manifest_of(out2)
    assert m1["content_hash"] == m2["content_hash"]
    assert ((out1 / "field" / "period_1.grid").read_bytes()
            == (out2 / "field" / "period_1.grid").read_bytes())


def test_price_multi_rejects_rolling_configs(tmp_path, rolling_config):
    assert main(["price-multi", "--config", str(rolling_config),
                 "--out", str(tmp_path / "x")]) == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["price-multi", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("argv", [
    ["price-multi", "--seed", "1"],
    ["price-multi", "--verify-only"],
    ["price-infinite", "--paths", "8"],
    ["simulate", "--field", "f", "--threads", "2"],
])
def test_commands_refuse_flags_they_do_not_read(tmp_path, finite_config, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(finite_config), "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_bad_thread_env_exits_2(tmp_path, finite_config, monkeypatch):
    monkeypatch.setenv("CARBON_FBSDE_THREADS", "many")
    assert main(["price-multi", "--config", str(finite_config),
                 "--out", str(tmp_path / "x")]) == 2


# ----------------------------------------------------------------------
# price-infinite
# ----------------------------------------------------------------------

def test_price_infinite_converges(tmp_path, rolling_config):
    out = tmp_path / "roll"
    assert main(["price-infinite", "--config", str(rolling_config),
                 "--out", str(out)]) == 0
    cert = json.loads((out / "picard_certificate.json").read_text())
    assert cert["converged"] is True
    assert cert["residual"] <= cert["contraction"]["tol_l1"]
    assert len(cert["table"]) == cert["iterations"]
    assert (out / "w.grid").exists()


def test_price_infinite_budget_exhaustion_exits_5_with_certificate(
        tmp_path, rolling_config):
    tree = json.loads(rolling_config.read_text())
    tree["infinite"] = {"max_iter": 1}
    starved = rolling_config.parent / "starved.json"
    starved.write_text(json.dumps(tree))
    out = tmp_path / "roll"
    assert main(["price-infinite", "--config", str(starved),
                 "--out", str(out)]) == 5
    cert = json.loads((out / "picard_certificate.json").read_text())
    assert cert["converged"] is False


def test_price_infinite_needs_positive_rate(tmp_path, rolling_config):
    tree = json.loads(rolling_config.read_text())
    tree["rate"] = 0.0
    flat = rolling_config.parent / "flat.json"
    flat.write_text(json.dumps(tree))
    assert main(["price-infinite", "--config", str(flat),
                 "--out", str(tmp_path / "x")]) == 2


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def test_simulate_round_trip_and_determinism(tmp_path, finite_config):
    priced = tmp_path / "run"
    assert main(["price-multi", "--config", str(finite_config),
                 "--out", str(priced)]) == 0
    s1, s2 = tmp_path / "sim1", tmp_path / "sim2"
    for out in (s1, s2):
        assert main(["simulate", "--config", str(finite_config),
                     "--field", str(priced / "field"), "--out", str(out)]) == 0
    assert (s1 / "paths.csv").read_bytes() == (s2 / "paths.csv").read_bytes()
    assert (s1 / "events.csv").read_bytes() == (s2 / "events.csv").read_bytes()
    assert manifest_of(s1)["content_hash"] == manifest_of(s2)["content_hash"]

    report = json.loads((s1 / "simulation_report.json").read_text())
    assert report["abort_fraction"] == 0.0
    # deterministic degenerate market: drift is reported, never gated
    assert report["martingale"]["statistical"] is False
    assert manifest_of(s1)["verification"]["martingale_passed"] is None


def test_simulate_seed_flag_changes_content(tmp_path, rolling_config):
    priced = tmp_path / "roll"
    assert main(["price-infinite", "--config", str(rolling_config),
                 "--out", str(priced)]) == 0
    s1, s2 = tmp_path / "sim1", tmp_path / "sim2"
    assert main(["simulate", "--config", str(rolling_config),
                 "--field", str(priced / "w.grid"), "--out", str(s1),
                 "--seed", "0"]) == 0
    assert main(["simulate", "--config", str(rolling_config),
                 "--field", str(priced / "w.grid"), "--out", str(s2),
                 "--seed", "1"]) == 0
    # without a factor the paths are seed-independent; the manifests
    # still record the seed that produced them
    assert manifest_of(s1)["seeds"] == [0]
    assert manifest_of(s2)["seeds"] == [1]


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_passes_fresh_runs(tmp_path, finite_config):
    out = tmp_path / "run"
    main(["price-multi", "--config", str(finite_config), "--out", str(out)])
    assert main(["verify", str(out)]) == 0


def test_verify_detects_tampering(tmp_path, finite_config):
    out = tmp_path / "run"
    main(["price-multi", "--config", str(finite_config), "--out", str(out)])
    victim = out / "field" / "period_1.grid"
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0x01
    victim.write_bytes(bytes(blob))
    assert main(["verify", str(out)]) == 6


def test_verify_flags_invariant_violations_in_bare_grids(tmp_path, finite_config):
    out = tmp_path / "run"
    main(["price-multi", "--config", str(finite_config), "--out", str(out)])
    grid = read_grid(out / "field" / "period_1.grid")
    bad = grid.values.copy()
    bad[0, 10] = 2.0  # exceeds the discounted range bound
    forged = ValueGrid(times=grid.times, e_nodes=grid.e_nodes, values=bad,
                       rate=grid.rate, meta=dict(grid.meta))
    write_grid(forged, tmp_path / "forged.grid")
    assert main(["verify", str(tmp_path / "forged.grid")]) == 4


def test_verify_needs_a_manifest(tmp_path):
    (tmp_path / "hollow").mkdir()
    assert main(["verify", str(tmp_path / "hollow")]) == 2


@pytest.mark.parametrize("blob", [b"CFBGRID1\x00\x01",
                                  b"CFBGRID1" + (2).to_bytes(8, "little") + b"{}"])
def test_verify_exits_6_on_a_malformed_grid(tmp_path, blob):
    bad = tmp_path / "bad.grid"
    bad.write_bytes(blob)
    assert main(["verify", str(bad)]) == 6


@pytest.fixture()
def grid_io_calls(monkeypatch):
    """Paths passed to ``file_sha256`` and ``read_grid``, through any binding."""
    calls = {"file_sha256": [], "read_grid": []}
    for name, seen in calls.items():
        original = getattr(gridio, name)

        def spy(path, *args, _original=original, _seen=seen, **kwargs):
            _seen.append(Path(path))
            return _original(path, *args, **kwargs)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("carbon_fbsde")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, spy)
    return calls


def test_grid_files_are_hashed_only_while_read_or_written(
        tmp_path, finite_config, rolling_config, grid_io_calls):
    priced, rolled = tmp_path / "run", tmp_path / "roll"
    period = priced / "field" / "period_1.grid"
    stationary = rolled / "w.grid"
    runs = [
        (["price-multi", "--config", str(finite_config), "--out", str(priced)], []),
        (["price-infinite", "--config", str(rolling_config), "--out", str(rolled)], []),
        (["simulate", "--config", str(finite_config), "--field", str(priced / "field"),
          "--out", str(tmp_path / "sim1")], [period]),
        (["simulate", "--config", str(rolling_config), "--field", str(stationary),
          "--out", str(tmp_path / "sim2")], [stationary]),
        (["verify", str(priced)], [period]),
        (["verify", str(priced / "field")], [period]),
        (["verify", str(rolled)], [stationary]),
        (["verify", str(stationary)], [stationary]),
    ]
    for argv, reads in runs:
        for seen in grid_io_calls.values():
            seen.clear()
        assert main(argv) == 0, argv
        assert [p for p in grid_io_calls["file_sha256"] if p.suffix == ".grid"] == []
        assert grid_io_calls["read_grid"] == reads, argv
