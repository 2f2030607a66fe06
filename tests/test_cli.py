"""End-to-end CLI tests, run in-process through main()."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from carbon_fbsde import gridio
from carbon_fbsde.cli import main
from carbon_fbsde.config import bundled_preset
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
    ["price-infinite", "--threads", "2"],
    ["price-multi", "--threads", "2"],
])
def test_commands_refuse_flags_they_do_not_read(tmp_path, finite_config, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(finite_config), "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_rate_without_a_sign_change_on_the_y_star_bracket_exits_2(tmp_path, capsys):
    """The declared mono_l1 = 1 holds only on [-0.25, 1.25], where the
    coefficients are sampled; beyond it the rate falls at half that
    speed, so it is still positive at the bracket end m0 / l1 = 3."""
    tree = dict(TINY_FINITE, label="slow-tail", coefficients={"expression": {
        "mu": "3 - minimum(y, 1.25) - 0.5*maximum(y - 1.25, 0)",
        "dim_p": 0, "lipschitz_L": 2, "mono_l1": 1, "mono_l2": 1}},
        grid={"n_e": 100})
    path = tmp_path / "slow-tail.json"
    path.write_text(json.dumps(tree))
    assert main(["price-multi", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == 2
    assert "y* bracket [0, 3]" in capsys.readouterr().err


@pytest.mark.parametrize("where, value, key", [
    (("cap", "parameters", "levels"), [math.nan], "cap.parameters.levels[0]"),
    (("grid", "n_e"), "many", "grid.n_e"),
    (("periods",), "x", "periods"),
    (("rate",), math.nan, "rate"),
    (("rate",), math.inf, "rate"),
    (("simulation", "steps_per_period"), "many", "simulation.steps_per_period"),
    (("grid", "n_E"), 10, "grid.n_E"),
    (("grid", "mollify_width"), 0.1, "grid.mollify_width"),
    (("grid", "flux_scheme"), "engquist-osher", "grid.flux_scheme"),
    (("grid",), "coarse", "grid"),
], ids=["nan-level", "word-n_e", "word-periods", "nan-rate", "infinite-rate",
        "word-steps", "typo-n_E", "retired-mollify_width", "retired-flux_scheme",
        "word-grid"])
def test_odd_config_scalars_exit_2_naming_the_key(tmp_path, capsys, where, value, key):
    """A NaN level used to price an all-zero field and exit 0, words raised
    a bare ValueError (exit 1; for the simulation block, in ``simulate``),
    and a NaN or infinite rate reached the solver (exits 3 and 4).  A
    misspelt grid key ran at the default and exited 0, and so did a retired
    one set to anything but its one value; a grid block that is not an
    object raised a bare TypeError (exit 1)."""
    tree = bundled_preset("burgers")
    node = tree
    for name in where[:-1]:
        node = node[name]
    node[where[-1]] = value
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(tree))  # NaN and Infinity as JSON reads them
    assert main(["price-multi", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and key in err, err


@pytest.mark.parametrize("preset, block, value, key", [
    ("rolling-r005", "infinite", {"tol_l1": "abc"}, "infinite.tol_l1"),
    ("rolling-r005", "infinite", {"tol_l1": -1}, "infinite.tol_l1"),
    ("rolling-r005", "infinite", {"max_iter": "x"}, "infinite.max_iter"),
    ("rolling-r005", "infinite", {"max_iter": 0}, "infinite.max_iter"),
    ("rolling-r005", "infinite", {"tol_rel": None}, "infinite.tol_rel"),
    ("burgers", "terminal", "indicator", "terminal"),
    ("burgers", "simulation", [], "simulation"),
    ("rolling-r005", "infinite", {"max_iters": 5}, "infinite.max_iters"),
    ("burgers", "simulation", {"nn_paths": 5}, "simulation.nn_paths"),
], ids=["word-tol_l1", "negative-tol_l1", "word-max_iter", "zero-max_iter",
        "null-tol_rel", "word-terminal", "list-simulation", "typo-max_iters",
        "typo-nn_paths"])
def test_odd_infinite_terminal_and_simulation_blocks_exit_2(tmp_path, capsys, preset,
                                                            block, value, key):
    """Each of these used to raise out of ``main`` (a TypeError, a math
    domain error or a KeyError), and ``max_iter: 0`` exited 5 after no
    sweep.  A misspelt key ran at the default and exited 0."""
    tree = bundled_preset(preset)
    tree[block] = value
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(tree))
    command = "price-infinite" if tree.get("horizon") == "infinite" else "price-multi"
    assert main([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and key in err, err


def test_an_explicit_step_count_above_courant_1_exits_4(tmp_path, capsys):
    """``grid.n_steps`` pins the step count whatever the stability bound.
    One step over the period is far above Courant number 1: the march is
    not monotone, leaves the range, and the run fails its own structural
    check (the documented contract, not a config error)."""
    tree = dict(TINY_FINITE, grid={**TINY_FINITE["grid"], "n_steps": 1})
    path = tmp_path / "one-step.json"
    path.write_text(json.dumps(tree))
    out = tmp_path / "x"
    assert main(["price-multi", "--config", str(path), "--out", str(out)]) == 4
    assert "structural diagnostics failed" in capsys.readouterr().err
    report = json.loads((out / "diagnostics.json").read_text())["reports"][0]
    assert report["max_range_violation"] > 1e-12


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
    # the exit-0 layout; the self-consistency sweep never ran
    assert set(cert) == {"iterations", "converged", "residual", "table", "contraction"}
    assert len(cert["table"]) == cert["iterations"] == 1
    assert "self_consistency" not in cert["contraction"]


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
    assert set(report) == {"martingale", "jump", "abort_fraction"}
    assert set(report["martingale"]) == {"t1", "t2", "delta", "se", "n_used", "passed",
                                         "statistical"}
    assert set(report["jump"]) == {"margin_cells", "above_residual", "below_residual",
                                   "n_above", "n_below", "n_at"}
    assert report["abort_fraction"] == 0.0
    # deterministic degenerate market: drift is reported, never gated
    assert report["martingale"]["statistical"] is False
    assert manifest_of(s1)["verification"]["martingale_passed"] is None


def test_simulate_refuses_a_negative_keep_paths(tmp_path, capsys):
    tree = {**TINY_FINITE, "simulation": {**TINY_FINITE["simulation"], "keep_paths": -1}}
    config = tmp_path / "keep.json"
    config.write_text(json.dumps(tree))
    assert main(["price-multi", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    assert main(["simulate", "--config", str(config), "--field",
                 str(tmp_path / "run" / "field"), "--out", str(tmp_path / "sim")]) == 2
    assert capsys.readouterr().err.count("error: ") == 1


@pytest.mark.parametrize("times", ["x", 0.5, ["a"], [math.nan], [math.inf], [1.5],
                                   [-0.25]],
                         ids=["word", "number", "list-of-words", "nan", "infinity",
                              "after-the-horizon", "before-the-start"])
def test_odd_snapshot_times_exit_2_naming_the_key(tmp_path, priced_run, capsys, times):
    """``price-multi`` used to price such a config and ``simulate`` then
    raised a numpy error on words and bare numbers (exit 1) or snapped NaN
    and infinite times to t = 0 and failed later with a misleading "no
    snapshot near" message.  Both commands now refuse the config before
    any field is read."""
    tree = {**TINY_FINITE, "simulation": {**TINY_FINITE["simulation"],
                                          "snapshot_times": times}}
    config = _config(tmp_path, tree)  # NaN and Infinity as JSON reads them
    assert main(["price-multi", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert main(["simulate", "--config", str(config), "--field",
                 str(priced_run[0] / "field"), "--out", str(tmp_path / "sim")]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 2 and err.count("simulation.snapshot_times") == 2, err


def test_snapshot_times_may_span_every_rolled_period(tmp_path, capsys):
    tree = {**TINY_ROLLING, "simulation": {**TINY_ROLLING["simulation"],
                                           "snapshot_times": [0.0, 0.5, 2.0]}}
    config = _config(tmp_path, tree)
    run = tmp_path / "roll"
    assert main(["price-infinite", "--config", str(config), "--out", str(run)]) == 0
    assert main(["simulate", "--config", str(config), "--field", str(run / "w.grid"),
                 "--out", str(tmp_path / "sim")]) == 0
    tree["simulation"]["snapshot_times"] = [0.0, 0.5, 2.5]
    capsys.readouterr()
    assert main(["simulate", "--config", str(_config(tmp_path, tree)), "--field",
                 str(run / "w.grid"), "--out", str(tmp_path / "sim2")]) == 2
    assert "horizon [0, 2]" in capsys.readouterr().err


def test_configured_snapshot_times_keep_the_martingale_report(tmp_path, capsys):
    """The martingale report reads snapshots at t0 and at the first period's
    midpoint; a configured list without them used to exit 2 after writing
    ``paths.csv`` and ``events.csv`` but no manifest."""
    tree = {**TINY_FINITE, "simulation": {**TINY_FINITE["simulation"],
                                          "snapshot_times": [1.0]}}
    config = _config(tmp_path, tree)
    run, sim = tmp_path / "run", tmp_path / "sim"
    assert main(["price-multi", "--config", str(config), "--out", str(run)]) == 0
    assert main(["simulate", "--config", str(config), "--field", str(run / "field"),
                 "--out", str(sim)]) == 0, capsys.readouterr().err
    listed = sorted(a["path"] for a in manifest_of(sim)["artifacts"])
    assert listed == ["events.csv", "paths.csv", "simulation_report.json"]
    report = json.loads((sim / "simulation_report.json").read_text())
    assert (report["martingale"]["t1"], report["martingale"]["t2"]) == (0.0, 0.5)


def test_price_commands_never_import_numpy_random(tmp_path):
    """Only ``simulate`` draws random numbers; the price commands validate
    coefficients on a deterministic sequence."""
    finite, rolling = tmp_path / "finite.json", tmp_path / "rolling.json"
    finite.write_text(json.dumps(TINY_FINITE))
    rolling.write_text(json.dumps(TINY_ROLLING))
    probe = ("import sys\n"
             "from carbon_fbsde.cli import main\n"
             f"assert main(['price-multi', '--config', {str(finite)!r}, "
             f"'--out', {str(tmp_path / 'multi')!r}]) == 0\n"
             f"assert main(['price-infinite', '--config', {str(rolling)!r}, "
             f"'--out', {str(tmp_path / 'roll')!r}]) == 0\n"
             "loaded = sorted(m for m in sys.modules if m.startswith('numpy.random'))\n"
             "assert not loaded, loaded\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr


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


@pytest.fixture(scope="module")
def priced_run(tmp_path_factory):
    """A tiny price-multi run directory and its config, solved once."""
    root = tmp_path_factory.mktemp("priced")
    config = root / "finite.json"
    config.write_text(json.dumps(TINY_FINITE))
    assert main(["price-multi", "--config", str(config), "--out", str(root / "run")]) == 0
    return root / "run", config


def _without(doc, *keys):
    """``doc`` with the key path ``keys`` removed (ints index lists)."""
    inner = doc
    for key in keys[:-1]:
        inner = inner[key]
    del inner[keys[-1]]
    return doc


FIELD_BREAKS = {
    "cut": lambda doc: '{"format": ',
    "not-an-object": lambda doc: "[]",
    "no-grids": lambda doc: json.dumps(_without(doc, "grids")),
    "grids-not-a-list": lambda doc: json.dumps({**doc, "grids": "period_1.grid"}),
    "no-file": lambda doc: json.dumps(_without(doc, "grids", 0, "file")),
    "no-sha256": lambda doc: json.dumps(_without(doc, "grids", 0, "sha256")),
    "file-not-a-string": lambda doc: json.dumps(
        {**doc, "grids": [{**doc["grids"][0], "file": 1}]}),
    "no-rate": lambda doc: json.dumps(_without(doc, "rate")),
    "rate-not-a-number": lambda doc: json.dumps({**doc, "rate": "0"}),
    # Python's json reads NaN, and NaN fails every comparison
    "rate-nan": lambda doc: json.dumps({**doc, "rate": math.nan}),
}

RUN_BREAKS = {
    "cut": lambda doc: '{"command": ',
    "not-an-object": lambda doc: '"manifest"',
    "no-artifacts": lambda doc: json.dumps(_without(doc, "artifacts")),
    "no-path": lambda doc: json.dumps(_without(doc, "artifacts", 0, "path")),
    "no-sha256": lambda doc: json.dumps(_without(doc, "artifacts", 0, "sha256")),
}


def _broken_copy(tmp_path, priced_run, name, break_doc):
    run = tmp_path / "run"
    shutil.copytree(priced_run[0], run)
    target = run / name
    target.write_text(break_doc(json.loads(target.read_text())))
    return run


@pytest.mark.parametrize("how", sorted(FIELD_BREAKS))
def test_corrupt_field_manifest_exits_6(tmp_path, priced_run, how, capsys):
    run = _broken_copy(tmp_path, priced_run, "field/field_manifest.json",
                       FIELD_BREAKS[how])
    assert main(["verify", str(run / "field")]) == 6
    assert main(["simulate", "--config", str(priced_run[1]), "--field",
                 str(run / "field"), "--out", str(tmp_path / "sim")]) == 6
    assert capsys.readouterr().err.count("error: ") == 2


@pytest.mark.parametrize("how", sorted(RUN_BREAKS))
def test_corrupt_run_manifest_exits_6(tmp_path, priced_run, how, capsys):
    run = _broken_copy(tmp_path, priced_run, "manifest.json", RUN_BREAKS[how])
    assert main(["verify", str(run)]) == 6
    assert main(["simulate", "--config", str(priced_run[1]), "--field",
                 str(run / "field"), "--out", str(tmp_path / "sim")]) == 6
    assert capsys.readouterr().err.count("error: ") == 2


def test_manifest_entry_naming_a_directory_exits_6(tmp_path, priced_run):
    run = _broken_copy(tmp_path, priced_run, "manifest.json", lambda doc: json.dumps(
        {**doc, "artifacts": [{"path": "field", "sha256": "0" * 64}]}))
    assert main(["verify", str(run)]) == 6


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


# ----------------------------------------------------------------------
# simulate refuses fields that do not fit its config
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def rolled_run(tmp_path_factory):
    """A tiny price-infinite run directory and its config, solved once."""
    root = tmp_path_factory.mktemp("rolled")
    config = root / "rolling.json"
    config.write_text(json.dumps(TINY_ROLLING))
    assert main(["price-infinite", "--config", str(config), "--out", str(root / "run")]) == 0
    return root / "run", config


def _config(tmp_path, tree):
    path = tmp_path / "other.json"
    path.write_text(json.dumps(tree))
    return path


def _refused(tmp_path, config, field, capsys, reason):
    code = main(["simulate", "--config", str(config), "--field", str(field),
                 "--out", str(tmp_path / "sim")])
    err = capsys.readouterr().err
    assert code == 6, err
    assert reason in err


def test_simulate_refuses_a_field_from_another_config(tmp_path, priced_run, capsys):
    other = _config(tmp_path, {**TINY_FINITE, "coefficients": {
        "preset": "no-factor", "parameters": {"m0": 1.1, "m2": 1.0}}})
    _refused(tmp_path, other, priced_run[0] / "field", capsys, "different config")


def test_simulate_refuses_a_grid_from_another_config(tmp_path, rolled_run, capsys):
    """Same rate, other coefficients: only the run manifest tells them apart."""
    other = _config(tmp_path, {**TINY_ROLLING, "coefficients": {
        "preset": "no-factor", "parameters": {"m0": 0.8, "m2": 1.0}}})
    _refused(tmp_path, other, rolled_run[0] / "w.grid", capsys, "different config")


def test_simulate_refuses_a_tampered_grid(tmp_path, rolled_run, capsys):
    run = tmp_path / "run"
    shutil.copytree(rolled_run[0], run)
    blob = bytearray((run / "w.grid").read_bytes())
    blob[-8 * 40] ^= 0x01  # the lowest mantissa bit of a stored value
    (run / "w.grid").write_bytes(bytes(blob))
    assert main(["verify", str(run)]) == 6
    capsys.readouterr()
    _refused(tmp_path, rolled_run[1], run / "w.grid", capsys, "sha256 mismatch")


@pytest.mark.parametrize("grid", ["w.grid", "period_1.grid"])
def test_verify_checks_a_bare_grid_against_the_manifest_beside_it(
        tmp_path, priced_run, rolled_run, capsys, grid):
    """A grid named on its own is hash-checked like one its directory lists:
    ``w.grid`` against the run manifest, ``period_1.grid`` against the
    field manifest."""
    source = rolled_run[0] if grid == "w.grid" else priced_run[0] / "field"
    run = tmp_path / "run"
    shutil.copytree(source, run)
    assert main(["verify", str(run / grid)]) == 0
    blob = bytearray((run / grid).read_bytes())
    blob[-8 * 40] ^= 0x01  # the lowest mantissa bit of a stored value
    (run / grid).write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["verify", str(run / grid)]) == 6
    assert "sha256 mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("artifact, tree, reason", [
    ("field", TINY_ROLLING, "needs a finite-horizon config"),
    ("w.grid", TINY_FINITE, "needs an infinite-horizon config"),
    ("field", {**TINY_FINITE, "periods": [1.0, 2.0],
               "cap": {"kind": "levels", "parameters": {"levels": [0.0, 0.5]}}},
     "field has 1 periods, config wants 2"),
    ("field", {**TINY_FINITE, "rate": 0.05}, "field rate does not match"),
    ("w.grid", {**TINY_ROLLING, "rate": 0.1}, "grid rate does not match"),
], ids=["directory-horizon", "grid-horizon", "periods", "directory-rate", "grid-rate"])
def test_simulate_refuses_a_field_that_does_not_fit_the_config(
        tmp_path, priced_run, rolled_run, capsys, artifact, tree, reason):
    # a copy with no run manifest beside it, so no config hash is compared
    source = priced_run[0] / "field" if artifact == "field" else rolled_run[0] / "w.grid"
    loose = tmp_path / "loose" / artifact
    loose.parent.mkdir()
    (shutil.copytree if source.is_dir() else shutil.copy)(source, loose)
    _refused(tmp_path, _config(tmp_path, tree), loose, capsys, reason)


def give_a_recorded_axis(field, name: str) -> None:
    """Rewrite a field's grid with a two-node recorded-emissions axis, as a
    reserve-rule period priced by an earlier version carries, and
    record its new digest in the field manifest."""
    path = field / name
    blob = path.read_bytes()
    n = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + n])
    values = np.frombuffer(blob[16 + n:], dtype="<f8").reshape(header["shape"])
    header["eparam_nodes"] = [0.0, 1.0]
    header["shape"].append(2)
    head = gridio.canonical_json(header).encode("utf-8")
    path.write_bytes(b"CFBGRID1" + len(head).to_bytes(8, "little") + head
                     + np.repeat(values[..., None], 2, axis=-1).tobytes())
    manifest = json.loads((field / "field_manifest.json").read_text())
    for entry in manifest["grids"]:
        if entry["file"] == name:
            entry["sha256"] = gridio.file_sha256(path)
    (field / "field_manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_a_grid_with_a_recorded_emissions_axis_exits_6(tmp_path, priced_run, capsys,
                                                       command):
    field = tmp_path / "loose" / "field"
    shutil.copytree(priced_run[0] / "field", field)
    give_a_recorded_axis(field, "period_1.grid")
    argv = (["verify", str(field)] if command == "verify"
            else ["simulate", "--config", str(priced_run[1]), "--field", str(field),
                  "--out", str(tmp_path / "sim")])
    assert main(argv) == 6
    assert "recorded-emissions axis (eparam_nodes)" in capsys.readouterr().err


def test_a_bare_grid_with_a_nan_rate_exits_6(tmp_path, rolled_run, capsys):
    # no run manifest beside it, so only the header speaks for the grid
    loose = tmp_path / "loose" / "w.grid"
    loose.parent.mkdir()
    blob = (rolled_run[0] / "w.grid").read_bytes()
    n = int.from_bytes(blob[8:16], "little")
    head = json.dumps({**json.loads(blob[16:16 + n]), "rate": math.nan}).encode("utf-8")
    loose.write_bytes(blob[:8] + len(head).to_bytes(8, "little") + head + blob[16 + n:])
    _refused(tmp_path, rolled_run[1], loose, capsys, "corrupt grid header")


def test_simulate_refuses_a_path_with_no_field(tmp_path, priced_run, capsys):
    _refused(tmp_path, priced_run[1], tmp_path / "nowhere", capsys,
             "no field artifact found")


# ----------------------------------------------------------------------
# report layouts
# ----------------------------------------------------------------------

DIAGNOSTICS_KEYS = {
    "grid", "passed", "notes", "max_range_violation", "max_monotonicity_violation",
    "terminal_monotonicity_defect", "scheme_added_monotonicity", "lipschitz_excess",
    "boundary_left", "boundary_right_residual", "left_tail_mass"}


def test_reports_keep_their_key_sets(priced_run, rolled_run):
    """The JSON report layouts, so a key cannot reach or leave an artifact
    unnoticed; ``simulation_report.json`` is pinned where simulate runs."""
    diag = json.loads((priced_run[0] / "diagnostics.json").read_text())
    assert set(diag) == {"reports", "passed"}
    assert all(set(r) == DIAGNOSTICS_KEYS for r in diag["reports"])
    rolled = json.loads((rolled_run[0] / "diagnostics.json").read_text())
    assert [set(r) for r in rolled["reports"]] == [DIAGNOSTICS_KEYS]

    cert = json.loads((rolled_run[0] / "picard_certificate.json").read_text())
    assert set(cert) == {"iterations", "converged", "residual", "table", "contraction"}
    assert all(set(row) == {"n", "residual", "ratio"} for row in cert["table"])
    assert set(cert["contraction"]) == {
        "factor", "rate", "period_length", "allocation", "tol_l1", "max_iter",
        "observed_ratios", "self_consistency", "min_increase"}
