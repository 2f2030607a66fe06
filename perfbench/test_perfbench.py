"""Tests of the benchmark itself, on shrunk grids.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from carbon_fbsde import cli  # noqa: E402
from carbon_fbsde.config import bundled_preset  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def small_configs(tmp_path_factory):
    """The benchmark's configs on grids about 40x smaller."""
    tmp = tmp_path_factory.mktemp("configs")
    factor = bundled_preset("two-period-factor")
    factor["grid"].update(n_e=160, n_p=17)
    factor["simulation"].update(n_paths=2000, steps_per_period=64)
    rolling = json.loads(Path(run.CONFIGS["rolling"]).read_text(encoding="utf-8"))
    rolling["grid"].update(n_e=120, n_p=13)  # cell width 0.05: still aligned
    paths = {}
    for name, tree in (("factor", factor), ("rolling", rolling)):
        paths[name] = str(tmp / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(tree), encoding="utf-8")
    return paths


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced_run(workload, small_configs):
    out = run.run_workload(workload, seed=3, seconds=0, trace=True,
                           configs=small_configs)
    res = out["result"]
    assert res["correct"], out["info"]["problems"]
    assert res["failed"] == 0 and res["attempted"] >= 2
    assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # one untraced and one traced iteration produced the same artifacts
    assert len(out["info"]["content_hashes"]) == 1
    assert abs(res["metrics"]["trace.accounted_frac"]["value"] - 1.0) < 0.01


def test_smoke_untraced_reports_end_to_end(small_configs):
    out = run.run_workload("factor-chain", seed=0, seconds=0, trace=False,
                           configs=small_configs)
    res = out["result"]
    assert res["correct"] and res["attempted"] == 2
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_probe_check_catches_a_changed_field(small_configs):
    out = run.run_workload("rolling-factor", seed=0, seconds=0, trace=False,
                           configs=small_configs)
    assert out["result"]["correct"]
    # the full-size reference cannot match the shrunk grid
    ref = run.reference_for(json.loads(run.REFERENCE.read_text()), "rolling-factor")
    out = run.run_workload("rolling-factor", seed=0, seconds=0, trace=False,
                           configs=small_configs, reference=ref)
    assert not out["result"]["correct"]
    assert "probe nodes" in str(out["info"]["problems"])


def test_wrappers_are_removed_after_the_traced_run(tmp_path):
    bindings = {(owner, attr): getattr(owner, attr) for owner, attr in tracer._targets()}
    tr = tracer.Tracer().install()
    try:
        assert all(getattr(o, a) is not f for (o, a), f in bindings.items())
        code = cli.main(["price-multi", "--config", "preset:burgers",
                         "--out", str(tmp_path / "out")])
    finally:
        tr.restore()
    assert code == 0
    assert all(getattr(o, a) is f for (o, a), f in bindings.items())
    names = {span[0] for span in tr.spans}
    assert {"cli.main", "cli.cmd_price_multi", "pde_kernel.solve_one_period",
            "pde_kernel.FluxModel.interface", "gridio.write_grid"} <= names
    root = tr.spans[0]
    assert root[0] == "cli.main" and root[3] == -1
    assert sum(tracer.self_times(tr.spans)) == pytest.approx(root[2] - root[1])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "factor-chain", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
