"""Tests of the benchmark itself, run on every workload at a tiny size.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 3


SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _check_untraced(workload, tmp_path):
    details, result = run.run_workload(workload, SEED, 0.0, False, tmp_path,
                                       size=wl.TINY[workload], probes=1)
    assert result["correct"], details["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert len(details["artefact_sha256"]) == 64
    return details


def test_untraced_run_with_setup_probes(tmp_path):
    details = _check_untraced("queue_ctmc", tmp_path)
    assert len(details["setup_s"]) == 1 and details["setup_s"][0] > 0
    assert len(details["reference_wall_s"]) == details["repetitions"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path, monkeypatch):
    # setup probes start processes; the test above runs them for real
    monkeypatch.setattr(run, "measure_setup", lambda *args: ([0.5], [0.5]))
    _check_untraced(workload, tmp_path)


def test_speed_probe_samples_inside_and_after_the_body():
    with calibrate.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * calibrate.PERIOD_S:
            pass
        body = time.perf_counter() - t0
    assert len(probe.samples) >= 2 and 0 < probe.spent < body
    assert probe.reference_seconds(body) > 0
    with calibrate.SpeedProbe() as short:
        pass
    # the one sample of a body shorter than a period is taken after it
    assert len(short.samples) == 1 and short.spent == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload, tmp_path):
    details, result = run.run_workload(workload, SEED, 0.0, True, tmp_path,
                                       size=wl.TINY[workload])
    # one untraced and one traced repetition wrote identical artefacts
    assert result["correct"], details["failures"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _declared("per_layer")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    self_sum = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert self_sum + m["trace.uncovered_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert all(m[f"{layer}.self_s"] >= 0 for layer in spans.LAYERS)
    assert (tmp_path / details["spans_file"]).is_file()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest(workload, tmp_path):
    prep = wl.prepare(workload, SEED, wl.TINY[workload], tmp_path)
    tracer = spans.Tracer(0)
    tracer.install()
    try:
        res = wl.run_batch(prep, tmp_path / "out")
    finally:
        tracer.uninstall()
    assert not res.errors
    start, end = np.array(tracer.start), np.array(tracer.end)
    parent = np.array(tracer.parent)
    assert len(start) > 0 and np.all(end >= start)
    child = parent >= 0
    assert np.all(start[parent[child]] <= start[child])
    assert np.all(end[child] <= end[parent[child]])
    m = spans.layer_metrics(tracer, res.wall_s, 0)
    assert all(m[f"{layer}.self_s"] >= 0 for layer in spans.LAYERS)
    assert m["trace.uncovered_s"] >= 0


def test_tracing_is_removed_after_a_traced_run(tmp_path):
    import hwsim.cli
    import hwsim.queues

    before = (hwsim.cli.main, hwsim.queues.scale_state, dict(hwsim.cli.COMMANDS))
    run.run_workload("queue_ctmc", SEED, 0.0, True, tmp_path, size=wl.TINY["queue_ctmc"])
    assert (hwsim.cli.main, hwsim.queues.scale_state, dict(hwsim.cli.COMMANDS)) == before


def test_diffusion_counts_repeated_paths(tmp_path):
    _, result = run.run_workload("diffusion_em", SEED, 0.0, True, tmp_path,
                                 size=wl.TINY["diffusion_em"])
    # tails re-simulates sim-diffusion's three paths; the state-table run is new
    assert result["metrics"]["diffusion.repeat_steps_frac"]["value"] == pytest.approx(3 / 7)


def _renewal_cfg(scv: str, dist: str):
    from hwsim import cli

    text = wl.make_config("queue_renewal", SEED, wl.TINY["queue_renewal"])
    text = text.replace("scv = 0.5, 1.5", f"scv = {scv}")
    text = text.replace("dist = erlang:2, hyperexp2:1.5", f"dist = {dist}")
    return cli.parse_config(text)


def test_renewal_config_check():
    wl.check_renewal_config(_renewal_cfg("0.5, 1.5", "erlang:2, hyperexp2:1.5"))
    with pytest.raises(ValueError, match="not 1"):
        wl.check_renewal_config(_renewal_cfg("0.5, 2.0", "erlang:2, hyperexp2:2.0"))
    with pytest.raises(ValueError, match="does not match"):
        wl.check_renewal_config(_renewal_cfg("0.5, 1.5", "hyperexp2:1.5, erlang:2"))


def test_report_keys():
    assert wl.report_key("exp_linear_drift[c=inf]") == "exp_linear_drift_cinf"
    assert wl.report_key("neg_part_sub_gaussian_foster[eta=0.5]") \
        == "neg_part_sub_gaussian_foster"
    assert wl.report_key("prelimit_abandon_foster") == "prelimit_abandon_foster"


def test_identity_oracle_uses_four_standard_errors():
    assert wl._identity_ok(1.39, 0.1, 1.0)
    assert not wl._identity_ok(1.41, 0.1, 1.0)
    assert not wl._identity_ok(1.0, math.nan, 1.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "queue_ctmc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
