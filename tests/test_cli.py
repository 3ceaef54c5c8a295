import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from hwsim import cli
from hwsim import diffusion as dif

CONFIG = """\
[scenario]
id = tiny
seed = 3

[system]
lambda = 0.5, 0.5
mu = 1.0, 1.0
hat_lambda = -0.5, -0.5
{scv}

[prelimit]
n = 20

[arrivals]
{arrivals}

[policy.pri01]
kind = static_priority
order = 0, 1

[sim]
horizon = 4
burn_in = 1
replicas = 2
thin = 0.5
"""

POISSON = "kind = poisson"
RENEWAL = "kind = renewal\ndist = erlang:2, hyperexp2:1.5"
LOGNORMAL = "kind = renewal\ndist = lognormal:1.0, exponential"


def _config(scv, arrivals):
    return CONFIG.format(scv="" if scv is None else f"scv = {scv}", arrivals=arrivals)


def _run(tmp_path, scv, arrivals, command="sim-queue"):
    path = tmp_path / "exp.ini"
    path.write_text(_config(scv, arrivals))
    return cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("scv, arrivals", [
    ("1.0, 1.0", POISSON), ("0.5, 1.5", RENEWAL), (None, POISSON), (None, RENEWAL),
    (None, LOGNORMAL), ("1.0, 1.0", LOGNORMAL),
    ("0.284, 1.716", "kind = renewal\ndist = lognormal:0.284, hyperexp2:1.716"),
])
def test_valid_config_exits_0(tmp_path, scv, arrivals):
    assert _run(tmp_path, scv, arrivals) == 0
    summary = json.loads((tmp_path / "out" / "tiny_queue_summary.json").read_text())
    assert summary["runs"]["n20.pri01"]["events"] > 0


@pytest.mark.parametrize("scv, arrivals, message", [
    ("0.5, 2.0", "kind = renewal\ndist = erlang:2, hyperexp2:2.0", "not 1"),
    ("0.5, 1.5", "kind = renewal\ndist = hyperexp2:1.5, erlang:2", "does not match"),
    ("0.5, 1.5", POISSON, "does not match"),
    ("0.25, 1.75", LOGNORMAL, "does not match"),
    (None, "kind = renewal\ndist = erlang:2, hyperexp2:2.0", "not 1"),
])
@pytest.mark.parametrize("command", ["sim-queue", "sim-diffusion"])
def test_scv_config_error_exits_2(tmp_path, capsys, scv, arrivals, message, command):
    assert _run(tmp_path, scv, arrivals, command) == 2
    assert message in capsys.readouterr().err


def test_parse_config_raises_config_error():
    with pytest.raises(cli.ConfigError, match="not 1"):
        cli.parse_config(_config("0.5, 2.0", "kind = renewal\ndist = erlang:2, hyperexp2:2.0"))


@pytest.mark.parametrize("arrivals", [POISSON, RENEWAL, LOGNORMAL])
def test_omitted_scv_comes_from_the_interarrival_laws(arrivals):
    cfg = cli.parse_config(_config(None, arrivals))
    assert np.array_equal(cfg.system.scv, cfg.arrival_spec(cfg.system.m).scv)


@pytest.mark.parametrize("section, line, named", [
    ("verify", "radius = 50", "'radius'"),
    ("verify", "include = all", "'include'"),
    ("verify", "prelimit_radius = 40", "'prelimit_radius'"),
    ("verify", "consistency_points = 20", "'consistency_points'"),
    ("verify", "consistency_n = 100, 1000", "'consistency_n'"),
    ("verify", "seed = 3", "'seed'"),
    ("verify", "sampels = 1000", "'sampels'"),
    ("lyapunov", "epsilon = 0.1", "[lyapunov]"),
    ("lyapunov", "theta = 0.5", "[lyapunov]"),
])
def test_unknown_config_key_exits_2(tmp_path, capsys, section, line, named):
    path = tmp_path / "exp.ini"
    path.write_text(_config(None, POISSON) + f"\n[{section}]\n{line}\n")
    assert cli.main(["verify-drift", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example.ini"


def _demo_with(tmp_path, *edits):
    text = EXAMPLE.read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "edited.ini"
    path.write_text(text)
    return path


NEGATIVE_SPARE = ("hat_lambda = -0.5, -0.5", "hat_lambda = 0.5, 0.5")


def test_failed_verification_exits_1(tmp_path, capsys):
    # the demo's prelimit certificate fails at n = 1600: the empty state's
    # scaled norm sqrt(n) = 40 reaches the edge of the default radius-40 ball
    path = _demo_with(tmp_path, ("\nn = 100, 400\n", "\nn = 1600\n"),
                      ("\nsamples = 50000\n", "\nsamples = 3000\n"))
    code = cli.main(["verify-drift", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL prelimit_exp_linear_foster violations=")
               for line in lines)
    assert sum(line.startswith("FAIL") for line in lines) == 1


def test_verification_with_no_applicable_check_exits_2(tmp_path, capsys):
    # spare capacity -1 and no abandonment: no certificate applies, so there
    # is nothing to pass
    path = _demo_with(tmp_path, NEGATIVE_SPARE)
    out = tmp_path / "out"
    assert cli.main(["verify-drift", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "no certificate applies" in err and "spare capacity -1 <= 0" in err
    assert not any(out.glob("*"))


def test_sub_gaussian_certificates_hold_at_negative_spare_capacity(tmp_path, capsys):
    path = _demo_with(tmp_path, NEGATIVE_SPARE, ("gamma = 0.0, 0.0", "gamma = 0.5, 0.5"))
    assert cli.main(["verify-drift", "--config", str(path), "--out", str(tmp_path)]) == 0
    rows = [r.split(",") for r in
            (tmp_path / "demo_verify_report.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == ["sub_gaussian_foster", "abandonment_foster",
                                    "prelimit_abandon_foster"]
    assert all(r[2] == "0" and r[5] == "1" and float(r[3]) > 0 for r in rows)


def test_demo_verification_reproduces_the_committed_reports(tmp_path, capsys):
    # the committed demo artefacts are the reference: a refactor of the
    # checks must leave both files byte for byte
    assert cli.main(["verify-drift", "--config", str(EXAMPLE), "--out", str(tmp_path)]) == 0
    demo = EXAMPLE.parents[1] / "out" / "demo"
    for name in ("demo_verify_report.csv", "demo_verify_details.json"):
        assert (tmp_path / name).read_bytes() == (demo / name).read_bytes(), name


def test_demo_generator_check_reproduces_the_committed_files(tmp_path, capsys):
    assert cli.main(["generator-check", "--config", str(EXAMPLE), "--out", str(tmp_path)]) == 0
    demo = EXAMPLE.parents[1] / "out" / "demo"
    for name in ("demo_generator_check.csv", "demo_generator_check.json"):
        assert (tmp_path / name).read_bytes() == (demo / name).read_bytes(), name


def test_demo_diffusion_reproduces_the_committed_files(tmp_path, capsys):
    for command in ("sim-diffusion", "tails"):
        assert cli.main([command, "--config", str(EXAMPLE), "--out", str(tmp_path)]) == 0
    demo = EXAMPLE.parents[1] / "out" / "demo"
    names = sorted(p.name for p in demo.glob("demo_*_diffusion_*"))
    names += ["demo_diffusion_summary.json", "demo_tails.csv"]
    assert len(names) == 8
    for name in names:
        assert (tmp_path / name).read_bytes() == (demo / name).read_bytes(), name


def test_tails_flags_policies_that_trip_before_burn_in(tmp_path, capsys):
    # a transient system: every replica of every policy trips before burn-in
    path = _demo_with(tmp_path, NEGATIVE_SPARE,
                      ("horizon = 200", "horizon = 400"), ("step = 0.005", "step = 0.05"),
                      ("burn_in = 20", "burn_in = 300"), ("replicas = 16", "replicas = 4"),
                      ("blowup = 1000", "blowup = 30"))
    assert cli.main(["tails", "--config", str(path), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "demo_tails.csv").read_text().splitlines()[1:]
    assert len(rows) == 6
    assert all(row.endswith(",0,insufficient tail samples") for row in rows)


BAD_U = "\n[policy.bad]\nkind = constant\nu = {}\n"


@pytest.mark.parametrize("old, new, named", [
    ("", "\n[verify]\nsamples = many\n", "many"),
    ("", "\n[verify]\nsamples = 0\n", "samples must be >= 1"),
    ("", "step = 0\n", "step"),
    ("burn_in = 1\n", "burn_in = 4\n", "burn_in"),
    ("seed = 3\n", "", "seed is required"),
    ("order = 0, 1\n", "order = 0, 0\n", "permutation of 0..1"),
    ("order = 0, 1\n", "order = 0, 2\n", "permutation of 0..1"),
    ("", BAD_U.format("0.3, 0.3, 0.4"), "u needs 2 entries"),
    ("", BAD_U.format("0.3, 0.3"), "control sum deviates from 1"),
    ("", BAD_U.format("1.5, -0.5"), "negative control coordinate"),
    ("n = 20\n", "n = 0\n", "n must be >= 1"),
    ("hat_lambda = -0.5, -0.5", "hat_lambda = -5, -5", "prelimit rates must be positive"),
    ("", "x0 = 1, 2, 3\n", "x0 needs 1 or 2 entries"),
    ("thin = 0.5\n", "thin = 0\n", "0 < thin"),
    ("thin = 0.5\n", "thin = inf\n", "thin < inf"),
    ("horizon = 4\n", "horizon = inf\n", "horizon < inf"),
    ("", "blowup = -1\n", "blowup > 0"),
    ("", "\n[verify]\neta = 0\n", "eta must be > 0"),
    (None, None, "Is a directory"),
])
@pytest.mark.parametrize("command", ["verify-drift", "sim-diffusion", "sim-queue"])
def test_bad_config_value_exits_2(tmp_path, capsys, old, new, named, command):
    text = _config(None, POISSON)
    path = tmp_path / "exp.ini"
    if new is None:                        # the config path names a directory
        path.mkdir()
    else:
        path.write_text(text.replace(old, new) if old else text + new)
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def test_sim_config_has_exactly_the_config_keys():
    # every SimConfig field is a [sim] key or the seed that each command sets,
    # so the run config has no switch that a config file cannot reach
    names = {f.name for f in fields(dif.SimConfig)}
    assert names == set(cli.CONFIG_KEYS["sim"]) | {"seed"}


def test_renewal_verification_passes_and_repeats(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(_config(None, RENEWAL))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main(["verify-drift", "--config", str(path), "--out", str(out)]) == 0
    rows = (outs[0] / "tiny_verify_report.csv").read_text().splitlines()
    row = next(r.split(",") for r in rows if r.startswith("prelimit_renewal_foster,"))
    assert row[5] == "1"
    for name in ("tiny_verify_report.csv", "tiny_verify_details.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
