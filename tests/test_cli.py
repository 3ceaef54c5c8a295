import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from hwsim import cli
from hwsim import diffusion as dif
from hwsim import queues as qs

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


def test_a_dist_without_kind_gives_renewal_laws():
    cfg = cli.parse_config(_config(None, "dist = erlang:2, hyperexp2:1.5"))
    assert cfg.arrival_kind == "renewal"
    assert [type(d) for d in cfg.arrival_spec(2).dists] == [qs.Erlang, qs.HyperExp2]
    assert np.allclose(cfg.system.scv, [0.5, 1.5])


@pytest.mark.parametrize("command", ["sim-queue", "verify-drift"])
def test_renewal_input_of_exponential_laws_is_poisson_input(tmp_path, capsys, command):
    # the laws decide: the CTMC clock and the Poisson prelimit checks, file for file
    outs = [tmp_path / "poisson", tmp_path / "renewal"]
    for out, arrivals in zip(outs, (POISSON, "kind = renewal\ndist = exponential, exponential")):
        out.mkdir()
        assert _run(out, None, arrivals, command) == 0
    names = sorted(p.name for p in (outs[0] / "out").glob("tiny_*"))
    assert names == sorted(p.name for p in (outs[1] / "out").glob("tiny_*"))
    assert len(names) == 2
    for name in names:
        assert ((outs[0] / "out" / name).read_bytes()
                == (outs[1] / "out" / name).read_bytes()), name
    if command == "verify-drift":
        assert "prelimit_exp_linear_foster," in (outs[1] / "out" / names[1]).read_text()


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


def test_sim_diffusion_with_no_sample_writes_the_moments(tmp_path, capsys):
    # every replica trips past burn_in (t = 3) but before the first thinning
    # step (t = 20): moments, no samples or histogram files
    path = _demo_with(tmp_path, NEGATIVE_SPARE, ("\nn = 100, 400\n", "\nn = 100\n"),
                      ("horizon = 200", "horizon = 30"), ("burn_in = 20", "burn_in = 3"),
                      ("thin = 0.5", "thin = 20"), ("replicas = 16", "replicas = 4"),
                      ("blowup = 1000", "blowup = 8"))
    out = tmp_path / "out"
    assert cli.main(["sim-diffusion", "--config", str(path), "--out", str(out)]) == 0
    policies = json.loads((out / "demo_diffusion_summary.json").read_text())["policies"]
    assert len(policies) == 3
    assert all(e["tripped"] == 4 and len(e["l1"]) == 2 for e in policies.values())
    assert sorted(p.name for p in out.iterdir()) == ["demo_diffusion_summary.json",
                                                     "results.csv"]


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


@pytest.mark.parametrize("command", ["sim-diffusion", "tails"])
def test_a_queue_only_kind_has_no_diffusion_run(tmp_path, capsys, command):
    # longest_queue_first reads no u, so the u line goes with the old kind
    path = _demo_with(tmp_path, ("kind = constant\nu = 0.5, 0.5\n",
                                 "kind = longest_queue_first\n"))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'longest_queue_first' has no diffusion counterpart" in err
    assert not any(out.glob("*"))


@pytest.mark.parametrize("kind, queue", [
    ("longest_queue_first", qs.LongestQueueFirstPolicy),
    ("random_work_conserving", qs.RandomWorkConservingPolicy),
])
def test_a_queue_only_kind_runs_in_sim_queue(tmp_path, capsys, kind, queue):
    text = _config(None, POISSON) + f"\n[policy.other]\nkind = {kind}\n"
    pol = cli.parse_config(text).policies[1]
    assert (pol.name, pol.kind, type(pol.queue), pol.diffusion) == ("other", kind, queue, None)
    path = tmp_path / "exp.ini"
    path.write_text(text)
    assert cli.main(["sim-queue", "--config", str(path), "--out", str(tmp_path)]) == 0
    runs = json.loads((tmp_path / "tiny_queue_summary.json").read_text())["runs"]
    assert runs["n20.other"]["policy"] == kind and runs["n20.other"]["events"] > 0


def test_each_kind_parses_to_its_queue_policy_and_diffusion_control():
    text = EXAMPLE.read_text().replace("kind = constant", "kind = proportional_split")
    pri12, pri21, bary = cli.parse_config(text).policies
    assert isinstance(pri12.queue, qs.StaticPriorityPolicy) and pri21.queue.order == (1, 0)
    assert isinstance(pri12.diffusion, dif.StaticPriorityControl)
    assert list(pri21.diffusion.u) == [1.0, 0.0]     # the lowest-priority class
    assert isinstance(bary.queue, qs.ProportionalSplitPolicy)
    assert type(bary.diffusion) is dif.ConstantControl
    assert bary.queue.u == list(bary.diffusion.u) == [0.5, 0.5]


def test_generator_check_without_spare_capacity_exits_2(tmp_path, capsys):
    path = _demo_with(tmp_path, NEGATIVE_SPARE)
    out = tmp_path / "out"
    assert cli.main(["generator-check", "--config", str(path), "--out", str(out)]) == 2
    assert "needs positive spare capacity" in capsys.readouterr().err
    assert not any(out.glob("*.csv"))


@pytest.mark.parametrize("arrivals, law", [(RENEWAL, "Erlang(scv=0.5)"),
                                            (LOGNORMAL, "LogNormal(scv=1)")],
                         ids=["renewal", "lognormal"])
def test_generator_check_on_renewal_input_exits_2(tmp_path, capsys, arrivals, law):
    # the demo with renewal laws; [system] scv goes, as the laws give it
    path = _demo_with(tmp_path, ("kind = poisson", arrivals), ("scv = 1.0, 1.0\n", ""))
    out = tmp_path / "out"
    assert cli.main(["generator-check", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"needs Poisson input, got {law}" in err and "age-lifted" in err
    assert not out.exists()


def test_generator_check_on_renewal_input_keeps_existing_output(tmp_path, capsys):
    # even under --overwrite, the check refuses before it touches the directory
    path = _demo_with(tmp_path, ("kind = poisson", RENEWAL), ("scv = 1.0, 1.0\n", ""))
    out = tmp_path / "out"
    out.mkdir()
    stale = {name: f"stale {name}\n" for name in
             ("demo_generator_check.csv", "demo_generator_check.json")}
    for name, text in stale.items():
        (out / name).write_text(text)
    assert cli.main(["generator-check", "--config", str(path), "--out", str(out),
                     "--overwrite"]) == 2
    assert "got Erlang(scv=0.5), HyperExp2(scv=1.5);" in capsys.readouterr().err
    assert {f.name: f.read_text() for f in out.iterdir()} == stale


def test_generator_check_keys_on_the_laws_not_the_declared_kind(tmp_path, capsys):
    # kind = renewal with the default exponential laws is Poisson input
    path = _demo_with(tmp_path, ("kind = poisson", "kind = renewal"))
    assert cli.parse_config(path.read_text()).arrivals.is_poisson
    assert cli.main(["generator-check", "--config", str(path), "--out", str(tmp_path)]) == 0
    demo = EXAMPLE.parents[1] / "out" / "demo"
    for name in ("demo_generator_check.csv", "demo_generator_check.json"):
        assert (tmp_path / name).read_bytes() == (demo / name).read_bytes(), name


BAD_U = "\n[policy.bad]\nkind = constant\nu = {}\n"
# a block of each kind with a key that kind does not read
UNREAD = [("\n[policy.bad]\nkind = {}\n{}\n".format(kind, lines), f"it accepts {accepts}")
          for kind, lines, accepts in [
              ("constant", "u = 0.5, 0.5\norder = 1, 0", "kind, u"),
              ("proportional_split", "u = 0.5, 0.5\norder = 1, 0", "kind, u"),
              ("static_priority", "order = 1, 0\nu = 0.5, 0.5", "kind, order"),
              ("longest_queue_first", "u = 0.5, 0.5", "kind"),
              ("random_work_conserving", "order = 1, 0", "kind")]]
# nan and inf in every number of [system], in [sim] x0 and in [verify] eta:
# a NaN passes every comparison-based check, an inf some
NON_FINITE = [(old, new.format(v), named) for v in ("nan", "inf") for old, new, named in [
    ("lambda = 0.5, 0.5", "lambda = {}, 0.5", "lambda must be finite"),
    ("mu = 1.0, 1.0\n", "mu = 1.0, {}\n", "mu must be finite"),
    ("mu = 1.0, 1.0\n", "mu = 1.0, 1.0\ngamma = {}, 0.0\n", "gamma must be finite"),
    ("hat_lambda = -0.5, -0.5", "hat_lambda = {}, -0.5", "hat_lambda must be finite"),
    ("mu = 1.0, 1.0\n", "mu = 1.0, 1.0\nhat_mu = 0.0, {}\n", "hat_mu must be finite"),
    ("mu = 1.0, 1.0\n", "mu = 1.0, 1.0\nscv = {}, 1.0\n", "scv must be finite"),
    ("", "x0 = {}, 0\n", "x0 must be finite"),
    ("", "\n[verify]\neta = {}\n", "eta must be > 0 and finite"),
]]


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
    ("thin = 0.5\n", "thin = 500\n", "no thinning step past burn_in"),
    ("thin = 0.5\n", "thin = 4.5\n", "no thinning step past burn_in"),
    ("burn_in = 1\nreplicas = 2\nthin = 0.5\n", "burn_in = 3\nreplicas = 2\nthin = 2.5\n",
     "no thinning step past burn_in"),
    ("", "\n[verify]\neta = 0\n", "eta must be > 0"),
    *NON_FINITE,
    ("kind = poisson\n", "kind = poisson\ndist = erlang:2, hyperexp2:1.5\n",
     "kind = poisson needs exponential laws"),
    ("seed = 3\n", "seed = -1\n", "seed must be >= 0, got -1"),
    ("n = 20\n", "n = 20, 20\n", "n must be >= 1 and distinct, got [20, 20]"),
    ("", "\n[verify]\ntruncations = 1, 5, 1\n", "truncations must be >= 1 and distinct"),
    ("", "\n[verify]\ntruncations = 0.5, 5\n", "truncations must be >= 1 and distinct"),
    *[("", block, accepts) for block, accepts in UNREAD],
    ("kind = static_priority\n", "kind = fifo\n", "unknown policy kind 'fifo'"),
    # ids and policy names become file names and CSV fields
    ("id = tiny\n", "id = de,mo\n", "'de,mo' is not a plain name"),
    ("id = tiny\n", "id = ../escaped\n", "'../escaped' is not a plain name"),
    ("[policy.pri01]", "[policy.p,12]", "'p,12' is not a plain name"),
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


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_a_negative_seed_override_exits_2(tmp_path, capsys, command):
    path = tmp_path / "exp.ini"
    path.write_text(_config(None, POISSON))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out),
                     "--seed-override", "-1"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_report_consolidates_the_results(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(_config(None, POISSON))
    out = tmp_path / "out"
    for command in ("sim-queue", "generator-check", "report"):
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    results = [r.split(",") for r in (out / "results.csv").read_text().splitlines()[1:]]
    report = [r.split(",") for r in (out / "report.csv").read_text().splitlines()[1:]]
    # scenario, operation, metric, value, stderr, passed: the results without
    # seed and timestamp, row for row
    assert report == [r[:2] + r[4:] for r in results]
    assert {r[1] for r in report} == {"sim-queue", "generator-check"}
    scenarios = json.loads((out / "report.json").read_text())["scenarios"]
    assert list(scenarios) == ["tiny"] and len(scenarios["tiny"]) == len(results)
    assert "scenario tiny: " in capsys.readouterr().out


def test_sim_config_has_exactly_the_config_keys():
    # every SimConfig field is a [sim] key or the seed that each command sets,
    # so the run config has no switch that a config file cannot reach
    names = {f.name for f in fields(dif.SimConfig)}
    assert names == set(cli.CONFIG_KEYS["sim"]) | {"seed"}


def test_sim_defaults_are_sim_configs():
    # the [sim] keys a config leaves out take SimConfig's own defaults
    text = _config(None, POISSON)
    cfg = cli.parse_config(text[:text.index("[sim]")])
    assert cfg.sim == dif.SimConfig(seed=0)
    assert cli.parse_config(text).sim == dif.SimConfig(horizon=4.0, burn_in=1.0,
                                                       replicas=2, thin=0.5)


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


PROBE8 = EXAMPLE.parent / "probe8.ini"


def test_eight_classes_run_every_simulator_and_the_certificates(tmp_path, capsys):
    # nothing grows like m! or bins^m: past Z_CUTOFF each prelimit state gets
    # its greedy allocation, and a histogram keeps only its occupied cells
    text = PROBE8.read_text()
    for old, new in [("horizon = 40\n", "horizon = 4\nburn_in = 1\nthin = 0.5\n"),
                     ("replicas = 8\n", "replicas = 2\n"),
                     ("samples = 50000\n", "samples = 2000\n")]:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "probe8.ini"
    path.write_text(text)
    declared = {
        "verify-drift": ["probe8_verify_details.json", "probe8_verify_report.csv"],
        "sim-diffusion": ["probe8_bary_diffusion_hist.csv", "probe8_bary_diffusion_samples.csv",
                          "probe8_diffusion_summary.json", "probe8_pri_diffusion_hist.csv",
                          "probe8_pri_diffusion_samples.csv"],
        "sim-queue": ["probe8_bary_n100_queue_hist.csv", "probe8_pri_n100_queue_hist.csv",
                      "probe8_queue_summary.json"],
    }
    for command, names in declared.items():
        out = tmp_path / command
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0, command
        assert sorted(p.name for p in out.iterdir()) == sorted(names + ["results.csv"])
        for hist in out.glob("*_hist.csv"):
            rows = hist.read_text().splitlines()
            assert rows[0].count(",") == 2 * 8
            assert sum(float(r.rsplit(",", 1)[1]) for r in rows[1:]) == pytest.approx(1.0, abs=1e-9)
    assert "FAIL" not in capsys.readouterr().out


def test_eight_renewal_classes_certify_the_age_lifted_bound(tmp_path, capsys):
    # the renewal probe's prelimit check evaluates V at the lattice
    # neighbours of each state, not on an (N, m, m, m) grid
    text = (EXAMPLE.parent / "probe8_renewal.ini").read_text()
    assert "samples = 50000\n" in text
    path = tmp_path / "probe8_renewal.ini"
    path.write_text(text.replace("samples = 50000\n", "samples = 2000\n"))
    assert cli.main(["verify-drift", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "PASS prelimit_renewal_foster" in out and "FAIL" not in out

def test_fifteen_classes_run_sim_diffusion(tmp_path):
    # 20^15 histogram cells pass int64: the occupied cells are numbered as
    # index rows, not as raveled cell numbers
    m = 15
    text = PROBE8.read_text()
    for old, new in [("horizon = 40\n", "horizon = 4\nburn_in = 1\nthin = 0.5\n"),
                     ("replicas = 8\n", "replicas = 2\n")]:
        assert old in text
        text = text.replace(old, new)
    for key, value in [("lambda", repr(1 / m)), ("mu", "1"), ("gamma", "0.5"),
                       ("hat_lambda", repr(-1 / m)), ("u", repr(1 / m))]:
        text = re.sub(rf"^{key} = .*$", f"{key} = " + ", ".join([value] * m), text,
                      flags=re.M)
    text = re.sub(r"^order = .*$", "order = " + ", ".join(map(str, range(m))), text, flags=re.M)
    path = tmp_path / "probe15.ini"
    path.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["sim-diffusion", "--config", str(path), "--out", str(out)]) == 0
    for hist in out.glob("*_hist.csv"):
        rows = hist.read_text().splitlines()
        assert rows[0].count(",") == 2 * m
        assert sum(float(r.rsplit(",", 1)[1]) for r in rows[1:]) == pytest.approx(1.0, abs=1e-9)
    assert len(list(out.glob("*_hist.csv"))) == 2
