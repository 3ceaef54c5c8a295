"""Experiment orchestration: config parsing, subcommands, result persistence.

A single INI-style config file defines one experiment scenario.  These
are its sections and keys, defaults in parentheses; ``parse_config`` rejects
any other (``CONFIG_KEYS``) and any value that breaks the rule in brackets.
Lists take commas or spaces; m is the number of classes (entries of lambda).

  [scenario]  id ("scenario") [a plain name, ``NAME``], seed (required: it
              drives every stream) [>= 0, as is --seed-override]
  [system]    lambda, mu; gamma, hat_lambda, hat_mu (zeros); scv (the SCVs
              of the [arrivals] laws) [m finite entries each]
  [prelimit]  n: server counts [>= 1, distinct; rates > 0]; sim-queue runs
              each, verify-drift certifies the prelimit bounds at the first
              only (``queues.prelimit_groups``)
  [arrivals]  dist: one law per class (m exponentials), each exponential,
              erlang:<k>, hyperexp2:<scv> or lognormal:<scv>; the input is
              Poisson when every law is exponential (generator-check needs
              it); kind: poisson or renewal [poisson: every law exponential]
  [policy.<name>]  at least one [<name> a plain name, as id]; kind and the
              keys it reads (``POLICY_KEYS``): constant and proportional_split
              u [m entries on the simplex], static_priority order [a
              permutation of 0..m-1], longest_queue_first and
              random_work_conserving none (nor a diffusion control:
              sim-diffusion and tails exit 2)
  [sim]       horizon, step, burn_in, replicas, thin, x0, blowup, each
              defaulting to its ``diffusion.SimConfig`` field
              [0 < step <= burn_in < horizon < inf, replicas >= 1,
              0 < thin < inf, a thinning step past burn_in, blowup > 0,
              x0 1 or m finite entries]
  [verify]    samples (100000) [>= 1], truncations (1, 5, inf) [>= 1, distinct],
              eta (1) [> 0, finite]
  [output]    dir (out)

Subcommands write CSV artifacts plus a JSON detail file into the output
directory and append ResultRecord rows to results.csv.  Exit codes: 0 all
checks passed, 1 verification violations, 2 config/precondition error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import re
import sys
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import diffusion as dif
from . import lyapunov as lyap
from . import queues as qs
from . import verify as ver
from .measures import MOMENTS
from .model import SystemParams, diffusion_spec, prelimit_params
from .workers import run_jobs

RESULTS_HEADER = "scenario,operation,seed,timestamp,metric,value,stderr,passed"
HISTOGRAM_SCHEMA = "histogram CSV: bin_lo_1..m, bin_hi_1..m, weight"
HISTOGRAM_BINS = 20                        # per dimension
DETAIL_SCHEMA = {
    "verify_details": "list of VerificationReport dicts",
    "sim_summary": "per-policy moments, guard trips, identity checks",
    "tails": "per-direction fits: form, slope, intercept, r2, range",
    "generator_check": "per-point errors by n plus log-log slopes",
}


class ConfigError(ValueError):
    pass


def _floats(s: str) -> tuple[float, ...]:
    return tuple(float(v) for v in s.replace(",", " ").split())


def _ints(s: str) -> tuple[int, ...]:
    return tuple(int(v) for v in s.replace(",", " ").split())


# Each [sim] key and its converter: the SimConfig field of the same name, which
# holds the default of a key the config leaves out.
SIM_KEYS = {"horizon": float, "step": float, "burn_in": float, "replicas": int,
            "thin": float, "x0": _floats, "blowup": float}
# Every section and key the commands read, but [policy.<name>] (POLICY_KEYS).
CONFIG_KEYS = {
    "scenario": ("id", "seed"),
    "system": ("lambda", "mu", "gamma", "hat_lambda", "hat_mu", "scv"),
    "prelimit": ("n",),
    "arrivals": ("kind", "dist"),
    "sim": tuple(SIM_KEYS),
    "verify": ("samples", "truncations", "eta"),
    "output": ("dir",),
}
# Each policy kind and the keys its [policy.<name>] block reads.
POLICY_KEYS = {"constant": ("kind", "u"), "proportional_split": ("kind", "u"),
               "static_priority": ("kind", "order"), "longest_queue_first": ("kind",),
               "random_work_conserving": ("kind",)}
# A scenario id or policy name, a part of file names and of CSV fields.
NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*")
# generator-check's (state, control) pairs, and its decade-spanning n grid,
# which keeps the slope fit out of the small-error noise
CONSISTENCY_POINTS, CONSISTENCY_N = 20, (100, 1000, 10000)


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

@dataclass
class PolicyConfig:
    name: str
    kind: str
    queue: qs.SchedulingPolicy
    diffusion: dif.ConstantControl | None  # None: the kind has no diffusion control


@dataclass
class ExperimentConfig:
    scenario: str
    seed: int
    system: SystemParams
    n_list: tuple[int, ...]
    arrivals: qs.ArrivalSpec
    policies: list[PolicyConfig]
    sim: dif.SimConfig                     # seed 0: each command sets its own
    samples: int
    truncations: tuple[float, ...]
    eta: float
    out_dir: str

    def __post_init__(self):
        if self.seed < 0:                  # numpy's seed sequences take no negative seed
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def arrival_kind(self) -> str:
        return "poisson" if self.arrivals.is_poisson else "renewal"

    def arrival_spec(self, m: int) -> qs.ArrivalSpec:
        return self.arrivals               # the m laws parse_config checked


def _parse_dist(token: str):
    name, _, arg = token.partition(":")
    name = name.strip()
    if name == "exponential":
        return qs.Exponential()
    if name == "hyperexp2":
        return qs.HyperExp2(float(arg))
    if name == "erlang":
        return qs.Erlang(int(arg))
    if name == "lognormal":
        return qs.LogNormal(float(arg))
    raise ConfigError(f"unknown interarrival family {token!r}")


def _check_keys(cp: configparser.ConfigParser) -> None:
    if cp.defaults():
        raise ConfigError("unknown config section [DEFAULT]")
    for sect in cp.sections():
        if sect.startswith("policy."):
            if (kind := cp[sect].get("kind")) not in POLICY_KEYS:
                raise ConfigError(f"unknown policy kind {kind!r}")
            allowed = POLICY_KEYS[kind]
        elif (allowed := CONFIG_KEYS.get(sect)) is None:
            raise ConfigError(f"unknown config section [{sect}]")
        for key in cp[sect]:
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in [{sect}]; "
                                  f"it accepts {', '.join(allowed)}")


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"config parse failure: {err}") from err
    _check_keys(cp)
    try:
        sc = cp["scenario"]
        scenario = sc.get("id", "scenario")
        if "seed" not in sc:
            raise ConfigError("[scenario] seed is required")
        seed = int(sc["seed"])
        sysb = cp["system"]
        lam = _floats(sysb["lambda"])
        m = len(lam)
        n_list = _ints(cp["prelimit"]["n"]) if cp.has_section("prelimit") else ()
        if any(n < 1 for n in n_list) or len(set(n_list)) < len(n_list):
            raise ConfigError(f"[prelimit] n must be >= 1 and distinct, got {list(n_list)}")
        arr = dict(cp["arrivals"]) if cp.has_section("arrivals") else {}
        arrivals = (qs.ArrivalSpec(tuple(map(_parse_dist, arr["dist"].split(","))))
                    if "dist" in arr else qs.ArrivalSpec.poisson(m))
        if arrivals.m != m:
            raise ConfigError("need one interarrival family per class")
        arr_kind = arr.get("kind", "renewal")     # without kind, the laws alone decide
        if arr_kind not in ("poisson", "renewal"):
            raise ConfigError(f"unknown arrival kind {arr_kind!r}")
        if arr_kind == "poisson" and not arrivals.is_poisson:
            raise ConfigError("[arrivals] kind = poisson needs exponential laws")
        # the diffusion's covariance comes from the interarrival laws the
        # queue simulator runs; an explicit [system] scv must agree with them
        system = SystemParams(
            lam, _floats(sysb["mu"]),
            gamma=_floats(sysb["gamma"]) if "gamma" in sysb else None,
            hat_lambda=_floats(sysb["hat_lambda"]) if "hat_lambda" in sysb else None,
            hat_mu=_floats(sysb["hat_mu"]) if "hat_mu" in sysb else None,
            scv=_floats(sysb["scv"]) if "scv" in sysb else arrivals.scv,
        )
        if not np.allclose(system.scv, arrivals.scv):
            raise ConfigError(f"[system] scv {system.scv.tolist()} does not match the SCVs "
                              f"{arrivals.scv.tolist()} of the [arrivals] interarrival laws")
        diffusion_spec(system)             # sum_i lambda_i (1 + scv_i) / (2 mu_i) = 1
        for n in n_list:                   # every n-server system has positive rates
            prelimit_params(system, n)
        policies = []
        for sect in cp.sections():
            if not sect.startswith("policy."):
                continue
            blk = cp[sect]
            kind = blk["kind"]
            if kind in ("constant", "proportional_split"):
                u = _floats(blk["u"])
                if len(u) != m:
                    raise ConfigError(f"[{sect}] u needs {m} entries, got {len(u)}")
                # each projects u: a SimplexError unless u is on the simplex
                queue, diffusion = qs.ProportionalSplitPolicy(u), dif.ConstantControl(u)
            elif kind == "static_priority":
                order = _ints(blk["order"])
                if sorted(order) != list(range(m)):
                    raise ConfigError(f"[{sect}] order must be a permutation of "
                                      f"0..{m - 1}, got {list(order)}")
                queue, diffusion = (qs.StaticPriorityPolicy(order),
                                    dif.StaticPriorityControl(order))
            elif kind == "longest_queue_first":
                queue, diffusion = qs.LongestQueueFirstPolicy(), None
            else:                          # random_work_conserving (_check_keys)
                queue, diffusion = qs.RandomWorkConservingPolicy(), None
            policies.append(PolicyConfig(sect.split(".", 1)[1], kind, queue, diffusion))
        sim = dict(cp["sim"]) if cp.has_section("sim") else {}
        sim_cfg = dif.SimConfig(**{key: SIM_KEYS[key](v) for key, v in sim.items()})
        if np.size(sim_cfg.x0) not in (1, m):
            raise ConfigError(f"[sim] x0 needs 1 or {m} entries, got {np.size(sim_cfg.x0)}")
        n_steps, burn_step, thin = sim_cfg.step_counts()
        if n_steps // thin <= burn_step // thin:     # no sample for sim-diffusion or tails
            raise ConfigError(f"[sim] thin = {sim_cfg.thin:g} leaves no thinning step "
                              "past burn_in")
        vf = dict(cp["verify"]) if cp.has_section("verify") else {}
        samples = int(vf.get("samples", 100_000))
        if samples < 1:
            raise ConfigError(f"[verify] samples must be >= 1, got {samples}")
        truncations = _floats(vf.get("truncations", "1, 5, inf"))
        if not all(c >= 1 for c in truncations) or len(set(truncations)) < len(truncations):
            raise ConfigError(f"[verify] truncations must be >= 1 and distinct, "
                              f"got {list(truncations)}")
        eta = float(vf.get("eta", 1.0))
        if not 0 < eta < math.inf:
            raise ConfigError(f"[verify] eta must be > 0 and finite, got {eta}")
        out_dir = cp["output"]["dir"] if cp.has_section("output") else "out"
    except (KeyError, ValueError) as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"config error: {err!r}") from err
    if not policies:
        raise ConfigError("at least one [policy.<name>] block is required")
    for name in [scenario] + [pol.name for pol in policies]:
        if not NAME.fullmatch(name):
            raise ConfigError(f"{name!r} is not a plain name ({NAME.pattern})")
    return ExperimentConfig(scenario, seed, system, n_list, arrivals, policies,
                            sim_cfg, samples, truncations, eta, out_dir)


# ---------------------------------------------------------------------------
# result persistence
# ---------------------------------------------------------------------------

@dataclass
class ResultRecord:
    scenario: str
    operation: str
    seed: int
    metric: str
    value: float
    stderr: float = math.nan
    passed: bool = True

    def row(self, timestamp: str) -> str:
        return (f"{self.scenario},{self.operation},{self.seed},{timestamp},"
                f"{self.metric},{self.value:.12g},{self.stderr:.6g},{int(self.passed)}")


def append_records(out_dir: Path, records: list[ResultRecord]) -> None:
    path = out_dir / "results.csv"
    fresh = not path.exists()
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    with path.open("a") as fh:
        if fresh:
            fh.write(RESULTS_HEADER + "\n")
        for rec in records:
            fh.write(rec.row(stamp) + "\n")


def _prepare_out(cfg: ExperimentConfig, primary: str, overwrite: bool) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = out / primary
    if target.exists() and not overwrite:
        raise ConfigError(f"output {target} exists; pass --overwrite to replace it")
    return out

def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, default=float) + "\n")


def write_histogram_csv(path: Path, measure) -> None:
    edges, cells, masses = measure.histogram(HISTOGRAM_BINS)
    m = len(edges)
    with path.open("w") as fh:
        cols = [f"bin_lo_{d + 1}" for d in range(m)] + [f"bin_hi_{d + 1}" for d in range(m)]
        fh.write(",".join(cols + ["weight"]) + "\n")
        for idx, w in zip(cells, masses):
            lo = [edges[d][idx[d]] for d in range(m)]
            hi = [edges[d][idx[d] + 1] for d in range(m)]
            fh.write(",".join(f"{v:.9g}" for v in lo + hi) + f",{w:.12g}\n")


def write_samples_csv(path: Path, measure, thin: float) -> None:
    """One row per sample: its state and the time it stands for, ``thin``."""
    with path.open("w") as fh:
        fh.write(",".join(f"x{i + 1}" for i in range(measure.m)) + ",weight\n")
        for row in measure.samples:
            fh.write(",".join(f"{v:.9g}" for v in row) + f",{thin:.9g}\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify_drift(cfg: ExperimentConfig, overwrite: bool) -> int:
    out = _prepare_out(cfg, f"{cfg.scenario}_verify_report.csv", overwrite)
    sampler = ver.SamplerConfig(n_samples=cfg.samples, seed=cfg.seed)
    # independent groups of checks, each returning its reports; one pool runs
    # them all, and the reports keep the groups' order
    jobs = (ver.suite_groups(cfg.system, sampler, truncations=cfg.truncations, eta=cfg.eta)
            + qs.prelimit_groups(cfg.system, cfg.n_list, cfg.arrivals, cfg.samples,
                                 cfg.seed, cfg.eta))
    reports = [rep for group in run_jobs(jobs) for rep in group]
    report_path = out / f"{cfg.scenario}_verify_report.csv"
    with report_path.open("w") as fh:
        fh.write(ver.VerificationReport.CSV_HEADER + "\n")
        for rep in reports:
            fh.write(rep.csv_row() + "\n")
    _write_json(out / f"{cfg.scenario}_verify_details.json",
                {"scenario": cfg.scenario, "reports": [r.to_dict() for r in reports]})
    append_records(out, [
        ResultRecord(cfg.scenario, "verify-drift", sampler.seed, rep.inequality,
                     rep.worst_margin, math.nan, rep.passed)
        for rep in reports])
    n_fail = sum(not r.passed for r in reports)
    for rep in reports:
        print(("PASS" if rep.passed else "FAIL"), rep.inequality,
              f"violations={rep.violations}", f"worst_margin={rep.worst_margin:.6g}")
    return 0 if n_fail == 0 else 1


def _diffusion_runs(cfg: ExperimentConfig, dspec) -> list[dif.DiffusionRun]:
    """One run per policy, in lockstep, for sim-diffusion and tails."""
    for pol in cfg.policies:
        if pol.diffusion is None:
            raise ConfigError(f"policy kind {pol.kind!r} has no diffusion counterpart")
    return dif.simulate_policies(dspec, [pol.diffusion for pol in cfg.policies],
                                 replace(cfg.sim, seed=cfg.seed))


def _summarize_run(head: str, entry: dict, records: list, measure, row, prefix: str) -> bool:
    """Print a run's line and, when it has live time, put each of MOMENTS into
    its summary entry as [est, se] and into records as the ResultRecord
    ``row("<prefix>.<key>", est, se)``; returns whether it had live time."""
    live = measure.replica_time.sum() > 0
    if live:
        for key in MOMENTS:
            est, se = measure.moment(key)
            entry[key] = [est, se]
            records.append(row(f"{prefix}.{key}", est, se))
    print(head + (f" neg_sum={entry['neg_sum'][0]:.4f}" if live else ""))
    return live


def cmd_sim_diffusion(cfg: ExperimentConfig, overwrite: bool) -> int:
    out = _prepare_out(cfg, f"{cfg.scenario}_diffusion_summary.json", overwrite)
    dspec = diffusion_spec(cfg.system)
    records, summary = [], {}
    for i, (polcfg, run) in enumerate(zip(cfg.policies, _diffusion_runs(cfg, dspec))):
        row = partial(ResultRecord, cfg.scenario, "sim-diffusion", cfg.seed + i)
        entry = {"policy": polcfg.diffusion.describe(), "tripped": int(run.tripped.sum())}
        live = _summarize_run(f"policy {polcfg.name}: tripped={entry['tripped']}", entry,
                              records, run.measure, row, polcfg.name)
        if live and np.all(dspec.gamma == 0.0) and dspec.varrho > 0:
            idl = dif.check_idleness_identity(run.measure, dspec)
            entry["idleness"] = {"estimate": idl.estimate, "stderr": idl.stderr,
                                 "target": idl.target, "passed": idl.passed}
            records.append(row(f"{polcfg.name}.idleness", idl.estimate, idl.stderr,
                               idl.passed))
        if len(run.measure.samples):       # none when all trip before the first thin step
            write_samples_csv(out / f"{cfg.scenario}_{polcfg.name}_diffusion_samples.csv",
                              run.measure, cfg.sim.thin)
            write_histogram_csv(out / f"{cfg.scenario}_{polcfg.name}_diffusion_hist.csv",
                                run.measure)
        summary[polcfg.name] = entry
    _write_json(out / f"{cfg.scenario}_diffusion_summary.json",
                {"scenario": cfg.scenario, "policies": summary})
    append_records(out, records)
    return 0


def cmd_sim_queue(cfg: ExperimentConfig, overwrite: bool) -> int:
    if not cfg.n_list:
        raise ConfigError("sim-queue needs a [prelimit] n list")
    out = _prepare_out(cfg, f"{cfg.scenario}_queue_summary.json", overwrite)
    records, summary = [], {}
    for n in cfg.n_list:
        p = prelimit_params(cfg.system, n)
        for i, polcfg in enumerate(cfg.policies):
            scfg = replace(cfg.sim, seed=cfg.seed + i)
            run = qs.simulate_renewal(p, cfg.arrivals, polcfg.queue, scfg)
            key = f"n{n}.{polcfg.name}"
            entry = {"policy": polcfg.queue.describe(), "n": n, "varrho_n": p.varrho_n,
                     "tripped": int(run.tripped.sum()),
                     "events": float(run.event_counts.sum())}
            row = partial(ResultRecord, cfg.scenario, "sim-queue", scfg.seed)
            if _summarize_run(f"{key}: tripped={entry['tripped']} events={entry['events']:.0f}",
                              entry, records, run.measure, row, key):
                write_histogram_csv(out / f"{cfg.scenario}_{polcfg.name}_n{n}_queue_hist.csv",
                                    run.measure)
            summary[key] = entry
    _write_json(out / f"{cfg.scenario}_queue_summary.json",
                {"scenario": cfg.scenario, "runs": summary})
    append_records(out, records)
    return 0


def cmd_generator_check(cfg: ExperimentConfig, overwrite: bool) -> int:
    if not cfg.arrivals.is_poisson:
        laws = ", ".join(f"{type(d).__name__}(scv={d.scv:g})" for d in cfg.arrivals.dists)
        raise ver.PreconditionError(f"generator-check needs Poisson input, got {laws}; "
                                    "renewal input needs the age-lifted generator")
    out = _prepare_out(cfg, f"{cfg.scenario}_generator_check.csv", overwrite)
    dspec = diffusion_spec(cfg.system)
    spec = lyap.select_parameters(lyap.Family.EXP_LINEAR, cfg.system)
    rng = np.random.default_rng(cfg.seed)
    n_pts, n_list = CONSISTENCY_POINTS, CONSISTENCY_N
    pts = rng.uniform(-3.0, 3.0, size=(n_pts, cfg.system.m))
    us = rng.dirichlet(np.ones(cfg.system.m), size=n_pts)
    errs = qs.generator_consistency_errors(cfg.system, dspec, spec, pts, us, n_list)
    logn = np.log(np.asarray(n_list, dtype=float))
    slopes = [float(np.polyfit(logn, np.log(errs[i] + 1e-300), 1)[0])
              for i in range(n_pts)]
    # individual pairs can see signed-term cancellations at one n; the pooled
    # error carries the clean discretization rate
    mean_slope = float(np.polyfit(logn, np.log(errs.mean(axis=0)), 1)[0])
    with (out / f"{cfg.scenario}_generator_check.csv").open("w") as fh:
        fh.write("point," + ",".join(f"err_n{n}" for n in n_list) + ",slope\n")
        for i in range(n_pts):
            fh.write(f"{i}," + ",".join(f"{e:.9g}" for e in errs[i]) + f",{slopes[i]:.6g}\n")
        fh.write("mean," + ",".join(f"{e:.9g}" for e in errs.mean(axis=0))
                 + f",{mean_slope:.6g}\n")
    _write_json(out / f"{cfg.scenario}_generator_check.json",
                {"scenario": cfg.scenario, "n_list": list(n_list), "slopes": slopes,
                 "mean_slope": mean_slope})
    append_records(out, [ResultRecord(cfg.scenario, "generator-check", cfg.seed,
                                      "mean_slope", mean_slope, math.nan,
                                      mean_slope <= -0.4)])
    print(f"log-log error slope (pooled over {n_pts} pairs): {mean_slope:.3f} "
          f"(threshold -0.4); per-pair max {max(slopes):.3f}")
    return 0 if mean_slope <= -0.4 else 1


def cmd_tails(cfg: ExperimentConfig, overwrite: bool) -> int:
    out = _prepare_out(cfg, f"{cfg.scenario}_tails.csv", overwrite)
    dspec = diffusion_spec(cfg.system)
    records = []
    rows = []
    for i, (polcfg, run) in enumerate(zip(cfg.policies, _diffusion_runs(cfg, dspec))):
        for form in ("exponential", "sub_gaussian"):
            fit = dif.estimate_tail(run.measure, form)
            rows.append((polcfg.name, form, fit))
            records.append(ResultRecord(cfg.scenario, "tails", cfg.seed + i,
                                        f"{polcfg.name}.{form}.slope", fit.slope,
                                        math.nan, fit.ok))
            print(f"{polcfg.name} {form}: slope={fit.slope:.4f} r2={fit.r2:.4f} "
                  f"range=({fit.r_lo:.2f},{fit.r_hi:.2f}) {fit.flag}")
    with (out / f"{cfg.scenario}_tails.csv").open("w") as fh:
        fh.write("policy,form,slope,intercept,r2,r_lo,r_hi,n_levels,flag\n")
        for name, form, fit in rows:
            fh.write(f"{name},{form},{fit.slope:.9g},{fit.intercept:.9g},{fit.r2:.9g},"
                     f"{fit.r_lo:.9g},{fit.r_hi:.9g},{fit.n_levels},{fit.flag}\n")
    append_records(out, records)
    return 0


def cmd_report(cfg: ExperimentConfig, overwrite: bool) -> int:
    out = Path(cfg.out_dir)
    results = out / "results.csv"
    if not results.exists():
        print("no records")
        return 0
    lines = results.read_text().strip().splitlines()[1:]
    scen = {}
    for ln in lines:
        parts = ln.split(",")
        scen.setdefault(parts[0], []).append({
            "operation": parts[1], "seed": int(parts[2]), "metric": parts[4],
            "value": float(parts[5]), "stderr": float(parts[6]),
            "passed": bool(int(parts[7])),
        })
    consolidated = out / "report.csv"
    with consolidated.open("w") as fh:
        fh.write("scenario,operation,metric,value,stderr,passed\n")
        for sid in sorted(scen):
            for rec in scen[sid]:
                fh.write(f"{sid},{rec['operation']},{rec['metric']},"
                         f"{rec['value']:.12g},{rec['stderr']:.6g},{int(rec['passed'])}\n")
    _write_json(out / "report.json", {"scenarios": scen, "schemas": DETAIL_SCHEMA,
                                      "histogram_schema": HISTOGRAM_SCHEMA})
    for sid in sorted(scen):
        n_fail = sum(not r["passed"] for r in scen[sid])
        print(f"scenario {sid}: {len(scen[sid])} records, {n_fail} failed")
    return 0


COMMANDS = {
    "verify-drift": cmd_verify_drift,
    "sim-diffusion": cmd_sim_diffusion,
    "sim-queue": cmd_sim_queue,
    "generator-check": cmd_generator_check,
    "tails": cmd_tails,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hwsim",
        description="Many-server queue / diffusion simulation and drift certification")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="experiment config file (INI)")
    parser.add_argument("--seed-override", type=int, default=None)
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--overwrite", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_text())
        if args.seed_override is not None:
            cfg = replace(cfg, seed=args.seed_override)
        if args.out is not None:
            cfg.out_dir = args.out
        return COMMANDS[args.command](cfg, args.overwrite)
    except (ConfigError, ver.PreconditionError, lyap.InfeasibleGoal, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
