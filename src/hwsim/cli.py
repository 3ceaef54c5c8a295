"""Experiment orchestration: config parsing, subcommands, result persistence.

A single INI-style config file defines one experiment scenario.  These
are its sections and keys, defaults in parentheses; ``parse_config`` rejects
any other (``CONFIG_KEYS``) and any value that breaks the rule in brackets.
Lists take commas or spaces; m is the number of classes (entries of lambda).

  [scenario]  id ("scenario"), seed (required: it drives every stream)
  [system]    lambda, mu; gamma, hat_lambda, hat_mu (zeros); scv (the SCVs
              of the [arrivals] laws)
  [prelimit]  n: server counts, for sim-queue and prelimit checks [>= 1; rates > 0]
  [arrivals]  kind: poisson (default) or renewal, with dist: one law per
              class, each exponential, erlang:<k>, hyperexp2:<scv> or
              lognormal:<scv>
  [policy.<name>]  at least one; kind: constant or proportional_split (with
              u [m entries on the simplex]), static_priority (with order [a
              permutation of 0..m-1]), longest_queue_first,
              random_work_conserving
  [sim]       horizon (200), step (0.001), burn_in (horizon / 10),
              replicas (16), thin (1), x0 (0), blowup (1000)
              [0 < step <= burn_in < horizon < inf, replicas >= 1,
              0 < thin < inf, blowup > 0, x0 1 or m entries]
  [verify]    samples (100000) [>= 1], truncations (1, 5, inf), eta (1) [> 0]
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
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import diffusion as dif
from . import lyapunov as lyap
from . import queues as qs
from . import verify as ver
from .model import (SystemParams, diffusion_spec, make_system, prelimit_params,
                    project_simplex, spare_capacity)

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


# Every section and key the commands read; "policy.*" is each [policy.<name>].
CONFIG_KEYS = {
    "scenario": ("id", "seed"),
    "system": ("lambda", "mu", "gamma", "hat_lambda", "hat_mu", "scv"),
    "prelimit": ("n",),
    "arrivals": ("kind", "dist"),
    "policy.*": ("kind", "u", "order"),
    "sim": ("horizon", "step", "burn_in", "replicas", "thin", "x0", "blowup"),
    "verify": ("samples", "truncations", "eta"),
    "output": ("dir",),
}
# The prelimit checks sample the ball of this radius in scaled states, at
# most this many states.
PRELIMIT_RADIUS, PRELIMIT_SAMPLES = 40.0, 10_000
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
    u: tuple[float, ...] | None = None
    order: tuple[int, ...] | None = None


@dataclass
class ExperimentConfig:
    scenario: str
    seed: int
    system: SystemParams
    n_list: tuple[int, ...]
    arrival_kind: str
    arrival_dists: tuple[str, ...]
    policies: list[PolicyConfig]
    sim: dif.SimConfig                     # seed 0: each command sets its own
    samples: int
    truncations: tuple[float, ...]
    eta: float
    out_dir: str

    def arrival_spec(self, m: int) -> qs.ArrivalSpec:
        if self.arrival_kind == "poisson":
            return qs.ArrivalSpec.poisson(m)
        return qs.ArrivalSpec.renewal([_parse_dist(s) for s in self.arrival_dists])


def _parse_dist(token: str):
    name, _, arg = token.partition(":")
    name = name.strip()
    if name == "exponential":
        return qs.Exponential()
    if name == "hyperexp2":
        return qs.HyperExp2.from_scv(float(arg))
    if name == "erlang":
        return qs.Erlang(int(arg))
    if name == "lognormal":
        return qs.LogNormal.from_scv(float(arg))
    raise ConfigError(f"unknown interarrival family {token!r}")


def _floats(s: str) -> tuple[float, ...]:
    return tuple(float(v) for v in s.replace(",", " ").split())


def _ints(s: str) -> tuple[int, ...]:
    return tuple(int(v) for v in s.replace(",", " ").split())


def _check_keys(cp: configparser.ConfigParser) -> None:
    if cp.defaults():
        raise ConfigError("unknown config section [DEFAULT]")
    for sect in cp.sections():
        allowed = CONFIG_KEYS.get("policy.*" if sect.startswith("policy.") else sect)
        if allowed is None:
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
        if any(n < 1 for n in n_list):
            raise ConfigError(f"[prelimit] n must be >= 1, got {list(n_list)}")
        arr_kind = cp["arrivals"].get("kind", "poisson") if cp.has_section("arrivals") else "poisson"
        dists = ()
        if arr_kind == "renewal":
            dists = tuple(t.strip() for t in cp["arrivals"]["dist"].split(","))
            if len(dists) != m:
                raise ConfigError("need one interarrival family per class")
        elif arr_kind != "poisson":
            raise ConfigError(f"unknown arrival kind {arr_kind!r}")
        # the diffusion's covariance comes from the interarrival laws the
        # queue simulator runs; an explicit [system] scv must agree with them
        law_scv = (qs.ArrivalSpec.renewal(map(_parse_dist, dists)) if dists
                   else qs.ArrivalSpec.poisson(m)).scv
        system = make_system(
            lam, _floats(sysb["mu"]),
            gamma=_floats(sysb["gamma"]) if "gamma" in sysb else None,
            hat_lambda=_floats(sysb["hat_lambda"]) if "hat_lambda" in sysb else None,
            hat_mu=_floats(sysb["hat_mu"]) if "hat_mu" in sysb else None,
            scv=_floats(sysb["scv"]) if "scv" in sysb else law_scv,
        )
        if not np.allclose(system.scv, law_scv):
            raise ConfigError(f"[system] scv {system.scv.tolist()} does not match the SCVs "
                              f"{law_scv.tolist()} of the [arrivals] interarrival laws")
        diffusion_spec(system)             # sum_i lambda_i (1 + scv_i) / (2 mu_i) = 1
        for n in n_list:                   # every n-server system has positive rates
            prelimit_params(system, n)
        policies = []
        for sect in cp.sections():
            if not sect.startswith("policy."):
                continue
            blk = cp[sect]
            kind = blk["kind"]
            pol = PolicyConfig(name=sect.split(".", 1)[1], kind=kind)
            if kind in ("constant", "proportional_split"):
                pol.u = _floats(blk["u"])
                if len(pol.u) != m:
                    raise ConfigError(f"[{sect}] u needs {m} entries, got {len(pol.u)}")
                project_simplex(pol.u)     # a SimplexError unless u is on the simplex
            elif kind == "static_priority":
                pol.order = _ints(blk["order"])
                if sorted(pol.order) != list(range(m)):
                    raise ConfigError(f"[{sect}] order must be a permutation of "
                                      f"0..{m - 1}, got {list(pol.order)}")
            elif kind not in ("longest_queue_first", "random_work_conserving"):
                raise ConfigError(f"unknown policy kind {kind!r}")
            policies.append(pol)
        sim = dict(cp["sim"]) if cp.has_section("sim") else {}
        x0 = _floats(sim["x0"]) if "x0" in sim else 0.0
        if np.size(x0) not in (1, m):
            raise ConfigError(f"[sim] x0 needs 1 or {m} entries, got {np.size(x0)}")
        sim_cfg = dif.SimConfig(
            horizon=float(sim.get("horizon", 200.0)),
            step=float(sim.get("step", 1e-3)),
            burn_in=float(sim["burn_in"]) if "burn_in" in sim else None,
            replicas=int(sim.get("replicas", 16)),
            x0=x0,
            thin=float(sim.get("thin", 1.0)),
            blowup=float(sim.get("blowup", 1e3)),
        )
        vf = dict(cp["verify"]) if cp.has_section("verify") else {}
        samples = int(vf.get("samples", 100_000))
        if samples < 1:
            raise ConfigError(f"[verify] samples must be >= 1, got {samples}")
        truncations = _floats(vf.get("truncations", "1, 5, inf"))
        eta = float(vf.get("eta", 1.0))
        if not eta > 0:
            raise ConfigError(f"[verify] eta must be > 0, got {eta}")
        out_dir = cp["output"]["dir"] if cp.has_section("output") else "out"
    except (KeyError, ValueError) as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"config error: {err!r}") from err
    if not policies:
        raise ConfigError("at least one [policy.<name>] block is required")
    return ExperimentConfig(scenario, seed, system, n_list, arr_kind, dists, policies,
                            sim_cfg, samples, truncations, eta, out_dir)


def diffusion_policy(pol: PolicyConfig):
    if pol.kind in ("constant", "proportional_split"):
        return dif.ConstantControl(pol.u)
    if pol.kind == "static_priority":
        return dif.StaticPriorityControl(pol.order)
    raise ConfigError(f"policy kind {pol.kind!r} has no diffusion counterpart")


def queue_policy(pol: PolicyConfig):
    if pol.kind == "constant" or pol.kind == "proportional_split":
        return qs.ProportionalSplitPolicy(pol.u)
    if pol.kind == "static_priority":
        return qs.StaticPriorityPolicy(pol.order)
    if pol.kind == "longest_queue_first":
        return qs.LongestQueueFirstPolicy()
    if pol.kind == "random_work_conserving":
        return qs.RandomWorkConservingPolicy()
    raise ConfigError(f"unknown policy kind {pol.kind!r}")


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
    edges, h = measure.histogram(HISTOGRAM_BINS)
    m = len(edges)
    with path.open("w") as fh:
        cols = [f"bin_lo_{d + 1}" for d in range(m)] + [f"bin_hi_{d + 1}" for d in range(m)]
        fh.write(",".join(cols + ["weight"]) + "\n")
        it = np.ndindex(*h.shape)
        for idx in it:
            w = h[idx]
            if w == 0.0:
                continue
            lo = [edges[d][idx[d]] for d in range(m)]
            hi = [edges[d][idx[d] + 1] for d in range(m)]
            fh.write(",".join(f"{v:.9g}" for v in lo + hi) + f",{w:.12g}\n")


def write_samples_csv(path: Path, measure) -> None:
    with path.open("w") as fh:
        m = measure.m
        fh.write(",".join(f"x{i + 1}" for i in range(m)) + ",weight\n")
        for row, w in zip(measure.samples, measure.weights):
            fh.write(",".join(f"{v:.9g}" for v in row) + f",{w:.9g}\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify_drift(cfg: ExperimentConfig, overwrite: bool) -> int:
    out = _prepare_out(cfg, f"{cfg.scenario}_verify_report.csv", overwrite)
    sampler = ver.SamplerConfig(n_samples=cfg.samples, seed=cfg.seed)
    reports = ver.default_suite(cfg.system, sampler, truncations=cfg.truncations,
                                eta=cfg.eta)
    if cfg.n_list:
        n = cfg.n_list[0]
        p = prelimit_params(cfg.system, n)
        arr = cfg.arrival_spec(cfg.system.m)
        pre_sampler = ver.SamplerConfig(min(cfg.samples, PRELIMIT_SAMPLES), cfg.seed)
        pre_region = ver.Region.ball(PRELIMIT_RADIUS)
        if p.varrho_n > 0 and arr.bounded_hazard():
            reports.append(qs.verify_prelimit_foster(p, arr, pre_region, pre_sampler))
        if arr.kind == "poisson" and float(p.gamma_n.min()) > 0:
            reports.append(qs.verify_prelimit_foster(p, arr, pre_region, pre_sampler,
                                                     target="abandon", eta=cfg.eta))
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


def cmd_sim_diffusion(cfg: ExperimentConfig, overwrite: bool) -> int:
    out = _prepare_out(cfg, f"{cfg.scenario}_diffusion_summary.json", overwrite)
    dspec = diffusion_spec(cfg.system)
    records, summary = [], {}
    pols = [diffusion_policy(polcfg) for polcfg in cfg.policies]
    runs = dif.simulate_policies(dspec, pols, replace(cfg.sim, seed=cfg.seed))
    for i, (polcfg, pol, run) in enumerate(zip(cfg.policies, pols, runs)):
        entry = {"policy": pol.describe(), "tripped": int(run.tripped.sum())}
        if run.measure.replica_time.sum() > 0:
            for key in ("l1", "neg_sum", "sum"):
                est, se = run.measure.moment(key)
                entry[key] = [est, se]
                records.append(ResultRecord(cfg.scenario, "sim-diffusion", cfg.seed + i,
                                            f"{polcfg.name}.{key}", est, se))
            if np.all(dspec.gamma == 0.0) and dspec.varrho > 0:
                idl = dif.check_idleness_identity(run.measure, dspec)
                entry["idleness"] = {"estimate": idl.estimate, "stderr": idl.stderr,
                                     "target": idl.target, "passed": idl.passed}
                records.append(ResultRecord(cfg.scenario, "sim-diffusion", cfg.seed + i,
                                            f"{polcfg.name}.idleness", idl.estimate,
                                            idl.stderr, idl.passed))
            write_samples_csv(out / f"{cfg.scenario}_{polcfg.name}_diffusion_samples.csv",
                              run.measure)
            write_histogram_csv(out / f"{cfg.scenario}_{polcfg.name}_diffusion_hist.csv",
                                run.measure)
        summary[polcfg.name] = entry
        print(f"policy {polcfg.name}: tripped={entry['tripped']}"
              + (f" neg_sum={entry['neg_sum'][0]:.4f}" if "neg_sum" in entry else ""))
    _write_json(out / f"{cfg.scenario}_diffusion_summary.json",
                {"scenario": cfg.scenario, "policies": summary})
    append_records(out, records)
    return 0


def cmd_sim_queue(cfg: ExperimentConfig, overwrite: bool) -> int:
    if not cfg.n_list:
        raise ConfigError("sim-queue needs a [prelimit] n list")
    out = _prepare_out(cfg, f"{cfg.scenario}_queue_summary.json", overwrite)
    arr = cfg.arrival_spec(cfg.system.m)
    records, summary = [], {}
    for n in cfg.n_list:
        p = prelimit_params(cfg.system, n)
        for i, polcfg in enumerate(cfg.policies):
            pol = queue_policy(polcfg)
            scfg = replace(cfg.sim, seed=cfg.seed + i)
            run = (qs.simulate_ctmc(p, pol, scfg) if arr.kind == "poisson"
                   else qs.simulate_renewal(p, arr, pol, scfg))
            key = f"n{n}.{polcfg.name}"
            entry = {"policy": pol.describe(), "n": n, "varrho_n": p.varrho_n,
                     "tripped": int(run.tripped.sum()),
                     "events": float(run.event_counts.sum())}
            if run.measure.replica_time.sum() > 0:
                for mkey in ("l1", "neg_sum", "sum"):
                    est, se = run.measure.moment(mkey)
                    entry[mkey] = [est, se]
                    records.append(ResultRecord(cfg.scenario, "sim-queue", scfg.seed,
                                                f"{key}.{mkey}", est, se))
                write_histogram_csv(out / f"{cfg.scenario}_{polcfg.name}_n{n}_queue_hist.csv",
                                    run.measure)
            summary[key] = entry
            print(f"{key}: tripped={entry['tripped']} events={entry['events']:.0f}"
                  + (f" neg_sum={entry['neg_sum'][0]:.4f}" if "neg_sum" in entry else ""))
    _write_json(out / f"{cfg.scenario}_queue_summary.json",
                {"scenario": cfg.scenario, "runs": summary})
    append_records(out, records)
    return 0


def cmd_generator_check(cfg: ExperimentConfig, overwrite: bool) -> int:
    out = _prepare_out(cfg, f"{cfg.scenario}_generator_check.csv", overwrite)
    dspec = diffusion_spec(cfg.system)
    if spare_capacity(cfg.system) <= 0:
        raise ConfigError("generator-check selects exp-linear parameters; needs rho > 0")
    spec = lyap.select_parameters(lyap.Goal.EXP_ERGODIC, cfg.system)
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
    pols = [diffusion_policy(polcfg) for polcfg in cfg.policies]
    runs = dif.simulate_policies(dspec, pols, replace(cfg.sim, seed=cfg.seed))
    for i, (polcfg, run) in enumerate(zip(cfg.policies, runs)):
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
            cfg.seed = args.seed_override
        if args.out is not None:
            cfg.out_dir = args.out
        return COMMANDS[args.command](cfg, args.overwrite)
    except (ConfigError, ver.PreconditionError, lyap.InfeasibleGoal, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
