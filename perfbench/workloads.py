"""Workloads of the hwsim benchmark: configs, batches and output oracles.

A workload is a fixed batch of calls into hwsim's public entry points,
``hwsim.cli.main([...])`` plus, for ``diffusion_em``, one direct
``hwsim.diffusion.simulate`` call.  Every input is generated from the seed:
the same seed gives the same config text and therefore the same outputs.

Load is a closed loop with one client: one process, one thread, each call
issued when the previous one has returned.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hwsim import cli, diffusion
from hwsim.model import diffusion_spec

# The unit of work each workload counts for work_per_s.
WORK_UNIT = {
    "queue_ctmc": "events_per_s",
    "queue_renewal": "events_per_s",
    "diffusion_em": "em_steps_per_s",
    "certify": "pairs_per_s",
}

# Sizes of the measured batches.  The demo-system workloads keep the demo's
# 16 replicas and its burn-in of a tenth of the horizon (configs/example.ini:
# replicas = 16, horizon = 200, burn_in = 20); only the horizon is shortened,
# so that one batch takes a few seconds.  certify samples as many states as
# the demo's [verify] samples = 50000 but certifies the prelimit at n = 20,
# not 100: at n = 100 one batch takes ~13 s, too few repetitions for a
# steady median.  TINY keeps every call but shrinks horizons and sample
# counts so the benchmark's own tests run in seconds.
FULL = {
    "queue_ctmc": {"horizon": 6.0, "burn_in": 0.6, "replicas": 16, "n": (100, 400)},
    "queue_renewal": {"horizon": 20.0, "burn_in": 2.0, "replicas": 16, "n": (100,)},
    "diffusion_em": {"horizon": 20.0, "burn_in": 2.0, "replicas": 16, "step": 0.005},
    "certify": {"samples": 50_000, "n": 20},
}
TINY = {
    "queue_ctmc": {"horizon": 2.0, "burn_in": 0.5, "replicas": 4, "n": (20, 40)},
    "queue_renewal": {"horizon": 2.0, "burn_in": 0.5, "replicas": 4, "n": (20,)},
    "diffusion_em": {"horizon": 10.0, "burn_in": 1.0, "replicas": 4, "step": 0.02},
    "certify": {"samples": 500, "n": 10},
}

# A run with gamma = 0 fails the idleness identity when its estimate misses
# the target by more than this many of its own standard errors.
IDENTITY_SE = 4.0
# generator-check fails when the pooled log-log error slope is above this.
GENERATOR_SLOPE = -0.4

DEMO_SYSTEM = """\
[system]
lambda = 0.5, 0.5
mu = 1.0, 1.0
gamma = 0.0, 0.0
hat_lambda = -0.5, -0.5
hat_mu = 0.0, 0.0
"""

DEMO_POLICIES = """\
[policy.pri01]
kind = static_priority
order = 0, 1

[policy.pri10]
kind = static_priority
order = 1, 0

[policy.split]
kind = proportional_split
u = 0.5, 0.5
"""

RENEWAL_POLICIES = """\
[policy.lqf]
kind = longest_queue_first

[policy.random]
kind = random_work_conserving

[policy.split]
kind = proportional_split
u = 0.5, 0.5
"""

DIFFUSION_POLICIES = """\
[policy.pri12]
kind = static_priority
order = 0, 1

[policy.pri21]
kind = static_priority
order = 1, 0

[policy.bary]
kind = constant
u = 0.5, 0.5
"""

CERTIFY_SYSTEM = """\
[system]
lambda = 0.5, 0.3, 0.2
mu = 1.0, 1.0, 1.0
gamma = 0.5, 0.8, 1.2
hat_lambda = -0.5, -0.3, -0.2
hat_mu = 0.0, 0.0, 0.0
"""

COMMANDS = {
    "queue_ctmc": ("sim-queue",),
    "queue_renewal": ("sim-queue",),
    "diffusion_em": ("sim-diffusion", "tails"),
    "certify": ("verify-drift", "generator-check"),
}

# Reports verify-drift writes for the certify system: eight diffusion-limit
# checks and the two Poisson-input prelimit checks.
CERTIFY_REPORTS = (
    "exp_linear_drift_c1", "exp_linear_drift_c5", "exp_linear_drift_cinf",
    "exp_linear_foster", "neg_part_foster", "neg_part_sub_gaussian_foster",
    "sub_gaussian_foster", "abandonment_foster",
    "prelimit_exp_linear_foster", "prelimit_abandon_foster",
)


def report_key(inequality: str) -> str:
    """Stable metric key of a report name: the eta the grid search picked is
    dropped, the truncation level kept (``exp_linear_drift[c=1]`` ->
    ``exp_linear_drift_c1``)."""
    name = re.sub(r"\[eta=[^\]]*\]", "", inequality)
    return re.sub(r"[^A-Za-z0-9_.-]", "", name.replace("[", "_"))


# Start at <e,x> = -varrho, the stationary mean of the idleness <e,x>^- on
# the demo system: from x0 = 0 (no idle servers) a short burn-in leaves a
# transient that biases the idleness estimate low by more than one standard
# error.
DEMO_X0 = (-0.5, -0.5)


def _sim_block(size: dict, step: float = 0.005) -> str:
    return (f"[sim]\nhorizon = {size['horizon']!r}\nstep = {step!r}\n"
            f"burn_in = {size['burn_in']!r}\nreplicas = {size['replicas']}\n"
            f"thin = 0.5\nx0 = {DEMO_X0[0]!r}, {DEMO_X0[1]!r}\nblowup = 1000\n")


def make_config(workload: str, seed: int, size: dict) -> str:
    """INI text of the workload's experiment; ``seed`` drives every stream."""
    head = f"[scenario]\nid = {workload}\nseed = {seed}\n\n"
    if workload == "queue_ctmc":
        n = ", ".join(map(str, size["n"]))
        return (head + DEMO_SYSTEM + "scv = 1.0, 1.0\n\n"
                + f"[prelimit]\nn = {n}\n\n[arrivals]\nkind = poisson\n\n"
                + DEMO_POLICIES + "\n" + _sim_block(size))
    if workload == "queue_renewal":
        n = ", ".join(map(str, size["n"]))
        return (head + DEMO_SYSTEM + "scv = 0.5, 1.5\n\n"
                + f"[prelimit]\nn = {n}\n\n"
                + "[arrivals]\nkind = renewal\ndist = erlang:2, hyperexp2:1.5\n\n"
                + RENEWAL_POLICIES + "\n" + _sim_block(size))
    if workload == "diffusion_em":
        return (head + DEMO_SYSTEM + "scv = 1.0, 1.0\n\n" + DIFFUSION_POLICIES + "\n"
                + _sim_block(size, size["step"]))
    if workload == "certify":
        return (head + CERTIFY_SYSTEM + "scv = 1.0, 1.0, 1.0\n\n"
                + f"[prelimit]\nn = {size['n']}\n\n[arrivals]\nkind = poisson\n\n"
                + "[policy.bary]\nkind = constant\nu = 0.4, 0.3, 0.3\n\n"
                + f"[verify]\nsamples = {size['samples']}\ntruncations = 1, 5, inf\n"
                + "eta = 1.0\n")
    raise ValueError(f"unknown workload {workload!r}")


def check_renewal_config(cfg: cli.ExperimentConfig) -> None:
    """Reject a renewal config whose diffusion would model another system.

    hwsim checks neither condition itself: the heavy-traffic invariant
    sum_i lambda_i (1 + scv_i) / (2 mu_i) = 1, and that [system] scv matches
    the SCVs of the interarrival families named in [arrivals] dist.
    """
    s = cfg.system
    total = float(np.sum(s.lambda_ * (1.0 + s.scv) / (2.0 * s.mu)))
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"sum lambda_i (1 + scv_i) / (2 mu_i) is {total}, not 1")
    family_scv = cfg.arrival_spec(s.m).scv
    if not np.allclose(family_scv, s.scv, rtol=0.0, atol=1e-9):
        raise ValueError(f"[system] scv {list(s.scv)} does not match the interarrival "
                         f"families' SCVs {list(family_scv)}")


def state_table_control(seed: int) -> diffusion.StateTableControl:
    """A 4x4 piecewise-constant control with seed-drawn simplex cells; no CLI
    policy kind can express it."""
    rng = np.random.default_rng([seed, 1])
    edges = [np.linspace(-4.0, 4.0, 5), np.linspace(-4.0, 4.0, 5)]
    return diffusion.StateTableControl(edges, rng.dirichlet(np.ones(2), size=(4, 4)))


@dataclass
class Prepared:
    """Everything a batch needs, made before the timed region."""

    workload: str
    seed: int
    config_path: Path
    cfg: cli.ExperimentConfig
    direct: tuple | None = None        # (dspec, control, SimConfig) of the direct call


def prepare(workload: str, seed: int, size: dict, work_dir: Path) -> Prepared:
    """Generate the config, parse it with ``cli.parse_config`` and check it."""
    text = make_config(workload, seed, size)
    work_dir.mkdir(parents=True, exist_ok=True)
    path = work_dir / f"{workload}.ini"
    path.write_text(text)
    cfg = cli.parse_config(text)
    if cfg.arrival_kind == "renewal":
        check_renewal_config(cfg)
    direct = None
    if workload == "diffusion_em":
        sim = diffusion.SimConfig(
            horizon=size["horizon"], step=size["step"], burn_in=size["burn_in"],
            replicas=size["replicas"], seed=seed + len(cfg.policies), x0=DEMO_X0,
            thin=0.5, blowup=1000.0)
        direct = (diffusion_spec(cfg.system), state_table_control(seed), sim)
    return Prepared(workload, seed, path, cfg, direct)


@dataclass
class BatchResult:
    wall_s: float
    errors: dict[str, str] = field(default_factory=dict)   # call -> traceback
    direct_run: object = None


def run_batch(prep: Prepared, out_dir: Path) -> BatchResult:
    """Run the workload's calls back to back and time them."""
    res = BatchResult(0.0)
    t0 = time.perf_counter()
    for cmd in COMMANDS[prep.workload]:
        try:
            cli.main([cmd, "--config", str(prep.config_path),
                      "--seed-override", str(prep.seed), "--out", str(out_dir)])
        except Exception:  # a raising call is a failed operation, not a crash
            res.errors[cmd] = traceback.format_exc()
    if prep.direct is not None:
        try:
            res.direct_run = diffusion.simulate(*prep.direct)
        except Exception:
            res.errors["simulate"] = traceback.format_exc()
    res.wall_s = time.perf_counter() - t0
    for where, tb in res.errors.items():
        print(f"{prep.workload}: {where} raised\n{tb}", file=sys.stderr)
    return res


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    work: float = 0.0                  # events, distinct replica-steps or pairs
    notes: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _identity_ok(est: float, se: float, target: float) -> bool:
    return math.isfinite(est) and math.isfinite(se) and abs(est - target) <= IDENTITY_SE * se


def check_outputs(prep: Prepared, out_dir: Path, res: BatchResult) -> Outcome:
    """Count operations and apply the correctness oracles to what the batch wrote."""
    wl, cfg = prep.workload, prep.cfg
    scen = cfg.scenario
    out = Outcome()
    if wl in ("queue_ctmc", "queue_renewal"):
        summary = _load_json(out_dir / f"{scen}_queue_summary.json") or {}
        runs = summary.get("runs", {})
        for n in cfg.n_list:
            for pol in cfg.policies:
                key = f"n{n}.{pol.name}"
                entry = runs.get(key)
                if entry is None or "neg_sum" not in entry:
                    out.op(False, f"{key}: no result")
                    continue
                out.work += entry["events"]
                est, se = entry["neg_sum"]
                ok = entry["tripped"] == 0 and _identity_ok(est, se, entry["varrho_n"])
                out.op(ok, f"{key}: tripped={entry['tripped']} idleness {est:.4f} "
                           f"+- {se:.4f} vs {entry['varrho_n']:.4f}")
        return out
    if wl == "diffusion_em":
        summary = _load_json(out_dir / f"{scen}_diffusion_summary.json") or {}
        pols = summary.get("policies", {})
        for pol in cfg.policies:
            entry = pols.get(pol.name)
            idl = (entry or {}).get("idleness")
            if entry is None or idl is None:
                out.op(False, f"{pol.name}: no result")
                continue
            ok = entry["tripped"] == 0 and _identity_ok(idl["estimate"], idl["stderr"],
                                                        idl["target"])
            out.op(ok, f"{pol.name}: tripped={entry['tripped']} idleness {idl['estimate']:.4f}"
                       f" +- {idl['stderr']:.4f} vs {idl['target']:.4f}")
        fits = {}
        tails = out_dir / f"{scen}_tails.csv"
        if tails.exists():
            for line in tails.read_text().splitlines()[1:]:
                parts = line.split(",")
                fits[(parts[0], parts[1])] = float(parts[2])
        for pol in cfg.policies:
            for form in ("exponential", "sub_gaussian"):
                slope = fits.get((pol.name, form), math.nan)
                out.op(math.isfinite(slope), f"{pol.name} {form}: tail slope {slope}")
        dspec, _, sim = prep.direct
        run = res.direct_run
        if run is None:
            out.op(False, "state-table simulate: no result")
        else:
            est, se = run.measure.moment("neg_sum")
            out.op(not run.tripped.any() and _identity_ok(est, se, dspec.varrho),
                   f"state-table simulate: tripped={int(run.tripped.sum())} "
                   f"idleness {est:.4f} +- {se:.4f} vs {dspec.varrho:.4f}")
        n_steps = int(round(sim.horizon / sim.step))
        # distinct paths only: tails re-simulates sim-diffusion's paths
        out.work = float((len(cfg.policies) + 1) * sim.replicas * n_steps)
        return out
    if wl == "certify":
        details = _load_json(out_dir / f"{scen}_verify_details.json") or {}
        seen = {}
        for rep in details.get("reports", []):
            seen[report_key(rep["inequality"])] = rep
        for key in CERTIFY_REPORTS:
            rep = seen.get(key)
            if rep is None:
                out.op(False, f"{key}: no report")
                continue
            out.work += rep["samples"]
            out.op(bool(rep["passed"]), f"{key}: failed, worst margin {rep['worst_margin']}")
        gen = _load_json(out_dir / f"{scen}_generator_check.json") or {}
        slope = gen.get("mean_slope", math.nan)
        out.op(math.isfinite(slope) and slope <= GENERATOR_SLOPE,
               f"generator-check: pooled slope {slope}")
        return out
    raise ValueError(f"unknown workload {wl!r}")


def artefact_hash(out_dir: Path, res: BatchResult) -> str:
    """SHA-256 over every file the batch wrote except results.csv (which holds
    timestamps), plus the direct simulate call's integrals and samples."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        if path.name == "results.csv":
            continue
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    run = res.direct_run
    if run is not None:
        for key in sorted(run.measure.replica_integrals):
            h.update(key.encode() + b"\0")
            h.update(np.ascontiguousarray(run.measure.replica_integrals[key]).tobytes())
        h.update(np.ascontiguousarray(run.measure.samples).tobytes())
    return h.hexdigest()


def bytes_written(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
