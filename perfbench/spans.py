"""Traced runs: spans around the calls into each hwsim module.

The wrappers live here, in the benchmark, and are installed at the module
attribute through which hwsim calls each function, so a name that another
module imported directly (``hwsim.queues.scale_state``) is wrapped where it
is looked up.  Nothing that runs once per queue event or once per
Euler-Maruyama step is wrapped: those calls are methods of the policy and
control objects, and no method of theirs is listed here.

Each span records its name, start, end, parent span and the id of the batch
repetition it belongs to.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter as _clock

import numpy as np

import hwsim.cli
import hwsim.diffusion
import hwsim.lyapunov
import hwsim.measures
import hwsim.model
import hwsim.queues
import hwsim.verify
from workloads import CERTIFY_REPORTS, report_key

LAYERS = ("cli", "model", "lyapunov", "verify", "diffusion", "queues", "measures")

SUBCOMMANDS = ("verify-drift", "sim-diffusion", "sim-queue", "generator-check", "tails")
POLICY_KINDS = ("static_priority", "proportional_split", "longest_queue_first",
                "random_work_conserving")

class Tracer:
    """Span recorder for one batch repetition."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.sim_keys: set = set()
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, observe=None):
        nid = self.name_id(name)
        stack, name_of, parent = self._stack, self.name_of, self.parent
        start, end, clock = self.start, self.end, _clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, end[idx] - start[idx], args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, observe=None, item: bool = False):
        orig = owner[attr] if item else getattr(owner, attr)
        self._patches.append((owner, attr, orig, item))
        wrapped = self.wrap(name, orig, observe)
        if item:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)

    def install(self) -> None:
        for owner, attr, name, observe in _targets():
            self._patch(owner, attr, name, observe)
        for cmd in SUBCOMMANDS:
            self._patch(hwsim.cli.COMMANDS, cmd, f"cli.cmd:{cmd}", item=True)

    def uninstall(self) -> None:
        for owner, attr, orig, item in reversed(self._patches):
            if item:
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as gzip'd CSV: run_id, span, parent, name, start_s, end_s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("run_id,span,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{self.run_id},{i},{self.parent[i]},{self.names[self.name_of[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# -- observers: counts taken at the same boundaries as the spans ------------

def _obs_queue_sim(policy_pos: int, cfg_pos: int):
    def observe(tr, dur, args, kwargs, run):
        pol = _arg(args, kwargs, policy_pos, "pol")
        cfg = _arg(args, kwargs, cfg_pos, "cfg")
        events = float(run.event_counts.sum())
        kind = pol.describe().split("[", 1)[0]
        tr.counters["queues.events"] += events
        tr.counters[f"policy_s.{kind}"] += dur
        tr.counters[f"policy_events.{kind}"] += events
        tr.counters["queues.live"] += float(run.measure.replica_time.sum())
        tr.counters["queues.live_cap"] += cfg.replicas * (cfg.horizon - cfg.burn_in)
    return observe


def _obs_report(tr, dur, args, kwargs, rep):
    tr.counters[f"check.{report_key(rep.inequality)}"] += dur
    if not rep.passed:
        tr.counters["verify.reports_failed"] += 1


def _obs_prelimit(tr, dur, args, kwargs, rep):
    tr.counters["queues.prelimit_pairs"] += rep.n_samples
    _obs_report(tr, dur, args, kwargs, rep)


def _obs_rows(key: str):
    def observe(tr, dur, args, kwargs, result):
        tr.counters[key] += np.size(result)
    return observe


def _obs_states(tr, dur, args, kwargs, x):
    tr.counters["verify.states_sampled"] += x.shape[0]


def _obs_diffusion_sim(tr, dur, args, kwargs, run):
    dspec = _arg(args, kwargs, 0, "dspec")
    policy = _arg(args, kwargs, 1, "policy")
    cfg = _arg(args, kwargs, 2, "cfg")
    steps = cfg.replicas * int(round(cfg.horizon / cfg.step))
    key = (repr(dspec), policy.describe(), repr(cfg))
    if key in tr.sim_keys:
        tr.counters["diffusion.repeat_steps"] += steps
    tr.sim_keys.add(key)
    tr.counters["diffusion.replica_steps"] += steps
    tr.counters["diffusion.live"] += float(run.measure.replica_time.sum())
    tr.counters["diffusion.live_cap"] += cfg.replicas * (cfg.horizon - cfg.burn_in)


def _obs_histogram(tr, dur, args, kwargs, result):
    tr.counters["measures.sample_rows"] += args[0].samples.shape[0]


def _obs_fit(tr, dur, args, kwargs, fit):
    tr.counters["measures.sample_rows"] += len(_arg(args, kwargs, 0, "values"))


def _targets():
    """(owner, attribute, span name, observer) of every wrapped function."""
    q, v, ly, mo = hwsim.queues, hwsim.verify, hwsim.lyapunov, hwsim.model
    d, me, c = hwsim.diffusion, hwsim.measures, hwsim.cli
    out = [
        (c, "main", "cli.main", None),
        (c, "parse_config", "cli.parse_config", None),
        (c, "write_histogram_csv", "cli.write_histogram_csv", None),
        (c, "write_samples_csv", "cli.write_samples_csv", None),
        (c, "append_records", "cli.append_records", None),
        (c, "diffusion_spec", "model.diffusion_spec", None),
        (c, "prelimit_params", "model.prelimit_params", None),
        (v, "diffusion_spec", "model.diffusion_spec", None),
        (q, "prelimit_params", "model.prelimit_params", None),
        (q, "unscale_state", "model.unscale_state", None),
        (ly, "drift_truncated", "model.drift_truncated", None),
        (ly, "log_terms", "lyapunov.log_terms", None),
        (ly, "log_value", "lyapunov.log_value", _obs_rows("lyapunov.log_value_rows")),
        (ly, "generator_ratio", "lyapunov.generator_ratio",
         _obs_rows("lyapunov.generator_ratio_rows")),
        (ly, "select_parameters", "lyapunov.select_parameters", None),
        (v, "default_suite", "verify.default_suite", None),
        (q, "verify_prelimit_foster", "queues.verify_prelimit_foster", _obs_prelimit),
        (q, "enumerate_allocations", "queues.enumerate_allocations", None),
        (q, "estimate_prelimit_constants", "queues.estimate_prelimit_constants", None),
        (q, "generator_consistency_errors", "queues.generator_consistency_errors", None),
        (q, "simulate_ctmc", "queues.simulate_ctmc", _obs_queue_sim(1, 2)),
        (q, "simulate_renewal", "queues.simulate_renewal", _obs_queue_sim(2, 3)),
        (d, "simulate", "diffusion.simulate", _obs_diffusion_sim),
        (d, "estimate_tail", "diffusion.estimate_tail", None),
        (d, "check_idleness_identity", "diffusion.check_idleness_identity", None),
        (me, "fit_tail", "measures.fit_tail", _obs_fit),
        (d, "fit_tail", "measures.fit_tail", _obs_fit),
        (me.EmpiricalMeasure, "histogram", "measures.histogram", _obs_histogram),
        (me.EmpiricalMeasure, "moment", "measures.moment", None),
    ]
    for mod in (mo, q):
        out.append((mod, "scale_state", "model.scale_state", None))
    for mod in (v, q):
        out.append((mod, "sample_states", "verify.sample_states", _obs_states))
    for fn in ("verify_exp_linear_drift", "verify_exp_linear_foster",
               "verify_sub_gaussian_foster", "verify_abandonment_foster",
               "verify_neg_part_foster", "verify_neg_part_sub_gaussian_foster"):
        out.append((v, fn, f"verify.{fn}", _obs_report))
    return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tr: Tracer, wall_s: float, n_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    A span's self time is its duration minus its direct children's durations
    (spans nest: one thread, wrappers close in reverse order).  Summed over
    all spans this equals the duration of the top-level spans, so the module
    self times plus ``trace.uncovered_s`` add up to ``trace.wall_s``.
    """
    dur = np.array(tr.end, dtype=float) - np.array(tr.start, dtype=float)
    parent = np.array(tr.parent, dtype=np.int64)
    name_of = np.array(tr.name_of, dtype=np.int64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    n_names = len(tr.names)
    tot = np.bincount(name_of, weights=dur, minlength=n_names)
    cnt = np.bincount(name_of, minlength=n_names)
    own = np.bincount(name_of, weights=self_t, minlength=n_names)

    def t(name):
        i = tr._name_ids.get(name)
        return float(tot[i]) if i is not None else 0.0

    def calls(name):
        i = tr._name_ids.get(name)
        return float(cnt[i]) if i is not None else 0.0

    k = tr.counters
    m: dict[str, float] = {}
    m["queues.simulate_s"] = t("queues.simulate_ctmc") + t("queues.simulate_renewal")
    m["queues.events"] = k["queues.events"]
    m["queues.live_frac"] = _ratio(k["queues.live"], k["queues.live_cap"])
    for kind in POLICY_KINDS:
        m[f"queues.us_per_event.{kind}"] = 1e6 * _ratio(k[f"policy_s.{kind}"],
                                                        k[f"policy_events.{kind}"])
    m["queues.prelimit_s"] = t("queues.verify_prelimit_foster")
    m["queues.prelimit_pairs"] = k["queues.prelimit_pairs"]
    m["queues.enumerate_s"] = t("queues.enumerate_allocations")
    m["queues.enumerate_calls"] = calls("queues.enumerate_allocations")
    m["queues.constants_s"] = t("queues.estimate_prelimit_constants")
    m["queues.generator_consistency_s"] = t("queues.generator_consistency_errors")
    m["lyapunov.generator_ratio_s"] = t("lyapunov.generator_ratio")
    m["lyapunov.generator_ratio_rows"] = k["lyapunov.generator_ratio_rows"]
    m["lyapunov.log_value_s"] = t("lyapunov.log_value")
    m["lyapunov.log_value_calls"] = calls("lyapunov.log_value")
    m["lyapunov.log_value_rows_per_call"] = _ratio(k["lyapunov.log_value_rows"],
                                                   calls("lyapunov.log_value"))
    m["lyapunov.select_parameters_s"] = t("lyapunov.select_parameters")
    m["verify.suite_s"] = t("verify.default_suite")
    m["verify.sample_states_s"] = t("verify.sample_states")
    m["verify.states_sampled"] = k["verify.states_sampled"]
    for key in CERTIFY_REPORTS:
        m[f"verify.check_s.{key}"] = k[f"check.{key}"]
    m["verify.reports_failed"] = k["verify.reports_failed"]
    m["diffusion.simulate_s"] = t("diffusion.simulate")
    m["diffusion.replica_steps"] = k["diffusion.replica_steps"]
    m["diffusion.steps_per_s"] = _ratio(k["diffusion.replica_steps"], t("diffusion.simulate"))
    m["diffusion.live_frac"] = _ratio(k["diffusion.live"], k["diffusion.live_cap"])
    m["diffusion.estimate_tail_s"] = t("diffusion.estimate_tail")
    m["diffusion.repeat_steps_frac"] = _ratio(k["diffusion.repeat_steps"],
                                              k["diffusion.replica_steps"])
    m["measures.histogram_s"] = t("measures.histogram")
    m["measures.fit_tail_s"] = t("measures.fit_tail")
    m["measures.moment_s"] = t("measures.moment")
    m["measures.sample_rows"] = k["measures.sample_rows"]
    m["cli.parse_s"] = t("cli.parse_config")
    m["cli.write_s"] = (t("cli.write_histogram_csv") + t("cli.write_samples_csv")
                        + t("cli.append_records"))
    m["cli.bytes_written"] = float(n_bytes)
    for cmd in SUBCOMMANDS:
        m[f"cli.cmd_s.{cmd}"] = t(f"cli.cmd:{cmd}")
    m["model.scale_state_calls"] = calls("model.scale_state")
    m["model.scale_state_s"] = t("model.scale_state")
    layer_of = np.array([LAYERS.index(nm.split(".", 1)[0]) for nm in tr.names], dtype=np.int64)
    per_layer = np.bincount(layer_of, weights=own, minlength=len(LAYERS))
    for i, layer in enumerate(LAYERS):
        m[f"{layer}.self_s"] = float(per_layer[i])
    m["trace.wall_s"] = wall_s
    m["trace.uncovered_s"] = wall_s - float(dur[~has_parent].sum())
    return m


def _ratio(a: float, b: float) -> float:
    return float(a) / float(b) if b else 0.0
