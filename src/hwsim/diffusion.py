"""Euler-Maruyama simulation of the controlled piecewise-linear diffusion.

Replicas evolve independently with per-replica RNG substreams spawned from
the master seed, so runs are bit-reproducible and replicas can be merged in
any order.  Time averages are accumulated exactly (step-weighted) after
burn-in; thinned snapshots feed histogram and tail queries.

The step loop does only the state update and the blow-up guard.  The states
of each block of ``_BLOCK`` steps are kept, and the moment integrals are
folded from the block in time order, one step's terms after the other, so
they equal per-step addition bit for bit.  Once every replica has tripped
the guard the loop stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import EmpiricalMeasure, TailFit, fit_tail, tv_distance
from .model import DiffusionSpec, project_simplex


# ---------------------------------------------------------------------------
# stationary Markov controls
# ---------------------------------------------------------------------------

class ConstantControl:
    """v(x) = u for a fixed simplex point."""

    def __init__(self, u):
        self.u = project_simplex(u)

    def controls(self, x: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.u, x.shape)

    def describe(self) -> str:
        return f"constant[{','.join(f'{v:g}' for v in self.u)}]"


class StaticPriorityControl(ConstantControl):
    """Vertex control e_{i*} with i* the lowest-priority class of the order."""

    def __init__(self, order):
        order = tuple(int(i) for i in order)
        m = len(order)
        if sorted(order) != list(range(m)):
            raise ValueError("order must be a permutation of 0..m-1")
        u = np.zeros(m)
        u[order[-1]] = 1.0
        super().__init__(u)
        self.order = order

    def describe(self) -> str:
        return f"static_priority[{','.join(map(str, self.order))}]"


class StateTableControl:
    """Piecewise-constant control looked up on a regular grid."""

    def __init__(self, edges: list[np.ndarray], table: np.ndarray):
        self.edges = [np.asarray(e, dtype=float) for e in edges]
        self.table = np.asarray(table, dtype=float)
        if self.table.ndim != len(self.edges) + 1:
            raise ValueError("table must have one axis per dimension plus the control axis")
        flat = self.table.reshape(-1, self.table.shape[-1])
        self.table = project_simplex(flat).reshape(self.table.shape)

    def controls(self, x: np.ndarray) -> np.ndarray:
        idx = []
        for d, e in enumerate(self.edges):
            i = np.clip(np.searchsorted(e, x[..., d]) - 1, 0, len(e) - 2)
            idx.append(i)
        return self.table[tuple(idx)]

    def describe(self) -> str:
        return f"state_table[{'x'.join(str(len(e) - 1) for e in self.edges)}]"


class FunctionControl:
    """User hook; the output is projected onto the simplex every call."""

    def __init__(self, fn, name: str = "user"):
        self.fn = fn
        self.name = name

    def controls(self, x: np.ndarray) -> np.ndarray:
        return project_simplex(self.fn(x))

    def describe(self) -> str:
        return f"user[{self.name}]"


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

# Steps per noise draw and per fold of the moment integrals.  At 16 replicas
# the block's (B, R, m) buffers then take 64 KB, under the allocator's 128 KB
# mmap threshold; at 512 steps they crossed it, and the peak RSS of repeated
# runs crept up by ~0.4 MB while the step cost stayed the same.
_BLOCK = 256


@dataclass(frozen=True)
class SimConfig:
    horizon: float
    step: float = 1e-3
    burn_in: float | None = None          # default: 10% of horizon
    replicas: int = 16
    seed: int = 0
    x0: tuple[float, ...] | float = 0.0
    thin: float = 1.0
    blowup: float = 1e3
    debug_checks: bool = False

    def __post_init__(self):
        t0 = 0.1 * self.horizon if self.burn_in is None else self.burn_in
        object.__setattr__(self, "burn_in", float(t0))
        if not 0 < self.step <= self.burn_in < self.horizon:
            raise ValueError("need 0 < step <= burn_in < horizon")
        if self.replicas < 1:
            raise ValueError("need at least one replica")


@dataclass
class DiffusionRun:
    measure: EmpiricalMeasure
    tripped: np.ndarray                   # (R,) bool, blow-up guard fired
    trip_time: np.ndarray                 # (R,) time of trip (nan if none)
    terminal: np.ndarray                  # (R, m) state at end or at trip
    snapshot_times: np.ndarray | None = None
    snapshots: np.ndarray | None = None   # (K, R, m)

    @property
    def any_tripped(self) -> bool:
        return bool(self.tripped.any())


def _moment_names(m: int) -> list[str]:
    return ["l1", "neg_sum", "sum"] + [f"coord{i}" for i in range(m)]


def _fold(total: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """total + terms[0] + terms[1] + ..., added one row at a time in order.

    ``np.add.accumulate`` is a sequential left fold, so the result is
    bit-identical to a per-step ``total += terms[t]``; a sum or einsum over
    the rows would group the terms differently and change the last bit.
    """
    return np.add.accumulate(np.concatenate([total[None], terms]), axis=0)[-1]


def _accumulate(integrals, live_time, xs, alive, h):
    """Fold a block of post-burn-in states (B, R, m) and their alive masks
    (B, R) into the moment integrals; returns the new live time."""
    l1 = np.abs(xs).sum(axis=2)
    s = xs.sum(axis=2)
    w = alive * h
    values = [("l1", l1), ("neg_sum", np.maximum(-s, 0.0)), ("sum", s)]
    values += [(f"coord{i}", xs[:, :, i]) for i in range(xs.shape[2])]
    for name, v in values:
        integrals[name] = _fold(integrals[name], w * v)
    return _fold(live_time, w)


def _thin_rows(k: int, lo: int, hi: int, thin_every: int) -> slice:
    """Rows lo <= r < hi of a block that starts after step k whose step
    k + r + 1 is a thinning step."""
    return slice(-(-(k + lo + 1) // thin_every) * thin_every - k - 1, hi, thin_every)


def simulate(dspec: DiffusionSpec, policy, cfg: SimConfig,
             keep_snapshots: bool = False) -> DiffusionRun:
    """Fixed-step Euler-Maruyama paths under a stationary Markov control.

    Replicas that exceed the blow-up guard ||x||_1 > cfg.blowup stop evolving
    and stop contributing to the measure; this is an expected outcome for
    transient configurations, not an error.  Once every replica has tripped
    the paths are frozen, so the loop stops and the remaining snapshots repeat
    the frozen states.

    Each step only updates the state and checks the guard.  States are kept
    for a block of ``_BLOCK`` steps; the moment integrals, live time, thinned
    samples and snapshots are then taken from the block, the integrals folded
    in time order so that they equal per-step addition bit for bit.
    """
    m = dspec.m
    h = cfg.step
    n_steps = int(round(cfg.horizon / h))
    burn_step = int(round(cfg.burn_in / h))
    thin_every = max(1, int(round(cfg.thin / h)))
    R = cfg.replicas

    gens = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(R)]
    x0 = np.asarray(cfg.x0, dtype=float) * np.ones(m)
    X = np.tile(x0, (R, 1))
    alive = np.ones(R, dtype=bool)
    all_alive = True
    trip_time = np.full(R, np.nan)

    base = -(dspec.varrho / m) * dspec.mu
    sqh_sigma = math.sqrt(h) * dspec.sigma_diag
    # a constant control's u broadcasts against X to the same products
    u_const = policy.u if isinstance(policy, ConstantControl) else None
    integrals = {k: np.zeros(R) for k in _moment_names(m)}
    live_time = np.zeros(R)
    sample_rows = []
    snaps = [] if keep_snapshots else None
    snap_times = [] if keep_snapshots else None

    block = min(_BLOCK, n_steps)
    xs = np.empty((block, R, m))           # the block's states, one row per step
    alive_rows = np.empty((block, R), dtype=bool)
    k = 0                                  # steps done
    while k < n_steps and alive.any():
        ksz = min(block, n_steps - k)
        noise = np.stack([g.standard_normal((ksz, m)) for g in gens], axis=1)  # (ksz, R, m)
        noise *= sqh_sigma
        alive_rows[:ksz] = alive
        for j in range(ksz):
            u = policy.controls(X) if u_const is None else u_const
            pos = np.maximum(X.sum(axis=1, keepdims=True), 0.0)
            b = base - dspec.mu * (X - pos * u) - pos * dspec.gamma * u
            Xn = X + b * h + noise[j]
            X = Xn if all_alive else np.where(alive[:, None], Xn, X)
            xs[j] = X
            l1 = np.abs(X).sum(axis=1)
            newly = l1 > cfg.blowup if all_alive else alive & (l1 > cfg.blowup)
            if newly.any():
                trip_time[newly] = (k + j + 1) * h
                alive = alive & ~newly
                alive_rows[j:ksz] = alive
                all_alive = False
                if not alive.any():
                    break
        done = j + 1                       # rows of the block that were stepped
        first = max(burn_step - k, 0)      # first post-burn-in row
        if first < done:
            live_time = _accumulate(integrals, live_time, xs[first:done],
                                    alive_rows[first:done], h)
            rows = _thin_rows(k, first, done, thin_every)
            sample_rows.append(xs[rows][alive_rows[rows]])
        if keep_snapshots:
            rows = _thin_rows(k, 0, done, thin_every)
            snaps.append(xs[rows].copy())
            snap_times += [(k + r + 1) * h for r in range(*rows.indices(done))]
        k += done
    if keep_snapshots:                     # frozen paths after the last trip
        rest = range((k // thin_every + 1) * thin_every, n_steps + 1, thin_every)
        snaps.append(np.broadcast_to(X, (len(rest), R, m)))
        snap_times += [t * h for t in rest]

    if sample_rows:
        samples = np.concatenate(sample_rows, axis=0)
    else:
        samples = np.empty((0, m))
    measure = EmpiricalMeasure(
        samples=samples,
        weights=np.full(samples.shape[0], cfg.thin),
        replica_time=live_time,
        replica_integrals=integrals,
    )
    return DiffusionRun(
        measure=measure,
        tripped=~alive,
        trip_time=trip_time,
        terminal=X,
        snapshot_times=np.asarray(snap_times) if keep_snapshots else None,
        snapshots=np.concatenate(snaps, axis=0) if keep_snapshots and snap_times else None,
    )


# ---------------------------------------------------------------------------
# stationary-measure diagnostics
# ---------------------------------------------------------------------------

# The idleness identity passes when the estimate is this close to its target.
IDLENESS_TOL = 0.05


@dataclass
class IdlenessReport:
    estimate: float
    stderr: float
    target: float

    @property
    def passed(self) -> bool:
        return abs(self.estimate - self.target) <= IDLENESS_TOL


def check_idleness_identity(measure: EmpiricalMeasure, dspec: DiffusionSpec) -> IdlenessReport:
    """Stationary average idleness <e,x>^- equals the spare capacity when
    there is no abandonment, under every stationary Markov control."""
    if np.any(dspec.gamma != 0.0):
        raise ValueError("idleness identity requires zero abandonment rates")
    if dspec.varrho <= 0:
        raise ValueError("idleness identity requires positive spare capacity")
    est, se = measure.moment("neg_sum")
    return IdlenessReport(est, se, dspec.varrho)


def estimate_tail(measure: EmpiricalMeasure, form: str) -> TailFit:
    """Tail fit of ||x||_1 under the measure."""
    return fit_tail(measure.tail_values(), measure.weights, form)


@dataclass
class RateEstimate:
    gamma_hat: float | None
    times: np.ndarray
    distances: np.ndarray
    noise_floor: float
    window: tuple[float, float] | None
    flag: str = ""

    @property
    def ok(self) -> bool:
        return self.gamma_hat is not None and not self.flag


# bins per coordinate, and the late share of the snapshots taken as stationary
RATE_BINS, RATE_REF_FRACTION = 10, 0.2


def estimate_rate(dspec: DiffusionSpec, policy, cfg: SimConfig) -> RateEstimate:
    """Exponential mixing-rate estimate from replica ensembles.

    Regresses log of the total-variation distance between the binned law of
    X_t (across replicas started at cfg.x0) and a late-time stationary
    estimate, over the window where the distance sits above the resolution
    floor (estimated by splitting the ensemble in half).
    """
    run = simulate(dspec, policy, cfg, keep_snapshots=True)
    if run.snapshots is None:
        raise ValueError("horizon/thin too coarse: no snapshots collected")
    snaps, times = run.snapshots, run.snapshot_times
    K, R, m = snaps.shape
    kref = max(2, int(math.ceil(RATE_REF_FRACTION * K)))
    ref = snaps[-kref:].reshape(-1, m)

    # the late-time reference is only meaningful if the ensemble has settled:
    # a drifting mean or growing spread marks transience / too-short horizon
    mid = snaps[int(0.6 * K)]
    end = snaps[-1]
    sd_end = float(end.std(axis=0).mean()) + 1e-12
    drift_ratio = float(np.linalg.norm(end.mean(axis=0) - mid.mean(axis=0))) / sd_end
    spread_ratio = sd_end / (float(mid.std(axis=0).mean()) + 1e-12)
    if run.tripped.any() or drift_ratio > 0.5 or spread_ratio > 1.25:
        dists = np.full(K, np.nan)
        return RateEstimate(None, times, dists, math.nan, None,
                            flag="ensemble not stationary by the horizon "
                                 "(transient configuration or horizon too short)")

    lo = ref.mean(axis=0) - 4.0 * ref.std(axis=0) - 1e-6
    hi = ref.mean(axis=0) + 4.0 * ref.std(axis=0) + 1e-6
    edges = [np.linspace(lo[d], hi[d], RATE_BINS + 1) for d in range(m)]

    def binned(pts):
        hcount, _ = np.histogramdd(np.clip(pts, lo, hi), bins=edges)
        return hcount.ravel() + 1e-12

    pref = binned(ref)
    dists = np.array([tv_distance(binned(snaps[j]), pref) for j in range(K)])
    half = R // 2
    floor_vals = [tv_distance(binned(snaps[j, :half]), binned(snaps[j, half:]))
                  for j in range(K - kref, K)]
    floor = float(np.median(floor_vals))

    usable = dists > max(2.0 * floor, 1e-3)
    usable[-kref:] = False
    idx = np.nonzero(usable)[0]
    if len(idx) < 4:
        return RateEstimate(None, times, dists, floor, None,
                            flag="distance already at noise floor (window too short)")
    t_w, d_w = times[idx], dists[idx]
    A = np.vstack([t_w, np.ones_like(t_w)]).T
    coef, *_ = np.linalg.lstsq(A, np.log(d_w), rcond=None)
    slope = float(coef[0])
    if slope >= 0:
        return RateEstimate(None, times, dists, floor, (float(t_w[0]), float(t_w[-1])),
                            flag="distance not decaying (transient or horizon too short)")
    return RateEstimate(-slope, times, dists, floor, (float(t_w[0]), float(t_w[-1])))
