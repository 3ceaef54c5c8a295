"""Euler-Maruyama simulation of the controlled piecewise-linear diffusion.

Every replica draws its noise from its own RNG substream, spawned from the
seed, so runs are bit-reproducible and replicas can be merged in any order.
Time averages are accumulated exactly (step-weighted) after burn-in; thinned
samples feed histogram, tail and mixing-rate queries.

``simulate_policies`` steps the replicas of several controls in lockstep, as
the rows of one state array.  The replicas of control i are spawned from
seed + i, so each control's run equals a run of that control alone bit for
bit.  The step loop does only the state update and the blow-up guard.  The
states of each block of steps are kept, and the moment integrals are folded
from the block in time order, one step's terms after the other, so they
equal per-step addition bit for bit.  Once every replica has tripped the
guard the loop stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    """Piecewise-constant control looked up on a grid of cells.

    Points outside the grid take the nearest cell along each coordinate, and
    NaN takes the last one.
    """

    def __init__(self, edges: list[np.ndarray], table: np.ndarray):
        self.edges = [np.asarray(e, dtype=float) for e in edges]
        table = np.asarray(table, dtype=float)
        cells = tuple(len(e) - 1 for e in self.edges)
        if table.shape[:-1] != cells:
            raise ValueError("table must have one axis of len(edges[d]) - 1 cells per "
                             "dimension plus the control axis")
        if any(not np.all(np.diff(e) > 0) for e in self.edges):
            raise ValueError("edges must be strictly increasing")
        self._flat = project_simplex(table.reshape(-1, table.shape[-1]))
        self.table = self._flat.reshape(table.shape)
        # the cell of x_d is the number of interior edges below it, which
        # puts points outside the grid (and NaN) in the outer cells
        self._inner = [e[1:-1] for e in self.edges]
        self._strides = [math.prod(cells[d + 1:]) for d in range(len(cells))]

    def controls(self, x: np.ndarray) -> np.ndarray:
        cell = np.searchsorted(self._inner[-1], x[..., -1])
        for d in range(len(self._inner) - 1):
            cell += np.searchsorted(self._inner[d], x[..., d]) * self._strides[d]
        return self._flat.take(cell, axis=0)

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

# Steps per noise draw and per fold of the moment integrals for one control;
# G controls in lockstep take _BLOCK // G.  The block's (B, G * R, m) state and
# noise buffers then keep one control's byte size, 64 KB each at 16 replicas
# and m = 2, under glibc's 128 KB mmap threshold.  Past it each block's
# buffers are mapped afresh and the peak RSS of repeated runs creeps up
# (~0.4 MB for one control at 512 steps, ~1.2 MB for three at 256) while the
# step cost stays the same.
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

    def __post_init__(self):
        t0 = 0.1 * self.horizon if self.burn_in is None else self.burn_in
        object.__setattr__(self, "burn_in", float(t0))
        if not 0 < self.step <= self.burn_in < self.horizon < math.inf:
            raise ValueError("need 0 < step <= burn_in < horizon < inf")
        if self.replicas < 1:
            raise ValueError("need at least one replica")
        if not (0 < self.thin < math.inf and self.blowup > 0):
            raise ValueError("need 0 < thin < inf and blowup > 0")


@dataclass
class DiffusionRun:
    measure: EmpiricalMeasure
    tripped: np.ndarray                   # (R,) bool, blow-up guard fired
    terminal: np.ndarray                  # (R, m) state at end or at trip


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


# The runs of the simulate_policies call in progress: a suspended
# _lockstep_runs, stepped by the first simulate call that asks for a run.
_pending = None


def simulate(dspec: DiffusionSpec, policy, cfg: SimConfig) -> DiffusionRun:
    """Fixed-step Euler-Maruyama paths under one stationary Markov control.

    Every run, of a control alone or of one in lockstep with others, is
    returned by one call of this function, so a wrapper of ``simulate`` (the
    perfbench tracer counts replica steps and repeated paths per call) sees
    each control's run.  Within ``simulate_policies`` the call returns the
    next control's run of the lockstep.
    """
    if _pending is not None:
        return next(_pending)
    return next(_lockstep_runs(dspec, [policy], cfg))


def simulate_policies(dspec: DiffusionSpec, policies, cfg: SimConfig) -> list[DiffusionRun]:
    """Fixed-step Euler-Maruyama paths under each of several stationary Markov
    controls, stepped in lockstep; one run per control.

    Control i drives cfg.replicas replicas seeded from
    ``SeedSequence(cfg.seed + i)``, so its run equals ``simulate`` under that
    control at seed cfg.seed + i bit for bit.  Each run is returned by a
    ``simulate`` call with those arguments; the first of them steps them all.
    """
    global _pending
    if not policies:
        raise ValueError("need at least one policy")
    _pending = _lockstep_runs(dspec, policies, cfg)
    try:
        return [simulate(dspec, pol, replace(cfg, seed=cfg.seed + i))
                for i, pol in enumerate(policies)]
    finally:
        _pending = None


def _lockstep_runs(dspec: DiffusionSpec, policies, cfg: SimConfig):
    """Step the replicas of every control in lockstep, then yield one run per
    control, in order.

    All replicas are rows of one (G * R, m) state: constant controls fill
    their rows of the control array once, and the others are evaluated on
    their own rows every step.

    Replicas that exceed the blow-up guard ||x||_1 > cfg.blowup stop evolving
    and stop contributing to the measure; this is an expected outcome for
    transient configurations, not an error.  Once every replica has tripped
    the paths are frozen, so the loop stops.

    Each step only updates the state and checks the guard.  States are kept
    for a block of steps; the moment integrals, live time and thinned samples
    are then taken from the block, the integrals folded in time order so that
    they equal per-step addition bit for bit.  The samples of a block are its
    thinning steps past burn-in in step order, each step's live replicas in
    replica order.
    """
    m = dspec.m
    h = cfg.step
    n_steps = int(round(cfg.horizon / h))
    burn_step = int(round(cfg.burn_in / h))
    thin_every = max(1, int(round(cfg.thin / h)))
    G, R = len(policies), cfg.replicas
    N = G * R
    groups = [slice(g * R, (g + 1) * R) for g in range(G)]

    gens = [np.random.default_rng(s) for g in range(G)
            for s in np.random.SeedSequence(cfg.seed + g).spawn(R)]
    x0 = np.asarray(cfg.x0, dtype=float) * np.ones(m)
    X = np.tile(x0, (N, 1))
    alive = np.ones(N, dtype=bool)
    all_alive = True

    base = -(dspec.varrho / m) * dspec.mu
    sqh_sigma = math.sqrt(h) * dspec.sigma_diag
    u = np.empty((N, m))                   # the controls, one row per replica
    varying = []
    for grp, pol in zip(groups, policies):
        if isinstance(pol, ConstantControl):
            u[grp] = pol.u
        else:
            varying.append((grp, pol))
    integrals = {k: np.zeros(N) for k in _moment_names(m)}
    live_time = np.zeros(N)
    sample_rows = [[] for _ in groups]     # per control, one array per block

    block = min(max(_BLOCK // G, 1), n_steps)
    xs = np.empty((block, N, m))           # the block's states, one row per step
    alive_rows = np.empty((block, N), dtype=bool)
    k = 0                                  # steps done
    while k < n_steps and alive.any():
        ksz = min(block, n_steps - k)
        noise = np.stack([g.standard_normal((ksz, m)) for g in gens], axis=1)  # (ksz, N, m)
        noise *= sqh_sigma
        alive_rows[:ksz] = alive
        for j in range(ksz):
            for grp, pol in varying:
                u[grp] = pol.controls(X[grp])
            pos = np.maximum(X.sum(axis=1, keepdims=True), 0.0)
            b = base - dspec.mu * (X - pos * u) - pos * dspec.gamma * u
            Xn = X + b * h + noise[j]
            X = Xn if all_alive else np.where(alive[:, None], Xn, X)
            xs[j] = X
            l1 = np.abs(X).sum(axis=1)
            newly = l1 > cfg.blowup if all_alive else alive & (l1 > cfg.blowup)
            if newly.any():
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
            # the rows first <= r < done whose step k + r + 1 is a thinning step
            rows = slice(first + -(k + first + 1) % thin_every, done, thin_every)
            for grp, parts in zip(groups, sample_rows):
                parts.append(xs[rows, grp][alive_rows[rows, grp]])
        k += done

    for grp, parts in zip(groups, sample_rows):
        samples = np.concatenate(parts, axis=0) if parts else np.empty((0, m))
        measure = EmpiricalMeasure(
            samples=samples,
            weights=np.full(samples.shape[0], cfg.thin),
            replica_time=live_time[grp],
            replica_integrals={name: v[grp] for name, v in integrals.items()},
        )
        yield DiffusionRun(
            measure=measure,
            tripped=~alive[grp],
            terminal=X[grp],
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


# bins per coordinate, and the late share of the ensembles taken as stationary
RATE_BINS, RATE_REF_FRACTION = 10, 0.2


def estimate_rate(dspec: DiffusionSpec, policy, cfg: SimConfig) -> RateEstimate:
    """Exponential mixing-rate estimate from replica ensembles.

    Regresses log of the total-variation distance between the binned law of
    X_t (across replicas started at cfg.x0) and a late-time stationary
    estimate, over the window where the distance sits above the resolution
    floor (estimated by splitting the ensemble in half).

    The ensembles are the thinned samples of one run with burn-in one step,
    taken at every thinning step t = thin, 2 thin, ... up to the horizon; so
    cfg.thin must span at least two steps (and fit in the horizon), and
    cfg.burn_in is not used.
    """
    h = cfg.step
    thin_every = int(round(cfg.thin / h))
    times = np.arange(thin_every, int(round(cfg.horizon / h)) + 1, max(thin_every, 1)) * h
    K, R, m = len(times), cfg.replicas, dspec.m
    if thin_every < 2 or K == 0:
        raise ValueError("thin must span at least two steps and at most the horizon")
    run = simulate(dspec, policy, replace(cfg, burn_in=h))

    # the late-time reference is only meaningful if the ensemble has settled:
    # a tripped replica (it also leaves gaps in the samples, so it is checked
    # before the reshape), a drifting mean or a growing spread marks
    # transience / too-short horizon
    settled = not run.tripped.any()
    if settled:
        snaps = run.measure.samples.reshape(K, R, m)
        mid, end = snaps[int(0.6 * K)], snaps[-1]
        sd_end = float(end.std(axis=0).mean()) + 1e-12
        drift_ratio = float(np.linalg.norm(end.mean(axis=0) - mid.mean(axis=0))) / sd_end
        spread_ratio = sd_end / (float(mid.std(axis=0).mean()) + 1e-12)
        settled = not (drift_ratio > 0.5 or spread_ratio > 1.25)
    if not settled:
        return RateEstimate(None, times, np.full(K, np.nan), math.nan, None,
                            flag="ensemble not stationary by the horizon "
                                 "(transient configuration or horizon too short)")
    kref = max(2, int(math.ceil(RATE_REF_FRACTION * K)))
    ref = snaps[-kref:].reshape(-1, m)

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
