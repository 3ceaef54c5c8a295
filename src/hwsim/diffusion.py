"""Euler-Maruyama simulation of the controlled piecewise-linear diffusion.

Every replica draws its noise from its own RNG substream, spawned from the
seed, so runs are bit-reproducible and replicas can be merged in any order.
Time averages are accumulated exactly (step-weighted) after burn-in; thinned
samples feed histogram and tail queries.

``simulate_policies`` steps the replicas of several controls in lockstep, as
the rows of one state array.  The replicas of control i are spawned from
seed + i, so each control's run equals a run of that control alone bit for
bit.  The step loop does only the state update, with the drift written
into preallocated buffers in the order of the drift expression, and makes
no array: every view it reads or writes is made once per run.  The class
sum is added column by column, and the abandonment term is left out when
no class abandons, where it is an exact +0.0.  The states of each block of
steps are kept.  The blow-up guard is checked every few steps on the states
just stepped: at the first step that trips a replica the state is reset to
that step and the steps after it are taken again with the replica frozen,
on the noise already drawn, so the paths equal a per-step guard bit for
bit.  The moment integrals are folded from the block in time order, one
step's terms after the other, so they equal per-step addition bit for bit.
Once every replica has tripped the guard the loop stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .measures import EmpiricalMeasure, TailFit, fit_tail, moment_names
from .model import PAIRWISE_CLASSES, DiffusionSpec, project_simplex, row_sum


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
        self.table = project_simplex(table)
        # the cell of x_d is the number of interior edges below it, which
        # puts points outside the grid (and NaN) in the outer cells
        self._inner = [e[1:-1] for e in self.edges]

    def controls(self, x: np.ndarray) -> np.ndarray:
        return self.table[tuple([e.searchsorted(x[..., d]) for d, e in enumerate(self._inner)])]

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
# (G * R, B, m) noise buffers then keep one control's byte size, 64 KB each at
# 16 replicas and m = 2, under glibc's 128 KB mmap threshold.  Past it the
# buffers are mapped afresh and the peak RSS of repeated runs creeps up
# (~0.4 MB for one control at 512 steps, ~1.2 MB for three at 256) while the
# step cost stays the same.
_BLOCK = 256

# Steps per check of the blow-up guard.  The check costs the same per step at
# any interval.  The interval bounds how far a tripped replica is stepped on
# past the guard before the check finds it: at most _GUARD - 1 steps, which
# are then taken again with the replica frozen.  An Euler step that grows the
# state by a factor c thus takes it to at most c ** _GUARD times the guard,
# finite for c up to ~1e19.
_GUARD = 16


@dataclass(frozen=True)
class SimConfig:
    horizon: float = 200.0
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
        if not np.all(np.isfinite(self.x0)):
            raise ValueError(f"x0 must be finite, got {self.x0}")

    def step_counts(self) -> tuple[int, int, int]:
        """Euler-Maruyama steps in all, in burn-in and per thinning: a run samples
        the state after each step k with burn-in < k <= all that thinning divides."""
        h = self.step
        return (int(round(self.horizon / h)), int(round(self.burn_in / h)),
                max(1, int(round(self.thin / h))))


@dataclass
class DiffusionRun:
    measure: EmpiricalMeasure
    tripped: np.ndarray                   # (R,) bool, blow-up guard fired
    terminal: np.ndarray                  # (R, m) state at end or at trip


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
    l1 = row_sum(np.abs(xs))
    s = row_sum(xs)
    w = alive * h
    values = [l1, np.maximum(-s, 0.0), s] + [xs[:, :, i] for i in range(xs.shape[2])]
    for name, v in zip(moment_names(xs.shape[2]), values):
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

    Each step only updates the state.  States are kept for a block of steps,
    and the guard is checked on each _GUARD rows of the block once they are
    stepped.  If row jt trips a replica, the replica is dead from row jt on,
    and the rows after jt are stepped again from the state of row jt with
    the tripped replicas frozen; the block's noise is already drawn, so the
    states equal those of a per-step guard exactly.  (A control sees the
    state of a tripped replica for up to _GUARD - 1 steps past its trip
    before the re-step.)  The moment integrals, live time and thinned
    samples are then taken from the block, the integrals folded in time
    order so that they equal per-step addition bit for bit.  The samples of
    a block are its thinning steps past burn-in in step order, each step's
    live replicas in replica order.

    Three rules keep the cost of a step down to its ufunc calls:

    - A step makes no array.  The views of each block row (its state, its
      noise, the state's columns and its rows of each varying control) are
      made once per run, and the state between blocks is kept in one buffer
      with views of its own.
    - For m < PAIRWISE_CLASSES the class sum is added straight into pos,
      +0.0 first and then each column: ``row_sum``'s order, so its bits.
      From m = 8 on ``row_sum`` (numpy's pairwise sum) still gives it.
    - When every gamma_i is +0.0 the term pos gamma u is left out, with the
      same bits.  pos is +0.0 or positive (np.maximum(-0.0, +0.0) is +0.0)
      and u >= +0.0 (``project_simplex`` clips -0.0 to +0.0), so for a
      finite pos the term is exactly +0.0, and b - (+0.0) = b for every b,
      -0.0 and NaN included.  Every step whose result is kept starts from a
      finite state: x0 is finite, and a step from a finite state gives no
      NaN, only an infinity that trips any finite guard.  Only with
      cfg.blowup = inf can a path that has overflowed differ (NaN with the
      term, +-inf without it).  A gamma_i of -0.0 keeps the term, which
      would be -0.0 and turn a drift of -0.0 into +0.0.
    """
    m = dspec.m
    h = cfg.step
    n_steps, burn_step, thin_every = cfg.step_counts()
    G, R = len(policies), cfg.replicas
    N = G * R
    groups = [slice(g * R, (g + 1) * R) for g in range(G)]

    gens = [np.random.default_rng(s) for g in range(G)
            for s in np.random.SeedSequence(cfg.seed + g).spawn(R)]
    x0 = np.asarray(cfg.x0, dtype=float) * np.ones(m)
    alive = np.ones(N, dtype=bool)

    base = -(dspec.varrho / m) * dspec.mu
    sqh_sigma = math.sqrt(h) * dspec.sigma_diag
    u = np.empty((N, m))                   # the controls, one row per replica
    varying = []                           # the rows of the other controls
    controls = []                          # (control, its rows of u)
    for grp, pol in zip(groups, policies):
        if isinstance(pol, ConstantControl):
            u[grp] = pol.u
        else:
            varying.append(grp)
            controls.append((pol, u[grp]))
    integrals = {k: np.zeros(N) for k in moment_names(m)}
    live_time = np.zeros(N)
    sample_rows = [[] for _ in groups]     # per control, one array per block

    block = min(max(_BLOCK // G, 1), n_steps)
    xs = np.empty((block, N, m))           # the block's states, one row per step
    alive_rows = np.empty((block, N), dtype=bool)
    noise = np.empty((N, block, m))        # the block's increments, per replica
    # the drift's operands, h included, and work buffers at the state's shape:
    # same-shape ufuncs into preallocated buffers give the broadcast expression's
    # values, at about half the cost of a broadcast or Python-float operand
    mu, gamma, base, hs = (np.tile(v, (N, 1)) for v in (dspec.mu, dspec.gamma, base,
                                                        np.full(m, h)))
    pos_row, zero_row = np.empty(N), np.zeros(N)
    pos, tmp, b = pos_row[:, None], np.empty((N, m)), np.empty((N, m))
    column_sum = m < PAIRWISE_CLASSES
    # pos gamma u is +0.0 when every gamma_i is +0.0 (see the docstring)
    abandonment = bool(np.any(dspec.gamma) or np.any(np.signbit(dspec.gamma)))

    def views(state):
        """The state, its first column, its other columns and its rows of
        each varying control."""
        cols = [state[:, i] for i in range(m)]
        return state, cols[0], cols[1:], [state[grp] for grp in varying]

    row_views = [views(xs[j]) for j in range(block)]
    noise_rows = [noise[:, j] for j in range(block)]
    carry = views(np.tile(x0, (N, 1)))     # the state between blocks
    state = carry                          # the views of the current state
    frozen = None                          # (N, 1) mask of tripped replicas
    # the step's ufuncs as locals: looking them up on np costs ~7% of a step
    # at 48 replicas and m = 2
    add, subtract, multiply, maximum = np.add, np.subtract, np.multiply, np.maximum
    # |x| and ||x||_1 of the rows the guard checks
    n_guard = min(_GUARD, block)
    guard_abs, guard_l1 = np.empty((n_guard, N, m)), np.empty((n_guard, N))
    k = 0                                  # steps done
    while k < n_steps and alive.any():
        ksz = min(block, n_steps - k)
        for r, gen in enumerate(gens):
            gen.standard_normal(out=noise[r, :ksz])
        noise[:, :ksz] *= sqh_sigma
        alive_rows[:ksz] = alive
        done = 0                           # rows of the block stepped and checked
        while done < ksz:
            end = min(done + _GUARD, ksz)
            for j in range(done, end):
                X, col0, cols, x_varying = state
                for (pol, u_rows), x_rows in zip(controls, x_varying):
                    u_rows[...] = pol.controls(x_rows)
                # xs[j] = X + (base - mu (X - pos u) - pos gamma u) h + noise[j],
                # in that order; replicas that have tripped keep X
                if column_sum:
                    add(col0, zero_row, out=pos_row)
                    for col in cols:
                        add(pos_row, col, out=pos_row)
                else:
                    row_sum(X, out=pos_row)
                maximum(pos_row, zero_row, out=pos_row)
                multiply(pos, u, out=tmp)
                subtract(X, tmp, out=tmp)
                multiply(mu, tmp, out=tmp)
                subtract(base, tmp, out=b)
                if abandonment:
                    multiply(pos, gamma, out=tmp)
                    multiply(tmp, u, out=tmp)
                    subtract(b, tmp, out=b)
                multiply(b, hs, out=b)
                state = row_views[j]
                Y = state[0]
                add(X, b, out=Y)
                add(Y, noise_rows[j], out=Y)
                if frozen is not None:
                    np.copyto(Y, X, where=frozen)
            # the guard on the rows just stepped: at the first row jt that trips
            # a replica, the replica is dead from jt on, and the rows after jt
            # are stepped again from xs[jt]
            n_chk = end - done
            np.abs(xs[done:end], out=guard_abs[:n_chk])
            over = (row_sum(guard_abs[:n_chk], out=guard_l1[:n_chk]) > cfg.blowup) & alive
            if over.any():
                jt = done + int(over.any(axis=1).argmax())
                alive = alive & ~over[jt - done]
                alive_rows[jt:ksz] = alive
                frozen = ~alive[:, None]
                state = row_views[jt]
                end = jt + 1
            done = end
            if not alive.any():
                break
        np.copyto(carry[0], state[0])      # xs is overwritten by the next block
        state = carry
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
            replica_time=live_time[grp],
            replica_integrals={name: v[grp] for name, v in integrals.items()},
        )
        yield DiffusionRun(
            measure=measure,
            tripped=~alive[grp],
            terminal=carry[0][grp],
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
    return fit_tail(measure.tail_values(), form)
