"""Exact event-driven simulation of the n-server systems and prelimit checks.

The arrival input (``ArrivalSpec``) is one unit-mean interarrival law per
class, each with the numpy-only sampler and closed-form bounds that the
prelimit certificate reads.  Poisson input is derived, not declared: it is
the case where every law is exponential (``is_poisson``), and it decides
only what differs in the process: the event loop's clock, and which
prelimit checks apply and how they report (``prelimit_groups``).

One event loop (``_run_queue_replica``) serves both inputs under every
scheduling policy, a map of the state (``SchedulingPolicy``); the replicas
run on the CPUs the process may use (``_run_replicas``).  The same module
evaluates the exact finite-difference generators on Lyapunov functions and
certifies the prelimit Foster-Lyapunov bounds (``verify_prelimit_foster``)
with the reports of ``verify``, each sampled state at the greedy allocation
that maximizes its drift (``_greedy_allocations``).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lyapunov as lyap
from . import workers
from .measures import EmpiricalMeasure, moment_names
from .model import (DiffusionSpec, PrelimitParams, SystemParams, allocation_to_control,
                    prelimit_params, project_simplex, row_sum, scale_state, unscale_state)
from .verify import (PreconditionError, Region, SamplerConfig, VerificationReport,
                     decay_report, fitted_slope, sample_states, slope_report)


# ---------------------------------------------------------------------------
# interarrival distribution families (unit mean)
# ---------------------------------------------------------------------------

class Exponential:
    scv = 1.0

    def sample(self, rng, size=None):
        return rng.exponential(1.0, size=size)

    def hazard(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    mrl = hazard                                # both are 1 at every age

    def sup_hazard(self):
        return 1.0

    def sup_abs_one_minus_mrl(self):
        return 0.0


class HyperExp2:
    """Unit-mean hyperexponential of two balanced phases (p / r1 = (1 - p) / r2),
    from its SCV > 1 (decreasing hazard)."""

    def __init__(self, scv: float):
        if not 1.0 < scv < math.inf:
            raise ValueError(f"hyperexponential requires 1 < SCV < inf, got {scv}")
        p = 0.5 * (1.0 + math.sqrt((scv - 1.0) / (scv + 1.0)))
        self.p, self.r1, self.r2 = p, 2.0 * p, 2.0 * (1.0 - p)
        self.scv = 2 * (p / self.r1**2 + (1 - p) / self.r2**2) - 1.0

    def sample(self, rng, size=None):
        u = rng.random(size)
        rate = np.where(u < self.p, self.r1, self.r2)
        return rng.exponential(1.0, size=size) / rate

    def _log_surv(self, t):
        t = np.asarray(t, dtype=float)
        return np.logaddexp(math.log(self.p) - self.r1 * t,
                            math.log(1 - self.p) - self.r2 * t)

    def hazard(self, t):
        t = np.asarray(t, dtype=float)
        log_f = np.logaddexp(math.log(self.p * self.r1) - self.r1 * t,
                             math.log((1 - self.p) * self.r2) - self.r2 * t)
        return np.exp(log_f - self._log_surv(t))

    def mrl(self, t):
        t = np.asarray(t, dtype=float)
        log_num = np.logaddexp(math.log(self.p / self.r1) - self.r1 * t,
                               math.log((1 - self.p) / self.r2) - self.r2 * t)
        return np.exp(log_num - self._log_surv(t))

    def sup_hazard(self):
        return self.p * self.r1 + (1 - self.p) * self.r2  # decreasing hazard

    def sup_abs_one_minus_mrl(self):
        return 1.0 / min(self.r1, self.r2) - 1.0  # mrl increases from 1


class Erlang:
    """Erlang(k) with stage rate k (unit mean, SCV = 1/k, increasing hazard)."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("shape must be >= 1")
        self.k = int(k)
        self.scv = 1.0 / k
        # log i!, i < k: correctly rounded logs of exact integers
        self._log_fact = np.array([math.log(math.factorial(i)) for i in range(self.k)])

    def sample(self, rng, size=None):
        return rng.gamma(self.k, 1.0 / self.k, size=size)

    def _stage_weights(self, t):
        # normalized (kt)^i / i!, i < k, computed in log scale
        t = np.atleast_1d(np.asarray(t, dtype=float))
        i = np.arange(self.k)
        kt = np.maximum(self.k * t, 1e-300)
        logp = i * np.log(kt)[..., None] - self._log_fact
        logp -= logp.max(axis=-1, keepdims=True)
        p = np.exp(logp)
        return p / p.sum(axis=-1, keepdims=True)

    def hazard(self, t):
        w = self._stage_weights(t)
        out = self.k * w[..., -1]
        return out.reshape(np.shape(t)) if np.shape(t) else float(out[0])

    def mrl(self, t):
        w = self._stage_weights(t)
        i = np.arange(self.k)
        out = np.sum((self.k - i) * w, axis=-1) / self.k
        return out.reshape(np.shape(t)) if np.shape(t) else float(out[0])

    def sup_hazard(self):
        return float(self.k)  # increasing hazard, limit k

    def sup_abs_one_minus_mrl(self):
        return 1.0 - 1.0 / self.k  # mrl decreases from 1 to 1/k


class LogNormal:
    """Unit-mean lognormal.  Its hazard is bounded (sup ~ 1.36 at SCV 1) but its
    mean residual life is not, so no eps keeps the sandwich of ``eps_tilde0``:
    no certification mode accepts it, and it is simulated only."""

    def __init__(self, scv: float):
        if not 0.0 < scv < math.inf:
            raise ValueError(f"lognormal requires 0 < SCV < inf, got {scv}")
        self.sigma = sigma = math.sqrt(math.log1p(scv))
        self.mu_ln, self.scv = -0.5 * sigma * sigma, math.expm1(sigma * sigma)

    def sample(self, rng, size=None):
        return rng.lognormal(self.mu_ln, self.sigma, size=size)

    def sup_abs_one_minus_mrl(self):
        return None


@dataclass(frozen=True)
class ArrivalSpec:
    dists: tuple                              # one unit-mean interarrival law per class

    @classmethod
    def poisson(cls, m: int) -> "ArrivalSpec":
        return cls((Exponential(),) * m)

    @property
    def is_poisson(self) -> bool:
        """Poisson input: every interarrival law is exponential."""
        return all(isinstance(d, Exponential) for d in self.dists)

    @property
    def m(self) -> int:
        return len(self.dists)

    @property
    def scv(self) -> np.ndarray:
        return np.array([d.scv for d in self.dists])

    def missing_bound(self) -> str:
        """The bound some law lacks that the renewal certificate needs, "" when
        every law bounds |1 - mean residual life| (each such law also bounds
        its hazard)."""
        if any(d.sup_abs_one_minus_mrl() is None for d in self.dists):
            return "unbounded mean residual life"
        return ""


# ---------------------------------------------------------------------------
# work-conserving scheduling policies
# ---------------------------------------------------------------------------

def validate_allocation(x, z, n: int) -> None:
    """Raise unless z is a work-conserving allocation of n servers at state x."""
    if len(z) != len(x) or any(not 0 <= zi <= xi for xi, zi in zip(x, z)):
        raise ValueError(f"allocation out of bounds: x={list(x)}, z={list(z)}")
    if sum(z) != min(n, sum(x)):
        raise ValueError(f"allocation not work-conserving: x={list(x)}, z={list(z)}, n={n}")


def _greedy_list(x, n: int, order) -> list:
    z = [0] * len(x)
    rem = min(n, sum(x))
    for i in order:
        take = x[i] if x[i] < rem else rem
        z[i] = take
        rem -= take
        if rem == 0:
            break
    return z


def _water_fill(x, Q: int, u) -> list:
    """Real queue vector q_i = min(x_i, u_i L) at the level L where it sums
    to Q, saturating classes in increasing x_i / u_i."""
    m = len(x)
    q = [0.0] * m
    items = sorted((x[i] / u[i], i) for i in range(m) if u[i] > 0)
    w = sum(u[i] for _, i in items)
    sat = 0.0
    level = math.inf
    for ratio, i in items:
        if w > 0 and sat + ratio * w >= Q:
            level = (Q - sat) / w
            break
        sat += x[i]
        w -= u[i]
    for i in range(m):
        if u[i] > 0:
            q[i] = min(x[i], u[i] * level) if level < math.inf else x[i]
    return q


def _positive_sum(u) -> float:
    """The sum of the positive u_i, in index order."""
    w = 0
    for ui in u:
        if ui > 0:
            w += ui
    return w


def _apportion_list(x, n: int, u, w=None) -> list:
    """The allocation z = x - q, q the integer queue splitting (sum x - n)^+
    proportionally to u with q_i <= x_i (exact water-filling, then largest-
    remainder rounding, which takes the rest from z); the level needs no sort
    when no class saturates.  w is ``_positive_sum(u)``, summed here if not
    given."""
    m = len(x)
    Q = sum(x) - n
    if Q <= 0:
        return list(x)
    if w is None:
        w = _positive_sum(u)
    level = Q / w if w > 0 else math.inf
    q = []
    for xi, ui in zip(x, u):
        if ui <= 0:
            q.append(0.0)
        elif xi / ui * w >= Q:             # class i is not saturated at level
            q.append(min(xi, ui * level))
        else:
            q = _water_fill(x, Q, u)
            break
    short = Q - sum(q)
    if short > 1e-9:  # weighted classes saturated; spill by index
        for i in range(m):
            add = min(x[i] - q[i], short)
            q[i] += add
            short -= add
            if short <= 1e-9:
                break
    # z_i = x_i - min(floor(q_i), x_i); the rounding then serves one fewer of
    # the class with z_i > 0 and the largest remainder q_i - (x_i - z_i)
    z = [xi - min(int(qi), xi) for xi, qi in zip(x, q)]
    rem = sum(z) - n
    while rem > 0:
        best, best_frac = -1, -1.0
        for i in range(m):
            if z[i] > 0 and q[i] - (x[i] - z[i]) > best_frac:
                best, best_frac = i, q[i] - (x[i] - z[i])
        z[best] -= 1
        rem -= 1
    return z


class SchedulingPolicy:
    """Base: a stationary Markov map (x, n) -> z in Z^n(x), on int lists
    (the event loop's state).  The event loop asks a policy only when
    sum(x) > n: otherwise Z^n(x) = {x} and there is no choice to make."""

    def allocate_list(self, x: list, n: int) -> list:
        raise NotImplementedError

    def allocator(self, m: int, n: int, rng):
        """The map x -> z of one replica's event loop, drawing any
        randomness from that replica's rng."""
        allocate_list = self.allocate_list
        return lambda x: allocate_list(x, n)

    def describe(self) -> str:
        return type(self).__name__


class StaticPriorityPolicy(SchedulingPolicy):
    """Serve classes in fixed priority order; queue piles up at the tail class."""

    def __init__(self, order):
        self.order = tuple(int(i) for i in order)
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("order must be a permutation of 0..m-1")

    def allocate_list(self, x, n):
        return _greedy_list(x, n, self.order)

    def describe(self):
        return f"static_priority[{','.join(map(str, self.order))}]"


class LongestQueueFirstPolicy(SchedulingPolicy):
    """Serve the classes with the largest head counts first (ties by index)."""

    def allocate_list(self, x, n):
        order = sorted(range(len(x)), key=x.__getitem__, reverse=True)   # stable: ties by index
        return _greedy_list(x, n, order)

    def describe(self):
        return "longest_queue_first"


class RandomWorkConservingPolicy(SchedulingPolicy):
    """Greedy fill along a freshly drawn priority permutation at each
    decision, that is, at each event with a queue."""

    def allocator(self, m, n, rng):
        orders = _blocks(lambda k: np.argsort(rng.random((k, m)), axis=1))
        return lambda x: _greedy_list(x, n, next(orders))

    def describe(self):
        return "random_work_conserving"


class ProportionalSplitPolicy(SchedulingPolicy):
    """Keep queue shares close to a fixed simplex vector u (the prelimit
    mirror of a constant diffusion control)."""

    def __init__(self, u):
        self.u = list(map(float, project_simplex(u)))
        self.w = _positive_sum(self.u)

    def allocate_list(self, x, n):
        return _apportion_list(x, n, self.u, self.w)

    def describe(self):
        return f"proportional_split[{','.join(f'{v:g}' for v in self.u)}]"


class FunctionPolicy(SchedulingPolicy):
    """User map fn(x, n) -> z, which must depend on (x, n) alone.  Like
    every policy it is asked only when sum(x) > n, in whichever worker runs
    the replica; each allocation it returns is checked to be work-conserving
    (``validate_allocation``)."""

    def __init__(self, fn, name="user"):
        self.fn = fn
        self.name = name

    def allocate_list(self, x, n):
        z = [int(v) for v in self.fn(np.asarray(x, dtype=np.int64), n)]
        validate_allocation(x, z, n)
        return z

    def describe(self):
        return f"user[{self.name}]"


# ---------------------------------------------------------------------------
# event-driven simulation
# ---------------------------------------------------------------------------

def _lattice_state(xhat, p: PrelimitParams) -> np.ndarray:
    """The lattice state (int64, clipped at 0) nearest each unscaled row of xhat."""
    return np.maximum(np.rint(unscale_state(xhat, p)), 0.0).astype(np.int64)


# Variates per numpy call in the event loop (clock draws, renewal interarrival
# times, random priority orders), drawn from each replica's own generator.
_BLOCK = 256


@dataclass
class QueueRun:
    measure: EmpiricalMeasure               # equal-weight states every cfg.thin past burn-in
    tripped: np.ndarray
    terminal: np.ndarray                    # (R, m) raw integer states
    event_counts: np.ndarray                # (R, 3, m): arrivals, services, abandonments


def _blocks(draw):
    """Endless rows of draw(_BLOCK): one numpy call per _BLOCK variates, each
    block drawn when the last one runs out."""
    return itertools.chain.from_iterable(
        map(np.ndarray.tolist, map(draw, itertools.repeat(_BLOCK))))


def _run_queue_replica(p, arr, pol, cfg, rng):
    """One replica of the event loop; renewal and Poisson input share it.

    Plain Python floats and ints, with variates drawn in blocks: at a few
    classes numpy's per-call cost would dominate.  An event rescales only the
    coordinate it changed; the l1 norm and sum of xhat follow from its old and
    new values (an O(1) blow-up guard) and its integral is settled then.  The
    death rates follow the same rule between two states with no queue: there
    mu_i x_i is the same double as mu_i z_i + gamma_i (x_i - z_i) at z = x.
    A running total of x tells when there is no queue; the policy is then
    not asked, as z = x.

    Each rule below keeps the per-event work small and every output bit:
    - a clock block is two calls, _BLOCK standard exponentials and then
      _BLOCK uniforms, made when the last block runs out, and the loop
      takes its (e, u) pairs from the two lists in order: the generator
      gives the same variates at the same points between the renewal and
      random-order blocks (``_blocks``, which also draws a block only when
      the last one is used up);
    - |xhat_i| is kept in a list, so an event calls ``abs`` once, on the new
      value: the old one is the double ``abs`` gave when it was stored;
    - when every gamma_i is 0 the death rates at a queue are mu_i z_i:
      mu_i z_i >= +0.0, gamma_i (x_i - z_i) is a zero as x_i - z_i >= 0,
      and adding a zero to a double that is at least +0.0 returns it.
    """
    m, n = p.m, p.n
    lam, mu, gam = p.lambda_n.tolist(), p.mu_n.tolist(), p.gamma_n.tolist()
    center, inv_rt, shift = p.fluid_center.tolist(), 1.0 / math.sqrt(n), p.varrho_n / m
    T, T0, thin, blowup = cfg.horizon, cfg.burn_in, cfg.thin, cfg.blowup
    allocate = pol.allocator(m, n, rng)
    poisson = arr.is_poisson
    abandon = any(gam)
    lam_cum = list(itertools.accumulate(lam))
    lam_sum = lam_cum[-1]                      # one total: r < lam_sum keeps bisect < m
    bisect_right = bisect.bisect_right
    gaps = [] if poisson else [_blocks(functools.partial(d.sample, rng)) for d in arr.dists]
    next_arr = [next(g) / rate for g, rate in zip(gaps, lam)]
    x = _lattice_state(np.asarray(cfg.x0, dtype=float) * np.ones(m), p).tolist()
    xhat = [(x[i] - center[i]) * inv_rt - shift for i in range(m)]
    xabs = [abs(v) for v in xhat]
    l1, ssum = sum(xabs), sum(xhat)
    # time integrals past burn-in; coordinate i is integrated up to settled[i]
    int_l1 = int_neg = int_sum = 0.0
    int_coord, settled = [0.0] * m, [T0] * m
    counts = [[0] * m for _ in range(3)]       # arrivals, services, abandonments
    arrived, served, abandoned = counts
    samples = []
    t, next_thin, stop = 0.0, T0, T            # stop < T: the blow-up guard tripped

    clock = itertools.chain.from_iterable(
        zip(rng.standard_exponential(_BLOCK).tolist(), rng.random(_BLOCK).tolist())
        for _ in itertools.repeat(None))
    x_sum = sum(x)
    free = False                               # death holds mu * x of the last state
    for e, u in clock:
        if x_sum <= n and free:                # no queue now or before: only class i moved
            death[i] = mu[i] * x[i]
        else:
            free = x_sum <= n
            z = x if free else allocate(x)
            if abandon:
                death = [mu[k] * z[k] + gam[k] * (x[k] - z[k]) for k in range(m)]
            else:
                death = [mu[k] * z[k] for k in range(m)]
        death_sum = sum(death)
        if poisson:
            total = lam_sum + death_sum
            t_event = t + e / total
            r = u * total
            arrival = r < lam_sum
        else:
            t_arr = min(next_arr)
            t_event = t + e / death_sum if death_sum > 0.0 else math.inf
            arrival = t_arr <= t_event
            if arrival:
                t_event = t_arr
        # accumulate the constant segment [t, seg_end] past burn-in
        seg_end = t_event if t_event < T else T
        if seg_end > T0:
            w = seg_end - (t if t > T0 else T0)
            int_l1 += w * l1
            int_sum += w * ssum
            if ssum < 0.0:
                int_neg -= w * ssum
            while next_thin <= seg_end:
                samples.append(xhat.copy())
                next_thin += thin
        if t_event >= T:
            break
        # resolve the event
        if arrival:
            if poisson:
                i = bisect_right(lam_cum, r)
            else:
                i = next_arr.index(t_arr)
                next_arr[i] = t_event + next(gaps[i]) / lam[i]
            x[i] += 1
            x_sum += 1
            arrived[i] += 1
        else:
            r = r - lam_sum if poisson else u * death_sum
            for i in range(m):
                if r < death[i]:
                    break
                r -= death[i]
            else:  # rounding carried r past the last rate
                i = max(k for k in range(m) if death[k] > 0.0)
                r = 0.0
            # within a class: service completion first, then abandonment
            if r < mu[i] * z[i]:
                served[i] += 1
            else:
                abandoned[i] += 1
            x[i] -= 1
            x_sum -= 1
        t = t_event
        old = xhat[i]
        if t > T0:
            int_coord[i] += (t - settled[i]) * old
            settled[i] = t
        xhat[i] = new = (x[i] - center[i]) * inv_rt - shift
        ssum += new - old
        a = abs(new)
        l1 += a - xabs[i]
        xabs[i] = a
        if l1 > blowup:
            stop = t
            break

    for k in range(m):
        int_coord[k] += max(stop - settled[k], 0.0) * xhat[k]
    integrals = dict(zip(moment_names(m), [int_l1, int_neg, int_sum, *int_coord]))
    return {"integrals": integrals, "live": max(stop - T0, 0.0), "samples": samples,
            "counts": counts, "tripped": stop < T, "terminal": x}


def _run_replicas(p, arr, pol, cfg, gens) -> list:
    """``_run_queue_replica`` of each generator, in order: the generators are
    split into contiguous slices, one per worker, and the slices run as
    ``workers.run_jobs`` jobs, so the results do not depend on the worker
    count."""
    def run(part):
        return [_run_queue_replica(p, arr, pol, cfg, g) for g in part]

    k = workers._worker_count(len(gens))
    cuts = [len(gens) * i // k for i in range(k + 1)]
    parts = workers.run_jobs([functools.partial(run, gens[a:b]) for a, b in zip(cuts, cuts[1:])])
    return [rep for part in parts for rep in part]


def simulate_renewal(p: PrelimitParams, arr: ArrivalSpec, pol, cfg) -> QueueRun:
    """Event-driven simulation of any arrival input: each class's next arrival
    is scheduled from its interarrival law, or on Poisson input (every law
    exponential) drawn from competing exponential clocks, as in ``simulate_ctmc``.

    Each replica draws only from its own generator, spawned from ``cfg.seed``,
    and the replicas run on the CPUs this process may use (``_run_replicas``;
    ``taskset`` limits them): the run does not depend on the worker count.
    The policy, ``FunctionPolicy`` included, is asked only when sum(x) > n,
    in whichever worker runs the replica."""
    gens = [np.random.default_rng(s)
            for s in np.random.SeedSequence(cfg.seed).spawn(cfg.replicas)]
    reps = _run_replicas(p, arr, pol, cfg, gens)

    def stack(key):
        return np.array([r[key] for r in reps])

    samples = np.array([row for r in reps for row in r["samples"]],
                       dtype=float).reshape(-1, p.m)
    measure = EmpiricalMeasure(
        samples=samples,
        replica_time=stack("live"),
        replica_integrals={k: np.array([r["integrals"][k] for r in reps])
                           for k in reps[0]["integrals"]},
    )
    return QueueRun(
        measure=measure,
        tripped=stack("tripped"),
        terminal=stack("terminal").astype(np.int64),
        event_counts=stack("counts").astype(float),
    )


def simulate_ctmc(p: PrelimitParams, pol, cfg) -> QueueRun:
    """Exact CTMC simulation with Poisson arrivals."""
    return simulate_renewal(p, ArrivalSpec.poisson(p.m), pol, cfg)


# ---------------------------------------------------------------------------
# exact generators
# ---------------------------------------------------------------------------

def _neighbours(spec: lyap.LyapunovSpec, p: PrelimitParams, states):
    """log V(x) at a lattice state or each of a stack, V(x) = V(xhat(x)), and
    the memo ratio(*d) = V(x + d) / V(x) of an integer shift d, which
    evaluates V once per distinct shift (1 at d = 0)."""
    x = np.asarray(states, dtype=float)
    base = lyap.log_value(spec, scale_state(x, p))

    @functools.cache
    def ratio(*d):
        if not any(d):
            return np.ones_like(base)
        return np.exp(lyap.log_value(spec, scale_state(x + d, p)) - base)

    return base, ratio


def ctmc_generator_ratio(spec: lyap.LyapunovSpec, x, z, p: PrelimitParams) -> np.ndarray:
    """A^n_z V(xhat(x)) / V(xhat(x)) via exact finite differences (Poisson
    input): the Poisson case of ``RenewalLyapunov.pair_terms``."""
    x = np.asarray(x, dtype=float)
    poisson = RenewalLyapunov(p, ArrivalSpec.poisson(p.m), spec)
    arrivals, dn, _, _ = poisson.pair_terms(x, np.zeros(x.shape))
    return arrivals + row_sum((p.mu_n * z + p.gamma_n * (x - z)) * dn)


def prelimit_generator_apply(f, x, s, z, p: PrelimitParams, arr: ArrivalSpec):
    """Exact extended generator applied to a lifted function at (x, s) under
    allocation z.

    On Poisson input (every law exponential) f is a state function f(x);
    otherwise it has methods value(x, s) and ds_sum(x, s), the latter
    supplying the analytic age-derivative term (RenewalLyapunov), and every
    interarrival law must bound its hazard and mean residual life.
    """
    x = np.asarray(x, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    death = p.mu_n * z + p.gamma_n * (x - z)
    m, eye = p.m, np.eye(p.m, dtype=np.int64)
    if arr.is_poisson:
        val = f(x)
        up = np.array([f(x + eye[i]) for i in range(m)])
        dn = np.array([f(x - eye[i]) for i in range(m)])
        return float(np.sum(p.lambda_n * (up - val)) + np.sum(death * (dn - val)))
    if missing := arr.missing_bound():
        raise PreconditionError(f"{missing}: renewal generator unavailable")
    s = np.asarray(s, dtype=float)
    val = f.value(x, s)
    out = f.ds_sum(x, s)
    for i in range(m):
        r_i = float(p.lambda_n[i] * arr.dists[i].hazard(p.lambda_n[i] * s[i]))
        out += r_i * (f.value(x + eye[i], s * (1 - eye[i])) - val)     # s_i reset to 0
    for i in range(m):
        out += death[i] * (f.value(x - eye[i], s) - val)
    return float(out)


def eps_tilde0(p: PrelimitParams, arr: ArrivalSpec, theta: float) -> float:
    """Largest eps keeping the age-correction term below V/2 (first-order bound,
    uniform over n and ages); inf on Poisson input, where every mrl is 1."""
    sups = [d.sup_abs_one_minus_mrl() for d in arr.dists]
    if any(v is None for v in sups):
        raise PreconditionError("unbounded mean residual life: sandwich bound unavailable")
    denom = (1.0 + theta) * float(np.sum(np.asarray(sups) / p.mu_n))
    return math.inf if denom == 0 else 0.5 / denom


class RenewalLyapunov:
    """Age-augmented Lyapunov function on lattice states,

        V~(x, s) = V(x) + sum_{j aged} (1 - zeta^n_j(s_j)) (V(x + e_j) - V(x)),

    V(x) = V(xhat(x)) and zeta^n_j(s) the mean residual life at scaled age.
    The aged classes are those whose law is not exponential: an exponential
    law has zeta^n = 1, so on Poisson input no class is aged and V~ = V.
    Every value comes from the ratios V(x + d) / V(x) of ``_neighbours``.
    Where ``eps_tilde0`` is finite, requires eps at most it, small enough
    that 1/2 V <= value <= 3/2 V (to first order)."""

    def __init__(self, p: PrelimitParams, arr: ArrivalSpec, spec: lyap.LyapunovSpec):
        self.p, self.arr, self.spec = p, arr, spec
        self.aged = [j for j, d in enumerate(arr.dists) if not isinstance(d, Exponential)]
        self.eye = np.eye(p.m, dtype=np.int64)
        bound = eps_tilde0(p, arr, spec.theta)
        if math.isfinite(bound) and spec.epsilon > bound:
            raise ValueError(f"epsilon {spec.epsilon} too large for the sandwich bound {bound}")

    def hazard_n(self, s) -> np.ndarray:
        """r^n_i(s_i) = lambda^n_i h_i(lambda^n_i s_i) for each class i, on the last axis."""
        s, lam = np.asarray(s, dtype=float), self.p.lambda_n
        return lam * np.stack([np.asarray(d.hazard(lam[i] * s[..., i]))
                               for i, d in enumerate(self.arr.dists)], axis=-1)

    def _lift(self, ratio, weights, d) -> np.ndarray:
        """V~(x + d, s) / V(x) at an integer shift d, weights[j] = 1 - zeta^n_j(s_j)."""
        out = ratio(*d)
        for j, w in weights.items():
            out = out + w * (ratio(*(d + self.eye[j])) - ratio(*d))
        return out

    def _terms(self, x, s):
        """log V(x), the ratio memo, 1 - zeta^n(s) of each aged class, r^n(s)
        and the age derivative of V~ over V (d zeta^n/ds = r^n zeta^n - lambda^n)."""
        log_v, ratio = _neighbours(self.spec, self.p, x)
        s, lam = np.asarray(s, dtype=float), self.p.lambda_n
        zeta = {j: self.arr.dists[j].mrl(lam[j] * s[..., j]) for j in self.aged}
        hazard = self.hazard_n(s)
        age = sum(-(hazard[..., j] * z - lam[j]) * (ratio(*self.eye[j]) - 1.0)
                  for j, z in zeta.items())
        return log_v, ratio, {j: 1.0 - z for j, z in zeta.items()}, hazard, age

    def value(self, x, s):
        """V~(x, s) at a lattice state or each of a stack."""
        log_v, ratio, weights, _, _ = self._terms(x, s)
        return np.exp(log_v) * self._lift(ratio, weights, 0 * self.eye[0])

    def ds_sum(self, x, s):
        """sum_i d/ds_i of the age correction, at a state or each of a stack."""
        log_v, _, _, _, age = self._terms(x, s)
        return np.exp(log_v) * age

    def pair_terms(self, states: np.ndarray, ages: np.ndarray):
        """Per-state terms of A^n_z V~ / V~ = arrivals + rates(z) @ dn at a
        lattice state or each of a stack: arrivals = (ds_sum + sum_i r^n_i
        (V~(x + e_i, s with s_i = 0) - V~)) / V~, dn_i = V~(x - e_i, s) / V~ - 1,
        log V~ and ||xhat||_1.  With no aged class V~ / V is 1.0 and the age
        term 0: the Poisson terms, whatever the ages."""
        log_v, ratio, weights, hazard, age = self._terms(states, ages)
        rel = self._lift(ratio, weights, 0 * self.eye[0])          # V~ / V
        # an arrival restarts its class's clock at age 0, where the mean
        # residual life is the mean, 1: that class leaves the weights
        up = np.stack([self._lift(ratio, {j: w for j, w in weights.items() if j != i}, e)
                       for i, e in enumerate(self.eye)], axis=-1)
        down = np.stack([self._lift(ratio, weights, -e) for e in self.eye], axis=-1)
        arrivals = (age + row_sum(hazard * (up - rel[..., None]))) / rel
        dn = (down - rel[..., None]) / rel[..., None]
        return arrivals, dn, log_v + np.log(rel), row_sum(np.abs(scale_state(states, self.p)))


# ---------------------------------------------------------------------------
# allocation enumeration
# ---------------------------------------------------------------------------

def count_allocations(x: np.ndarray, n: int) -> np.ndarray:
    """|Z^n(x)| for a state x, or for each row of a stack of states, by
    inclusion-exclusion over the box constraints z_i <= x_i in exact integers
    (Python integers once a term could pass int64).  The prelimit reports
    count their samples with it."""
    x = np.asarray(x, dtype=np.int64)
    m = x.shape[-1]
    r = m - 1
    dtype = np.int64 if (m << m) * math.comb(n + r, r) < 2**63 else object
    rows = x.reshape(-1, m).astype(dtype)
    k = np.minimum(n, rows.sum(axis=1))
    total = np.zeros(len(rows), dtype=dtype)
    for mask in range(1 << m):
        idx = [i for i in range(m) if mask >> i & 1]
        shift = k - (rows[:, idx] + 1).sum(axis=1)
        c = (shift >= 0).astype(dtype)              # C(shift + j, j), 0 if shift < 0
        for j in range(1, r + 1):
            c = c * (shift + j) // j
        total += (-1) ** len(idx) * c
    return total.reshape(x.shape[:-1])


def _allocation_block(states: np.ndarray, n: int) -> np.ndarray:
    """Z^n(x) of every row x of ``states``, stacked in state order, each in
    lexicographic order.  Pass i repeats every partial allocation once per
    value of z_i that the classes after i can still complete."""
    m = states.shape[1]
    tail = np.cumsum(states[:, ::-1], axis=1)[:, ::-1]     # sum_{j >= i} x_j
    owner = np.arange(len(states))
    rem = np.minimum(n, tail[:, 0])
    cols: list[np.ndarray] = []
    for i in range(m - 1):
        lo = np.maximum(0, rem - tail[owner, i + 1])
        width = np.minimum(states[owner, i], rem) - lo + 1
        rep = np.repeat(np.arange(len(owner)), width)
        offset = np.arange(len(rep)) - np.repeat(np.cumsum(width) - width, width)
        zi = lo[rep] + offset
        cols = [c[rep] for c in cols] + [zi]
        owner = owner[rep]
        rem = rem[rep] - zi
    return np.stack(cols + [rem], axis=1)


def enumerate_allocations(x: np.ndarray, n: int) -> np.ndarray:
    """All of Z^n(x), in lexicographic order: the brute-force reference that
    the tests hold ``_greedy_allocations`` to.  No command calls it."""
    return _allocation_block(np.asarray(x, dtype=np.int64)[None, :], n)


def _greedy_allocations(states: np.ndarray, n: int, coef: np.ndarray) -> np.ndarray:
    """The z in Z^n(x) of each row x of ``states`` that maximizes <coef, z>
    (the matching row of ``coef``): the greedy allocation that serves classes
    in decreasing coef, ties in index order.  Z^n(x) is the base polytope of
    the polymatroid min(n, x(S)), where greedy attains the max of any linear
    function (Edmonds 1970)."""
    order = np.argsort(-coef, axis=1, kind="stable")
    queue = np.take_along_axis(states, order, axis=1)
    left = np.minimum(n, states.sum(axis=1, keepdims=True)) - (np.cumsum(queue, axis=1) - queue)
    z = np.empty_like(states)
    np.put_along_axis(z, order, np.clip(left, 0, queue), axis=1)
    return z


# ---------------------------------------------------------------------------
# prelimit Foster-Lyapunov verification
# ---------------------------------------------------------------------------

# The second-difference constant is a supremum over this many states, drawn
# uniformly from the cube of this half-width in xhat with this seed (and the
# next one for the refinement at the selected parameters).
C1_STATES, C1_RADIUS, C1_SEED = 2000, 30.0, 11


def _estimate_c1(p: PrelimitParams, spec: lyap.LyapunovSpec, seed: int) -> float:
    """Sample sup of n |second difference of V^n| / (eps (eps+theta) V^n)."""
    m = p.m
    rng = np.random.default_rng(seed)
    xh = rng.uniform(-C1_RADIUS, C1_RADIUS, size=(C1_STATES, m))
    _, ratio = _neighbours(spec, p, _lattice_state(xh, p))
    eye = np.eye(m, dtype=np.int64)
    worst = 0.0
    for i in range(m):
        for j in range(m):
            for si in (1, -1):
                for sj in (1, -1):
                    d = (ratio(*(sj * eye[j] + si * eye[i])) - ratio(*(sj * eye[j]))
                         - ratio(*(si * eye[i])) + 1.0)
                    worst = max(worst, float(np.max(np.abs(d))))
    for i in range(m):
        d = ratio(*eye[i]) + ratio(*-eye[i]) - 2.0
        worst = max(worst, float(np.max(np.abs(d))))
    return p.n * worst / (spec.epsilon * (spec.epsilon + spec.theta))


def estimate_prelimit_constants(p: PrelimitParams, arr: ArrivalSpec) -> lyap.LyapunovSpec:
    """The prelimit exp-linear family at theta0 and eps = min(theta0, eps~0) / 2;
    needs varrho^n > 0.

    theta0 is a three-way minimum over constants: the second-difference
    constant is a sample supremum refined once at the selected parameters;
    the hazard/residual-life bound is analytic and requires laws that bound
    both; the allocation-range constants are analytic caps over all
    feasible (x, z).
    """
    if p.varrho_n <= 0:
        raise PreconditionError("prelimit exp-linear bound needs varrho^n > 0")
    if missing := arr.missing_bound():
        raise PreconditionError(f"{missing}: prelimit constants unavailable")
    m = p.m
    rt = math.sqrt(p.n)
    sup_h = np.array([d.sup_hazard() for d in arr.dists])
    sup_zeta = np.array([1.0 + d.sup_abs_one_minus_mrl() for d in arr.dists])
    c0n = float(np.max(np.maximum(p.lambda_n * sup_h / p.n, 1.0 + sup_zeta)))

    varrho_n = p.varrho_n
    beta_max = float(p.beta_n.max())
    mu_max = float(p.mu_n.max())

    def theta_at(c1):
        tc0 = m * m * c0n * c1
        tc1 = c1 * (m * m * c0n * mu_max + m * (m - 1) * c0n**2
                    + float(np.sum(p.lambda_n / p.n)))
        center = p.fluid_center
        a = center / rt + varrho_n / m
        b = (p.n - center) / rt - varrho_n / m
        zhat_cap = np.maximum(np.abs(a), np.abs(b))
        c2 = float(np.max((varrho_n * p.mu_n / m + p.mu_n * zhat_cap * rt
                           + p.gamma_n * rt) / rt))
        c3 = tc0 * float(p.gamma_n.max())
        term1 = 1.0 / (1.0 + max(beta_max - 1.0, 0.0))
        term2 = 1.0 / (2.0 * mu_max * (tc0 + c1))
        term3 = (varrho_n / m) / (m + 2.0 * varrho_n + 4.0 * (tc1 + m * c1 * c2 + m * c3))
        return min(term1, term2, term3)

    def spec_at(theta0):
        eps = 0.5 * min(theta0, eps_tilde0(p, arr, theta0))
        return lyap.LyapunovSpec(lyap.Family.EXP_LINEAR, p.mu_n, epsilon=eps, theta=theta0)

    prov = lyap.LyapunovSpec(lyap.Family.EXP_LINEAR, p.mu_n, epsilon=0.05, theta=0.25)
    c1 = _estimate_c1(p, prov, C1_SEED)
    c1 = max(c1, _estimate_c1(p, spec_at(theta_at(c1)), C1_SEED + 1))
    return spec_at(theta_at(c1))


def _sample_prelimit_states(p: PrelimitParams, region: Region, sampler: SamplerConfig,
                            rng: np.random.Generator) -> np.ndarray:
    """The distinct lattice states nearest a sampled cloud, in lexicographic
    order (``np.unique(..., axis=0)``, from one ``lexsort``)."""
    xh = sample_states(region, sampler, p.m, joint_values=(0.0, 1.0), rng=rng)
    lattice = _lattice_state(xh, p)
    rows = lattice[np.lexsort(lattice.T[::-1])]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return rows[first]


def _pair_stage(p: PrelimitParams, states: np.ndarray, terms):
    """(t, log V, ||xhat||_1) of each state at its worst allocation, from
    per-state ``terms`` (arrivals, dn, log V, ||xhat||_1).
    t = arrivals + (mu^n z + gamma^n (x - z)) @ dn is affine in z, with
    coefficients (mu^n_i - gamma^n_i) dn_i, so ``_greedy_allocations``
    maximizes it over Z^n(x).  Each row's product is its own (1, m) @ (m, 1)
    matmul: one (N, m) @ (m,) product rounds some rows differently."""
    arrivals, dn, log_v, r1 = terms
    z = _greedy_allocations(states, p.n, (p.mu_n - p.gamma_n) * dn)
    rates = p.mu_n * z + p.gamma_n * (states - z)
    return arrivals + np.matmul(rates[:, None, :], dn[:, :, None])[:, 0, 0], log_v, r1


def verify_prelimit_foster(p: PrelimitParams, arr: ArrivalSpec, region: Region,
                           sampler: SamplerConfig, target: str = "exp_linear",
                           eta: float = 1.0) -> VerificationReport:
    """Certify the prelimit Foster-Lyapunov bound over sampled states, each at
    its worst work-conserving allocation (``_pair_stage``), so the bound holds
    under every work-conserving policy.  The report's samples counts the
    (state, allocation) pairs this covers (``count_allocations``), and its
    violations count states.

    Every input checks the age-augmented function (``RenewalLyapunov``, one
    age vector per state drawn after the states), which is V on Poisson input
    (``ArrivalSpec.is_poisson``).  target "exp_linear": the exp-linear family
    of ``estimate_prelimit_constants`` with decay constant eps varrho^n/2m on
    Poisson input, eps varrho^n/3m on any other (every law must bound its
    hazard and mean residual life).  target "abandon": Poisson input, all
    gamma^n_i > 0, linear-in-||xhat||_1 decay with the slope from
    ``verify.fitted_slope``.
    """
    rng = np.random.default_rng(sampler.seed)
    poisson = arr.is_poisson
    if target == "abandon":
        if not poisson:
            raise PreconditionError("abandonment-decay check is a Poisson-input result")
        if float(p.gamma_n.min()) <= 0:
            raise PreconditionError("abandonment-decay check needs all gamma^n_i > 0")
        theta_n = min(1.0, lyap.sub_gaussian_theta(float(p.beta_n.min()), float(p.beta_n.max())))
        spec = lyap.LyapunovSpec(lyap.Family.ABANDON_EXP, p.mu_n, eta=eta, theta=theta_n)
        name = "prelimit_abandon_foster"
        consts = {"eta": eta, "theta": theta_n}
    else:
        spec = estimate_prelimit_constants(p, arr)     # rejects varrho^n <= 0, a missing bound
        decay = spec.epsilon * p.varrho_n / ((2.0 if poisson else 3.0) * p.m)
        name = "prelimit_exp_linear_foster" if poisson else "prelimit_renewal_foster"
        consts = {"epsilon": spec.epsilon, "theta": spec.theta, "decay": decay}

    states = _sample_prelimit_states(p, region, sampler, rng)
    ages = rng.exponential(1.0, size=states.shape) / p.lambda_n
    t, log_v, r1 = _pair_stage(p, states, RenewalLyapunov(p, arr, spec).pair_terms(states, ages))

    if target == "abandon":
        k1 = fitted_slope(t, r1, r1 >= 0.5 * region.radius)
        rep = slope_report(name, t, k1, r1, log_v, region.radius, sampler.seed, consts)
    else:
        rep = decay_report(name, t + consts["decay"], log_v, r1, region.radius, sampler.seed,
                           consts)
    rep.n_samples = int(np.sum(count_allocations(states, p.n), dtype=object))
    return rep


# The prelimit checks sample at most this many states, from the ball of
# radius max(PRELIMIT_RADIUS, 2 ||xhat(0)||_1) in scaled states.
PRELIMIT_RADIUS, PRELIMIT_SAMPLES = 40.0, 10_000


def prelimit_groups(system: SystemParams, n_list, arrivals: ArrivalSpec, samples: int,
                    seed: int, eta: float) -> list:
    """The applicable prelimit checks at the first n of n_list only, as
    ``workers.run_jobs`` jobs that each return a list of one report, like
    ``verify.suite_groups``.

    The sampled ball reaches twice the empty system's ||xhat(0)||_1 (about
    sqrt(n)), so the outer shell that must show decay, past
    ``verify.ATTAIN_FRACTION`` of the radius, lies beyond it.
    """
    if not n_list:
        return []
    p = prelimit_params(system, n_list[0])
    empty = float(np.abs(scale_state(np.zeros(p.m), p)).sum())
    args = (p, arrivals, Region.ball(max(PRELIMIT_RADIUS, 2.0 * empty)),
            SamplerConfig(min(samples, PRELIMIT_SAMPLES), seed))
    jobs = []
    if p.varrho_n > 0 and not arrivals.missing_bound():
        jobs.append(lambda: [verify_prelimit_foster(*args)])
    if arrivals.is_poisson and float(p.gamma_n.min()) > 0:
        jobs.append(lambda: [verify_prelimit_foster(*args, target="abandon", eta=eta)])
    return jobs


# ---------------------------------------------------------------------------
# generator consistency with the diffusion
# ---------------------------------------------------------------------------

def generator_consistency_errors(params, dspec: DiffusionSpec, spec: lyap.LyapunovSpec,
                                 points: np.ndarray, controls: np.ndarray,
                                 n_list) -> np.ndarray:
    """|A^n_z V - L_u V| / V at fixed scaled states, for each n.

    The allocation realizes the requested control through the queue
    apportionment, and both generators are evaluated at the realized lattice
    point, so the reported error is purely the generator discretization.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    out = np.zeros((len(points), len(n_list)))
    for jn, n in enumerate(n_list):
        p = prelimit_params(params, int(n))
        x = _lattice_state(points, p)
        z = np.array([_apportion_list(xi, p.n, u) for xi, u
                      in zip(x.tolist(), controls.tolist())], dtype=float).reshape(x.shape)
        xhat, zhat = scale_state(x.astype(float), p), scale_state(z, p)
        u_real = [allocation_to_control(a, b) for a, b in zip(xhat, zhat)]
        u = np.array([c if r is None else r for c, r in zip(controls, u_real)])
        gen = ctmc_generator_ratio(spec, x, z, p)
        out[:, jn] = np.abs(gen - lyap.generator_ratio(spec, xhat, u, dspec))
    return out
