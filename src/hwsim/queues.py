"""Exact event-driven simulation of the n-server systems and prelimit checks.

Interarrival laws are unit-mean families.  Each says through ``sup_hazard``
(None when unbounded) whether the prelimit certification accepts it; the
bounded ones (exponential, two-phase hyperexponential, Erlang) have
closed-form hazard and mean residual life, computed with numpy alone, and the
lognormal, whose hazard is unbounded, is only simulated.

Poisson-input systems evolve as a CTMC with competing exponential clocks;
renewal-input systems schedule the next arrival of each class from its
interarrival distribution while service/abandonment clocks stay exponential
(re-drawn after every event, which is exact by memorylessness).  One event
loop serves both and draws its variates in blocks from each replica's
generator, so a seed gives other paths than the earlier loop that drew one
variate per numpy call.  The built-in scheduling policies are work-conserving
by construction; allocations from a user hook (``FunctionPolicy``) are checked
at every decision.  The same module evaluates the exact finite-difference
generators on Lyapunov functions, builds the age-augmented renewal Lyapunov
function, and certifies the prelimit Foster-Lyapunov bounds over sampled
states and all work-conserving allocations, or past ``Z_CUTOFF`` only the
priority vertices, exact as the generators are affine in the allocation; on
both arrival kinds that check runs in numpy passes over all states, chunked
by pair count.  Its reports, and the fit of the abandonment check's decay
slope, come from the Foster-check path in ``verify``.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lyapunov as lyap
from .measures import EmpiricalMeasure
from .model import (DiffusionSpec, PrelimitParams, allocation_to_control,
                    prelimit_params, project_simplex, scale_state, unscale_state)
from .verify import (PreconditionError, Region, SamplerConfig, VerificationReport,
                     decay_report, fitted_slope, sample_states, slope_report)


# ---------------------------------------------------------------------------
# interarrival distribution families (unit mean)
# ---------------------------------------------------------------------------

class Exponential:
    kind = "exponential"
    scv = 1.0

    def sample(self, rng, size=None):
        return rng.exponential(1.0, size=size)

    def hazard(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def mrl(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def sup_hazard(self):
        return 1.0

    def sup_abs_one_minus_mrl(self):
        return 0.0


class HyperExp2:
    """Two-phase hyperexponential with unit mean (SCV > 1, decreasing hazard)."""

    kind = "hyperexp2"

    def __init__(self, p: float, r1: float, r2: float):
        if not (0 < p < 1 and r1 > 0 and r2 > 0):
            raise ValueError("need 0 < p < 1 and positive rates")
        mean = p / r1 + (1 - p) / r2
        if abs(mean - 1.0) > 1e-9:
            raise ValueError(f"mean must be 1, got {mean}")
        self.p, self.r1, self.r2 = p, r1, r2
        m2 = 2 * (p / r1**2 + (1 - p) / r2**2)
        self.scv = m2 - 1.0

    @classmethod
    def from_scv(cls, scv: float) -> "HyperExp2":
        # balanced-means parameterization
        if scv <= 1.0:
            raise ValueError("hyperexponential requires SCV > 1")
        p = 0.5 * (1.0 + math.sqrt((scv - 1.0) / (scv + 1.0)))
        return cls(p, 2.0 * p, 2.0 * (1.0 - p))

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

    kind = "erlang"

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
    """Unit-mean lognormal.  Its hazard and mean residual life are unbounded,
    so no certification mode accepts it; it is simulated only."""

    kind = "lognormal"

    def __init__(self, sigma: float):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.sigma = sigma
        self.mu_ln = -0.5 * sigma * sigma
        self.scv = math.expm1(sigma * sigma)

    @classmethod
    def from_scv(cls, scv: float) -> "LogNormal":
        # scv = expm1(sigma^2)
        if scv <= 0:
            raise ValueError("lognormal requires SCV > 0")
        return cls(math.sqrt(math.log1p(scv)))

    def sample(self, rng, size=None):
        return rng.lognormal(self.mu_ln, self.sigma, size=size)

    def sup_hazard(self):
        return None

    def sup_abs_one_minus_mrl(self):
        return None


@dataclass(frozen=True)
class ArrivalSpec:
    kind: str                                 # "poisson" | "renewal"
    m: int
    dists: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("poisson", "renewal"):
            raise ValueError(f"unknown arrival kind {self.kind!r}")
        if self.kind == "renewal":
            if self.dists is None or len(self.dists) != self.m:
                raise ValueError("renewal arrivals need one distribution per class")

    @classmethod
    def poisson(cls, m: int) -> "ArrivalSpec":
        return cls("poisson", m)

    @classmethod
    def renewal(cls, dists) -> "ArrivalSpec":
        dists = tuple(dists)
        return cls("renewal", len(dists), dists)

    @property
    def scv(self) -> np.ndarray:
        if self.kind == "poisson":
            return np.ones(self.m)
        return np.array([d.scv for d in self.dists])

    def bounded_hazard(self) -> bool:
        return self.kind == "poisson" or all(d.sup_hazard() is not None for d in self.dists)


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


def _apportion_list(x, n: int, u) -> list:
    """Integer queue vector splitting (sum x - n)^+ proportionally to u with
    q_i <= x_i (exact water-filling, then largest-remainder rounding)."""
    m = len(x)
    total = sum(x)
    Q = total - n
    if Q <= 0:
        return [0] * m
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
    short = Q - sum(q)
    if short > 1e-9:  # weighted classes saturated; spill by index
        for i in range(m):
            add = min(x[i] - q[i], short)
            q[i] += add
            short -= add
            if short <= 1e-9:
                break
    qi = [min(int(q[i]), x[i]) for i in range(m)]
    rem = Q - sum(qi)
    while rem > 0:
        best, best_frac = -1, -1.0
        for i in range(m):
            if qi[i] < x[i] and q[i] - qi[i] > best_frac:
                best, best_frac = i, q[i] - qi[i]
        qi[best] += 1
        rem -= 1
    return qi


def apportion_queue(x: np.ndarray, n: int, u: np.ndarray) -> np.ndarray:
    """Array wrapper around the exact proportional queue split."""
    return np.asarray(_apportion_list([int(v) for v in x], n, list(map(float, u))),
                      dtype=np.int64)


class SchedulingPolicy:
    """Base: a stationary Markov map (x, n) -> z in Z^n(x), on int lists
    (the event loop's state)."""

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
        order = sorted(range(len(x)), key=lambda i: (-x[i], i))
        return _greedy_list(x, n, order)

    def describe(self):
        return "longest_queue_first"


class RandomWorkConservingPolicy(SchedulingPolicy):
    """Greedy fill along a freshly drawn priority permutation each decision."""

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

    def allocate_list(self, x, n):
        q = _apportion_list(x, n, self.u)
        return [x[i] - q[i] for i in range(len(x))]

    def describe(self):
        return f"proportional_split[{','.join(f'{v:g}' for v in self.u)}]"


class FunctionPolicy(SchedulingPolicy):
    """User hook fn(x, n) -> z; every allocation it returns is checked to be
    work-conserving (``validate_allocation``)."""

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

# Variates per numpy call in the event loop (clock draws, renewal interarrival
# times, random priority orders), drawn from each replica's own generator.
_BLOCK = 256


@dataclass
class QueueRun:
    measure: EmpiricalMeasure
    tripped: np.ndarray
    terminal: np.ndarray                    # (R, m) raw integer states
    event_counts: np.ndarray                # (R, 3, m): arrivals, services, abandonments
    state_histograms: list[dict]            # per replica when exact_histogram, else empty


def _blocks(draw):
    """Endless rows of draw(_BLOCK): one numpy call per _BLOCK variates."""
    while True:
        yield from draw(_BLOCK).tolist()


def _run_queue_replica(p, arr, pol, cfg, rng, exact_histogram):
    """One replica of the event loop; renewal and Poisson input share it.

    Plain Python floats and ints, with variates drawn in blocks: at a few
    classes numpy's per-call cost would dominate.  An event rescales only the
    coordinate it changed; the l1 norm and sum of xhat follow from its old and
    new values (an O(1) blow-up guard) and its integral is settled then.
    """
    m, n = p.m, p.n
    lam, mu, gam = p.lambda_n.tolist(), p.mu_n.tolist(), p.gamma_n.tolist()
    center, inv_rt, shift = p.fluid_center.tolist(), 1.0 / math.sqrt(n), p.varrho_n / m
    T, T0, thin, blowup = cfg.horizon, cfg.burn_in, cfg.thin, cfg.blowup
    allocate = pol.allocator(m, n, rng)
    poisson = arr.kind == "poisson"
    lam_cum = list(itertools.accumulate(lam))
    lam_sum = lam_cum[-1]                      # one total: r < lam_sum keeps bisect < m
    gaps = [] if poisson else [_blocks(functools.partial(d.sample, rng)) for d in arr.dists]
    next_arr = [next(g) / rate for g, rate in zip(gaps, lam)]
    x0 = unscale_state(np.asarray(cfg.x0, dtype=float) * np.ones(m), p)
    x = np.maximum(np.rint(x0), 0).astype(np.int64).tolist()
    xhat = [(x[i] - center[i]) * inv_rt - shift for i in range(m)]
    l1, ssum = sum(abs(v) for v in xhat), sum(xhat)
    # time integrals past burn-in; coordinate i is integrated up to settled[i]
    int_l1 = int_neg = int_sum = 0.0
    int_coord, settled = [0.0] * m, [T0] * m
    counts = [[0] * m for _ in range(3)]       # arrivals, services, abandonments
    samples = []
    hist = {} if exact_histogram else None
    t, next_thin, stop = 0.0, T0, T            # stop < T: the blow-up guard tripped

    clock = _blocks(lambda k: np.stack((rng.standard_exponential(k), rng.random(k)), axis=1))
    for e, u in clock:
        z = allocate(x)
        death = [mu[k] * z[k] + gam[k] * (x[k] - z[k]) for k in range(m)]
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
            if hist is not None:
                key = tuple(x)
                hist[key] = hist.get(key, 0.0) + w
            while next_thin <= seg_end:
                samples.append(xhat.copy())
                next_thin += thin
        if t_event >= T:
            break
        # resolve the event
        if arrival:
            if poisson:
                i = bisect.bisect_right(lam_cum, r)
            else:
                i = next_arr.index(t_arr)
                next_arr[i] = t_event + next(gaps[i]) / lam[i]
            x[i] += 1
            counts[0][i] += 1
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
            counts[1 if r < mu[i] * z[i] else 2][i] += 1
            x[i] -= 1
        t = t_event
        old = xhat[i]
        if t > T0:
            int_coord[i] += (t - settled[i]) * old
            settled[i] = t
        xhat[i] = new = (x[i] - center[i]) * inv_rt - shift
        ssum += new - old
        l1 += abs(new) - abs(old)
        if l1 > blowup:
            stop = t
            break

    for k in range(m):
        int_coord[k] += max(stop - settled[k], 0.0) * xhat[k]
    integrals = {"l1": int_l1, "neg_sum": int_neg, "sum": int_sum}
    integrals.update((f"coord{i}", v) for i, v in enumerate(int_coord))
    return {"integrals": integrals, "live": max(stop - T0, 0.0), "samples": samples,
            "hist": hist, "counts": counts, "tripped": stop < T, "terminal": x}


def _simulate_queue(p, arr, pol, cfg, exact_histogram):
    gens = [np.random.default_rng(s)
            for s in np.random.SeedSequence(cfg.seed).spawn(cfg.replicas)]
    reps = [_run_queue_replica(p, arr, pol, cfg, g, exact_histogram) for g in gens]

    def stack(key):
        return np.array([r[key] for r in reps])

    samples = np.array([row for r in reps for row in r["samples"]],
                       dtype=float).reshape(-1, p.m)
    measure = EmpiricalMeasure(
        samples=samples,
        weights=np.full(samples.shape[0], cfg.thin),
        replica_time=stack("live"),
        replica_integrals={k: np.array([r["integrals"][k] for r in reps])
                           for k in reps[0]["integrals"]},
    )
    return QueueRun(
        measure=measure,
        tripped=stack("tripped"),
        terminal=stack("terminal").astype(np.int64),
        event_counts=stack("counts").astype(float),
        state_histograms=[r["hist"] for r in reps] if exact_histogram else [],
    )


def simulate_ctmc(p: PrelimitParams, pol, cfg, exact_histogram: bool = False) -> QueueRun:
    """Exact CTMC simulation with Poisson arrivals."""
    return _simulate_queue(p, ArrivalSpec.poisson(p.m), pol, cfg, exact_histogram)


def simulate_renewal(p: PrelimitParams, arr: ArrivalSpec, pol, cfg,
                     exact_histogram: bool = False) -> QueueRun:
    """Event-driven renewal-input simulation: each class's next arrival is
    scheduled from its interarrival law."""
    if arr.kind != "renewal":
        raise ValueError("simulate_renewal requires a renewal arrival spec")
    return _simulate_queue(p, arr, pol, cfg, exact_histogram)


# ---------------------------------------------------------------------------
# exact generators
# ---------------------------------------------------------------------------

def _log_v(spec: lyap.LyapunovSpec, p: PrelimitParams):
    """log V(xhat(x)) as a function of raw states, vectorized."""
    def fn(x):
        return lyap.log_value(spec, scale_state(np.asarray(x, dtype=float), p))
    return fn


def ctmc_generator_ratio(spec: lyap.LyapunovSpec, x, z, p: PrelimitParams) -> np.ndarray:
    """A^n_z V(xhat(x)) / V(xhat(x)) via exact finite differences (Poisson input)."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    logv = _log_v(spec, p)
    base = logv(x)
    m = p.m
    eye = np.eye(m)
    up = np.exp(logv(x[..., None, :] + eye) - base[..., None]) - 1.0
    dn = np.exp(logv(x[..., None, :] - eye) - base[..., None]) - 1.0
    q = x - z
    return np.sum(p.lambda_n * up, axis=-1) + np.sum((p.mu_n * z + p.gamma_n * q) * dn, axis=-1)


def prelimit_generator_apply(f, x, s, z, p: PrelimitParams, arr: ArrivalSpec):
    """Exact extended generator applied to a lifted function at (x, s) under
    allocation z.

    On Poisson input f is a state function f(x); on renewal input it has
    methods value(x, s) and ds_sum(x, s), the latter supplying the analytic
    age-derivative term (RenewalLyapunov), and every interarrival law must
    have a bounded hazard.
    """
    x = np.asarray(x, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    q = x - z
    death = p.mu_n * z + p.gamma_n * q
    m = p.m
    eye = np.eye(m, dtype=np.int64)
    if arr.kind == "poisson":
        val = f(x)
        up = np.array([f(x + eye[i]) for i in range(m)])
        dn = np.array([f(x - eye[i]) for i in range(m)])
        return float(np.sum(p.lambda_n * (up - val)) + np.sum(death * (dn - val)))
    if not arr.bounded_hazard():
        raise PreconditionError("unbounded hazard family: renewal generator unavailable")
    s = np.asarray(s, dtype=float)
    val = f.value(x, s)
    out = f.ds_sum(x, s)
    for i in range(m):
        r_i = float(p.lambda_n[i] * arr.dists[i].hazard(p.lambda_n[i] * s[i]))
        s_reset = s.copy()
        s_reset[i] = 0.0
        out += r_i * (f.value(x + eye[i], s_reset) - val)
    for i in range(m):
        out += death[i] * (f.value(x - eye[i], s) - val)
    return float(out)


def eps_tilde0(p: PrelimitParams, arr: ArrivalSpec, theta: float) -> float:
    """Largest eps keeping the age-correction term below V/2 (first-order bound,
    uniform over n and ages)."""
    if arr.kind == "poisson":
        return math.inf
    sups = [d.sup_abs_one_minus_mrl() for d in arr.dists]
    if any(v is None for v in sups):
        raise PreconditionError("unbounded mean residual life: sandwich bound unavailable")
    denom = (1.0 + theta) * float(np.sum(np.asarray(sups) / p.mu_n))
    return math.inf if denom == 0 else 0.5 / denom


# The sampled sandwich check draws its states and ages from this seed.
SANDWICH_SEED = 7


class RenewalLyapunov:
    """Age-augmented Lyapunov function G^n(xhat, s) + V(xhat) with

        G^n = sum_i (1 - zeta^n_i(s_i)) (V(xhat + e_i/sqrt(n)) - V(xhat)),

    zeta^n_i(s) the mean residual life at scaled age.  Requires eps small
    enough that 1/2 V <= value <= 3/2 V (checked analytically to first order
    and by sampling at construction)."""

    def __init__(self, p: PrelimitParams, arr: ArrivalSpec, spec: lyap.LyapunovSpec,
                 check: bool = True):
        if arr.kind != "renewal":
            raise ValueError("renewal Lyapunov needs a renewal arrival spec")
        self.p, self.arr, self.spec = p, arr, spec
        self.delta = 1.0 / math.sqrt(p.n)
        bound = eps_tilde0(p, arr, spec.theta)
        if spec.epsilon > bound:
            raise ValueError(f"epsilon {spec.epsilon} too large for the sandwich bound {bound}")
        if check:
            rng = np.random.default_rng(SANDWICH_SEED)
            xh = rng.uniform(-20, 20, size=(2000, p.m))
            ages = rng.exponential(1.0, size=(2000, p.m)) / p.lambda_n
            ratio = self.value_scaled(xh, ages) * np.exp(-lyap.log_value(spec, xh))
            if np.any(ratio < 0.5 - 1e-12) or np.any(ratio > 1.5 + 1e-12):
                raise ValueError("sampled sandwich check failed; decrease epsilon")

    def zeta_n(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return np.stack([np.asarray(self.arr.dists[i].mrl(self.p.lambda_n[i] * s[..., i]))
                         for i in range(self.p.m)], axis=-1)

    def hazard_n(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return np.stack([self.p.lambda_n[i]
                         * np.asarray(self.arr.dists[i].hazard(self.p.lambda_n[i] * s[..., i]))
                         for i in range(self.p.m)], axis=-1)

    def _steps(self, xhat):
        """V(xhat) and V(xhat + e_i/sqrt(n)) - V(xhat) for each class i."""
        xhat = np.asarray(xhat, dtype=float)
        base = np.exp(lyap.log_value(self.spec, xhat))
        eye = np.eye(self.p.m)
        lifted = np.exp(lyap.log_value(self.spec, xhat[..., None, :] + self.delta * eye))
        return base, lifted - base[..., None]

    def value_scaled(self, xhat, s) -> np.ndarray:
        base, steps = self._steps(xhat)
        return base + np.sum((1.0 - self.zeta_n(s)) * steps, axis=-1)

    def value(self, x, s) -> float:
        return float(self.value_scaled(scale_state(np.asarray(x, dtype=float), self.p), s))

    def ds_sum(self, x, s) -> np.ndarray:
        """sum_i d/ds_i of the age correction, via d zeta^n/ds = r^n zeta^n - lambda^n,
        at a state or at each of a stack of states."""
        _, steps = self._steps(scale_state(np.asarray(x, dtype=float), self.p))
        dzeta = self.hazard_n(s) * self.zeta_n(s) - self.p.lambda_n
        return np.sum(-dzeta * steps, axis=-1)

    def pair_terms(self, states: np.ndarray, ages: np.ndarray):
        """``_poisson_terms`` of the extended generator over V~ = V~(x, s): the
        arrivals are (ds_sum + sum_i r^n_i (V~(x + e_i, s with s_i = 0) - V~)) / V~."""
        x = states.astype(float)
        xhat, eye = scale_state(x, self.p), np.eye(self.p.m)
        val = self.value_scaled(xhat, ages)
        up = self.value_scaled(scale_state(x[:, None, :] + eye, self.p),
                               ages[:, None, :] * (1.0 - eye))
        down = self.value_scaled(scale_state(x[:, None, :] - eye, self.p), ages[:, None, :])
        arrivals = (self.ds_sum(x, ages)
                    + np.sum(self.hazard_n(ages) * (up - val[:, None]), axis=1)) / val
        dn = (down - val[:, None]) / val[:, None]
        return arrivals, dn, np.log(val), np.abs(xhat).sum(axis=1)


# ---------------------------------------------------------------------------
# allocation enumeration
# ---------------------------------------------------------------------------

def count_allocations(x: np.ndarray, n: int) -> np.ndarray:
    """|Z^n(x)| for a state x, or for each row of a stack of states, by
    inclusion-exclusion over the box constraints z_i <= x_i in exact integers
    (Python integers once a term could pass int64)."""
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


# A state with more work-conserving allocations than this gets the priority
# vertices in place of all of them.
Z_CUTOFF = 10_000


def enumerate_allocations(x: np.ndarray, n: int) -> np.ndarray:
    """All of Z^n(x) in lexicographic order when there are at most
    ``Z_CUTOFF``, else its distinct priority-greedy vertices, sorted.  These
    hold the maximum of any function affine in z, as each prelimit generator
    is: Z^n(x) is the base polytope of the polymatroid min(n, x(S)), whose
    linear maxima sit at greedy vertices (Edmonds)."""
    x = np.asarray(x, dtype=np.int64)
    if count_allocations(x, n) <= Z_CUTOFF:
        return _allocation_block(x[None, :], n)
    xl = [int(v) for v in x]
    return np.asarray(sorted({tuple(_greedy_list(xl, n, perm))
                              for perm in itertools.permutations(range(len(xl)))}),
                      dtype=np.int64)


# ---------------------------------------------------------------------------
# prelimit Foster-Lyapunov verification
# ---------------------------------------------------------------------------

@dataclass
class PrelimitConstants:
    theta0: float
    eps_tilde: float


# The second-difference constant is a supremum over this many states, drawn
# uniformly from the cube of this half-width in xhat with this seed (and the
# next one for the refinement at the selected parameters).
C1_STATES, C1_RADIUS, C1_SEED = 2000, 30.0, 11


def _estimate_c1(p: PrelimitParams, spec: lyap.LyapunovSpec, seed: int) -> float:
    """Sample sup of n |second difference of V^n| / (eps (eps+theta) V^n)."""
    m = p.m
    rng = np.random.default_rng(seed)
    xh = rng.uniform(-C1_RADIUS, C1_RADIUS, size=(C1_STATES, m))
    x = np.maximum(np.rint(unscale_state(xh, p)), 0.0)
    logv = _log_v(spec, p)
    base = logv(x)
    eye = np.eye(m)
    # V(x + shift) / V(x), evaluated once per distinct shift
    ratio = functools.cache(lambda *shift: np.exp(logv(x + shift) - base))
    worst = 0.0
    for i in range(m):
        for j in range(m):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    d = (ratio(*(sj * eye[j] + si * eye[i])) - ratio(*(sj * eye[j]))
                         - ratio(*(si * eye[i])) + 1.0)
                    worst = max(worst, float(np.max(np.abs(d))))
    for i in range(m):
        d = ratio(*eye[i]) + ratio(*-eye[i]) - 2.0
        worst = max(worst, float(np.max(np.abs(d))))
    return p.n * worst / (spec.epsilon * (spec.epsilon + spec.theta))


def estimate_prelimit_constants(p: PrelimitParams, arr: ArrivalSpec) -> PrelimitConstants:
    """theta0 and eps~ of the prelimit exp-linear family; needs varrho^n > 0.

    theta0 is a three-way minimum over constants: the second-difference
    constant is a sample supremum refined once at the selected parameters;
    the hazard/residual-life bound is analytic and requires a bounded-hazard
    family; the allocation-range constants are analytic caps over all
    feasible (x, z).
    """
    if p.varrho_n <= 0:
        raise PreconditionError("prelimit exp-linear bound needs varrho^n > 0")
    if not arr.bounded_hazard():
        raise PreconditionError("unbounded hazard family: prelimit constants unavailable")
    m = p.m
    rt = math.sqrt(p.n)
    if arr.kind == "poisson":
        sup_h = np.ones(p.m)
        sup_zeta = np.ones(p.m)
    else:
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

    prov = lyap.LyapunovSpec(lyap.Family.EXP_LINEAR, p.mu_n, epsilon=0.05, theta=0.25)
    c1 = _estimate_c1(p, prov, C1_SEED)
    theta0 = theta_at(c1)
    eps = 0.5 * min(theta0, eps_tilde0(p, arr, theta0))
    final = lyap.LyapunovSpec(lyap.Family.EXP_LINEAR, p.mu_n, epsilon=eps, theta=theta0)
    c1 = max(c1, _estimate_c1(p, final, C1_SEED + 1))
    theta0 = theta_at(c1)
    return PrelimitConstants(theta0, eps_tilde0(p, arr, theta0))


def _sample_prelimit_states(p: PrelimitParams, region: Region, sampler: SamplerConfig,
                            rng: np.random.Generator) -> np.ndarray:
    xh = sample_states(region, sampler, p.m, joint_values=(0.0, 1.0), rng=rng)
    x = np.maximum(np.rint(unscale_state(xh, p)), 0.0).astype(np.int64)
    return np.unique(x, axis=0)


# (state, allocation) pairs enumerated at once by the prelimit check; its
# memory peaks in a chunk's allocation block
_CHUNK_PAIRS = 4096


def _poisson_terms(p: PrelimitParams, spec: lyap.LyapunovSpec, states: np.ndarray):
    """Per-state terms of A^n_z V / V = arrivals + rates(z) @ dn on Poisson input:
    arrivals, dn_i = V(x - e_i) / V - 1, log V and ||xhat||_1."""
    logv = _log_v(spec, p)
    eye = np.eye(p.m, dtype=np.int64)
    base = logv(states)
    up = np.exp(logv(states[:, None, :] + eye) - base[:, None]) - 1.0
    dn = np.exp(logv(states[:, None, :] - eye) - base[:, None]) - 1.0
    arrivals = np.sum(p.lambda_n * up, axis=1)
    return arrivals, dn, base, np.abs(scale_state(states.astype(float), p)).sum(axis=1)


def _pair_stage(p: PrelimitParams, states: np.ndarray, terms):
    """(t, log V, ||xhat||_1) over every (state, ``enumerate_allocations``)
    pair from per-state ``terms`` (arrivals, dn, log V, ||xhat||_1), where
    t = arrivals + (mu^n z + gamma^n (x - z)) @ dn.  It keeps one matmul per
    state: summing over all pairs at once rounds differently."""
    arrivals, dn, log_v, r1 = terms
    counts = count_allocations(states, p.n)
    exhaustive = counts <= Z_CUTOFF
    sizes = np.where(exhaustive, counts, 0).astype(np.int64)
    # a chunk is the states whose first pair starts in the same
    # _CHUNK_PAIRS-wide window of the exhaustive pairs
    window = (np.cumsum(sizes) - sizes) // _CHUNK_PAIRS
    bounds = [0, *(np.flatnonzero(np.diff(window)) + 1), len(states)]
    gens = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        z = _allocation_block(states[a:b][exhaustive[a:b]], p.n)
        x = np.repeat(states[a:b], sizes[a:b], axis=0)
        # one piece per state, empty for a state past the cutoff
        pieces = np.split(p.mu_n * z + p.gamma_n * (x - z), np.cumsum(sizes[a:b])[:-1])
        for s, rates in zip(range(a, b), pieces):
            if not exhaustive[s]:
                allocs = enumerate_allocations(states[s], p.n)
                rates = p.mu_n * allocs + p.gamma_n * (states[s] - allocs)
            gens.append(float(arrivals[s]) + rates @ dn[s])
    pairs = np.array([len(g) for g in gens])
    return np.concatenate(gens), np.repeat(log_v, pairs), np.repeat(r1, pairs)


def verify_prelimit_foster(p: PrelimitParams, arr: ArrivalSpec, region: Region,
                           sampler: SamplerConfig, target: str = "exp_linear",
                           eta: float = 1.0) -> VerificationReport:
    """Certify the prelimit Foster-Lyapunov bound over sampled states and
    work-conserving allocations (``enumerate_allocations``: all, or the
    priority vertices that hold the generator's maximum).

    target "exp_linear": the exp-linear family at the theta and eps of
    ``estimate_prelimit_constants``; Poisson input checks the V-decay with
    constant eps varrho^n/2m, renewal input checks the age-augmented function
    (``RenewalLyapunov``, one age vector per state drawn after the states)
    with constant eps varrho^n/3m (bounded hazard required).  target
    "abandon": Poisson input, all gamma^n_i > 0, linear-in-||xhat||_1 decay
    with the slope from ``verify.fitted_slope``.  Both arrival kinds feed
    per-state terms into one pair stage (``_pair_stage``).
    """
    rng = np.random.default_rng(sampler.seed)
    if target == "abandon":
        if arr.kind != "poisson":
            raise PreconditionError("abandonment-decay check is a Poisson-input result")
        if float(p.gamma_n.min()) <= 0:
            raise PreconditionError("abandonment-decay check needs all gamma^n_i > 0")
        beta = p.beta_n
        theta_n = min(1.0, max(1.0 - float(beta.min()), 0.5) / float(beta.max()))
        spec = lyap.LyapunovSpec(lyap.Family.ABANDON_EXP, p.mu_n, eta=eta, theta=theta_n)
        name = "prelimit_abandon_foster"
        consts = {"eta": eta, "theta": theta_n}
    else:
        est = estimate_prelimit_constants(p, arr)      # rejects varrho^n <= 0, unbounded hazards
        spec = lyap.LyapunovSpec(lyap.Family.EXP_LINEAR, p.mu_n,
                                 epsilon=0.5 * min(est.theta0, est.eps_tilde), theta=est.theta0)
        decay_coeff = spec.epsilon * p.varrho_n / ((3.0 if arr.kind == "renewal" else 2.0) * p.m)
        name = ("prelimit_renewal_foster" if arr.kind == "renewal"
                else "prelimit_exp_linear_foster")
        consts = {"epsilon": spec.epsilon, "theta": spec.theta, "decay": decay_coeff}

    states = _sample_prelimit_states(p, region, sampler, rng)
    if arr.kind == "poisson":
        terms = _poisson_terms(p, spec, states)
    else:
        ages = rng.exponential(1.0, size=states.shape) / p.lambda_n
        terms = RenewalLyapunov(p, arr, spec, check=False).pair_terms(states, ages)
    t, log_v, r1 = _pair_stage(p, states, terms)

    if target == "abandon":
        k1 = fitted_slope(t, r1, r1 >= 0.5 * region.radius)
        return slope_report(name, t, k1, r1, log_v, region.radius, sampler.seed, consts)
    return decay_report(name, t + consts["decay"], log_v, r1, region.radius, sampler.seed,
                        consts)


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
        for ip, (xh0, u) in enumerate(zip(points, controls)):
            x = np.maximum(np.rint(unscale_state(xh0, p)), 0.0).astype(np.int64)
            q = apportion_queue(x, p.n, u)
            z = x - q
            xhat = scale_state(x.astype(float), p)
            zhat = scale_state(z.astype(float), p)
            u_real = allocation_to_control(xhat, zhat)
            if u_real is None:
                u_real = u
            gen = ctmc_generator_ratio(spec, x.astype(float), z.astype(float), p)
            lim = lyap.generator_ratio(spec, xhat, u_real, dspec, check=False)
            out[ip, jn] = abs(float(gen) - float(lim))
    return out
