"""Sampled certification of drift inequalities and Foster-Lyapunov bounds.

Every diffusion check draws its samples from ``_cloud``: a deterministic,
seed-keyed cloud of states (enriched near the cone boundary, the coordinate
axes and the curvature joints of the cutoff) and their ||x||_1.  The suite
runs as independent groups of checks, one per cloud (``suite_groups``), on
the CPUs the process may use (``workers.run_jobs``).  Within a group,
consecutive checks share one read-only cloud: ``_cloud`` keeps the last one
it drew in each process.  The checks that use the exp-linear family share
its ``log_terms`` on a cloud (``_shared``): the drift checks, one per
truncation level, on theirs, and the exp-linear, negative-part and
negative-part sub-Gaussian Foster checks on theirs.  The drift checks also
share the part of their worst-control drift that no truncation level
changes (``model.drift_along_parts``).  The terms are evaluated once per
cloud, kept read-only, and dropped with the cloud.  Both memos are
per process, and each group drops them when it ends.  The bounds must hold
for every control u in Delta; only the drift depends on u, and affinely, so
each check evaluates every state at its worst control in closed form
(``model.max_drift_along``) and a report depends on the state set only.  The
Foster bounds all read ``max_u L_u V / V + decay(x) <= 0`` outside a compact
set and end in one report: ``decay_report`` for a fixed decay term,
``slope_report`` for a linear decay whose slope kappa1 ``fitted_slope`` takes
from the far samples.  The n-server prelimit checks in ``queues`` share the
last two.  Each report counts violations and gives the worst margin and
estimates of the existential constants the bounds leave implicit.

All margins are normalized by the Lyapunov value at the sample point, which
keeps the arithmetic in log scale; the violation test is equivalent to the
linear-scale test with slack 1e-9 (1 + |RHS|).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import lyapunov as lyap
from . import workers
from .model import (DiffusionSpec, SystemParams, diffusion_spec, drift_along_parts,
                    max_drift_along, row_sum, spare_capacity)

BASE_SLACK = 1e-9
# A constant estimate counts as "attained inside" when every positive margin
# sits within this fraction of the sampling radius.
ATTAIN_FRACTION = 0.8


class PreconditionError(ValueError):
    """A verify routine was called outside its hypotheses."""


# ---------------------------------------------------------------------------
# regions and samplers
# ---------------------------------------------------------------------------

class RegionKind(str, Enum):
    BALL = "ball"                     # ||x||_1 <= R
    CONE = "cone"                     # K_0^+ = {<e,x> >= 0} intersected with ||x||_1 <= R


@dataclass(frozen=True)
class Region:
    kind: RegionKind
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("region radius must be positive")

    @classmethod
    def ball(cls, radius: float) -> "Region":
        return cls(RegionKind.BALL, radius)

    @classmethod
    def cone(cls, radius: float) -> "Region":
        return cls(RegionKind.CONE, radius)

    def contains(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = row_sum(np.abs(x)) <= self.radius
        if self.kind == RegionKind.CONE:
            inside &= row_sum(x) >= 0.0
        return inside


@dataclass(frozen=True)
class SamplerConfig:
    n_samples: int
    seed: int


# fractions of each sampled batch forced onto <e,x> = 0, near a cutoff joint,
# onto a coordinate axis and into one orthant
BOUNDARY_FRAC, JOINT_FRAC, AXIS_FRAC, ORTHANT_FRAC = 0.15, 0.10, 0.05, 0.10


def _l1_ball(rng: np.random.Generator, n: int, m: int, radius: float) -> np.ndarray:
    # Dirichlet magnitudes, random signs; radii half uniform-in-ball and half
    # log-uniform so every scale is covered when the radius is large
    mag = rng.dirichlet(np.ones(m), size=n)
    signs = rng.integers(0, 2, size=(n, m)) * 2 - 1
    r = radius * rng.random(n) ** (1.0 / m)
    nlog = n // 2
    r[:nlog] = np.exp(rng.uniform(np.log(1e-2), np.log(radius), size=nlog))
    return mag * signs * r[:, None]


def sample_states(region: Region, cfg: SamplerConfig, m: int,
                  joint_values: tuple[float, ...] = (0.0, 1.0),
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Deterministic state cloud covering the region with adversarial enrichment."""
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    n = cfg.n_samples
    R = region.radius
    out = []
    # fixed anchor points first: origin, axis points, boundary rays
    anchors = [np.zeros(m)]
    for i in range(m):
        for r in (0.5 * R, R):
            e = np.zeros(m)
            e[i] = r
            anchors.append(e.copy())
            anchors.append(-e)
    anchors = np.array(anchors)
    keep = region.contains(anchors)
    out.append(anchors[keep])

    needed = n - out[0].shape[0]
    guard = 0
    while needed > 0 and guard < 200:
        guard += 1
        batch = max(1024, int(needed * 1.5))
        base = _l1_ball(rng, batch, m, R)
        k = batch
        nb = int(BOUNDARY_FRAC * k)
        nj = int(JOINT_FRAC * k)
        na = int(AXIS_FRAC * k)
        no = int(ORTHANT_FRAC * k)
        # project a slice onto the hyperplane <e,x> = 0
        sl = base[:nb]
        sl -= row_sum(sl)[:, None] / m
        # pin a random coordinate of another slice near a cutoff joint
        jl = base[nb:nb + nj]
        if nj > 0:
            cols = rng.integers(0, m, size=nj)
            vals = rng.choice(np.asarray(joint_values, dtype=float), size=nj)
            jl[np.arange(nj), cols] = vals + 0.05 * rng.standard_normal(nj)
        # axis rays
        al = base[nb + nj:nb + nj + na]
        if na > 0:
            al[:] = 0.0
            cols = rng.integers(0, m, size=na)
            al[np.arange(na), cols] = (rng.random(na) * 2 - 1) * R
        # one-orthant points (cover K_1^{+/-})
        ol = base[nb + nj + na:nb + nj + na + no]
        if no > 0:
            sgn = np.where(rng.random(no) < 0.5, 1.0, -1.0)
            ol[:] = np.abs(ol) * sgn[:, None]
        if region.kind == RegionKind.CONE:
            # reflecting doubles the yield for the cone
            base[row_sum(base) < 0] *= -1.0
        keep = region.contains(base)
        got = base[keep]
        out.append(got[:needed])
        needed -= min(needed, got.shape[0])
    if needed > 0:
        raise RuntimeError(f"sampler could not fill region {region} ({needed} short)")
    return np.concatenate(out, axis=0)[:n]


@functools.lru_cache(maxsize=1)
def _cloud(region: Region, sampler: SamplerConfig, m: int,
           joint_values: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """States from the sampler's seed and their ||x||_1.

    The last cloud is kept for the next check on the same arguments, so the
    arrays are read-only.  Drawing a new cloud drops the terms shared on the
    last one (``_shared``).
    """
    _TERMS.clear()
    x = sample_states(region, sampler, m, joint_values=joint_values)
    cloud = x, row_sum(np.abs(x))
    for a in cloud:
        a.flags.writeable = False
    return cloud


# (fn, ids of args) -> (args, fn(*args)) on the cloud _cloud holds; the entry
# keeps its arguments alive, so their ids stay unique
_TERMS: dict = {}


def _shared(fn, *args):
    """fn(*args), a tuple of arrays on a cloud of ``_cloud``, evaluated once per
    function and arguments: read-only, and dropped when ``_cloud`` draws a new
    cloud or a group of ``suite_groups`` ends."""
    key = fn, *map(id, args)
    if key not in _TERMS:
        value = fn(*args)
        for a in value:
            a.flags.writeable = False
        _TERMS[key] = args, value
    return _TERMS[key][1]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    inequality: str
    n_samples: int
    violations: int
    worst_margin: float
    seed: int
    constants: dict[str, float] = field(default_factory=dict)
    passed: bool = True
    notes: str = ""

    CSV_HEADER = "inequality,samples,violations,worst_margin,seed,passed,constants"

    def csv_row(self) -> str:
        consts = ";".join(f"{k}={self.constants[k]:.12g}" for k in sorted(self.constants))
        return (f"{self.inequality},{self.n_samples},{self.violations},"
                f"{self.worst_margin:.12g},{self.seed},{int(self.passed)},{consts}")

    def to_dict(self) -> dict:
        return {
            "inequality": self.inequality,
            "samples": self.n_samples,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "seed": self.seed,
            "passed": self.passed,
            "constants": dict(sorted(self.constants.items())),
            "notes": self.notes,
        }


def decay_report(name: str, t: np.ndarray, log_v: np.ndarray, r1: np.ndarray,
                 sample_radius: float, seed: int,
                 constants: dict[str, float]) -> VerificationReport:
    """Common tail of the Foster-type checks.

    t = (L_u f)/f + decay(x) must be eventually negative: the constant
    estimate is max t * f, the attainment radius is the largest ||x||_1 with
    t > slack, and a sample violates when it sits beyond ATTAIN_FRACTION of
    the sampling radius with t still positive.  kappa must be finite as a
    log, max(log t + log f): where t * f overflows, ``kappa_estimate`` is inf
    and the notes give log kappa.  A failed report says why in its notes.
    """
    slack = BASE_SLACK * (np.exp(-np.clip(log_v, -700, 700)) + np.abs(t - 0.0))
    pos = t > slack
    r_att = float(r1[pos].max()) if np.any(pos) else 0.0
    up = t > 0
    with np.errstate(over="ignore"):
        kappa = float(np.max(t[up] * np.exp(log_v[up]), initial=0.0))
    log_kappa = float(np.max(np.log(t[up]) + log_v[up], initial=-math.inf))
    outer = r1 > ATTAIN_FRACTION * sample_radius
    violations = int(np.sum(pos & outer))
    worst = float(np.min(-t[outer])) if np.any(outer) else math.inf
    constants = dict(constants)
    constants["kappa_estimate"] = kappa
    constants["attainment_radius"] = r_att
    notes = []
    if violations:
        notes.append(f"{violations} samples beyond {ATTAIN_FRACTION:g} of the sampling "
                     f"radius have t > 0 (attainment radius {r_att:.6g})")
    if not log_kappa < math.inf:
        notes.append("kappa is not finite: t or log V is inf or nan where t > 0")
    elif kappa == math.inf:
        notes.append(f"kappa_estimate overflows; log kappa = {log_kappa!r}")
    passed = violations == 0 and log_kappa < math.inf
    return VerificationReport(name, t.shape[0], violations, worst, seed, constants, passed,
                              "; ".join(notes))


def fitted_slope(q: np.ndarray, r1: np.ndarray, far: np.ndarray) -> float:
    """kappa1 = 0.9 min over the far samples of -q / ||x||_1: the largest
    linear decay the far samples allow, with a 10% margin."""
    if not np.any(far):
        raise PreconditionError("no far samples to fit the decay slope; enlarge the region")
    return 0.9 * float(np.min(-q[far] / r1[far]))


def slope_report(name: str, q: np.ndarray, k1: float, r1: np.ndarray, log_v: np.ndarray,
                 sample_radius: float, seed: int, constants: dict[str, float],
                 decay: np.ndarray | None = None) -> VerificationReport:
    """decay_report of q + kappa1 ||x||_1 (or of q + decay, when the decay is
    linear only on part of the space); failed when kappa1 <= 0."""
    t = q + (k1 * r1 if decay is None else decay)
    rep = decay_report(name, t, log_v, r1, sample_radius, seed,
                       {**constants, "kappa1_estimate": k1})
    if k1 <= 0:
        rep.passed = False
        rep.notes = "; ".join(filter(None, ["decay slope not bounded away from 0", rep.notes]))
    return rep


# ---------------------------------------------------------------------------
# drift inequality for the exp-linear family (two-branch gradient bound)
# ---------------------------------------------------------------------------

def verify_exp_linear_drift(dspec: DiffusionSpec, spec: lyap.LyapunovSpec,
                            c: float, region: Region,
                            sampler: SamplerConfig) -> VerificationReport:
    """Certify max_u <grad V, b_c(x, u)> against its branch bounds for V = exp(Psi*).

    On K_0^-:  eps (th rho + (m / 2 eps)(1 + eps th) - (th ^ 1) ||x||_1) V;
    on K_0^+ x Delta:  -eps (rho/m - th rho - th m/2 + th ||x^-||_1) V.
    Margins are reported normalized by V.
    """
    eps, th = spec.epsilon, spec.theta
    m = dspec.m
    rho = dspec.varrho
    beta_max = float(dspec.beta.max())
    if rho <= 0:
        raise PreconditionError(f"exp-linear drift bound needs positive spare capacity, got {rho}")
    if th * max(beta_max - 1.0, 0.0) > 1.0 + 1e-12:
        raise PreconditionError("theta (beta_max - 1)^+ <= 1 violated")
    if not c >= 1.0:
        raise PreconditionError(f"truncation level must be >= 1, got {c}")

    x, r1 = _cloud(region, sampler, m, (0.0, 1.0, -1.0 / eps))
    log_v, gl, _ = _shared(lyap.log_terms, spec, x)
    lhs = max_drift_along(x, gl, dspec, c, _shared(drift_along_parts, x, gl, dspec))

    s = row_sum(x)
    neg_part = row_sum(np.maximum(-x, 0.0))
    rhs_minus = eps * (th * rho + (m / (2.0 * eps)) * (1.0 + eps * th) - min(th, 1.0) * r1)
    rhs_plus = -eps * (rho / m - th * rho - th * m / 2.0 + th * neg_part)
    rhs = np.where(s <= 0.0, rhs_minus, rhs_plus)

    margin = rhs - lhs
    slack = BASE_SLACK * (np.exp(-np.clip(log_v, -700, 700)) + np.abs(rhs))
    violations = int(np.sum(margin < -slack))
    return VerificationReport(f"exp_linear_drift[c={c:g}]", x.shape[0], violations,
                              float(margin.min()), sampler.seed,
                              {"epsilon": eps, "theta": th, "truncation": c},
                              passed=violations == 0)


# ---------------------------------------------------------------------------
# Foster-Lyapunov bounds
# ---------------------------------------------------------------------------

def _ratio(terms, x, dspec: DiffusionSpec):
    """(max_u L_u f / f, log f) on the cloud from the family's ``log_terms``."""
    return lyap.worst_ratio_from_terms([terms], x, dspec), terms[0]


# Weight w of the idleness decay in the exp-linear Foster bound.
NEG_WEIGHT = 0.5


def verify_exp_linear_foster(dspec: DiffusionSpec, spec: lyap.LyapunovSpec,
                             region: Region, sampler: SamplerConfig) -> VerificationReport:
    """L_u V <= kappa_0 - eps (rho/2m + w th ||x^-||_1) V with estimated kappa_0
    and w = ``NEG_WEIGHT``.

    On the far negative orthant the drift supplies idleness decay at rate
    exactly eps th ||x^-||_1, so the full-weight form (w = 1) misses by the
    constant eps (th rho + rho/2m) + eps^2 th^2 C and cannot hold with any
    finite kappa_0; any w < 1 leaves slack.
    """
    if dspec.varrho <= 0:
        raise PreconditionError("exp-linear Foster bound needs positive spare capacity")
    eps, th = spec.epsilon, spec.theta
    x, r1 = _cloud(region, sampler, dspec.m, (0.0, 1.0, -1.0 / eps))
    q, log_v = _ratio(_shared(lyap.log_terms, spec, x), x, dspec)
    neg_part = row_sum(np.maximum(-x, 0.0))
    decay = eps * (dspec.varrho / (2.0 * dspec.m) + NEG_WEIGHT * th * neg_part)
    return decay_report("exp_linear_foster", q + decay, log_v, r1,
                        region.radius, sampler.seed,
                        {"epsilon": eps, "theta": th, "neg_weight": NEG_WEIGHT})


def verify_sub_gaussian_foster(dspec: DiffusionSpec, spec: lyap.LyapunovSpec,
                               region: Region, sampler: SamplerConfig) -> VerificationReport:
    """Quadratic-decay Foster bound for the squared family (any sign of rho)."""
    beta = dspec.beta
    if float(beta.min()) <= 0:
        raise PreconditionError("sub-Gaussian bound needs all abandonment rates positive")
    eps, th = spec.epsilon, spec.theta
    beta_min = float(beta.min())
    coeff = (eps**2 * min(th, beta_min * min(beta_min, 0.5))
             * min(1.0, th) / (2.0 * float(dspec.mu.max())))
    x, r1 = _cloud(region, sampler, dspec.m, (0.0, 1.0, -1.0 / eps))
    q, log_v = _ratio(lyap.log_terms(spec, x), x, dspec)
    return decay_report("sub_gaussian_foster", q + coeff * r1**2, log_v, r1,
                        region.radius, sampler.seed,
                        {"epsilon": eps, "theta": th, "decay_coeff": coeff})


def verify_abandonment_foster(dspec: DiffusionSpec, spec: lyap.LyapunovSpec, region: Region,
                              sampler: SamplerConfig) -> VerificationReport:
    """L_u V^ <= k0 - k1 ||x||_1 V^ on K_0^+ x Delta for the abandonment family.

    ``region`` is a cone.  k1 is fitted on the outer half of the sampled
    radius and must be bounded away from zero for the check to pass.
    """
    if float(dspec.beta.min()) <= 0:
        raise PreconditionError("abandonment family needs all abandonment rates positive")
    x, r1 = _cloud(region, sampler, dspec.m, (0.0, 1.0))
    q, log_v = _ratio(lyap.log_terms(spec, x), x, dspec)
    k1 = fitted_slope(q, r1, r1 >= 0.5 * region.radius)
    return slope_report("abandonment_foster", q, k1, r1, log_v,
                        region.radius, sampler.seed, {"eta": spec.eta, "theta": spec.theta})


def _sum_ratio(terms_a, terms_b, x, dspec: DiffusionSpec):
    """(max_u L_u f / f, log f) for f = f_a + f_b from each family's
    ``log_terms``: grad log f = w grad L_a + (1 - w) grad L_b with the stable
    weight w = f_a / f, so the worst control comes from the weighted gradient."""
    la, ga, ha = terms_a
    lb, gb, hb = terms_b
    w = 1.0 / (1.0 + np.exp(np.clip(lb - la, -700, 700)))[:, None]
    g = w * ga + (1.0 - w) * gb
    h = w * (ga * ga + ha) + (1.0 - w) * (gb * gb + hb) - g * g
    log_f = np.logaddexp(la, lb)
    return lyap.worst_ratio_from_terms([(log_f, g, h)], x, dspec), log_f


def verify_neg_part_foster(dspec: DiffusionSpec, neg_spec: lyap.LyapunovSpec,
                           v_spec: lyap.LyapunovSpec, region: Region,
                           sampler: SamplerConfig) -> VerificationReport:
    """Two-branch Foster bound for the sum of the negative-part and exp-linear families.

    On K_0^-: L_u (V1 + V) <= k0 1_K - k1 ||x||_1 (V1 + V); on K_0^+ x Delta the
    decay floor is eps rho / 8m.  Estimates (k0, k1, cube radius).
    """
    if dspec.varrho <= 0:
        raise PreconditionError("negative-part bound needs positive spare capacity")
    expected = tuple(int(i) for i in np.nonzero(dspec.gamma <= dspec.mu)[0])
    if tuple(neg_spec.class_subset) != expected:
        raise PreconditionError(
            f"class_subset must be the gamma_i <= mu_i classes {expected}")
    eps = v_spec.epsilon
    x, r1 = _cloud(region, sampler, dspec.m, (0.0, 1.0, -1.0 / eps))
    q, log_sum = _sum_ratio(lyap.log_terms(neg_spec, x), _shared(lyap.log_terms, v_spec, x),
                            x, dspec)
    minus = row_sum(x) <= 0.0
    k1 = fitted_slope(q, r1, minus & (r1 >= 0.5 * region.radius))
    floor = eps * dspec.varrho / (8.0 * dspec.m)
    return slope_report("neg_part_foster", q, k1, r1, log_sum, region.radius, sampler.seed,
                        {"eta": neg_spec.eta, "epsilon": eps, "theta": v_spec.theta,
                         "plus_floor": floor},
                        decay=np.where(minus, k1 * r1, floor))


# The eta values the negative-part sub-Gaussian check tries, largest first.
ETA_GRID = (4.0, 2.0, 1.0, 0.5, 0.25, 0.125)


def verify_neg_part_sub_gaussian_foster(dspec: DiffusionSpec, v_spec: lyap.LyapunovSpec,
                                        class_subset: tuple[int, ...], region: Region,
                                        sampler: SamplerConfig) -> VerificationReport:
    """Grid search for eta making L_u (V~_eta V) <= c0 - c1 (V~_eta V) hold globally.

    Returns the report of the largest grid eta whose decay constant c1 is
    positive on all samples; a failed report (with notes) if no grid point
    works, which records a sampling caveat rather than refuting the bound.
    """
    if dspec.varrho <= 0:
        raise PreconditionError("negative-part bound needs positive spare capacity")
    x, r1 = _cloud(region, sampler, dspec.m, (0.0, 1.0, -1.0 / v_spec.epsilon))
    far = r1 >= 0.5 * region.radius
    v_terms = _shared(lyap.log_terms, v_spec, x)
    for eta in ETA_GRID:
        ns = lyap.LyapunovSpec(lyap.Family.NEG_PART_SUB_GAUSSIAN, dspec.mu, eta=eta,
                               class_subset=class_subset)
        ns_terms = lyap.log_terms(ns, x)
        q = lyap.worst_ratio_from_terms([ns_terms, v_terms], x, dspec)
        c1_raw = float(-np.max(q[far]))
        if c1_raw <= 0:
            last = VerificationReport(
                f"neg_part_sub_gaussian_foster[eta={eta:g}]", x.shape[0],
                int(np.sum(far & (q > 0))), c1_raw, sampler.seed,
                {"eta": eta}, passed=False,
                notes="no positive decay constant at this eta (sampling caveat)")
            continue
        c1 = 0.9 * c1_raw
        rep = decay_report(f"neg_part_sub_gaussian_foster[eta={eta:g}]", q + c1,
                           ns_terms[0] + v_terms[0], r1, region.radius, sampler.seed,
                           {"eta": eta, "c1_estimate": c1})
        if rep.passed:
            return rep
        last = rep
    return last


# max over s of -psi'(s) s: the per-coordinate slack of the cutoff middle piece
CUTOFF_SLACK = 0.2599
# No suggested sampling radius is smaller than this.
RADIUS_FLOOR = 60.0


def suggested_radius(dspec: DiffusionSpec, spec: lyap.LyapunovSpec) -> float:
    """Sampling radius comfortably past the family's expected attainment radius.

    The binding region is the far negative orthant, where coordinates inside
    the cutoff's middle piece each contribute O(CUTOFF_SLACK) while the decay
    accrues at eps theta per unit of idleness; radii therefore scale like
    m / (eps theta).  Sampling at large radius is cheap, so a 2.5x safety
    factor is applied.
    """
    m, rho = dspec.m, abs(dspec.varrho)
    mu_ratio = float(dspec.mu.max()) / float(dspec.mu.min())
    if spec.family == lyap.Family.SUB_GAUSSIAN:
        eps, th = spec.epsilon, spec.theta
        r = 2.0 * (CUTOFF_SLACK * m + 0.5 * m * mu_ratio) / (eps * th)
    elif spec.family == lyap.Family.ABANDON_EXP:
        th = spec.theta
        beta_min = float(dspec.beta.min()) if np.all(dspec.gamma > 0) else 1.0
        r = (0.5 * m + rho + CUTOFF_SLACK * m) / min(beta_min, th, 1.0) * mu_ratio
    else:
        eps, th = spec.epsilon, spec.theta
        slack = CUTOFF_SLACK * m + eps * (th * rho + rho / (2.0 * m) + eps * th * th * dspec.c_bar)
        r = slack / (eps * th * max(1.0 - NEG_WEIGHT, 0.25))
    return max(RADIUS_FLOOR, 2.5 * r)


def _group(*checks):
    """A job that runs checks (callables of no arguments, each returning a
    report) in order on one process, and drops that process's cloud and
    shared terms when it ends."""
    def run() -> list[VerificationReport]:
        try:
            return [check() for check in checks]
        finally:
            _cloud.cache_clear()
            _TERMS.clear()
    return run


def suite_groups(params: SystemParams, sampler: SamplerConfig,
                 truncations: tuple[float, ...] = (1.0, 5.0, math.inf),
                 eta: float = 1.0) -> list:
    """Every applicable certification for this parameter set, as independent
    jobs, one per sampled cloud, each returning its reports in suite order.

    The drift checks, one per truncation level, sample the ball of radius
    50.  Each Foster check samples a ball sized by ``suggested_radius`` to its
    own family's expected attainment radius, which the exp-linear,
    negative-part and negative-part sub-Gaussian checks share; the
    abandonment check samples the cone of its radius.  A system with spare
    capacity <= 0 and some gamma_i = 0 has no applicable check and raises
    PreconditionError.
    """
    varrho = spare_capacity(params)
    if varrho <= 0 and not float(params.gamma.min()) > 0:
        raise PreconditionError(f"no certificate applies: spare capacity {varrho:g} <= 0 "
                                "and not every abandonment rate gamma_i is positive")
    dspec = diffusion_spec(params)
    part = functools.partial
    groups = []
    if varrho > 0:
        spec = lyap.select_parameters(lyap.Family.EXP_LINEAR, params)
        ball = Region.ball(50.0)
        groups.append(_group(*(part(verify_exp_linear_drift, dspec, spec, c, ball, sampler)
                               for c in truncations)))
        region = Region.ball(suggested_radius(dspec, spec))
        neg = lyap.select_parameters(lyap.Family.NEG_PART_EXP, params, eta=eta)
        groups.append(_group(
            part(verify_exp_linear_foster, dspec, spec, region, sampler),
            part(verify_neg_part_foster, dspec, neg, spec, region, sampler),
            part(verify_neg_part_sub_gaussian_foster, dspec, spec, neg.class_subset, region,
                 sampler)))
    if float(params.gamma.min()) > 0:
        sg = lyap.select_parameters(lyap.Family.SUB_GAUSSIAN, params)
        groups.append(_group(part(verify_sub_gaussian_foster, dspec, sg,
                                  Region.ball(suggested_radius(dspec, sg)), sampler)))
        ab = lyap.select_parameters(lyap.Family.ABANDON_EXP, params, eta=eta)
        groups.append(_group(part(verify_abandonment_foster, dspec, ab,
                                  Region.cone(suggested_radius(dspec, ab)), sampler)))
    return groups


def default_suite(params: SystemParams, sampler: SamplerConfig,
                  truncations: tuple[float, ...] = (1.0, 5.0, math.inf),
                  eta: float = 1.0) -> list[VerificationReport]:
    """The reports of ``suite_groups``, its groups run by ``workers.run_jobs``."""
    groups = workers.run_jobs(suite_groups(params, sampler, truncations, eta))
    return [rep for group in groups for rep in group]
