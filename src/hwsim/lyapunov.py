"""Cutoff calculus and Lyapunov function families with analytic derivatives.

The families are built from a fixed C^2 convex cutoff psi (constant left of
-1, identity right of 0) through the weighted sums

    Psi_eps(x)      = sum_i psi(eps x_i) / mu_i,
    Psi(x)          = sum_i psi(x_i) / mu_i,
    Psi*_{eps,th}(x)= eps th Psi(-x) + Psi_eps(x),

which track the workload (positive part) and idleness (negative part) of the
state.  All evaluations are exact and vectorized; exp-scale families expose
log-scale accessors so generator computations never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (DiffusionSpec, SystemParams, drift_truncated, max_drift_along,
                    row_sum, spare_capacity)


# ---------------------------------------------------------------------------
# cutoff function
# ---------------------------------------------------------------------------

def _shifted(t: np.ndarray) -> np.ndarray:
    # s = t + 1 clipped to the middle piece; outside [-1, 0] the polynomial
    # pieces below evaluate to the correct constant continuations.
    return np.clip(t, -1.0, 0.0) + 1.0


def psi(t):
    """Piecewise cutoff: -1/2 for t <= -1, (t+1)^3 - (t+1)^4/2 - 1/2 on [-1,0], t for t >= 0."""
    t = np.asarray(t, dtype=float)
    # the polynomial only on (-1, 0) and NaN; it is -1/2 at t <= -1 and 0 at 0
    right, left = t > 0.0, t <= -1.0
    out = np.where(right, t, np.where(left, -0.5, 0.0))
    mid = ~(right | left | (t == 0.0))
    s = _shifted(t[mid])
    out[mid] = s**3 - 0.5 * s**4 - 0.5
    return out if out.ndim else float(out)


def psi_d1(t):
    """First derivative of psi; equals s^2 (3 - 2 s) with s = clip(t,-1,0)+1."""
    t = np.asarray(t, dtype=float)
    s = _shifted(t)
    out = s * s * (3.0 - 2.0 * s)
    return out if out.ndim else float(out)


def psi_d2(t):
    """Second derivative of psi; equals 6 s (1 - s), maximal value 3/2 at t = -1/2."""
    t = np.asarray(t, dtype=float)
    s = _shifted(t)
    out = 6.0 * s * (1.0 - s)
    return out if out.ndim else float(out)


def big_psi_star(x, eps: float, theta: float, mu) -> np.ndarray:
    """Psi*_{eps,theta}(x) = eps theta Psi(-x) + Psi_eps(x), vectorized over rows."""
    v, _, _ = psi_star_terms(x, eps, theta, mu)
    return v


def _psi_star_value(x: np.ndarray, eps: float, theta: float, mu: np.ndarray) -> np.ndarray:
    return row_sum((eps * theta * psi(-x) + psi(eps * x)) / mu)


def psi_star_terms(x, eps: float, theta: float, mu):
    """Value, per-coordinate gradient and per-coordinate second derivative of Psi*."""
    if eps <= 0 or theta <= 0:
        raise ValueError("eps and theta must be positive")
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    val = _psi_star_value(x, eps, theta, mu)
    g = (-eps * theta * psi_d1(-x) + eps * psi_d1(eps * x)) / mu
    h = (eps * theta * psi_d2(-x) + eps * eps * psi_d2(eps * x)) / mu
    return val, g, h


# ---------------------------------------------------------------------------
# family specifications
# ---------------------------------------------------------------------------

class Family(str, Enum):
    EXP_LINEAR = "exp_linear"                  # exp(Psi*)
    SUB_GAUSSIAN = "sub_gaussian"              # exp(Psi*^2 / 2)
    NEG_PART_EXP = "neg_part_exp"              # exp(eta Phi_1)
    ABANDON_EXP = "abandon_exp"                # exp(eta th Psi(-x) + eta Psi(x))
    NEG_PART_SUB_GAUSSIAN = "neg_part_sub_gaussian"  # exp([eta Phi_eta]^2 / 2)


class InfeasibleGoal(ValueError):
    """The requested family has no admissible parameters for this system."""


@dataclass(frozen=True)
class LyapunovSpec:
    family: Family
    mu: np.ndarray
    epsilon: float | None = None
    theta: float | None = None
    eta: float | None = None
    class_subset: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        f = self.family
        need = {
            Family.EXP_LINEAR: ("epsilon", "theta"),
            Family.SUB_GAUSSIAN: ("epsilon", "theta"),
            Family.NEG_PART_EXP: ("eta",),
            Family.ABANDON_EXP: ("eta", "theta"),
            Family.NEG_PART_SUB_GAUSSIAN: ("eta",),
        }[f]
        for name in need:
            v = getattr(self, name)
            if v is None:
                raise ValueError(f"{f.value} requires parameter {name}")
            if v <= 0:
                raise ValueError(f"parameter {name} must be positive, got {v}")
        if f in (Family.NEG_PART_EXP, Family.NEG_PART_SUB_GAUSSIAN):
            if self.class_subset is None:
                raise ValueError(f"{f.value} requires class_subset")
            subset = tuple(int(i) for i in self.class_subset)
            if any(i < 0 or i >= self.m for i in subset):
                raise ValueError("class_subset indices out of range")
            object.__setattr__(self, "class_subset", subset)

    @property
    def m(self) -> int:
        return self.mu.shape[0]

    def subset_mask(self) -> np.ndarray:
        mask = np.zeros(self.m)
        if self.class_subset:
            mask[list(self.class_subset)] = 1.0
        return mask


def _inner_terms(spec: LyapunovSpec, x: np.ndarray, derivatives: bool = True):
    """Separable inner sum T(x) with per-coordinate first/second derivatives.

    For EXP_LINEAR/ABANDON_EXP/NEG_PART_EXP the log of the family is T itself;
    for the squared families the log is T^2/2.
    With ``derivatives=False`` only T is computed and both derivatives are None.
    """
    mu = spec.mu
    f = spec.family
    if f in (Family.EXP_LINEAR, Family.SUB_GAUSSIAN):
        if not derivatives:
            return _psi_star_value(x, spec.epsilon, spec.theta, mu), None, None
        return psi_star_terms(x, spec.epsilon, spec.theta, mu)
    if f == Family.ABANDON_EXP:
        eta, th = spec.eta, spec.theta
        val = eta * row_sum((th * psi(-x) + psi(x)) / mu)
        if not derivatives:
            return val, None, None
        g = eta * (-th * psi_d1(-x) + psi_d1(x)) / mu
        h = eta * (th * psi_d2(-x) + psi_d2(x)) / mu
        return val, g, h
    if f == Family.NEG_PART_EXP:
        eta = spec.eta
        mask = spec.subset_mask()
        val = eta * row_sum(mask * psi(-x) / mu)
        if not derivatives:
            return val, None, None
        g = -eta * mask * psi_d1(-x) / mu
        h = eta * mask * psi_d2(-x) / mu
        return val, g, h
    # NEG_PART_SUB_GAUSSIAN: the +1/2 shift keeps the inner sum nonnegative
    # (zero deep in the positive orthant); squaring an inner sum that dips
    # negative would flip the gradient sign there and destroy the drift bound
    eta = spec.eta
    mask = spec.subset_mask()
    val = eta * row_sum(mask * (psi(-eta * x) + 0.5) / mu)
    if not derivatives:
        return val, None, None
    g = -eta * eta * mask * psi_d1(-eta * x) / mu
    h = eta**3 * mask * psi_d2(-eta * x) / mu
    return val, g, h


def _log_of_inner(spec: LyapunovSpec, val: np.ndarray) -> np.ndarray:
    """L = log f from the inner sum T."""
    f = spec.family
    if f in (Family.EXP_LINEAR, Family.ABANDON_EXP, Family.NEG_PART_EXP):
        return val
    return 0.5 * val**2


def log_terms(spec: LyapunovSpec, x):
    """Log-scale value, gradient and diagonal Hessian of the family at x.

    Returns (L, grad L, diag grad^2 L) with L = log f; shapes (...,), (..., m),
    (..., m).  The diagonal is all the generator needs since a is diagonal.
    """
    x = np.asarray(x, dtype=float)
    val, g, h = _inner_terms(spec, x)
    L = _log_of_inner(spec, val)
    f = spec.family
    if f in (Family.EXP_LINEAR, Family.ABANDON_EXP, Family.NEG_PART_EXP):
        return L, g, h
    return L, val[..., None] * g, g * g + val[..., None] * h


def log_value(spec: LyapunovSpec, x) -> np.ndarray:
    """L = log f at x, the first of ``log_terms``; computes the value only."""
    x = np.asarray(x, dtype=float)
    val, _, _ = _inner_terms(spec, x, derivatives=False)
    return _log_of_inner(spec, val)


def evaluate(spec: LyapunovSpec, x) -> np.ndarray:
    """Linear-scale value of the family (may overflow far out; see log_value)."""
    return np.exp(log_value(spec, x))


def gradient(spec: LyapunovSpec, x) -> np.ndarray:
    L, gl, _ = log_terms(spec, x)
    return np.exp(L)[..., None] * gl


def hessian(spec: LyapunovSpec, x) -> np.ndarray:
    """Full Hessian (..., m, m) of the linear-scale value."""
    x = np.asarray(x, dtype=float)
    val, g, h = _inner_terms(spec, x)
    f = spec.family
    L = _log_of_inner(spec, val)
    if f in (Family.EXP_LINEAR, Family.ABANDON_EXP, Family.NEG_PART_EXP):
        gl = g
        hess_l = _diag_embed(h)
    else:
        gl = val[..., None] * g
        hess_l = _outer(g, g) + val[..., None, None] * _diag_embed(h)
    return np.exp(L)[..., None, None] * (_outer(gl, gl) + hess_l)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :]


def _diag_embed(d: np.ndarray) -> np.ndarray:
    out = np.zeros(d.shape + (d.shape[-1],))
    idx = np.arange(d.shape[-1])
    out[..., idx, idx] = d
    return out


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def generator_ratio(spec, x, u, dspec: DiffusionSpec, c: float = math.inf) -> np.ndarray:
    """(L_u f / f)(x) for the truncated drift, computed entirely in log scale.

    For f = exp(L) this is  (1/2) sum_i a_ii ((d_i L)^2 + d_ii L) + <b_c, grad L>,
    which stays finite where the linear-scale value overflows.  ``spec`` may be
    a single LyapunovSpec or a sequence, in which case the product family
    (log-sum) is used.
    """
    specs = [spec] if isinstance(spec, LyapunovSpec) else list(spec)
    x = np.asarray(x, dtype=float)
    return ratio_from_terms([log_terms(s, x) for s in specs], x, u, dspec, c)


def ratio_from_terms(terms, x, u, dspec: DiffusionSpec, c: float = math.inf) -> np.ndarray:
    """``generator_ratio`` of the product family from each factor's ``log_terms``
    at x, for callers that already hold them (they need L as well)."""
    gl, second = _second_order(terms, dspec)
    return second + row_sum(drift_truncated(x, u, dspec, c) * gl)


def worst_ratio_from_terms(terms, x, dspec: DiffusionSpec, c: float = math.inf) -> np.ndarray:
    """max over u in Delta of ``ratio_from_terms``: only the drift depends on u."""
    gl, second = _second_order(terms, dspec)
    return second + max_drift_along(x, gl, dspec, c)


def _second_order(terms, dspec: DiffusionSpec):
    """(grad L, (1/2) sum_i a_ii ((d_i L)^2 + d_ii L)) of the product family:
    the gradient of L = log f and the part of L_u f / f free of u."""
    gl = sum(g for _, g, _ in terms)
    hl = sum(h for _, _, h in terms)
    return gl, 0.5 * row_sum(dspec.a_diag * (gl * gl + hl))


def generator_apply(spec, x, u, dspec: DiffusionSpec, c: float = math.inf) -> np.ndarray:
    """L_u f(x) on linear scale (ratio form times the value)."""
    specs = [spec] if isinstance(spec, LyapunovSpec) else list(spec)
    L = sum(log_value(s, x) for s in specs)
    return generator_ratio(specs, x, u, dspec, c) * np.exp(L)


def generator_apply_direct(spec: LyapunovSpec, x, u, dspec: DiffusionSpec,
                           c: float = math.inf) -> np.ndarray:
    """L_u f(x) assembled from linear-scale gradient and Hessian.

    Redundant with ``generator_apply``; kept as the second route of the
    dual-path consistency check.
    """
    x = np.asarray(x, dtype=float)
    grad = gradient(spec, x)
    hess = hessian(spec, x)
    b = drift_truncated(x, u, dspec, c)
    idx = np.arange(spec.m)
    tr = row_sum(dspec.a_diag * hess[..., idx, idx])
    return 0.5 * tr + row_sum(b * grad)


# ---------------------------------------------------------------------------
# parameter selection
# ---------------------------------------------------------------------------

def exp_linear_theta_bound(varrho: float, m: int, beta_max: float) -> float:
    """Largest admissible theta for the exp-linear Foster bound."""
    bound = varrho / (3.0 * m * (2.0 * varrho + m))
    if beta_max > 1.0:
        bound = min(bound, 1.0 / (beta_max - 1.0))
    return min(1.0, bound)


def sub_gaussian_theta(beta_min: float, beta_max: float) -> float:
    return max(1.0 - beta_min, 0.5) / beta_max


def sub_gaussian_eps0(theta: float, beta_min: float, c_bar: float,
                      mu_min: float, mu_max: float) -> float:
    decay = min(theta, beta_min * min(beta_min, 0.5))
    return (decay / (2.0 * math.sqrt(c_bar))
            * (min(1.0, theta) * mu_min) / (max(1.0, theta) ** 2 * mu_max))


def select_parameters(family: Family, params: SystemParams, eta: float = 1.0) -> LyapunovSpec:
    """Admissible parameters of a family for this system.

    EXP_LINEAR (the exp-linear Foster bound) and NEG_PART_EXP (idleness over
    the gamma_i <= mu_i classes) need rho > 0; SUB_GAUSSIAN and ABANDON_EXP
    need every gamma_i > 0.  theta is set to the largest admissible value
    and eps to half its admissible bound; raises InfeasibleGoal when the
    family's sign conditions fail (e.g. exp-linear decay with nonpositive
    spare capacity) and ValueError for NEG_PART_SUB_GAUSSIAN, which has no
    parameter rule here.
    """
    family = Family(family)
    if family == Family.NEG_PART_SUB_GAUSSIAN:
        raise ValueError(f"family {family.value} has no parameter rule")
    varrho = spare_capacity(params)
    beta = params.beta
    beta_max = float(beta.max())
    beta_min = float(beta.min())
    c_bar = float(np.sum(params.lambda_tilde / params.mu**2))
    mu = params.mu

    if family in (Family.EXP_LINEAR, Family.NEG_PART_EXP):
        if varrho <= 0:
            raise InfeasibleGoal(f"family {family.value} needs positive spare capacity, "
                                 f"got {varrho}")
        theta = exp_linear_theta_bound(varrho, params.m, beta_max)
        eps = 0.5 * varrho / (6.0 * params.m * (3.0 + 2.0 * c_bar))
        if family == Family.EXP_LINEAR:
            return LyapunovSpec(Family.EXP_LINEAR, mu, epsilon=eps, theta=theta)
        subset = tuple(int(i) for i in np.nonzero(params.gamma <= params.mu)[0])
        return LyapunovSpec(Family.NEG_PART_EXP, mu, eta=eta, class_subset=subset)

    # SUB_GAUSSIAN and ABANDON_EXP
    if beta_min <= 0:
        raise InfeasibleGoal(f"family {family.value} needs all abandonment rates positive")
    theta = sub_gaussian_theta(beta_min, beta_max)
    if family == Family.ABANDON_EXP:
        return LyapunovSpec(Family.ABANDON_EXP, mu, eta=eta, theta=theta)
    eps = 0.5 * sub_gaussian_eps0(theta, beta_min, c_bar, float(mu.min()), float(mu.max()))
    return LyapunovSpec(Family.SUB_GAUSSIAN, mu, epsilon=eps, theta=theta)
