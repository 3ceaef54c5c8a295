"""Cutoff calculus and Lyapunov function families with analytic derivatives.

The families are built from a fixed C^2 convex cutoff psi (constant left of
-1, identity right of 0) through the weighted sums

    Psi_eps(x)      = sum_i psi(eps x_i) / mu_i,
    Psi(x)          = sum_i psi(x_i) / mu_i,
    Psi*_{eps,th}(x)= eps th Psi(-x) + Psi_eps(x),

which track the workload (positive part) and idleness (negative part) of the
state.  Each family is declared once (``_FAMILIES``) as weighted cutoff
pieces, from which one evaluator derives its value, gradient and curvature.
All evaluations are exact and vectorized; exp-scale families expose
log-scale accessors so generator computations never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

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


class _Declaration(NamedTuple):
    needs: tuple[str, ...]
    squared: bool          # log f is T^2/2, not the inner sum T itself
    inner: Callable        # spec -> (s, cutoff pieces (c, k), shift or None)


def _psi_star(p):
    return 1.0, ((p.epsilon * p.theta, -1.0), (1.0, p.epsilon)), None


# T(x) = s sum_i (sum_(c,k) c_i psi(k x_i) + shift_i) / mu_i.  The shift of
# 1/2 keeps NEG_PART_SUB_GAUSSIAN's T nonnegative (zero deep in the positive
# orthant): squaring a T that dips negative would flip the gradient sign
# there and destroy the drift bound.
_FAMILIES = {
    Family.EXP_LINEAR: _Declaration(("epsilon", "theta"), False, _psi_star),
    Family.SUB_GAUSSIAN: _Declaration(("epsilon", "theta"), True, _psi_star),
    Family.NEG_PART_EXP: _Declaration(
        ("eta", "class_subset"), False,
        lambda p: (p.eta, ((p.subset_mask(), -1.0),), None)),
    Family.ABANDON_EXP: _Declaration(
        ("eta", "theta"), False,
        lambda p: (p.eta, ((p.theta, -1.0), (1.0, 1.0)), None)),
    Family.NEG_PART_SUB_GAUSSIAN: _Declaration(
        ("eta", "class_subset"), True,
        lambda p: (p.eta, ((p.subset_mask(), -p.eta),), 0.5 * p.subset_mask())),
}


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
        for name in _FAMILIES[f].needs:
            v = getattr(self, name)
            if v is None:
                raise ValueError(f"{f.value} requires parameter {name}")
            if name == "class_subset":
                subset = tuple(int(i) for i in v)
                if any(i < 0 or i >= self.m for i in subset):
                    raise ValueError("class_subset indices out of range")
                object.__setattr__(self, "class_subset", subset)
            elif v <= 0:
                raise ValueError(f"parameter {name} must be positive, got {v}")

    @property
    def m(self) -> int:
        return self.mu.shape[0]

    def subset_mask(self) -> np.ndarray:
        mask = np.zeros(self.m)
        if self.class_subset:
            mask[list(self.class_subset)] = 1.0
        return mask


def _times(a: float, arr):
    """a * arr, or arr itself where a is 1: the same bits, without the copy."""
    return arr if a == 1.0 else a * arr


def _inner_terms(spec: LyapunovSpec, x: np.ndarray, derivatives: bool = True):
    """The family's inner sum T(x) with its per-coordinate derivatives
    d_i T = s sum_(c,k) c k psi'(k x_i) / mu_i and d_ii T likewise with
    c k k psi''; both None with ``derivatives=False``.  Each is finished
    before the next begins, so one elementwise sum is alive at a time.
    """
    s, pieces, shift = _FAMILIES[spec.family].inner(spec)

    def weighted(fn, coef, plus=None):
        # sum over the pieces of coef(c, k) fn(k x), elementwise, plus ``plus``
        total = None
        for c, k in pieces:
            term = fn(_times(k, x))
            term *= coef(c, k)
            total = term if total is None else np.add(total, term, out=total)
        if plus is not None:
            total += plus
        return total

    val = _times(s, row_sum(weighted(psi, lambda c, k: c, shift) / spec.mu))
    if not derivatives:
        return val, None, None
    g = _times(s, weighted(psi_d1, lambda c, k: c * k)) / spec.mu
    h = _times(s, weighted(psi_d2, lambda c, k: c * k * k)) / spec.mu
    return val, g, h


def _log_scale(spec: LyapunovSpec, val, g=None, h=None, product=np.multiply):
    """(L, grad L, curvature of L) for L = log f, which is the inner sum
    T = ``val`` or, for the squared families, T^2/2; (L, None, None) without
    T's gradient g and curvature h.  The curvatures are diagonals (..., m),
    or full matrices (..., m, m) with ``product=_outer``.
    """
    if not _FAMILIES[spec.family].squared:
        return val, g, h
    L = 0.5 * val**2
    if g is None:
        return L, None, None
    t = np.expand_dims(val, tuple(range(np.ndim(val), np.ndim(h))))
    return L, val[..., None] * g, product(g, g) + t * h


def log_terms(spec: LyapunovSpec, x):
    """Log-scale value, gradient and diagonal Hessian of the family at x.

    Returns (L, grad L, diag grad^2 L) with L = log f; shapes (...,), (..., m),
    (..., m).  The diagonal is all the generator needs since a is diagonal.
    """
    return _log_scale(spec, *_inner_terms(spec, np.asarray(x, dtype=float)))


def log_value(spec: LyapunovSpec, x) -> np.ndarray:
    """L = log f at x, the first of ``log_terms``; computes the value only."""
    val, _, _ = _inner_terms(spec, np.asarray(x, dtype=float), derivatives=False)
    return _log_scale(spec, val)[0]


def gradient(spec: LyapunovSpec, x) -> np.ndarray:
    L, gl, _ = log_terms(spec, x)
    return np.exp(L)[..., None] * gl


def hessian(spec: LyapunovSpec, x) -> np.ndarray:
    """Full Hessian (..., m, m) of the linear-scale value."""
    val, g, h = _inner_terms(spec, np.asarray(x, dtype=float))
    L, gl, hess_l = _log_scale(spec, val, g, _diag_embed(h), _outer)
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

def generator_ratio(spec: LyapunovSpec, x, u, dspec: DiffusionSpec) -> np.ndarray:
    """(L_u f / f)(x), computed entirely in log scale.

    For f = exp(L) this is  (1/2) sum_i a_ii ((d_i L)^2 + d_ii L) + <b, grad L>,
    which stays finite where the linear-scale value overflows.
    """
    x = np.asarray(x, dtype=float)
    return ratio_from_terms([log_terms(spec, x)], x, u, dspec)


def ratio_from_terms(terms, x, u, dspec: DiffusionSpec) -> np.ndarray:
    """``generator_ratio`` of the product family from each factor's ``log_terms``
    at x, for callers that already hold them (they need L as well)."""
    gl, second = _second_order(terms, dspec)
    return second + row_sum(drift_truncated(x, u, dspec, math.inf) * gl)


def worst_ratio_from_terms(terms, x, dspec: DiffusionSpec) -> np.ndarray:
    """max over u in Delta of ``ratio_from_terms``: only the drift depends on u."""
    gl, second = _second_order(terms, dspec)
    return second + max_drift_along(x, gl, dspec, math.inf)


def _second_order(terms, dspec: DiffusionSpec):
    """(grad L, (1/2) sum_i a_ii ((d_i L)^2 + d_ii L)) of the product family:
    the gradient of L = log f and the part of L_u f / f free of u."""
    gl = sum(g for _, g, _ in terms)
    hl = sum(h for _, _, h in terms)
    return gl, 0.5 * row_sum(dspec.a_diag * (gl * gl + hl))


def generator_apply_direct(spec: LyapunovSpec, x, u, dspec: DiffusionSpec) -> np.ndarray:
    """L_u f(x) assembled from linear-scale gradient and Hessian: the second
    route of the dual-path consistency check of ``generator_ratio``."""
    x = np.asarray(x, dtype=float)
    trace = row_sum(dspec.a_diag * np.diagonal(hessian(spec, x), axis1=-2, axis2=-1))
    return 0.5 * trace + row_sum(drift_truncated(x, u, dspec, math.inf) * gradient(spec, x))


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
