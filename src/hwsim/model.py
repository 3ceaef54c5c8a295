"""Core model: system parameters, controlled drift and diffusion scaling.

The limiting diffusion for an m-class many-server system in the
Halfin-Whitt regime is

    dX_t = b(X_t, U_t) dt + sigma dW_t,
    b(x, u) = -(rho/m) M e - M (x - <e,x>^+ u) - <e,x>^+ Gamma u,

with M = diag(mu), Gamma = diag(gamma), and u a point of the simplex
Delta = {u >= 0, <e,u> = 1}.  Everything in this module is a pure function
of its inputs and vectorizes over a leading batch axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Accepted floating-point slack for simplex membership before projection.
SIMPLEX_TOL = 1e-12
# Accepted slack in the critical-load invariant sum_i lambda_i / mu_i = 1.
LOAD_TOL = 1e-9
# Accepted slack in the diffusion's invariant sum_i lambda~_i / mu_i = 1.
COVARIANCE_TOL = 1e-8
# Relative slack of allocation_to_control's work-conservation checks.
ALLOCATION_TOL = 1e-9


class SimplexError(ValueError):
    """Control vector is not on the simplex beyond tolerance."""


class WorkConservationError(ValueError):
    """Allocation is inconsistent with a work-conserving policy."""


# From this many classes on, np.add.reduce sums a row pairwise rather than
# one column after another.
PAIRWISE_CLASSES = 8


def row_sum(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.sum(x, axis=-1) bit for bit, as column adds, for float x.

    For m < 8 classes numpy's reduction adds the columns one after another
    starting from +0.0, so (x_0 + 0.0) + x_1 + ... + x_{m-1} gives the same
    bits in every row, -0.0 (which becomes +0.0), NaN and +-inf included,
    without the reduction's per-row overhead.  From m = 8 on numpy sums
    pairwise, so this falls back to np.sum (without ``out``: the reduction
    into it can flip the sign of a NaN).  ``out`` takes the result.
    """
    m = x.shape[-1]
    if not 0 < m < PAIRWISE_CLASSES:
        if out is None:
            return np.sum(x, axis=-1)
        out[...] = np.sum(x, axis=-1)
        return out
    out = np.add(x[..., 0], 0.0, out=out)
    for j in range(1, m):
        out += x[..., j]
    return out


def row_max(x: np.ndarray) -> np.ndarray:
    """np.max(x, axis=-1) bit for bit, as a running np.maximum of the columns
    (m < 8 classes; np.max from m = 8 on, as for ``row_sum``)."""
    m = x.shape[-1]
    if not 0 < m < PAIRWISE_CLASSES:
        return np.max(x, axis=-1)
    out = x[..., 0].copy()
    for j in range(1, m):
        np.maximum(out, x[..., j], out=out)
    return out


def _as_array(v, m: int | None = None) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if m is not None and a.shape[-1] != m:
        raise ValueError(f"expected last axis of length {m}, got shape {a.shape}")
    return a


def on_simplex(u, tol: float = SIMPLEX_TOL) -> np.ndarray:
    """u as an array, unchanged, if it lies on Delta within ``tol``.

    Rejects controls whose coordinates are below -tol or whose sum deviates
    from 1 by more than ``tol``.
    """
    u = _as_array(u)
    if np.any(u < -tol):
        raise SimplexError(f"negative control coordinate beyond tolerance: {u}")
    dev = u.sum(axis=-1).ravel() - 1.0
    if np.any(np.abs(dev) > tol):
        worst = float(dev[np.argmax(np.abs(dev))])
        raise SimplexError(f"control sum deviates from 1 by {worst!r}, beyond tolerance {tol:g}")
    return u


def project_simplex(u, tol: float = SIMPLEX_TOL) -> np.ndarray:
    """``on_simplex``, then clip and renormalize, so that downstream code sees
    an exact simplex point."""
    u = np.clip(on_simplex(u, tol), 0.0, None)
    return u / u.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class SystemParams:
    """Fluid-scale rates and their second-order Halfin-Whitt perturbations.

    lambda_/mu/gamma are per-class arrival, service and abandonment rates of
    the fluid limit; hat_lambda/hat_mu are the sqrt(n)-order corrections used
    to build the n-server systems; scv holds the squared coefficients of
    variation of the interarrival times (1 for Poisson input).  The class
    count m is the length of lambda_; an omitted block is zeros (scv: ones).

    Invariant: sum_i lambda_i / mu_i = 1 (critical load).
    """

    lambda_: np.ndarray
    mu: np.ndarray
    gamma: np.ndarray | None = None
    hat_lambda: np.ndarray | None = None
    hat_mu: np.ndarray | None = None
    scv: np.ndarray | None = None

    def __post_init__(self):
        m = _as_array(self.lambda_).shape[-1]
        for name in ("lambda_", "mu", "gamma", "hat_lambda", "hat_mu", "scv"):
            v = getattr(self, name)
            a = np.full(m, 1.0 if name == "scv" else 0.0) if v is None else _as_array(v, m)
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name.rstrip('_')} must be finite, got {a.tolist()}")
            object.__setattr__(self, name, a)
        if m < 1:
            raise ValueError("class count m must be >= 1")
        if np.any(self.lambda_ <= 0) or np.any(self.mu <= 0):
            raise ValueError("arrival and service rates must be positive")
        if np.any(self.gamma < 0):
            raise ValueError("abandonment rates must be nonnegative")
        if np.any(self.scv <= 0):
            raise ValueError("interarrival SCVs must be positive")
        load = float(np.sum(self.lambda_ / self.mu))
        if abs(load - 1.0) > LOAD_TOL:
            raise ValueError(f"sum of lambda_i/mu_i must be 1, got {load}")

    @property
    def m(self) -> int:
        return self.lambda_.shape[0]

    @property
    def rho(self) -> np.ndarray:
        return self.lambda_ / self.mu

    @property
    def beta(self) -> np.ndarray:
        """Abandonment-to-service rate ratios gamma_i / mu_i (never stored)."""
        return self.gamma / self.mu

    @property
    def lambda_tilde(self) -> np.ndarray:
        """Half the diffusion covariance: lambda_i (1 + scv_i) / 2."""
        return 0.5 * self.lambda_ * (1.0 + self.scv)


def spare_capacity(params: SystemParams) -> float:
    """Safety-staffing parameter rho = sum_i (rho_i hat_mu_i - hat_lambda_i) / mu_i."""
    return float(np.sum((params.rho * params.hat_mu - params.hat_lambda) / params.mu))


@dataclass(frozen=True)
class PrelimitParams:
    """Rates of a single n-server system."""

    n: int
    lambda_n: np.ndarray
    mu_n: np.ndarray
    gamma_n: np.ndarray

    def __post_init__(self):
        m = len(np.atleast_1d(self.lambda_n))
        for name in ("lambda_n", "mu_n", "gamma_n"):
            object.__setattr__(self, name, _as_array(getattr(self, name), m))
        if self.n < 1:
            raise ValueError("server count n must be >= 1")
        if np.any(self.lambda_n <= 0) or np.any(self.mu_n <= 0):
            raise ValueError("prelimit rates must be positive")
        if np.any(self.gamma_n < 0):
            raise ValueError("abandonment rates must be nonnegative")

    @property
    def m(self) -> int:
        return self.lambda_n.shape[0]

    @property
    def rho_n(self) -> np.ndarray:
        return self.lambda_n / (self.n * self.mu_n)

    @property
    def varrho_n(self) -> float:
        """Spare capacity sqrt(n) (1 - sum_i lambda^n_i / (n mu^n_i)), never stored."""
        return float(math.sqrt(self.n) * (1.0 - np.sum(self.rho_n)))

    @property
    def beta_n(self) -> np.ndarray:
        return self.gamma_n / self.mu_n

    @property
    def fluid_center(self) -> np.ndarray:
        return self.lambda_n / self.mu_n


def prelimit_params(params: SystemParams, n: int) -> PrelimitParams:
    """n-server rates realizing the Halfin-Whitt limits.

    lambda^n = n lambda + sqrt(n) hat_lambda, mu^n = mu + hat_mu / sqrt(n),
    gamma^n = gamma: the simplest family with the required first- and
    second-order behavior.
    """
    rt = math.sqrt(n)
    return PrelimitParams(
        n=n,
        lambda_n=n * params.lambda_ + rt * params.hat_lambda,
        mu_n=params.mu + params.hat_mu / rt,
        gamma_n=params.gamma.copy(),
    )


@dataclass(frozen=True)
class DiffusionSpec:
    """Drift and covariance data of the limiting diffusion.

    a_diag is the diagonal of a = sigma sigma^T, equal to
    lambda_i (1 + scv_i) = 2 lambda~_i.  Invariant: sum_i lambda~_i/mu_i = 1.
    """

    varrho: float
    mu: np.ndarray
    gamma: np.ndarray
    a_diag: np.ndarray

    def __post_init__(self):
        m = len(np.atleast_1d(self.mu))
        for name in ("mu", "gamma", "a_diag"):
            object.__setattr__(self, name, _as_array(getattr(self, name), m))

    @property
    def m(self) -> int:
        return self.mu.shape[0]

    @property
    def sigma_diag(self) -> np.ndarray:
        return np.sqrt(self.a_diag)

    @property
    def lambda_tilde(self) -> np.ndarray:
        return 0.5 * self.a_diag

    @property
    def beta(self) -> np.ndarray:
        return self.gamma / self.mu

    @property
    def c_bar(self) -> float:
        """Curvature constant sum_i lambda~_i / mu_i^2."""
        return float(np.sum(self.lambda_tilde / self.mu**2))

    def validate(self) -> None:
        s = float(np.sum(self.lambda_tilde / self.mu))
        if abs(s - 1.0) > COVARIANCE_TOL:
            raise ValueError(f"sum lambda~_i/mu_i is {s}, not 1")


def diffusion_spec(params: SystemParams) -> DiffusionSpec:
    spec = DiffusionSpec(
        varrho=spare_capacity(params),
        mu=params.mu.copy(),
        gamma=params.gamma.copy(),
        a_diag=params.lambda_ * (1.0 + params.scv),
    )
    spec.validate()
    return spec


def drift(x, u, spec: DiffusionSpec) -> np.ndarray:
    """Controlled drift b(x, u); on {<e,x> <= 0} it reduces to the
    u-independent affine branch -(rho/m) M e - M x."""
    return drift_truncated(x, u, spec, math.inf)


def drift_truncated(x, u, spec: DiffusionSpec, c: float) -> np.ndarray:
    """Drift with the abandonment term of class i dropped on {x_i > c}.

    ``drift`` is the case c = inf (every keep factor is 1.0); c must be >= 1.
    u must lie on the simplex within ``SIMPLEX_TOL`` (else SimplexError) and
    is used as given, never rescaled.
    """
    if not c >= 1.0:
        raise ValueError(f"truncation level must satisfy c >= 1, got {c}")
    x = _as_array(x, spec.m)
    u = on_simplex(u)
    pos = np.maximum(row_sum(x), 0.0)[..., None]
    keep = (x <= c).astype(float)
    return -(spec.varrho / spec.m) * spec.mu - spec.mu * (x - pos * u) - pos * spec.gamma * u * keep


def drift_along_parts(x, g, spec: DiffusionSpec) -> tuple[np.ndarray, np.ndarray]:
    """(<g, b(x, 0)>, <e,x>^+) row by row: the parts of ``max_drift_along``
    that no truncation level changes."""
    x = _as_array(x, spec.m)
    base = row_sum(g * (-(spec.varrho / spec.m) * spec.mu - spec.mu * x))
    return base, np.maximum(row_sum(x), 0.0)


def max_drift_along(x, g, spec: DiffusionSpec, c: float, parts=None) -> np.ndarray:
    """max over u in Delta of <g, b_c(x, u)>, row by row: b_c(x, u) = b_c(x, 0)
    + <e,x>^+ (mu - gamma 1{x <= c}) * u is affine in u, so the maximum sits at
    the vertex e_k with the largest (mu_k - gamma_k 1{x_k <= c}) g_k.  parts,
    ``drift_along_parts(x, g, spec)``, is evaluated here if not given."""
    if not c >= 1.0:
        raise ValueError(f"truncation level must satisfy c >= 1, got {c}")
    x = _as_array(x, spec.m)
    base, pos = drift_along_parts(x, g, spec) if parts is None else parts
    return base + pos * row_max(g * (spec.mu - spec.gamma * (x <= c)))


def scale_state(x, p: PrelimitParams) -> np.ndarray:
    """Diffusion scaling: xhat_i = (x_i - lambda^n_i/mu^n_i)/sqrt(n) - varrho^n/m."""
    x = _as_array(x, p.m)
    return (x - p.fluid_center) / math.sqrt(p.n) - p.varrho_n / p.m


def unscale_state(xhat, p: PrelimitParams) -> np.ndarray:
    """Inverse of ``scale_state`` (real-valued; round for lattice states)."""
    xhat = _as_array(xhat, p.m)
    return math.sqrt(p.n) * (xhat + p.varrho_n / p.m) + p.fluid_center


def allocation_to_control(xhat, zhat) -> np.ndarray | None:
    """Recover the simplex control u from a scaled work-conserving allocation.

    zhat = xhat - <e,xhat>^+ u.  When <e,xhat> > 0 returns u in Delta; when
    <e,xhat> <= 0 work-conservation forces zhat = xhat and u is unconstrained,
    so None is returned.  Raises WorkConservationError if the input cannot
    have come from a work-conserving allocation.
    """
    xhat = _as_array(xhat)
    zhat = _as_array(zhat, xhat.shape[-1])
    s = float(xhat.sum())
    scale0 = max(1.0, float(np.max(np.abs(xhat))))
    if s <= ALLOCATION_TOL * scale0:
        if np.max(np.abs(zhat - xhat)) > ALLOCATION_TOL * scale0:
            raise WorkConservationError("zhat != xhat although <e,xhat> <= 0")
        return None
    u = (xhat - zhat) / s
    scale = max(1.0, float(np.max(np.abs(xhat))) / s)
    try:
        return project_simplex(u, tol=ALLOCATION_TOL * scale + SIMPLEX_TOL)
    except SimplexError as err:
        raise WorkConservationError(f"recovered control leaves the simplex: {err}") from err
