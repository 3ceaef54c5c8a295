"""Empirical measures built from simulation output, with moment and tail queries.

A measure carries (i) thinned state samples with weights, used for
histograms and tail fits, and (ii) exact per-replica time integrals of a
declared list of moment functionals, used for means with replica-level
standard errors.  Replicas are combined in index order, so replays are
bit-identical.  Histograms span the samples' padded bounding box, and tail
fits use fixed level counts and ranges (the module constants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NORMALIZATION_TOL = 1e-12


@dataclass
class EmpiricalMeasure:
    """Weighted sample representation of a time-average or terminal-time law."""

    samples: np.ndarray                    # (N, m) thinned states
    weights: np.ndarray                    # (N,)
    replica_time: np.ndarray               # (R,) accumulated (post burn-in) time
    replica_integrals: dict[str, np.ndarray] = field(default_factory=dict)  # name -> (R,)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        self.replica_time = np.asarray(self.replica_time, dtype=float)

    @property
    def m(self) -> int:
        return self.samples.shape[1]

    def normalized_weights(self) -> np.ndarray:
        w = self.weights / self.weights.sum()
        if not abs(w.sum() - 1.0) <= NORMALIZATION_TOL:
            raise ValueError(f"weights do not normalize: total weight {self.weights.sum()}")
        return w

    def moment(self, name: str) -> tuple[float, float]:
        """Time-average of a declared functional with a replica-spread SE."""
        if name not in self.replica_integrals:
            raise KeyError(f"moment {name!r} was not accumulated; have {sorted(self.replica_integrals)}")
        integ = self.replica_integrals[name]
        live = self.replica_time > 0
        if not np.any(live):
            raise ValueError("no replica accumulated any time (all tripped before burn-in?)")
        est = float(integ[live].sum() / self.replica_time[live].sum())
        per_rep = integ[live] / self.replica_time[live]
        r = int(live.sum())
        se = float(per_rep.std(ddof=1) / np.sqrt(r)) if r > 1 else float("inf")
        return est, se

    def tail_values(self) -> np.ndarray:
        """||x||_1 of each sample, the functional the tail fits use."""
        return np.abs(self.samples).sum(axis=1)

    def histogram(self, bins_per_dim: int):
        """Fixed-width histogram over the samples' bounding box, padded by 1%;
        returns (edges list, weights array)."""
        lo = self.samples.min(axis=0)
        hi = self.samples.max(axis=0)
        pad = 1e-9 + 0.01 * (hi - lo)
        lo, hi = lo - pad, hi + pad
        edges = [np.linspace(lo[d], hi[d], bins_per_dim + 1) for d in range(self.m)]
        h, _ = np.histogramdd(self.samples, bins=edges, weights=self.normalized_weights())
        return edges, h


@dataclass
class TailFit:
    form: str            # "exponential" (log mass ~ r) or "sub_gaussian" (~ r^2)
    slope: float
    intercept: float
    r2: float
    r_lo: float
    r_hi: float
    n_levels: int
    flag: str = ""

    @property
    def ok(self) -> bool:
        return not self.flag


# The tail fit regresses at TAIL_LEVELS levels from the TAIL_START quantile
# up to the largest value with MIN_TAIL_COUNT samples beyond it.
MIN_TAIL_COUNT, TAIL_LEVELS, TAIL_START = 50, 40, 0.5


def fit_tail(values: np.ndarray, weights: np.ndarray, form: str) -> TailFit:
    """Least-squares slope of log tail mass against r (or r^2) over the
    resolvable range [quantile(TAIL_START), largest r with >= MIN_TAIL_COUNT
    samples beyond]."""
    if form not in ("exponential", "sub_gaussian"):
        raise ValueError(f"unknown tail form {form!r}")
    values = np.asarray(values, dtype=float)
    order = np.argsort(values)
    v = values[order]
    w = np.asarray(weights, dtype=float)[order]
    w = w / w.sum()
    surv = np.concatenate([[1.0], 1.0 - np.cumsum(w)[:-1]])  # P(X >= v_k)

    lo = float(np.interp(TAIL_START, np.cumsum(w), v)) if len(v) else math.nan
    if len(v) <= MIN_TAIL_COUNT:
        return TailFit(form, 0.0, 0.0, 0.0, lo, lo, 0, flag="insufficient tail samples")
    hi = float(v[-MIN_TAIL_COUNT])
    if hi <= lo:
        return TailFit(form, 0.0, 0.0, 0.0, lo, hi, 0, flag="tail range empty")
    grid = np.linspace(lo, hi, TAIL_LEVELS)
    mass = np.array([float(surv[np.searchsorted(v, r)]) if np.searchsorted(v, r) < len(v) else 0.0
                     for r in grid])
    keep = mass > 0
    grid, mass = grid[keep], mass[keep]
    if len(grid) < 4:
        return TailFit(form, 0.0, 0.0, 0.0, lo, hi, len(grid), flag="insufficient tail levels")
    y = np.log(mass)
    xr = grid if form == "exponential" else grid**2
    A = np.vstack([xr, np.ones_like(xr)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return TailFit(form, float(coef[0]), float(coef[1]), r2,
                   float(grid[0]), float(grid[-1]), len(grid))


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation between two binned probability vectors."""
    p = p / p.sum()
    q = q / q.sum()
    return 0.5 * float(np.abs(p - q).sum())
