"""Empirical measures built from simulation output, with moment and tail queries.

A measure carries (i) thinned state samples, taken at equal time steps and
so weighed equally (1/N each), used for histograms and tail fits, and (ii)
exact per-replica time integrals of the moment functionals ``MOMENTS`` and
of each coordinate (``moment_names``), used for means with replica-level
standard errors.  Replicas are combined in index order, so replays are
bit-identical.  Histograms keep the occupied cells of the samples' padded
bounding box, and tail fits use fixed level counts and ranges (module constants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import row_sum

# The moment functionals both simulators integrate: ||x||_1, (sum_i x_i)^-
# and sum_i x_i; each coordinate x_i is integrated too, as "coord<i>".
MOMENTS = ("l1", "neg_sum", "sum")


def moment_names(m: int) -> list[str]:
    """Every integral of an m-class run: ``MOMENTS``, then coord0..coord<m-1>."""
    return [*MOMENTS, *(f"coord{i}" for i in range(m))]


@dataclass
class EmpiricalMeasure:
    """Equal-weight sample representation of a time-average law."""

    samples: np.ndarray                    # (N, m) thinned states
    replica_time: np.ndarray               # (R,) accumulated (post burn-in) time
    replica_integrals: dict[str, np.ndarray] = field(default_factory=dict)  # name -> (R,)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        self.replica_time = np.asarray(self.replica_time, dtype=float)

    @property
    def m(self) -> int:
        return self.samples.shape[1]

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
        return row_sum(np.abs(self.samples))

    def histogram(self, bins_per_dim: int):
        """Fixed-width histogram over the samples' bounding box, padded by 1%;
        returns (edges list, the (K, m) indices of the occupied bins in C
        order, their masses), each sample weighing 1/N and summed in sample
        order as in ``np.histogramdd``, at any number of classes."""
        lo = self.samples.min(axis=0)
        hi = self.samples.max(axis=0)
        pad = 1e-9 + 0.01 * (hi - lo)
        lo, hi = lo - pad, hi + pad
        edges = [np.linspace(lo[d], hi[d], bins_per_dim + 1) for d in range(self.m)]
        n = len(self.samples)
        # a sample on the last edge falls in the last bin, as in histogramdd
        idx = [np.minimum(np.searchsorted(e, col, side="right"), bins_per_dim) - 1
               for e, col in zip(edges, self.samples.T)]
        # each sample's C-order cell number; where it would pass int64
        # (20^m > 2^63 from m = 15) the classes so far are ranked first
        key, span = np.zeros(n, dtype=np.int64), 1
        for col in idx:
            if span * bins_per_dim > 2**63:
                key, span = np.unique(key, return_inverse=True)[1], n
            key, span = key * bins_per_dim + col, span * bins_per_dim
        occupied, inverse = np.unique(key, return_inverse=True)
        member = np.empty(len(occupied), dtype=np.intp)       # a sample in each cell
        member[inverse] = np.arange(n)
        mass = np.bincount(inverse, weights=np.full(n, 1.0 / n))
        return edges, np.stack(idx, axis=1)[member], mass


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


def fit_tail(values: np.ndarray, form: str) -> TailFit:
    """Least-squares slope of log tail mass against r (or r^2), each value
    weighing 1/N, over the resolvable range [quantile(TAIL_START), largest r
    with >= MIN_TAIL_COUNT samples beyond]."""
    if form not in ("exponential", "sub_gaussian"):
        raise ValueError(f"unknown tail form {form!r}")
    values = np.asarray(values, dtype=float)
    order = np.argsort(values)
    v = values[order]
    w = np.full(len(v), 1.0 / max(len(v), 1))
    surv = np.concatenate([[1.0], 1.0 - np.cumsum(w)[:-1]])  # P(X >= v_k)

    lo = float(np.interp(TAIL_START, np.cumsum(w), v)) if len(v) else math.nan
    if len(v) <= MIN_TAIL_COUNT:
        return TailFit(form, 0.0, 0.0, 0.0, lo, lo, 0, flag="insufficient tail samples")
    hi = float(v[-MIN_TAIL_COUNT])
    if hi <= lo:
        return TailFit(form, 0.0, 0.0, 0.0, lo, hi, 0, flag="tail range empty")
    grid = np.linspace(lo, hi, TAIL_LEVELS)
    mass = np.append(surv, 0.0)[np.searchsorted(v, grid)]     # P(X >= r), 0 past the max
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
