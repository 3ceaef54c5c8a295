"""Closed-form oracles for the stationary total S = <e, X>.

When every class has the same mu and the same gamma, S is an autonomous
one-dimensional diffusion, whatever the control: its drift is
-mu varrho - mu min(S, 0) - gamma max(S, 0) and its variance
sum_i lambda_i (1 + scv_i) = 2 mu.  Its stationary density is proportional to
exp(-varrho s - s^2 / 2) for s < 0 and exp(-varrho s - (gamma / 2 mu) s^2) for
s > 0 (Halfin & Whitt 1981 for gamma = 0; Garnett, Mandelbaum & Reiman 2002
for gamma > 0).  On Poisson input the n-server total N is the M/M/n(+M)
birth-death chain under every work-conserving policy, and its scaled value is
(N - n) / sqrt(n).  Every simulated E[S] and E[S^+] must lie within 4 SE of
these laws.

The Euler-Maruyama step 0.02 biases E[S] on the demo by +0.0002 +- 0.0026
(4000 replicas over 250 time units), far below the 0.02-0.03 SE here.
"""

import math

import numpy as np
import pytest

import hwsim
from hwsim import diffusion as dif
from hwsim import queues as qs
from hwsim.measures import EmpiricalMeasure
from hwsim.model import prelimit_params

ORACLE_SE = 4.0
# the demo system (mu = 1, varrho = 1) without and with equal abandonment
GAMMAS = (0.0, 0.5)


def _system(gamma):
    return hwsim.make_system([0.5, 0.5], [1.0, 1.0], gamma=[gamma, gamma],
                             hat_lambda=[-0.5, -0.5])


def diffusion_total_law(varrho, mu, gamma, h=1e-3, width=60.0):
    """(E[S], E[S^+]) of the stationary total, by the midpoint rule on each
    side of the kink at 0."""
    s = h * (np.arange(int(width / h)) + 0.5)
    neg = np.exp(varrho * s - 0.5 * s * s)               # density at -s
    pos = np.exp(-varrho * s - 0.5 * gamma / mu * s * s)
    z = neg.sum() + pos.sum()
    return float((s @ pos - s @ neg) / z), float(s @ pos / z)


def birth_death_total_law(arrival_rate, mu, gamma, n):
    """(E[S], E[S^+]) of S = (N - n) / sqrt(n) for the M/M/n(+M) total N."""
    k = np.arange(4 * n + 400)
    death = mu * np.minimum(k[1:], n) + gamma * np.maximum(k[1:] - n, 0)
    log_pi = np.concatenate([[0.0], np.cumsum(np.log(arrival_rate / death))])
    pi = np.exp(log_pi - log_pi.max())
    pi /= pi.sum()
    s = (k - n) / math.sqrt(n)
    return float(pi @ s), float(pi @ np.maximum(s, 0.0))


def _total_moments(measure):
    """(E[S], SE) and (E[S^+], SE), with S^+ = S + S^- integrated per replica."""
    pos = measure.replica_integrals["sum"] + measure.replica_integrals["neg_sum"]
    plus = EmpiricalMeasure(measure.samples, measure.weights, measure.replica_time,
                            {"plus": pos})
    return measure.moment("sum"), plus.moment("plus")


def _assert_matches(measure, exact):
    (s, se), (plus, se_plus) = _total_moments(measure)
    assert abs(s - exact[0]) <= ORACLE_SE * se, (s, se, exact[0])
    assert abs(plus - exact[1]) <= ORACLE_SE * se_plus, (plus, se_plus, exact[1])


def test_laws_match_the_reference_values():
    assert diffusion_total_law(1.0, 1.0, 0.0) == pytest.approx((-0.77664, 0.22336), abs=1e-5)
    assert diffusion_total_law(1.0, 1.0, 0.5) == pytest.approx((-0.94283, 0.11435), abs=1e-5)
    # E[S^-] = varrho without abandonment
    assert diffusion_total_law(1.0, 1.0, 0.0)[1] == pytest.approx(1.0 - 0.7766387, abs=1e-6)
    for gamma, mean in ((0.0, -0.80475), (0.5, -0.94883)):
        assert birth_death_total_law(90.0, 1.0, gamma, 100)[0] == pytest.approx(mean, abs=1e-5)


def _controls():
    edges = [np.array([-1.0, 0.0, 1.0])] * 2
    table = np.zeros((2, 2, 2))
    table[..., 0] = [[1.0, 0.0], [0.0, 1.0]]
    table[..., 1] = 1.0 - table[..., 0]
    return [dif.ConstantControl([0.3, 0.7]), dif.StaticPriorityControl((0, 1)),
            dif.StateTableControl(edges, table),
            dif.FunctionControl(lambda x: np.where(x[:, :1] >= x[:, 1:], [0.0, 1.0],
                                                   [1.0, 0.0]), "shorter_queue")]


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("k", range(4), ids=lambda k: _controls()[k].describe())
def test_diffusion_total_matches_the_law(gamma, k):
    cfg = dif.SimConfig(horizon=32.0, step=0.02, burn_in=2.0, replicas=200, seed=60 + k,
                        x0=(-0.5, -0.5), thin=1.0)
    run = dif.simulate(hwsim.diffusion_spec(_system(gamma)), _controls()[k], cfg)
    assert not run.tripped.any()
    _assert_matches(run.measure, diffusion_total_law(1.0, 1.0, gamma))


def _serve_second_first(x, n):
    z1 = min(int(x[1]), n)
    return [min(int(x[0]), n - z1), z1]


def _policies():
    return [qs.StaticPriorityPolicy((0, 1)), qs.LongestQueueFirstPolicy(),
            qs.RandomWorkConservingPolicy(), qs.ProportionalSplitPolicy((0.3, 0.7)),
            qs.FunctionPolicy(_serve_second_first, "second_first")]


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("k", range(5), ids=lambda k: _policies()[k].describe())
def test_queue_total_matches_the_birth_death_law(gamma, k):
    p = prelimit_params(_system(gamma), 16)
    cfg = dif.SimConfig(horizon=50.0, burn_in=2.0, replicas=8, seed=40 + k,
                        x0=(-0.5, -0.5), thin=1.0)
    run = qs.simulate_ctmc(p, _policies()[k], cfg)
    assert not run.tripped.any()
    exact = birth_death_total_law(float(p.lambda_n.sum()), float(p.mu_n[0]), gamma, p.n)
    _assert_matches(run.measure, exact)
