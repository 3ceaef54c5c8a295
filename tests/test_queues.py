import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hwsim
from hwsim import queues as qs
from hwsim.diffusion import SimConfig
from hwsim.model import prelimit_params

IDENTITY_SE = 4.0


@pytest.fixture(scope="module")
def demo_n20():
    # varrho = 1, equal service rates: E[(sum_i xhat_i)^-] = varrho_n exactly
    system = hwsim.make_system([0.5, 0.5], [1.0, 1.0], hat_lambda=[-0.5, -0.5])
    return prelimit_params(system, 20)


def _sim_cfg(seed, horizon=100.0, replicas=16):
    return SimConfig(horizon=horizon, burn_in=horizon / 10, replicas=replicas, seed=seed,
                     x0=(-0.5, -0.5), thin=0.5)


def _serve_second_first(x, n):
    z1 = min(int(x[1]), n)
    return [min(int(x[0]), n - z1), z1]


def _policies():
    return [qs.StaticPriorityPolicy((0, 1)), qs.LongestQueueFirstPolicy(),
            qs.RandomWorkConservingPolicy(), qs.ProportionalSplitPolicy((0.3, 0.7)),
            qs.FunctionPolicy(_serve_second_first, "second_first")]


RENEWAL = qs.ArrivalSpec.renewal([qs.Erlang(2), qs.HyperExp2.from_scv(1.5)])


def _assert_same_run(a, b):
    for key, val in a.measure.replica_integrals.items():
        assert np.array_equal(val, b.measure.replica_integrals[key]), key
    assert np.array_equal(a.measure.samples, b.measure.samples)
    assert np.array_equal(a.measure.replica_time, b.measure.replica_time)
    assert np.array_equal(a.event_counts, b.event_counts)
    assert np.array_equal(a.terminal, b.terminal)


class TestIdlenessIdentity:
    @pytest.mark.parametrize("pol", _policies(), ids=lambda p: p.describe())
    def test_poisson(self, demo_n20, pol):
        run = qs.simulate_ctmc(demo_n20, pol, _sim_cfg(31))
        est, se = run.measure.moment("neg_sum")
        assert not run.tripped.any()
        assert abs(est - demo_n20.varrho_n) <= IDENTITY_SE * se

    @pytest.mark.parametrize("pol", _policies(), ids=lambda p: p.describe())
    def test_renewal(self, demo_n20, pol):
        run = qs.simulate_renewal(demo_n20, RENEWAL, pol, _sim_cfg(32))
        est, se = run.measure.moment("neg_sum")
        assert not run.tripped.any()
        assert abs(est - demo_n20.varrho_n) <= IDENTITY_SE * se

    @pytest.mark.parametrize("pol", [qs.StaticPriorityPolicy((0, 1)),
                                     qs.ProportionalSplitPolicy((0.3, 0.7))],
                             ids=lambda p: p.describe())
    def test_each_class_departs_at_its_arrival_rate(self, demo_n20, pol):
        # rate conservation per class at gamma = 0: E[mu_i z_i(x)] = lambda_i
        run = qs.simulate_ctmc(demo_n20, pol, _sim_cfg(33), exact_histogram=True)
        per = []
        for hist in run.state_histograms:
            w = np.array(list(hist.values()))
            z = np.array([pol.allocate_list(list(x), demo_n20.n) for x in hist])
            per.append(w @ (demo_n20.mu_n * z) / w.sum())
        per = np.array(per)
        se = per.std(axis=0, ddof=1) / math.sqrt(len(per))
        assert np.all(np.abs(per.mean(axis=0) - demo_n20.lambda_n) <= IDENTITY_SE * se)


class TestReplay:
    @pytest.mark.parametrize("renewal", [False, True])
    def test_same_seed_same_run(self, demo_n20, renewal):
        cfg = _sim_cfg(7, horizon=20.0, replicas=3)
        runs = [qs.simulate_renewal(demo_n20, RENEWAL, qs.RandomWorkConservingPolicy(), cfg)
                if renewal else qs.simulate_ctmc(demo_n20, qs.RandomWorkConservingPolicy(), cfg)
                for _ in range(2)]
        _assert_same_run(*runs)

    def test_builtin_policy_matches_its_rule_as_a_function(self, demo_n20):
        # the list fast path of StaticPriorityPolicy and the same rule behind
        # FunctionPolicy's array path must give the same run
        cfg = _sim_cfg(8, horizon=20.0, replicas=3)
        kept = qs.simulate_ctmc(demo_n20, qs.StaticPriorityPolicy((1, 0)), cfg)
        fresh = qs.simulate_ctmc(demo_n20, qs.FunctionPolicy(_serve_second_first), cfg)
        _assert_same_run(kept, fresh)

    def test_integrals_match_the_state_histogram(self, demo_n20):
        # the loop updates l1 and sum incrementally and settles coordinates
        # lazily; the time spent in each state gives every integral directly
        cfg = SimConfig(horizon=20.0, burn_in=2.0, replicas=3, seed=10, x0=(-0.5, -0.5))
        run = qs.simulate_renewal(demo_n20, RENEWAL, qs.LongestQueueFirstPolicy(), cfg,
                                  exact_histogram=True)
        for r, hist in enumerate(run.state_histograms):
            w = np.array(list(hist.values()))
            xhat = hwsim.model.scale_state(np.array(list(hist), dtype=float), demo_n20)
            l1, s = np.abs(xhat).sum(axis=1), xhat.sum(axis=1)
            expect = {"l1": l1, "sum": s, "neg_sum": np.maximum(-s, 0.0),
                      "coord0": xhat[:, 0], "coord1": xhat[:, 1]}
            for key, f in expect.items():
                assert run.measure.replica_integrals[key][r] == pytest.approx(w @ f, rel=1e-9)
            assert run.measure.replica_time[r] == pytest.approx(w.sum(), rel=1e-12)

    def test_counts_balance_the_state(self, demo_n20):
        cfg = SimConfig(horizon=20.0, replicas=3, seed=9, x0=(-0.5, -0.5))
        run = qs.simulate_ctmc(demo_n20, qs.StaticPriorityPolicy((0, 1)), cfg)
        x0 = np.rint(hwsim.model.unscale_state(np.array([-0.5, -0.5]), demo_n20))
        net = run.event_counts[:, 0] - run.event_counts[:, 1] - run.event_counts[:, 2]
        assert np.array_equal(run.terminal, x0 + net)
        assert np.all(run.event_counts[:, 2] == 0)        # no abandonment at gamma = 0

    @pytest.mark.parametrize("fn, match", [
        (lambda x, n: [0, 0], "work-conserving"),             # idles every server
        (lambda x, n: [x[0] + 1, 0], "out of bounds"),        # serves a customer not there
        (lambda x, n: [min(x[0], n)], "out of bounds"),       # one class short
    ])
    @pytest.mark.parametrize("renewal", [False, True])
    def test_function_policy_rejects_a_bad_allocation(self, demo_n20, fn, match, renewal):
        cfg = SimConfig(horizon=2.0, replicas=1, seed=9, x0=(-0.5, -0.5))
        pol = qs.FunctionPolicy(fn)
        with pytest.raises(ValueError, match=match):
            if renewal:
                qs.simulate_renewal(demo_n20, RENEWAL, pol, cfg)
            else:
                qs.simulate_ctmc(demo_n20, pol, cfg)

    @pytest.mark.parametrize("order", [(0, 0), (0, 2), (1,), (1, 2)])
    def test_static_priority_needs_a_permutation(self, order):
        with pytest.raises(ValueError, match="permutation"):
            qs.StaticPriorityPolicy(order)


def _state_probability(run, key):
    """Time share of the raw state ``key``, averaged over the replicas'
    exact histograms, with its replica-spread standard error."""
    per = np.array([hist.get(key, 0.0) / sum(hist.values()) for hist in run.state_histograms])
    return float(per.mean()), float(per.std(ddof=1) / math.sqrt(len(per)))


class TestErlangA:
    def test_state_probabilities_match_birth_death_law(self):
        # M/M/n+M (Garnett, Mandelbaum & Reiman 2002): birth rate lambda,
        # death rate mu min(k, n) + gamma (k - n)^+ in state k
        system = hwsim.make_system([1.0], [1.0], gamma=[0.5])
        p = prelimit_params(system, 10)
        lam, mu, gam, n = float(p.lambda_n[0]), float(p.mu_n[0]), float(p.gamma_n[0]), p.n
        log_pi = np.zeros(200)
        for k in range(1, 200):
            log_pi[k] = log_pi[k - 1] + math.log(lam / (mu * min(k, n) + gam * max(k - n, 0)))
        pi = np.exp(log_pi - log_pi.max())
        pi /= pi.sum()
        cfg = SimConfig(horizon=200.0, burn_in=10.0, replicas=16, seed=5, x0=0.0)
        run = qs.simulate_ctmc(p, qs.StaticPriorityPolicy((0,)), cfg, exact_histogram=True)
        for k in (5, 8, 10, 12, 15):
            est, se = _state_probability(run, (k,))
            assert abs(est - pi[k]) <= IDENTITY_SE * se, (k, est, se, pi[k])


class TestInterarrivalLaws:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_erlang_hazard_and_mrl_match_closed_forms(self, k):
        # with a = kt and stage terms a^i / i!, i < k:
        # hazard = k a^(k-1) / (k-1)! / sum_i a^i / i!  (density over survival)
        # mrl = sum_i (k - i) a^i / i! / (k sum_i a^i / i!)
        law = qs.Erlang(k)
        for t in np.linspace(0.0, 20.0, 81):
            a = k * t
            terms = [a**i / math.factorial(i) for i in range(k)]
            density = k * a ** (k - 1) * math.exp(-a) / math.factorial(k - 1)
            survival = math.exp(-a) * sum(terms)
            mrl = sum((k - i) * v for i, v in enumerate(terms)) / (k * sum(terms))
            assert law.hazard(t) == pytest.approx(density / survival, rel=1e-12)
            assert law.mrl(t) == pytest.approx(mrl, rel=1e-12)


class TestAllocations:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_work_conserving_and_bounded(self, data):
        m = data.draw(st.integers(1, 4))
        x = data.draw(st.lists(st.integers(0, 30), min_size=m, max_size=m))
        n = data.draw(st.integers(1, 60))
        order = data.draw(st.permutations(range(m)))
        w = data.draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m))
        u = np.asarray(w) / sum(w)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pols = [qs.StaticPriorityPolicy(order), qs.LongestQueueFirstPolicy(),
                qs.RandomWorkConservingPolicy(), qs.ProportionalSplitPolicy(u)]
        for pol in pols:
            qs.validate_allocation(x, pol.allocator(m, n, rng)(x), n)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_static_priority_is_greedy(self, data):
        m = data.draw(st.integers(1, 4))
        x = data.draw(st.lists(st.integers(0, 30), min_size=m, max_size=m))
        n = data.draw(st.integers(1, 60))
        order = data.draw(st.permutations(range(m)))
        z = qs.StaticPriorityPolicy(order).allocate_list(x, n)
        free = n
        for i in order:                    # each class takes what the ones before it left
            assert z[i] == min(x[i], free)
            free -= z[i]
