"""Oracles for the prelimit Foster check: the allocation enumerator and the
greedy maximizer against brute force, each state's worst allocation against
every (state, allocation) pair recomputed from the exact generator, pinned
reports, and the exact generators against each other."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hwsim
from hwsim import lyapunov as lyap
from hwsim import queues as qs
from hwsim import verify as ver
from hwsim.model import (allocation_to_control, diffusion_spec, prelimit_params, row_sum,
                         scale_state, unscale_state)

POISSON = qs.ArrivalSpec.poisson(3)
RENEWAL = qs.ArrivalSpec((qs.Erlang(2), qs.HyperExp2(1.5), qs.Exponential()))
REGION = ver.Region.ball(40.0)
SAMPLER = ver.SamplerConfig(n_samples=500, seed=3)


# the certify benchmark's 3-class system with abandonment
CERTIFY = hwsim.SystemParams([0.5, 0.3, 0.2], [1.0, 1.0, 1.0], gamma=[0.5, 0.8, 1.2],
                             hat_lambda=[-0.5, -0.3, -0.2])


# five classes with abandonment, for arrival laws of both kinds
FIVE = hwsim.SystemParams([0.3, 0.2, 0.2, 0.15, 0.15], [1.0] * 5,
                          gamma=[0.5, 0.8, 1.2, 0.5, 0.8],
                          hat_lambda=[-0.3, -0.2, -0.2, -0.15, -0.15])


# configs/probe8.ini: eight equal classes with abandonment
PROBE8 = hwsim.SystemParams([0.125] * 8, [1.0] * 8, gamma=[0.5] * 8, hat_lambda=[-0.125] * 8)


@pytest.fixture(scope="module")
def certify_n10():
    return prelimit_params(CERTIFY, 10)


@pytest.fixture(scope="module")
def reports(certify_n10):
    return {target: qs.verify_prelimit_foster(certify_n10, POISSON, REGION, SAMPLER,
                                              target=target)
            for target in ("exp_linear", "abandon")}


def _brute_force(x, n):
    k = min(n, sum(x))
    return [z for z in itertools.product(*(range(v + 1) for v in x)) if sum(z) == k]


small_states = st.lists(st.integers(0, 5), min_size=1, max_size=4)


class TestEnumeration:
    @given(small_states, st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_exhaustive_branch_is_the_feasible_set_in_order(self, x, n):
        got = qs.enumerate_allocations(np.array(x), n)
        assert [tuple(z) for z in got] == _brute_force(x, n)
        assert len(got) == qs.count_allocations(np.array(x), n)

    @given(st.integers(1, 4).flatmap(
        lambda m: st.lists(st.lists(st.integers(0, 5), min_size=m, max_size=m),
                           min_size=1, max_size=6)), st.integers(0, 12))
    @settings(max_examples=50, deadline=None)
    def test_stacked_states_concatenate_per_state_enumerations(self, states, n):
        states = np.array(states)
        block = qs._allocation_block(states, n)
        assert [tuple(z) for z in block] == [z for x in states.tolist()
                                             for z in _brute_force(x, n)]
        assert qs.count_allocations(states, n).tolist() == [
            len(_brute_force(x, n)) for x in states.tolist()]

    @given(st.integers(1, 4).flatmap(
        lambda m: st.lists(st.tuples(st.lists(st.integers(0, 5), min_size=m, max_size=m),
                                     st.lists(st.integers(-3, 3), min_size=m + 1,
                                              max_size=m + 1)),
                           min_size=1, max_size=6)), st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_vertices_hold_the_max_of_an_affine_function(self, rows, n):
        # the greedy allocation of each state of a stack, with coefficients
        # drawn from seven values so that many tie, lies in Z^n(x) and
        # attains the brute-force maximum
        states = np.array([x for x, _ in rows])
        coef = np.array([c for _, c in rows], dtype=float)
        got = qs._greedy_allocations(states, n, coef[:, :-1])
        assert got.shape == states.shape
        for x, c, z in zip(states.tolist(), coef.tolist(), got.tolist()):
            brute = _brute_force(x, n)
            assert tuple(z) in brute

            def f(z):
                return c[-1] + sum(a * v for a, v in zip(c, z))
            assert f(z) == max(map(f, brute))

    def test_counts_past_int64_are_exact(self):
        # no box binds when every x_i >= n: |Z| = C(n + m - 1, m - 1)
        assert qs.count_allocations(np.full(8, 20_000), 10_000) == math.comb(10_007, 7)


def _check_spec(p, target):
    """The Lyapunov spec and decay constant of a Poisson-input check."""
    if target == "abandon":
        beta = p.beta_n
        theta = min(1.0, max(1.0 - float(beta.min()), 0.5) / float(beta.max()))
        return lyap.LyapunovSpec(lyap.Family.ABANDON_EXP, p.mu_n, eta=1.0, theta=theta), 0.0
    spec = qs.estimate_prelimit_constants(p, POISSON)
    return spec, spec.epsilon * p.varrho_n / (2.0 * p.m)


def _independent_report(p, spec, target, states, decay):
    """The check's report from ctmc_generator_ratio over every pair."""
    ts, log_vs, r1s = [], [], []
    for x in states:
        z = qs.enumerate_allocations(x, p.n)
        xs = np.broadcast_to(x, z.shape)
        ts.append(qs.ctmc_generator_ratio(spec, xs, z, p) + decay)
        xhat = scale_state(xs.astype(float), p)
        log_vs.append(lyap.log_value(spec, xhat))
        r1s.append(np.abs(xhat).sum(axis=1))
    t, log_v, r1 = map(np.concatenate, (ts, log_vs, r1s))
    if target == "abandon":
        far = r1 >= 0.5 * REGION.radius
        t = t + 0.9 * float(np.min(-t[far] / r1[far])) * r1
    return ver.decay_report(target, t, log_v, r1, REGION.radius, SAMPLER.seed, {})


class TestPrelimitCheck:
    @pytest.mark.parametrize("target", ["exp_linear", "abandon"])
    def test_every_pair_matches_the_exact_generator(self, certify_n10, reports, target):
        p, rep = certify_n10, reports[target]
        spec, decay = _check_spec(p, target)
        if target == "exp_linear":
            assert rep.constants["decay"] == decay
        assert rep.constants["theta"] == spec.theta
        states = qs._sample_prelimit_states(p, REGION, SAMPLER,
                                            np.random.default_rng(SAMPLER.seed))
        assert len(states) < rep.n_samples
        ref = _independent_report(p, spec, target, states, decay)
        assert rep.n_samples == ref.n_samples
        assert rep.violations == ref.violations
        assert rep.worst_margin == pytest.approx(ref.worst_margin, rel=1e-12)
        assert rep.constants["kappa_estimate"] == pytest.approx(
            ref.constants["kappa_estimate"], rel=1e-12)

    # reports recorded from a per-state evaluation of every allocation; only
    # the abandonment worst_margin differs at the greedy allocation, by the
    # rounding of one row of a k-row matmul against the same row alone
    def test_exp_linear_report_is_pinned(self, reports):
        assert reports["exp_linear"].to_dict() == {
            "inequality": "prelimit_exp_linear_foster", "samples": 2662, "violations": 0,
            "worst_margin": 0.005514974914714322, "seed": 3, "passed": True,
            "constants": {"attainment_radius": 3.5280665255353885,
                          "decay": 4.42877433878802e-05,
                          "epsilon": 0.00026572646032728116,
                          "kappa_estimate": 0.0006180614584461902,
                          "theta": 0.0005314529206545623},
            "notes": ""}

    def test_abandon_report_is_pinned(self, reports):
        assert reports["abandon"].to_dict() == {
            "inequality": "prelimit_abandon_foster", "samples": 2662, "violations": 0,
            "worst_margin": 1.829250992249003, "seed": 3, "passed": True,
            "constants": {"attainment_radius": 3.1622776601683795, "eta": 1.0,
                          "kappa1_estimate": 0.37973707573220095,
                          "kappa_estimate": 1.4560805028053958,
                          "theta": 0.4166666666666667},
            "notes": ""}

    def test_priority_vertices_keep_the_exhaustive_maxima(self):
        # at n = 100 the 7 sampled states have up to 1078 allocations each:
        # every statistic of the per-state greedy allocation matches the
        # report over every (state, allocation) pair
        p, sampler = prelimit_params(CERTIFY, 100), ver.SamplerConfig(n_samples=8, seed=5)
        states = qs._sample_prelimit_states(p, REGION, sampler,
                                            np.random.default_rng(sampler.seed))
        assert qs.count_allocations(states, p.n).max() > 1000
        for target in ("exp_linear", "abandon"):
            rep = qs.verify_prelimit_foster(p, POISSON, REGION, sampler, target=target)
            spec, decay = _check_spec(p, target)
            ref = _independent_report(p, spec, target, states, decay)
            assert rep.n_samples == ref.n_samples
            assert rep.violations == ref.violations
            assert rep.worst_margin == pytest.approx(ref.worst_margin, rel=1e-12)
            assert rep.constants["kappa_estimate"] == pytest.approx(
                ref.constants["kappa_estimate"], rel=1e-12)

    def test_samples_count_every_allocation_of_the_sampled_states(self):
        # on the 8-class probe at n = 100 some states have more than 10,000
        # allocations; the report still counts every pair its worst
        # allocations cover
        p = prelimit_params(PROBE8, 100)
        sampler = ver.SamplerConfig(n_samples=20, seed=7)
        states = qs._sample_prelimit_states(p, REGION, sampler,
                                            np.random.default_rng(sampler.seed))
        counts = qs.count_allocations(states, p.n)
        assert counts.max() > 10_000
        for target in ("exp_linear", "abandon"):
            rep = qs.verify_prelimit_foster(p, qs.ArrivalSpec.poisson(8), REGION, sampler,
                                            target=target)
            assert rep.n_samples == int(counts.sum())

    # three classes at n = 10 (aged, aged, exponential), and five at n = 8
    # with two exponential classes, which are not aged, among three aged ones
    @pytest.mark.parametrize("system, n, arr, samples", [
        (CERTIFY, 10, RENEWAL, 20),
        (FIVE, 8, qs.ArrivalSpec((qs.Exponential(), qs.Erlang(2), qs.Exponential(),
                                  qs.HyperExp2(1.5), qs.Erlang(3))), 8),
    ], ids=["three", "five"])
    def test_every_renewal_pair_matches_the_scalar_generator(self, system, n, arr, samples):
        p, sampler = prelimit_params(system, n), ver.SamplerConfig(n_samples=samples, seed=7)
        lifted = qs.RenewalLyapunov(p, arr, qs.estimate_prelimit_constants(p, arr))
        assert lifted.aged == [i for i, d in enumerate(arr.dists)
                               if not isinstance(d, qs.Exponential)]
        rng = np.random.default_rng(sampler.seed)
        states = qs._sample_prelimit_states(p, REGION, sampler, rng)
        ages = rng.exponential(1.0, size=states.shape) / p.lambda_n
        t, _, _ = qs._pair_stage(p, states, lifted.pair_terms(states, ages))
        assert len(t) == len(states)
        pairs = 0
        for got, x, s in zip(t, states, ages):
            val = lifted.value(x, s)
            hazard = float(np.sum(lifted.hazard_n(s)))
            want, scale = [], []
            for z in qs.enumerate_allocations(x, p.n):
                want.append(qs.prelimit_generator_apply(lifted, x, s, z, p, arr) / val)
                # each term of the generator over V~ is at most a rate, or
                # the age derivative
                scale.append(hazard + float(np.sum(p.mu_n * z + p.gamma_n * (x - z)))
                             + abs(float(lifted.ds_sum(x, s))) / val)
            pairs += len(want)
            # each state's t is its worst allocation's
            assert abs(got - max(want)) <= 1e-10 * max(scale)
        assert pairs > 100

    def test_renewal_report_is_pinned(self, certify_n10):
        rep = qs.verify_prelimit_foster(certify_n10, RENEWAL, REGION,
                                        ver.SamplerConfig(n_samples=20, seed=7))
        assert rep.to_dict() == {
            "inequality": "prelimit_renewal_foster", "samples": 112, "violations": 0,
            "worst_margin": 0.0037479052740454913, "seed": 7, "passed": True,
            "constants": {"attainment_radius": 1.5811388300841898,
                          "decay": 2.0010918705608607e-05,
                          "epsilon": 0.00018009826835047743,
                          "kappa_estimate": 0.00012462090103848952,
                          "theta": 0.00036019653670095486},
            "notes": ""}

    # the jobs verify-drift runs on configs/probe8.ini and probe8_renewal.ini
    # (n = 100, seed 7), at 200 samples; summing each state's rates * dn by
    # row_sum instead of its own matmul moves the abandonment worst_margin
    # and the renewal kappa_estimate
    @pytest.mark.parametrize("arr, want", [
        (qs.ArrivalSpec.poisson(8), [
            {"inequality": "prelimit_exp_linear_foster", "samples": 2616282472,
             "violations": 0, "worst_margin": 0.00025171044277560637, "seed": 7,
             "passed": True,
             "constants": {"attainment_radius": 1.5999999999999999,
                           "decay": 7.586223210213116e-07,
                           "epsilon": 1.2137957136340988e-05,
                           "kappa_estimate": 8.041194633191838e-06,
                           "theta": 2.4275914272681977e-05},
             "notes": ""},
            {"inequality": "prelimit_abandon_foster", "samples": 2616282472,
             "violations": 0, "worst_margin": 2.111068999254922, "seed": 7, "passed": True,
             "constants": {"attainment_radius": 3.9999999999999996, "eta": 1.0,
                           "kappa1_estimate": 0.4173243755438052,
                           "kappa_estimate": 3.2277358628172257, "theta": 1.0},
             "notes": ""}]),
        (qs.ArrivalSpec((qs.Erlang(2), qs.HyperExp2(1.5)) * 4), [
            {"inequality": "prelimit_renewal_foster", "samples": 2616282472,
             "violations": 0, "worst_margin": 0.0001672238991811857, "seed": 7,
             "passed": True,
             "constants": {"attainment_radius": 1.5999999999999999,
                           "decay": 3.356565532628433e-07,
                           "epsilon": 8.05575727830824e-06,
                           "kappa_estimate": 5.169022904599365e-06,
                           "theta": 1.611151455661648e-05},
             "notes": ""}]),
    ], ids=["poisson", "renewal"])
    def test_probe8_reports_are_pinned(self, arr, want):
        jobs = qs.prelimit_groups(PROBE8, [100], arr, 200, 7, 1.0)
        assert [rep.to_dict() for job in jobs for rep in job()] == want


def _group_names(system, n_list, arr):
    """The report names of the prelimit jobs at 20 samples, in job order."""
    jobs = qs.prelimit_groups(system, n_list, arr, 20, 7, 1.0)
    return [rep.inequality for job in jobs for rep in job()]


class TestPrelimitGroups:
    def test_an_empty_n_list_gives_no_job(self):
        assert qs.prelimit_groups(CERTIFY, (), POISSON, 20, 7, 1.0) == []

    @pytest.mark.parametrize("system, arr, names", [
        (CERTIFY, POISSON, ["prelimit_exp_linear_foster", "prelimit_abandon_foster"]),
        # the abandonment check is a Poisson-input result
        (CERTIFY, RENEWAL, ["prelimit_renewal_foster"]),
        # a lognormal law bounds no mean residual life
        (CERTIFY, qs.ArrivalSpec((qs.LogNormal(1.0), qs.Erlang(2), qs.Exponential())), []),
        # varrho^n < 0: only the abandonment check applies
        (hwsim.SystemParams([0.5, 0.5], [1.0, 1.0], gamma=[1.0, 1.0], hat_lambda=[0.5, 0.5]),
         qs.ArrivalSpec.poisson(2), ["prelimit_abandon_foster"]),
        # a class that does not abandon: only the exp-linear check applies
        (hwsim.SystemParams([0.5, 0.5], [1.0, 1.0], gamma=[0.0, 0.5],
                            hat_lambda=[-0.5, -0.5]),
         qs.ArrivalSpec.poisson(2), ["prelimit_exp_linear_foster"]),
    ], ids=["poisson", "renewal", "lognormal", "no-spare-capacity", "gamma-zero"])
    def test_each_job_runs_only_where_its_check_applies(self, system, arr, names):
        assert _group_names(system, (10,), arr) == names

    def test_jobs_call_the_module_check_at_the_first_n(self, monkeypatch):
        # past n = 400 the radius is twice the empty system's ||xhat(0)||_1,
        # here sqrt(n) = 40; the samples are capped at PRELIMIT_SAMPLES
        calls = []
        monkeypatch.setattr(qs, "verify_prelimit_foster",
                            lambda *args, **kw: calls.append((args, kw)))
        for job in qs.prelimit_groups(CERTIFY, (1600, 10), POISSON, 50_000, 7, 0.5):
            job()
        assert [(a[0].n, a[1], a[2], a[3], kw) for a, kw in calls] == [
            (1600, POISSON, ver.Region.ball(80.0), ver.SamplerConfig(10_000, 7), {}),
            (1600, POISSON, ver.Region.ball(80.0), ver.SamplerConfig(10_000, 7),
             {"target": "abandon", "eta": 0.5})]
        calls.clear()
        for job in qs.prelimit_groups(CERTIFY, (400,), POISSON, 500, 7, 1.0):
            job()
        assert {(a[2], a[3]) for a, _ in calls} == {(ver.Region.ball(40.0),
                                                     ver.SamplerConfig(500, 7))}


class TestGenerators:
    @pytest.mark.parametrize("family", [lyap.Family.EXP_LINEAR, lyap.Family.ABANDON_EXP])
    def test_ratio_times_value_is_the_poisson_generator(self, certify_n10, family):
        p = certify_n10
        spec = lyap.LyapunovSpec(family, p.mu_n, epsilon=0.2, theta=0.5, eta=0.5)

        def v(x):
            return float(np.exp(lyap.log_value(spec, scale_state(x, p))))

        rng = np.random.default_rng(4)
        for x in rng.integers(0, 25, size=(10, 3)):
            allocs = qs.enumerate_allocations(x, p.n)
            for z in allocs[rng.choice(len(allocs), size=min(5, len(allocs)), replace=False)]:
                ratio = float(qs.ctmc_generator_ratio(spec, x, z, p))
                direct = qs.prelimit_generator_apply(v, x, None, z, p, POISSON)
                # relative to V(x) times the total event rate, the size of
                # each term of the generator
                scale = v(x) * float(np.sum(p.lambda_n + p.mu_n * z + p.gamma_n * (x - z)))
                assert abs(ratio * v(x) - direct) <= 1e-10 * scale

    def test_batched_consistency_errors_equal_a_per_point_loop(self):
        # the certify system's points and controls as generator-check draws
        # them; each point alone, as a 1-D state, gives the same bits
        dspec = diffusion_spec(CERTIFY)
        spec = lyap.select_parameters(lyap.Family.EXP_LINEAR, CERTIFY)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-3.0, 3.0, size=(20, 3))
        us = rng.dirichlet(np.ones(3), size=20)
        n_list = (100, 1000, 10000)
        got = qs.generator_consistency_errors(CERTIFY, dspec, spec, pts, us, n_list)
        want = np.zeros_like(got)
        for jn, n in enumerate(n_list):
            p = prelimit_params(CERTIFY, n)
            for ip, (xh0, u) in enumerate(zip(pts, us)):
                x = np.maximum(np.rint(unscale_state(xh0, p)), 0.0).astype(np.int64)
                z = np.array(qs._apportion_list(x.tolist(), p.n, u.tolist()), dtype=float)
                xhat = scale_state(x.astype(float), p)
                u_real = allocation_to_control(xhat, scale_state(z, p))
                gen = qs.ctmc_generator_ratio(spec, x, z, p)
                lim = lyap.generator_ratio(spec, xhat, u if u_real is None else u_real, dspec)
                want[ip, jn] = abs(float(gen) - float(lim))
        assert np.array_equal(got, want)
        assert np.all(got > 0)

    def test_renewal_generator_needs_a_bounded_hazard(self, certify_n10):
        class Flat:                        # a lifted function that never fails itself
            def value(self, x, s):
                return 1.0

            def ds_sum(self, x, s):
                return 0.0

        arr = qs.ArrivalSpec((qs.LogNormal(0.5), qs.Exponential(), qs.Exponential()))
        x, s = np.array([3, 4, 5]), np.ones(3)
        with pytest.raises(ver.PreconditionError, match="unbounded mean residual life"):
            qs.prelimit_generator_apply(Flat(), x, s, x, certify_n10, arr)

    def test_age_derivative_matches_a_central_difference(self, certify_n10):
        p = certify_n10
        arr = qs.ArrivalSpec((qs.Erlang(2), qs.HyperExp2(1.5), qs.Erlang(3)))
        spec = lyap.LyapunovSpec(lyap.Family.EXP_LINEAR, p.mu_n, epsilon=0.1, theta=0.25)
        lifted = qs.RenewalLyapunov(p, arr, spec)
        rng = np.random.default_rng(8)
        h = 1e-6
        for x in rng.integers(0, 25, size=(10, 3)):
            s = rng.exponential(1.0, size=3) / p.lambda_n
            fd = sum((lifted.value(x, s + h * e) - lifted.value(x, s - h * e)) / (2 * h)
                     for e in np.eye(3))
            assert lifted.ds_sum(x, s) == pytest.approx(fd, rel=1e-6, abs=1e-9 * lifted.value(x, s))


class TestArrivalLaws:
    def test_poisson_input_is_renewal_input_of_exponential_laws(self, certify_n10):
        p = certify_n10
        exponential = qs.ArrivalSpec((qs.Exponential(),) * 3)
        a = qs.estimate_prelimit_constants(p, POISSON)
        b = qs.estimate_prelimit_constants(p, exponential)
        assert (a.family, a.epsilon, a.theta) == (b.family, b.epsilon, b.theta)
        assert np.array_equal(a.mu, b.mu)
        assert qs.eps_tilde0(p, POISSON, a.theta) == math.inf
        assert qs.eps_tilde0(p, exponential, a.theta) == math.inf
        assert POISSON.m == 3 and np.array_equal(POISSON.scv, np.ones(3))
        assert exponential.is_poisson and not RENEWAL.is_poisson

    @pytest.mark.parametrize("theta", [0.05, 0.25, 1.0])
    @pytest.mark.parametrize("dists", [
        (qs.Erlang(2), qs.HyperExp2(1.5), qs.Exponential()),
        (qs.HyperExp2(4.0),) * 3,
    ], ids=["mixed", "hyperexp"])
    def test_lifted_function_is_sandwiched_at_the_eps_bound(self, certify_n10, dists, theta):
        # eps = eps~0, the largest the constructor accepts, keeps
        # 1/2 V <= V~ <= 3/2 V on sampled lattice states and ages
        p, arr = certify_n10, qs.ArrivalSpec(dists)
        spec = lyap.LyapunovSpec(lyap.Family.EXP_LINEAR, p.mu_n,
                                 epsilon=qs.eps_tilde0(p, arr, theta), theta=theta)
        lifted = qs.RenewalLyapunov(p, arr, spec)
        rng = np.random.default_rng(7)
        xh = rng.uniform(-20, 20, size=(2000, 3))
        states = np.maximum(np.rint(unscale_state(xh, p)), 0).astype(np.int64)
        ages = rng.exponential(1.0, size=(2000, 3)) / p.lambda_n
        ratio = lifted.value(states, ages) * np.exp(
            -lyap.log_value(spec, scale_state(states, p)))
        assert np.ptp(ratio) > 0.05                # the ages move V~ / V
        assert np.all((0.5 <= ratio) & (ratio <= 1.5))

    def test_lifted_function_on_poisson_input_is_v(self, certify_n10):
        # no class is aged: V~ = V, the age term is 0 and the extended
        # generator's terms are the Poisson ones bit for bit, at any ages
        p = certify_n10
        spec = qs.estimate_prelimit_constants(p, POISSON)
        lifted = qs.RenewalLyapunov(p, POISSON, spec)
        assert lifted.aged == []
        rng = np.random.default_rng(SAMPLER.seed)
        states = qs._sample_prelimit_states(p, REGION, SAMPLER, rng)
        ages = rng.exponential(1.0, size=states.shape) / p.lambda_n
        log_v = lyap.log_value(spec, scale_state(states, p))
        assert np.array_equal(lifted.value(states, ages), np.exp(log_v))
        assert np.all(lifted.ds_sum(states, ages) == 0.0)
        got = lifted.pair_terms(states, ages)
        for a, b in zip(got, lifted.pair_terms(states, np.zeros_like(ages))):
            assert np.array_equal(a, b)
        # the Poisson terms from every neighbour of every state at once
        eye = np.eye(3, dtype=np.int64)
        up, dn = (np.exp(lyap.log_value(spec, scale_state(states[:, None, :] + k * eye, p))
                         - log_v[:, None]) - 1.0 for k in (1, -1))
        want = (row_sum(p.lambda_n * up), dn, log_v,
                row_sum(np.abs(scale_state(states, p))))
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
