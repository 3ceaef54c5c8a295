import math

import numpy as np
import pytest

import hwsim
from hwsim import lyapunov as lyap
from hwsim import queues as qs
from hwsim import verify as ver
from hwsim import workers
from hwsim.lyapunov import Family, LyapunovSpec
from hwsim.model import max_drift_along, prelimit_params, scale_state


@pytest.fixture(scope="module")
def stable_system():
    return hwsim.SystemParams([0.5, 0.5], [1.0, 1.0], hat_lambda=[-0.5, -0.5])


@pytest.fixture(scope="module")
def abandon_system():
    # negative spare capacity, all classes abandon
    return hwsim.SystemParams([0.5, 0.5], [1.0, 1.0], gamma=[1.0, 1.0],
                              hat_lambda=[0.5, 0.5])


SAMP = ver.SamplerConfig(n_samples=30_000, seed=7)


class TestSampler:
    def test_deterministic(self):
        r = ver.Region.ball(20.0)
        a = ver.sample_states(r, SAMP, 3, rng=np.random.default_rng(SAMP.seed))
        b = ver.sample_states(r, SAMP, 3, rng=np.random.default_rng(SAMP.seed))
        assert np.array_equal(a, b)

    def test_region_respected(self):
        for region in (ver.Region.ball(10.0), ver.Region.cone(10.0)):
            x = ver.sample_states(region, ver.SamplerConfig(2000, seed=3), 2,
                                  rng=np.random.default_rng(3))
            assert region.contains(x).all()
            assert len(x) == 2000

    def test_boundary_and_axes_present(self):
        x = ver.sample_states(ver.Region.ball(10.0), ver.SamplerConfig(5000, seed=1), 2,
                              rng=np.random.default_rng(1))
        s = x.sum(axis=1)
        assert np.any(np.abs(s) < 1e-12)              # hyperplane points
        assert np.any((x[:, 0] == 0.0) & (x[:, 1] != 0.0))  # axis points

    def test_cloud_is_read_only_and_dropped_after_the_suite(self, stable_system):
        args = (ver.Region.ball(20.0), ver.SamplerConfig(500, seed=2), 2, (0.0, 1.0))
        cloud = ver._cloud(*args)
        assert ver._cloud(*args)[0] is cloud[0]
        for a in cloud:
            with pytest.raises(ValueError):
                a[0] = 1.0
        ver.default_suite(stable_system, ver.SamplerConfig(500, seed=2))
        assert ver._cloud.cache_info().currsize == 0


class TestDriftInequality:
    def test_certifies_small_instance(self, stable_system):
        ds = hwsim.diffusion_spec(stable_system)
        spec = lyap.select_parameters(Family.EXP_LINEAR, stable_system)
        rep = ver.verify_exp_linear_drift(ds, spec, math.inf, ver.Region.ball(50.0), SAMP)
        assert rep.passed and rep.violations == 0
        assert rep.worst_margin > -1e-9

    def test_origin_on_both_branches(self, stable_system):
        # at x = 0 both branch right-hand sides dominate the gradient term
        ds = hwsim.diffusion_spec(stable_system)
        spec = lyap.select_parameters(Family.EXP_LINEAR, stable_system)
        eps, th = spec.epsilon, spec.theta
        m = 2
        x = np.zeros((1, 2))
        u = np.array([[0.3, 0.7]])
        _, gl, _ = lyap.log_terms(spec, x)
        from hwsim.model import drift_truncated
        lhs = float(np.sum(gl * drift_truncated(x, u, ds, math.inf), axis=-1)[0])
        rhs_minus = eps * (th * ds.varrho + (m / (2 * eps)) * (1 + eps * th))
        rhs_plus = -eps * (ds.varrho / m - th * ds.varrho - th * m / 2)
        assert lhs <= rhs_minus and lhs <= rhs_plus

    def test_truncation_independent_without_abandonment(self, stable_system):
        ds = hwsim.diffusion_spec(stable_system)
        spec = lyap.select_parameters(Family.EXP_LINEAR, stable_system)
        reps = [ver.verify_exp_linear_drift(ds, spec, c, ver.Region.ball(50.0), SAMP)
                for c in (1.0, math.inf)]
        assert reps[0].worst_margin == reps[1].worst_margin

    def test_rejects_bad_theta(self, stable_system):
        ds = hwsim.DiffusionSpec(1.0, [1.0, 1.0], [3.0, 0.0], [1.0, 1.0])
        spec = LyapunovSpec(Family.EXP_LINEAR, ds.mu, epsilon=0.01, theta=1.0)
        with pytest.raises(ver.PreconditionError):
            ver.verify_exp_linear_drift(ds, spec, math.inf, ver.Region.ball(10.0), SAMP)

    def test_rejects_nonpositive_spare_capacity(self, abandon_system):
        ds = hwsim.diffusion_spec(abandon_system)
        spec = LyapunovSpec(Family.EXP_LINEAR, ds.mu, epsilon=0.01, theta=0.1)
        with pytest.raises(ver.PreconditionError):
            ver.verify_exp_linear_drift(ds, spec, math.inf, ver.Region.ball(10.0), SAMP)


class TestFosterBounds:
    def test_exp_linear_passes_and_attains(self, stable_system):
        ds = hwsim.diffusion_spec(stable_system)
        spec = lyap.select_parameters(Family.EXP_LINEAR, stable_system)
        region = ver.Region.ball(ver.suggested_radius(ds, spec))
        rep = ver.verify_exp_linear_foster(ds, spec, region, SAMP)
        assert rep.passed
        assert rep.constants["kappa_estimate"] > 0
        assert rep.constants["attainment_radius"] < 0.8 * region.radius

    def test_full_idleness_weight_fails_far_out(self, stable_system, monkeypatch):
        # with weight 1.0 the decay margin stays positive on the deep negative
        # orthant at every radius; the halved weight closes it
        ds = hwsim.diffusion_spec(stable_system)
        spec = lyap.select_parameters(Family.EXP_LINEAR, stable_system)
        region = ver.Region.ball(ver.suggested_radius(ds, spec))
        monkeypatch.setattr(ver, "NEG_WEIGHT", 1.0)
        full = ver.verify_exp_linear_foster(ds, spec, region, SAMP)
        assert not full.passed
        assert full.constants["neg_weight"] == 1.0

    def test_kappa_stable_under_radius_doubling(self, stable_system):
        ds = hwsim.diffusion_spec(stable_system)
        spec = lyap.select_parameters(Family.EXP_LINEAR, stable_system)
        r0 = ver.suggested_radius(ds, spec)
        k1 = ver.verify_exp_linear_foster(ds, spec, ver.Region.ball(r0), SAMP)
        k2 = ver.verify_exp_linear_foster(ds, spec, ver.Region.ball(2 * r0), SAMP)
        a, b = k1.constants["kappa_estimate"], k2.constants["kappa_estimate"]
        assert abs(a - b) / a < 0.01

    def test_sub_gaussian_any_sign_of_spare_capacity(self, abandon_system):
        ds = hwsim.diffusion_spec(abandon_system)
        assert ds.varrho < 0
        spec = lyap.select_parameters(Family.SUB_GAUSSIAN, abandon_system)
        region = ver.Region.ball(ver.suggested_radius(ds, spec))
        rep = ver.verify_sub_gaussian_foster(ds, spec, region, SAMP)
        assert rep.passed

    def test_sub_gaussian_rejects_zero_abandonment(self, stable_system):
        ds = hwsim.diffusion_spec(stable_system)
        spec = LyapunovSpec(Family.SUB_GAUSSIAN, ds.mu, epsilon=0.01, theta=0.5)
        with pytest.raises(ver.PreconditionError):
            ver.verify_sub_gaussian_foster(ds, spec, ver.Region.ball(10.0), SAMP)

    def test_decay_coefficient_vanishes_with_abandonment(self):
        # beta_min -> 0 kills the quadratic decay coefficient
        th = 0.5
        for beta_min in (0.5, 0.01, 1e-6):
            coeff = min(th, beta_min * min(beta_min, 0.5))
            assert coeff <= beta_min

    def test_estimate_kappa0_interface(self, stable_system):
        ds = hwsim.diffusion_spec(stable_system)
        spec = lyap.select_parameters(Family.EXP_LINEAR, stable_system)
        region = ver.Region.ball(ver.suggested_radius(ds, spec))

        def kappa0(sampler):
            c = ver.verify_exp_linear_foster(ds, spec, region, sampler).constants
            return c["kappa_estimate"], c["attainment_radius"]

        k, r = kappa0(SAMP)
        x0 = np.zeros((1, 2))
        u0 = np.full((1, 2), 0.5)
        # L_u V(0) = (L_u V / V)(0), as V(0) = exp(0) = 1
        floor = float(lyap.generator_ratio(spec, x0, u0, ds)[0]
                      + spec.epsilon * ds.varrho / 4)
        assert k >= floor
        assert 0 < r < region.radius
        # monotone in sample count
        k_small, _ = kappa0(ver.SamplerConfig(3000, seed=7))
        assert k >= k_small - 1e-12
        # seed stability
        k_seed, _ = kappa0(ver.SamplerConfig(30_000, seed=99))
        assert abs(k - k_seed) / k < 0.05


class TestAbandonmentFamily:
    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
    def test_linear_decay_for_every_eta(self, abandon_system, eta):
        ds = hwsim.diffusion_spec(abandon_system)
        spec = lyap.select_parameters(Family.ABANDON_EXP, abandon_system, eta=eta)
        rep = ver.verify_abandonment_foster(ds, spec, ver.Region.cone(60.0), SAMP)
        assert rep.passed
        assert rep.constants["kappa1_estimate"] > 0.05

    def test_rejects_zero_abandonment(self, stable_system):
        ds = hwsim.diffusion_spec(stable_system)
        spec = LyapunovSpec(Family.ABANDON_EXP, ds.mu, eta=1.0, theta=0.5)
        with pytest.raises(ver.PreconditionError):
            ver.verify_abandonment_foster(ds, spec, ver.Region.cone(40.0), SAMP)

    def test_kappa1_stable_under_sample_doubling(self, abandon_system):
        ds = hwsim.diffusion_spec(abandon_system)
        spec = lyap.select_parameters(Family.ABANDON_EXP, abandon_system)
        r1 = ver.verify_abandonment_foster(ds, spec, ver.Region.cone(60.0),
                                           ver.SamplerConfig(20_000, seed=7))
        r2 = ver.verify_abandonment_foster(ds, spec, ver.Region.cone(60.0),
                                           ver.SamplerConfig(40_000, seed=7))
        a = r1.constants["kappa1_estimate"]
        b = r2.constants["kappa1_estimate"]
        assert abs(a - b) / a < 0.10


class TestNegativePartFamilies:
    def test_all_classes_and_eta_grid(self, stable_system):
        ds = hwsim.diffusion_spec(stable_system)
        vspec = lyap.select_parameters(Family.EXP_LINEAR, stable_system)
        region = ver.Region.ball(ver.suggested_radius(ds, vspec))
        for eta in (0.5, 1.0, 2.0, 4.0):
            neg = lyap.select_parameters(Family.NEG_PART_EXP, stable_system, eta=eta)
            assert neg.class_subset == (0, 1)
            rep = ver.verify_neg_part_foster(ds, neg, vspec, region, SAMP)
            assert rep.passed, f"eta={eta}"
            assert rep.constants["kappa1_estimate"] > 0

    def test_empty_subset_degenerates(self):
        sp = hwsim.SystemParams([0.5, 0.5], [1.0, 1.0], gamma=[2.0, 3.0],
                                hat_lambda=[-0.5, -0.5])
        ds = hwsim.diffusion_spec(sp)
        vspec = lyap.select_parameters(Family.EXP_LINEAR, sp)
        neg = lyap.select_parameters(Family.NEG_PART_EXP, sp)
        assert neg.class_subset == ()
        region = ver.Region.ball(ver.suggested_radius(ds, vspec))
        rep = ver.verify_neg_part_foster(ds, neg, vspec, region, SAMP)
        assert rep.passed

    def test_subset_must_match_rates(self, stable_system):
        ds = hwsim.diffusion_spec(stable_system)
        vspec = lyap.select_parameters(Family.EXP_LINEAR, stable_system)
        bad = LyapunovSpec(Family.NEG_PART_EXP, ds.mu, eta=1.0, class_subset=(0,))
        with pytest.raises(ver.PreconditionError):
            ver.verify_neg_part_foster(ds, bad, vspec, ver.Region.ball(40.0), SAMP)

    def test_grid_search_returns_positive_eta(self, stable_system):
        ds = hwsim.diffusion_spec(stable_system)
        vspec = lyap.select_parameters(Family.EXP_LINEAR, stable_system)
        region = ver.Region.ball(ver.suggested_radius(ds, vspec))
        rep = ver.verify_neg_part_sub_gaussian_foster(ds, vspec, (0, 1), region, SAMP)
        assert rep.passed
        assert rep.constants["eta"] > 0


class TestReportPlumbing:
    def test_replay_is_identical(self, stable_system):
        ds = hwsim.diffusion_spec(stable_system)
        spec = lyap.select_parameters(Family.EXP_LINEAR, stable_system)
        a = ver.verify_exp_linear_drift(ds, spec, 5.0, ver.Region.ball(30.0), SAMP)
        b = ver.verify_exp_linear_drift(ds, spec, 5.0, ver.Region.ball(30.0), SAMP)
        assert a.csv_row() == b.csv_row()

    def test_csv_row_shape(self, stable_system):
        ds = hwsim.diffusion_spec(stable_system)
        spec = lyap.select_parameters(Family.EXP_LINEAR, stable_system)
        rep = ver.verify_exp_linear_drift(ds, spec, 1.0, ver.Region.ball(30.0), SAMP)
        row = rep.csv_row()
        assert len(row.split(",")) == len(ver.VerificationReport.CSV_HEADER.split(","))
        assert rep.to_dict()["inequality"].startswith("exp_linear_drift")


# the certify benchmark's 3-class system with abandonment
CERTIFY = hwsim.SystemParams([0.5, 0.3, 0.2], [1.0, 1.0, 1.0], gamma=[0.5, 0.8, 1.2],
                             hat_lambda=[-0.5, -0.3, -0.2])

EPS, TH = 0.005555555555555556, 0.022222222222222223

# (inequality, worst margin, constants) of every default_suite report on
# CERTIFY at 3,000 samples, seed 3; each has 0 violations, passed, no notes
SUITE_PINS = [
    *((f"exp_linear_drift[c={c:g}]", 0.0038497169060884985,
       {"epsilon": EPS, "theta": TH, "truncation": c}) for c in (1.0, 5.0, math.inf)),
    ("exp_linear_foster", 1.568384841784457,
     {"attainment_radius": 2964.383322242206, "epsilon": EPS,
      "kappa_estimate": 0.2931369982030254, "neg_weight": 0.5, "theta": TH}),
    ("neg_part_foster", 1.1033835549981603,
     {"attainment_radius": 14265.722787395314, "epsilon": EPS, "eta": 1.0,
      "kappa1_estimate": 7.435662394451954e-05, "kappa_estimate": 2.2170852500046823,
      "plus_floor": 0.0002314814814814815, "theta": TH}),
    ("neg_part_sub_gaussian_foster[eta=0.5]", 1.6319378765848827,
     {"attainment_radius": 14265.722787395314, "c1_estimate": 1.6296148971193416,
      "eta": 0.5, "kappa_estimate": 4.848196827749643}),
    ("sub_gaussian_foster", 44.03435307819694,
     {"attainment_radius": 187.00906680459747, "decay_coeff": 3.532127097800927e-05,
      "epsilon": 0.026041666666666668, "kappa_estimate": 0.7901881652579006,
      "theta": 0.4166666666666667}),
    ("abandonment_foster", 2.766400703028985,
     {"attainment_radius": 6.691798798161641, "eta": 1.0,
      "kappa1_estimate": 0.43734723477177073, "kappa_estimate": 8.790988461855598,
      "theta": 0.4166666666666667}),
]


def test_default_suite_reports_are_pinned():
    reps = ver.default_suite(CERTIFY, ver.SamplerConfig(n_samples=3000, seed=3))
    assert [r.to_dict() for r in reps] == [
        {"inequality": name, "samples": 3000, "violations": 0, "worst_margin": worst,
         "seed": 3, "passed": True, "constants": constants, "notes": ""}
        for name, worst, constants in SUITE_PINS]


def test_default_suite_evaluates_the_exp_linear_terms_once_per_cloud(monkeypatch):
    """The drift checks on the ball of radius 50 share one evaluation of the
    terms and one of the drift's truncation-free part, and the three
    exp-linear Foster checks one of the terms; what they share is read-only,
    every memo entry is on the cloud in use, and no memo outlives its group.
    The calls are counted in this process, so the groups run here, one after
    another."""
    monkeypatch.setattr(workers, "_worker_count", lambda jobs: 1)
    log_terms, parts, shared = lyap.log_terms, ver.drift_along_parts, ver._shared
    clouds, drift_clouds = [], []

    def counting(spec, x):
        if spec.family == Family.EXP_LINEAR:
            clouds.append(x.shape)
        return log_terms(spec, x)

    def counting_parts(x, g, dspec):
        drift_clouds.append(x.shape)
        return parts(x, g, dspec)

    def checked(fn, *args):
        value = shared(fn, *args)
        assert not any(a.flags.writeable for a in value)
        x = args[0] if fn is counting_parts else args[1]
        assert all(any(a is x for a in kept) for kept, _ in ver._TERMS.values())
        return value

    monkeypatch.setattr(lyap, "log_terms", counting)
    monkeypatch.setattr(ver, "drift_along_parts", counting_parts)
    monkeypatch.setattr(ver, "_shared", checked)
    reps = ver.default_suite(CERTIFY, ver.SamplerConfig(n_samples=3000, seed=3))
    assert clouds == [(3000, 3), (3000, 3)]
    assert drift_clouds == [(3000, 3)]
    assert [r.inequality for r in reps] == [name for name, _, _ in SUITE_PINS]
    assert ver._TERMS == {}


class TestWorstControl:
    """Every check takes each state at its worst control (``model.max_drift_along``).

    Closed form and references agree within 1e-12 (1 + |value|): at a ratio
    near 0 the summands cancel, and rounding alone leaves up to ~1e-14.
    """

    @staticmethod
    def _system(m, seed):
        rng = np.random.default_rng(seed)
        mu = rng.uniform(0.5, 2.0, m)
        lam = rng.dirichlet(np.ones(m)) * mu
        gamma = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.1, 3.0, m))
        return hwsim.diffusion_spec(hwsim.SystemParams(lam, mu, gamma=gamma,
                                                       hat_lambda=rng.normal(0.0, 1.0, m)))

    @staticmethod
    def _families(mu):
        every = tuple(range(len(mu)))
        v = LyapunovSpec(Family.EXP_LINEAR, mu, epsilon=0.1, theta=0.5)
        return {
            "exp_linear": [v],
            "sub_gaussian": [LyapunovSpec(Family.SUB_GAUSSIAN, mu, epsilon=0.1, theta=0.5)],
            "neg_part": [LyapunovSpec(Family.NEG_PART_EXP, mu, eta=1.0, class_subset=every)],
            "abandon": [LyapunovSpec(Family.ABANDON_EXP, mu, eta=1.0, theta=0.5)],
            "neg_part_sub_gaussian": [LyapunovSpec(Family.NEG_PART_SUB_GAUSSIAN, mu, eta=0.5,
                                                   class_subset=(0,))],
            "product": [LyapunovSpec(Family.NEG_PART_SUB_GAUSSIAN, mu, eta=0.5,
                                     class_subset=every), v],
        }

    @staticmethod
    def _states(m):
        # joints at the truncation levels, so 1{x_i <= c} takes both values
        return ver.sample_states(ver.Region.ball(20.0), ver.SamplerConfig(300, seed=m), m,
                                 joint_values=(0.0, 1.0, 5.0))

    @pytest.mark.parametrize("c", [1.0, 5.0, math.inf])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_closed_form_is_the_vertex_max_and_beats_dirichlet_controls(self, m, c):
        # the drift check's path: max_u <grad log V, b_c(x, u)> in closed form
        ds = self._system(m, 10 * m)
        x = self._states(m)
        dirichlet = np.random.default_rng(m).dirichlet(np.ones(m), size=(len(x), 1000))
        vertices = np.broadcast_to(np.eye(m)[:, None, :], (m, len(x), m))

        def at(g, u):
            # <g, b_c(x, u)> on every (state, control) pair; u has shape (K, N, m)
            return np.sum(g * hwsim.drift_truncated(x[None], u, ds, c), axis=-1)

        for name, specs in self._families(ds.mu).items():
            g = sum(lyap.log_terms(s, x)[1] for s in specs)
            worst = max_drift_along(x, g, ds, c)
            np.testing.assert_allclose(worst, at(g, vertices).max(axis=0),
                                       rtol=1e-12, atol=1e-12, err_msg=name)
            sampled = at(g, dirichlet.transpose(1, 0, 2)).max(axis=0)
            assert np.all(worst >= sampled - 1e-12 * (1.0 + np.abs(sampled))), name

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_worst_ratio_is_the_vertex_max_of_the_generator_ratio(self, m):
        # the Foster checks' path, at c = inf
        ds = self._system(m, 10 * m)
        x = self._states(m)
        for name, specs in self._families(ds.mu).items():
            terms = [lyap.log_terms(s, x) for s in specs]
            vertex_max = np.max([lyap.ratio_from_terms(terms, x, np.broadcast_to(e, x.shape), ds)
                                 for e in np.eye(m)], axis=0)
            np.testing.assert_allclose(lyap.worst_ratio_from_terms(terms, x, ds), vertex_max,
                                       rtol=1e-12, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_weighted_sum_takes_its_worst_control_from_the_weighted_gradient(self, m):
        ds = self._system(m, 10 * m + 1)
        x = self._states(m)
        fams = self._families(ds.mu)
        spec_a, spec_b = fams["neg_part"][0], fams["exp_linear"][0]
        ta, tb = lyap.log_terms(spec_a, x), lyap.log_terms(spec_b, x)
        q, log_sum = ver._sum_ratio(ta, tb, x, ds)
        assert np.array_equal(log_sum, np.logaddexp(ta[0], tb[0]))
        w = 1.0 / (1.0 + np.exp(np.clip(tb[0] - ta[0], -700, 700)))

        def at(u):
            return (w * lyap.ratio_from_terms([ta], x, u, ds)
                    + (1.0 - w) * lyap.ratio_from_terms([tb], x, u, ds))

        vertex_max = np.max([at(np.broadcast_to(e, x.shape)) for e in np.eye(m)], axis=0)
        np.testing.assert_allclose(q, vertex_max, rtol=1e-12, atol=1e-12)
        rng = np.random.default_rng(m)
        sampled = np.max([at(rng.dirichlet(np.ones(m), size=len(x))) for _ in range(1000)],
                         axis=0)
        assert np.all(q >= sampled - 1e-12 * (1.0 + np.abs(sampled)))

    def test_reports_depend_on_the_state_set_only(self, monkeypatch):
        sampler = ver.SamplerConfig(n_samples=3000, seed=3)
        ref = [r.to_dict() for r in ver.default_suite(CERTIFY, sampler)]
        draw = ver.sample_states
        monkeypatch.setattr(ver, "sample_states", lambda *a, **k: np.random.default_rng(
            0).permutation(draw(*a, **k)))
        assert [r.to_dict() for r in ver.default_suite(CERTIFY, sampler)] == ref

    def test_no_applicable_check_is_an_error(self):
        transient = hwsim.SystemParams([0.5, 0.5], [1.0, 1.0], gamma=[0.0, 1.0],
                                       hat_lambda=[0.5, 0.5])
        with pytest.raises(ver.PreconditionError, match="no certificate applies"):
            ver.default_suite(transient, SAMP)


class TestSlopeFit:
    R1 = np.linspace(1.0, 40.0, 79)

    def test_non_decaying_generator_fails_at_the_fitted_slope(self):
        q = 0.1 * self.R1                          # L V / V grows with ||x||_1
        k1 = ver.fitted_slope(q, self.R1, self.R1 >= 20.0)
        assert k1 == pytest.approx(-0.09, rel=1e-12)
        rep = ver.slope_report("synthetic", q, k1, self.R1, np.zeros_like(q), 40.0, 0, {"a": 1.0})
        ref = ver.decay_report("synthetic", q + k1 * self.R1, np.zeros_like(q), self.R1, 40.0, 0,
                               {"a": 1.0, "kappa1_estimate": k1})
        # the slope's note comes first, then decay_report's own
        assert not ref.passed and ref.notes.startswith(f"{ref.violations} samples beyond 0.8 ")
        assert not rep.passed and rep.notes == "decay slope not bounded away from 0; " + ref.notes
        assert {**rep.to_dict(), "notes": ref.notes} == ref.to_dict()

    def test_decaying_generator_passes(self):
        q = 1.0 - 0.5 * self.R1
        k1 = ver.fitted_slope(q, self.R1, self.R1 >= 20.0)
        assert 0 < k1 < 0.5
        rep = ver.slope_report("synthetic", q, k1, self.R1, np.zeros_like(q), 40.0, 0, {})
        assert rep.passed and rep.notes == ""
        assert rep.constants["kappa1_estimate"] == k1

    def test_no_far_sample_is_a_precondition_error(self):
        with pytest.raises(ver.PreconditionError):
            ver.fitted_slope(-self.R1, self.R1, self.R1 > 40.0)

    def test_every_slope_check_reports_a_non_decaying_generator_alike(self, abandon_system,
                                                                      stable_system,
                                                                      monkeypatch):
        def growing(*args, **kwargs):
            return np.abs(args[1]).sum(axis=-1)

        monkeypatch.setattr(lyap, "worst_ratio_from_terms", growing)
        monkeypatch.setattr(ver, "_sum_ratio", lambda a, b, x, d: (growing(a, x), 0.0 * x[:, 0]))
        samp = ver.SamplerConfig(2000, seed=7)
        vspec = LyapunovSpec(Family.EXP_LINEAR, (1.0, 1.0), epsilon=0.01, theta=0.1)
        reps = [
            ver.verify_abandonment_foster(hwsim.diffusion_spec(abandon_system),
                                          lyap.select_parameters(Family.ABANDON_EXP,
                                                                 abandon_system),
                                          ver.Region.cone(40.0), samp),
            ver.verify_neg_part_foster(hwsim.diffusion_spec(stable_system),
                                       lyap.select_parameters(Family.NEG_PART_EXP, stable_system),
                                       vspec, ver.Region.ball(40.0), samp),
        ]

        def pairs(p, states, terms):
            r1 = np.abs(scale_state(states.astype(float), p)).sum(axis=1)
            return r1, 0.0 * r1, r1

        monkeypatch.setattr(qs, "_pair_stage", pairs)
        reps.append(qs.verify_prelimit_foster(prelimit_params(CERTIFY, 10),
                                              qs.ArrivalSpec.poisson(3), ver.Region.ball(40.0),
                                              ver.SamplerConfig(500, seed=3), target="abandon"))
        for rep in reps:
            assert not rep.passed and rep.violations > 0
            assert rep.notes.startswith("decay slope not bounded away from 0; ")
            assert rep.constants["kappa1_estimate"] < 0

    def test_kappa_past_the_float_range_is_compared_as_a_log(self):
        # t > 0 only inside the attainment radius, where log V = 800 > 709:
        # t V overflows, log kappa = log t + log V does not
        t = 0.5 - 0.1 * self.R1
        log_v = np.where(t > 0, 800.0, 0.0)
        rep = ver.decay_report("synthetic", t, log_v, self.R1, 40.0, 0, {})
        log_kappa = float(np.log(t[0])) + 800.0
        assert rep.passed and rep.violations == 0
        assert rep.constants["kappa_estimate"] == math.inf
        assert rep.notes == f"kappa_estimate overflows; log kappa = {log_kappa!r}"
        finite = ver.decay_report("synthetic", t, log_v - 100.0, self.R1, 40.0, 0, {})
        assert finite.passed and finite.notes == ""
        assert finite.constants["kappa_estimate"] == pytest.approx(math.exp(log_kappa - 100.0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_kappa_that_is_not_finite_as_a_log_fails_with_a_note(self, bad):
        t = 0.5 - 0.1 * self.R1
        rep = ver.decay_report("synthetic", t, np.where(t > 0, bad, 0.0), self.R1, 40.0, 0, {})
        assert not rep.passed and rep.violations == 0
        assert rep.notes == "kappa is not finite: t or log V is inf or nan where t > 0"
