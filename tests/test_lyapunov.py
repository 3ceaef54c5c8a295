import math

import numpy as np
import pytest

import hwsim
from hwsim import lyapunov as lyap
from hwsim.lyapunov import Family, Goal, LyapunovSpec


@pytest.fixture(scope="module")
def system():
    return hwsim.make_system([0.5, 0.6], [1.0, 1.2], gamma=[0.3, 0.6],
                             hat_lambda=[-0.5, -0.6], scv=[1.3, 0.7])


@pytest.fixture(scope="module")
def dspec(system):
    return hwsim.diffusion_spec(system)


def all_family_specs(mu):
    return {
        "exp_linear": LyapunovSpec(Family.EXP_LINEAR, mu, epsilon=0.1, theta=0.4),
        "sub_gaussian": LyapunovSpec(Family.SUB_GAUSSIAN, mu, epsilon=0.08, theta=0.3),
        "neg_part_exp": LyapunovSpec(Family.NEG_PART_EXP, mu, eta=0.7, class_subset=(0,)),
        "abandon_exp": LyapunovSpec(Family.ABANDON_EXP, mu, eta=0.9, theta=0.5),
        "neg_part_sub_gaussian": LyapunovSpec(Family.NEG_PART_SUB_GAUSSIAN, mu,
                                              eta=0.8, class_subset=(0, 1)),
    }


class TestCutoff:
    def test_boundary_values(self):
        assert hwsim.psi(-1.0) == -0.5
        assert hwsim.psi(0.0) == 0.0
        assert hwsim.psi(2.0) == 2.0
        assert hwsim.psi(-5.0) == -0.5

    def test_half_slope(self):
        assert hwsim.psi_d1(-0.5) == pytest.approx(0.5)

    def test_curvature_peak(self):
        t = np.linspace(-3.0, 2.0, 100_001)
        d2 = hwsim.psi_d2(t)
        assert d2.max() == pytest.approx(1.5, abs=1e-9)
        assert t[np.argmax(d2)] == pytest.approx(-0.5, abs=1e-4)

    def test_convex_and_slope_range(self):
        t = np.linspace(-5.0, 5.0, 20_001)
        assert np.all(hwsim.psi_d2(t) >= 0.0)
        d1 = hwsim.psi_d1(t)
        assert d1.min() >= 0.0 and d1.max() <= 1.0

    def test_c2_joints(self):
        for t0 in (-1.0, 0.0):
            h = 1e-7
            assert hwsim.psi_d1(t0 - h) == pytest.approx(hwsim.psi_d1(t0 + h), abs=1e-6)
            assert hwsim.psi_d2(t0 - h) == pytest.approx(hwsim.psi_d2(t0 + h), abs=1e-5)

    def test_scaled_curvature_bound(self):
        eps = 0.37
        t = np.linspace(-20, 20, 50_001)
        assert np.max(eps * eps * lyap.psi_d2(eps * t)) <= 1.5 * eps**2 + 1e-12


class TestWeightedSums:
    def test_zero_at_origin(self):
        assert lyap.big_psi_star(np.zeros(2), 0.1, 1.0, [1.0, 1.0]) == 0.0

    def test_hand_value(self):
        v = lyap.big_psi_star(np.array([5.0]), 0.1, 1.0, [1.0])
        assert v == pytest.approx(0.45)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        mu = np.array([1.0, 1.7, 0.8])
        x = rng.uniform(-8, 8, size=(1000, 3))
        _, g, _ = lyap.psi_star_terms(x, 0.07, 0.6, mu)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (lyap.big_psi_star(x + e, 0.07, 0.6, mu)
                  - lyap.big_psi_star(x - e, 0.07, 0.6, mu)) / (2 * h)
            err = np.abs(g[:, i] - fd)
            rel = err / (1e-9 + np.abs(fd))
            # relative away from the cutoff joints, absolute next to them
            assert np.all((rel < 1e-5) | (err < 1e-7))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            lyap.big_psi_star(np.zeros(2), -0.1, 1.0, [1.0, 1.0])


class TestNormIdentities:
    """Two-sided norm bounds of the weighted cutoff sums (mu_min >= 1 instances)."""

    @pytest.mark.parametrize("eps", [0.01, 0.1])
    @pytest.mark.parametrize("theta", [0.1, 0.5, 1.0])
    def test_psi_star_tracks_l1(self, eps, theta):
        rng = np.random.default_rng(42)
        mu = np.array([1.0, 1.5])
        x = rng.uniform(-1, 1, size=(20_000, 2))
        x *= rng.uniform(0, 100, size=(20_000, 1)) / np.abs(x).sum(axis=1, keepdims=True)
        v = lyap.big_psi_star(x, eps, theta, mu)
        r1 = np.abs(x).sum(axis=1)
        lo = eps * min(1, theta) / mu.max() * r1 - 1.0  # m/2 with m=2
        hi = eps * max(1, theta) / mu.min() * r1
        slack = 1e-9
        assert np.all(v >= lo - slack)
        assert np.all(v <= hi + slack)

    def test_weighted_slope_bounds(self):
        rng = np.random.default_rng(43)
        eps = 0.05
        x = rng.uniform(-60, 60, size=(20_000, 3))
        m = 3
        s1 = np.sum(eps * lyap.psi_d1(eps * x) * x, axis=1)
        assert np.all(s1 >= eps * np.maximum(x, 0).sum(axis=1) - m / 2 - 1e-9)
        s2 = -np.sum(lyap.psi_d1(-x) * x, axis=1)
        assert np.all(s2 >= np.maximum(-x, 0).sum(axis=1) - m / 2 - 1e-9)

    def test_sum_sandwich(self):
        # eps sum psi'(-x_i) x_i <= eps <e,x> <= sum psi_eps'(x_i) x_i
        rng = np.random.default_rng(44)
        eps = 0.03
        x = rng.uniform(-40, 40, size=(20_000, 4))
        s = x.sum(axis=1)
        left = np.sum(lyap.psi_d1(-x) * x, axis=1)
        right = np.sum(eps * lyap.psi_d1(eps * x) * x, axis=1)
        assert np.all(eps * left <= eps * s + 1e-9)
        assert np.all(eps * s <= right + 1e-9)


class TestFamilies:
    def test_unit_values_at_origin(self, system):
        mu = system.mu
        v = lyap.evaluate(LyapunovSpec(Family.EXP_LINEAR, mu, epsilon=0.1, theta=0.4),
                          np.zeros(2))
        assert v == pytest.approx(1.0)
        v = lyap.evaluate(LyapunovSpec(Family.SUB_GAUSSIAN, mu, epsilon=0.1, theta=0.4),
                          np.zeros(2))
        assert v == pytest.approx(1.0)

    def test_empty_subset_is_constant_one(self, system):
        spec = LyapunovSpec(Family.NEG_PART_EXP, system.mu, eta=2.0, class_subset=())
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 2)) * 10
        assert np.allclose(lyap.evaluate(spec, x), 1.0)
        spec2 = LyapunovSpec(Family.NEG_PART_SUB_GAUSSIAN, system.mu, eta=2.0,
                             class_subset=())
        assert np.allclose(lyap.evaluate(spec2, x), 1.0)

    def test_positivity_floor(self, system):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 2)) * 30
        # V = exp(log V) > 0 wherever log V is finite; V itself overflows here
        for name, spec in all_family_specs(system.mu).items():
            assert np.all(np.isfinite(lyap.log_value(spec, x))), name

    def test_missing_parameters_rejected(self, system):
        with pytest.raises(ValueError):
            LyapunovSpec(Family.EXP_LINEAR, system.mu, epsilon=0.1)
        with pytest.raises(ValueError):
            LyapunovSpec(Family.NEG_PART_EXP, system.mu, eta=1.0)
        with pytest.raises(ValueError):
            LyapunovSpec(Family.NEG_PART_EXP, system.mu, eta=1.0, class_subset=(5,))


class TestDerivativeOracle:
    """Gradients against FD of values; Hessians against FD of analytic gradients."""

    @pytest.mark.parametrize("name", ["exp_linear", "sub_gaussian",
                                      "neg_part_exp", "abandon_exp",
                                      "neg_part_sub_gaussian"])
    def test_gradient_and_hessian(self, system, name):
        spec = all_family_specs(system.mu)[name]
        rng = np.random.default_rng(hash(name) % 2**32)
        x = rng.uniform(-4, 4, size=(1000, 2))
        h = 1e-5
        g = lyap.gradient(spec, x)
        He = lyap.hessian(spec, x)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd_g = (lyap.evaluate(spec, x + e) - lyap.evaluate(spec, x - e)) / (2 * h)
            err = np.abs(g[:, i] - fd_g)
            rel = err / (1e-9 + np.abs(fd_g))
            assert np.all((rel < 1e-5) | (err < 1e-7)), f"{name} grad[{i}]"
            fd_h = (lyap.gradient(spec, x + e) - lyap.gradient(spec, x - e)) / (2 * h)
            err = np.abs(He[:, :, i] - fd_h)
            rel = err / (1e-9 + np.abs(fd_h))
            assert np.all((rel < 1e-5) | (err < 1e-7)), f"{name} hess[:,{i}]"


class TestGenerator:
    def test_constant_function_hook(self, system, dspec):
        spec = LyapunovSpec(Family.NEG_PART_EXP, system.mu, eta=1.0, class_subset=())
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 2)) * 5
        u = rng.dirichlet([1, 1], size=100)
        assert np.allclose(lyap.generator_apply(spec, x, u, dspec), 0.0)

    def test_ratio_matches_direct(self, system, dspec):
        rng = np.random.default_rng(4)
        x = rng.uniform(-5, 5, size=(500, 2))
        u = rng.dirichlet([1, 1], size=500)
        for name, spec in all_family_specs(system.mu).items():
            r1 = lyap.generator_ratio(spec, x, u, dspec)
            r2 = lyap.generator_apply_direct(spec, x, u, dspec) / lyap.evaluate(spec, x)
            rel = np.abs(r1 - r2) / (1e-12 + np.abs(r2))
            assert np.max(rel) < 1e-8, name

    def test_branch_independence_on_negative_halfspace(self, system, dspec):
        spec = LyapunovSpec(Family.EXP_LINEAR, system.mu, epsilon=0.05, theta=0.3)
        rng = np.random.default_rng(5)
        x = -np.abs(rng.normal(size=(20, 2))) * 4
        vals = [lyap.generator_apply(spec, x, rng.dirichlet([1, 1], size=20), dspec)
                for _ in range(10)]
        for v in vals[1:]:
            assert np.array_equal(v, vals[0])

    def test_dynkin_monte_carlo_oracle(self, system, dspec):
        # (E f(X_h) - f(x)) / h from one-step Euler draws matches L_u f within 3 SE
        spec = LyapunovSpec(Family.EXP_LINEAR, system.mu, epsilon=0.1, theta=0.4)
        h = 1e-4
        rng = np.random.default_rng(6)
        for x0, u0 in [([0.5, -1.0], [0.3, 0.7]), ([2.0, 1.0], [1.0, 0.0]),
                       ([-1.5, -0.5], [0.5, 0.5])]:
            x0 = np.array(x0)
            u0 = np.array(u0)
            n = 100_000
            z = rng.standard_normal((n, 2))
            x1 = x0 + hwsim.drift(x0, u0, dspec) * h + math.sqrt(h) * dspec.sigma_diag * z
            f1 = lyap.evaluate(spec, x1)
            f0 = float(lyap.evaluate(spec, x0))
            est = (f1.mean() - f0) / h
            se = f1.std(ddof=1) / math.sqrt(n) / h
            target = float(lyap.generator_apply(spec, x0, u0, dspec))
            assert abs(est - target) < 3 * se + 5e-3 * abs(target)


class TestLogSplit:
    """log_value and ratio_from_terms give the very bits of log_terms and
    generator_ratio."""

    @staticmethod
    def points():
        rng = np.random.default_rng(11)
        return np.concatenate([rng.uniform(-5, 5, size=(200, 2)),
                               rng.uniform(-1e6, 1e6, size=(50, 2)),
                               [[-0.0, -0.0], [-0.0, 3.0], [1e300, -0.0], [-1e300, 2.0]]])

    def test_log_value_is_the_first_log_term(self, system):
        x = self.points()
        for name, spec in all_family_specs(system.mu).items():
            with np.errstate(over="ignore", invalid="ignore"):
                assert np.array_equal(lyap.log_value(spec, x), lyap.log_terms(spec, x)[0],
                                      equal_nan=True), name
                assert np.array_equal(lyap.log_value(spec, x[-1]),
                                      lyap.log_terms(spec, x[-1])[0], equal_nan=True), name

    def test_ratio_from_terms_is_the_generator_ratio(self, system, dspec):
        rng = np.random.default_rng(12)
        x = self.points()[:250]
        u = rng.dirichlet([1, 1], size=len(x))
        specs = all_family_specs(system.mu)
        product = [specs["neg_part_sub_gaussian"], specs["exp_linear"]]
        for c in (1.0, 5.0, math.inf):
            for name, spec in specs.items():
                got = lyap.ratio_from_terms([lyap.log_terms(spec, x)], x, u, dspec, c)
                assert np.array_equal(got, lyap.generator_ratio(spec, x, u, dspec, c)), name
            got = lyap.ratio_from_terms([lyap.log_terms(s, x) for s in product], x, u, dspec, c)
            assert np.array_equal(got, lyap.generator_ratio(product, x, u, dspec, c))


class TestSelectParameters:
    def test_single_class_reference_values(self):
        sp = hwsim.make_system([1.0], [1.0], hat_lambda=[-1.0])
        spec = lyap.select_parameters(Goal.EXP_ERGODIC, sp)
        assert spec.theta == pytest.approx(1 / 9)
        assert spec.epsilon == pytest.approx(1 / 60)

    def test_infeasible_without_spare_capacity(self):
        sp = hwsim.make_system([1.0], [1.0])
        with pytest.raises(lyap.InfeasibleGoal):
            lyap.select_parameters(Goal.EXP_ERGODIC, sp)

    def test_sub_gaussian_theta_arithmetic(self):
        assert lyap.sub_gaussian_theta(2.0, 2.0) == pytest.approx(0.25)

    def test_sub_gaussian_needs_abandonment(self):
        sp = hwsim.make_system([0.5, 0.5], [1.0, 1.0], gamma=[1.0, 0.0])
        with pytest.raises(lyap.InfeasibleGoal):
            lyap.select_parameters(Goal.SUB_GAUSSIAN, sp)

    def test_beta_cap_applies(self):
        sp = hwsim.make_system([0.5, 0.5], [1.0, 1.0], gamma=[4.0, 0.0],
                               hat_lambda=[-0.5, -0.5])
        spec = lyap.select_parameters(Goal.EXP_ERGODIC, sp)
        assert spec.theta <= 1.0 / 3.0 + 1e-12  # 1/(beta_max - 1)

    def test_neg_part_subset(self):
        sp = hwsim.make_system([0.5, 0.5], [1.0, 1.0], gamma=[0.5, 2.0],
                               hat_lambda=[-0.5, -0.5])
        spec = lyap.select_parameters(Goal.NEG_PART, sp)
        assert spec.class_subset == (0,)
