import hashlib
import itertools
import math
import zlib

import numpy as np
import pytest

import hwsim
from hwsim import lyapunov as lyap
from hwsim.lyapunov import Family, LyapunovSpec
from hwsim.model import SimplexError
from hwsim.verify import ETA_GRID


@pytest.fixture(scope="module")
def system():
    return hwsim.SystemParams([0.5, 0.6], [1.0, 1.2], gamma=[0.3, 0.6],
                              hat_lambda=[-0.5, -0.6], scv=[1.3, 0.7])


@pytest.fixture(scope="module")
def dspec(system):
    return hwsim.diffusion_spec(system)


def psi_star(x, eps, theta, mu):
    """Psi*_{eps,theta}(x) = eps theta Psi(-x) + Psi_eps(x), the log of the
    exp-linear family."""
    return lyap.log_value(LyapunovSpec(Family.EXP_LINEAR, mu, epsilon=eps, theta=theta), x)


def value(spec, x):
    """The family's linear-scale value (overflows far out)."""
    return np.exp(lyap.log_value(spec, x))


def apply(spec, x, u, dspec):
    """L_u f(x) on linear scale: the ratio form times the value."""
    return lyap.generator_ratio(spec, x, u, dspec) * value(spec, x)


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
        assert psi_star(np.zeros(2), 0.1, 1.0, [1.0, 1.0]) == 0.0

    def test_hand_value(self):
        v = psi_star(np.array([5.0]), 0.1, 1.0, [1.0])
        assert v == pytest.approx(0.45)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        mu = np.array([1.0, 1.7, 0.8])
        x = rng.uniform(-8, 8, size=(1000, 3))
        spec = LyapunovSpec(Family.EXP_LINEAR, mu, epsilon=0.07, theta=0.6)
        _, g, _ = lyap.log_terms(spec, x)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (psi_star(x + e, 0.07, 0.6, mu)
                  - psi_star(x - e, 0.07, 0.6, mu)) / (2 * h)
            err = np.abs(g[:, i] - fd)
            rel = err / (1e-9 + np.abs(fd))
            # relative away from the cutoff joints, absolute next to them
            assert np.all((rel < 1e-5) | (err < 1e-7))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            psi_star(np.zeros(2), -0.1, 1.0, [1.0, 1.0])


class TestNormIdentities:
    """Two-sided norm bounds of the weighted cutoff sums (mu_min >= 1 instances)."""

    @pytest.mark.parametrize("eps", [0.01, 0.1])
    @pytest.mark.parametrize("theta", [0.1, 0.5, 1.0])
    def test_psi_star_tracks_l1(self, eps, theta):
        rng = np.random.default_rng(42)
        mu = np.array([1.0, 1.5])
        x = rng.uniform(-1, 1, size=(20_000, 2))
        x *= rng.uniform(0, 100, size=(20_000, 1)) / np.abs(x).sum(axis=1, keepdims=True)
        v = psi_star(x, eps, theta, mu)
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
        v = value(LyapunovSpec(Family.EXP_LINEAR, mu, epsilon=0.1, theta=0.4), np.zeros(2))
        assert v == pytest.approx(1.0)
        v = value(LyapunovSpec(Family.SUB_GAUSSIAN, mu, epsilon=0.1, theta=0.4), np.zeros(2))
        assert v == pytest.approx(1.0)

    def test_empty_subset_is_constant_one(self, system):
        spec = LyapunovSpec(Family.NEG_PART_EXP, system.mu, eta=2.0, class_subset=())
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 2)) * 10
        assert np.allclose(value(spec, x), 1.0)
        spec2 = LyapunovSpec(Family.NEG_PART_SUB_GAUSSIAN, system.mu, eta=2.0,
                             class_subset=())
        assert np.allclose(value(spec2, x), 1.0)

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

    # Coordinates in [-4, 4] where a psi argument of the family's spec is -1
    # or 0: psi'' has a kink there, and a central difference straddling one
    # is off by O(h) rather than O(h^2).
    KINKS = {"exp_linear": (0.0, 1.0), "sub_gaussian": (0.0, 1.0),
             "neg_part_exp": (0.0, 1.0), "abandon_exp": (-1.0, 0.0, 1.0),
             "neg_part_sub_gaussian": (0.0, 1.25)}

    @pytest.mark.parametrize("name", list(KINKS))
    def test_gradient_and_hessian(self, system, name):
        spec = all_family_specs(system.mu)[name]
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        x = rng.uniform(-4, 4, size=(1000, 2))
        h = 1e-5
        x = x[~np.any(np.abs(x[..., None] - self.KINKS[name]) <= 2 * h, axis=(1, 2))]
        g = lyap.gradient(spec, x)
        He = lyap.hessian(spec, x)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd_g = (value(spec, x + e) - value(spec, x - e)) / (2 * h)
            err = np.abs(g[:, i] - fd_g)
            rel = err / (1e-9 + np.abs(fd_g))
            assert np.all((rel < 1e-5) | (err < 1e-7)), f"{name} grad[{i}]"
            fd_h = (lyap.gradient(spec, x + e) - lyap.gradient(spec, x - e)) / (2 * h)
            err = np.abs(He[:, :, i] - fd_h)
            rel = err / (1e-9 + np.abs(fd_h))
            assert np.all((rel < 1e-5) | (err < 1e-7)), f"{name} hess[:,{i}]"


class TestBitPin:
    """log_terms and log_value of every family keep the bits they had when each
    family's formulas were written out by hand, on parameters the commands can
    reach.  NEG_PART_SUB_GAUSSIAN runs only at eta in ETA_GRID, powers of two,
    where eta (eta psi') and (eta eta) psi' round alike; at other eta its
    derivatives may differ in the last bits."""

    MU = np.array([1.0, 1.7, 0.8])
    # family parameters -> SHA-256 prefixes of (L, grad L, diag grad^2 L) and of L
    DIGESTS = {
        "exp_linear": ("96bb8125f7d9bd51", "be7cabf857774e7c"),
        "sub_gaussian": ("a82fd5e4c3a956e5", "6afd9c2a61ced213"),
        "neg_part_exp": ("092d05db08a7fd2a", "6ab9623aab03c2d1"),
        "abandon_exp": ("700c1bb3a9eb5441", "2e4406783f827e3c"),
        "neg_part_sub_gaussian_4.0": ("fb3b49785674a131", "4898aca78633658c"),
        "neg_part_sub_gaussian_2.0": ("b7f86ee9010b5b59", "c8006ca8134ded66"),
        "neg_part_sub_gaussian_1.0": ("324fa94c8c180e49", "e62982ab253a312a"),
        "neg_part_sub_gaussian_0.5": ("d8870a2d3bc566ed", "cdf9e0453be7b202"),
        "neg_part_sub_gaussian_0.25": ("0d9ea1f5afc09ab8", "7468946200642562"),
        "neg_part_sub_gaussian_0.125": ("2e5983df19d6b29b", "805fb0c23fb9d435"),
    }

    @classmethod
    def specs(cls):
        mu = cls.MU
        out = {
            "exp_linear": LyapunovSpec(Family.EXP_LINEAR, mu, epsilon=0.07, theta=0.6),
            "sub_gaussian": LyapunovSpec(Family.SUB_GAUSSIAN, mu, epsilon=0.08, theta=0.3),
            "neg_part_exp": LyapunovSpec(Family.NEG_PART_EXP, mu, eta=0.7, class_subset=(0, 2)),
            "abandon_exp": LyapunovSpec(Family.ABANDON_EXP, mu, eta=0.9, theta=0.55),
        }
        for eta in ETA_GRID:
            out[f"neg_part_sub_gaussian_{eta}"] = LyapunovSpec(
                Family.NEG_PART_SUB_GAUSSIAN, mu, eta=eta, class_subset=(0, 2))
        return out

    @staticmethod
    def points():
        # uniform draws, every joint of the cutoff and its neighbours, far points
        rng = np.random.default_rng(30)
        grid = list(itertools.product((-2.0, -1.0, -0.5, -0.0, 0.5, 1.0, 2.0), repeat=3))
        return np.concatenate([rng.uniform(-6, 6, size=(300, 3)), grid,
                               rng.uniform(-1e4, 1e4, size=(20, 3))])

    @staticmethod
    def digest(*arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        return h.hexdigest()[:16]

    def test_every_family_keeps_its_bits(self):
        x = self.points()
        specs = self.specs()
        assert specs.keys() == self.DIGESTS.keys()
        for name, spec in specs.items():
            got = (self.digest(*lyap.log_terms(spec, x)), self.digest(lyap.log_value(spec, x)))
            assert got == self.DIGESTS[name], name


class TestGenerator:
    def test_constant_function_hook(self, system, dspec):
        spec = LyapunovSpec(Family.NEG_PART_EXP, system.mu, eta=1.0, class_subset=())
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 2)) * 5
        u = rng.dirichlet([1, 1], size=100)
        assert np.allclose(apply(spec, x, u, dspec), 0.0)

    def test_ratio_matches_direct(self, system, dspec):
        rng = np.random.default_rng(4)
        x = rng.uniform(-5, 5, size=(500, 2))
        u = rng.dirichlet([1, 1], size=500)
        for name, spec in all_family_specs(system.mu).items():
            r1 = lyap.generator_ratio(spec, x, u, dspec)
            r2 = lyap.generator_apply_direct(spec, x, u, dspec) / value(spec, x)
            rel = np.abs(r1 - r2) / (1e-12 + np.abs(r2))
            assert np.max(rel) < 1e-8, name

    def test_branch_independence_on_negative_halfspace(self, system, dspec):
        spec = LyapunovSpec(Family.EXP_LINEAR, system.mu, epsilon=0.05, theta=0.3)
        rng = np.random.default_rng(5)
        x = -np.abs(rng.normal(size=(20, 2))) * 4
        vals = [apply(spec, x, rng.dirichlet([1, 1], size=20), dspec)
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
            f1 = value(spec, x1)
            f0 = float(value(spec, x0))
            est = (f1.mean() - f0) / h
            se = f1.std(ddof=1) / math.sqrt(n) / h
            target = float(apply(spec, x0, u0, dspec))
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
        for name, spec in specs.items():
            got = lyap.ratio_from_terms([lyap.log_terms(spec, x)], x, u, dspec)
            assert np.array_equal(got, lyap.generator_ratio(spec, x, u, dspec)), name
        # a product family's log terms add: its ratio is that of the summed terms
        product = [lyap.log_terms(specs[k], x) for k in ("neg_part_sub_gaussian", "exp_linear")]
        summed = tuple(a + b for a, b in zip(*product))
        assert np.array_equal(lyap.ratio_from_terms(product, x, u, dspec),
                              lyap.ratio_from_terms([summed], x, u, dspec))


class TestControlAsGiven:
    """A control within SIMPLEX_TOL of the simplex enters the drift and the
    generator as given, never rescaled; one beyond it is refused."""

    U = np.array([0.5 + 4e-13, 0.5 - 6e-13])

    @staticmethod
    def drift_formula(x, u, ds, c):
        pos = np.maximum(np.sum(x, axis=-1), 0.0)[..., None]
        keep = (x <= c).astype(float)
        return -(ds.varrho / ds.m) * ds.mu - ds.mu * (x - pos * u) - pos * ds.gamma * u * keep

    def test_a_near_simplex_control_is_used_as_given(self, system, dspec):
        x = np.random.default_rng(13).uniform(-5, 5, size=(200, 2))
        for c in (1.0, 5.0, math.inf):
            b = self.drift_formula(x, self.U, dspec, c)
            assert np.array_equal(hwsim.drift_truncated(x, self.U, dspec, c), b)
        assert np.array_equal(hwsim.drift(x, self.U, dspec), b)
        for name, spec in all_family_specs(system.mu).items():
            terms = lyap.log_terms(spec, x)
            _, gl, hl = terms
            second = 0.5 * np.sum(dspec.a_diag * (gl * gl + hl), axis=-1)
            assert np.array_equal(lyap.ratio_from_terms([terms], x, self.U, dspec),
                                  second + np.sum(b * gl, axis=-1)), name

    @pytest.mark.parametrize("u", [[0.5 + 2e-12, 0.5], [1.0 + 2e-12, -2e-12], [0.7, 0.7]])
    def test_a_control_off_the_simplex_is_refused(self, system, dspec, u):
        x = np.array([[1.0, 2.0]])
        terms = [lyap.log_terms(all_family_specs(system.mu)["exp_linear"], x)]
        with pytest.raises(SimplexError):
            lyap.ratio_from_terms(terms, x, u, dspec)


class TestSelectParameters:
    def test_single_class_reference_values(self):
        sp = hwsim.SystemParams([1.0], [1.0], hat_lambda=[-1.0])
        spec = lyap.select_parameters(Family.EXP_LINEAR, sp)
        assert spec.theta == pytest.approx(1 / 9)
        assert spec.epsilon == pytest.approx(1 / 60)

    def test_infeasible_without_spare_capacity(self):
        sp = hwsim.SystemParams([1.0], [1.0])
        with pytest.raises(lyap.InfeasibleGoal):
            lyap.select_parameters(Family.EXP_LINEAR, sp)

    def test_sub_gaussian_theta_arithmetic(self):
        assert lyap.sub_gaussian_theta(2.0, 2.0) == pytest.approx(0.25)

    def test_sub_gaussian_needs_abandonment(self):
        sp = hwsim.SystemParams([0.5, 0.5], [1.0, 1.0], gamma=[1.0, 0.0])
        with pytest.raises(lyap.InfeasibleGoal):
            lyap.select_parameters(Family.SUB_GAUSSIAN, sp)

    def test_beta_cap_applies(self):
        sp = hwsim.SystemParams([0.5, 0.5], [1.0, 1.0], gamma=[4.0, 0.0],
                                hat_lambda=[-0.5, -0.5])
        spec = lyap.select_parameters(Family.EXP_LINEAR, sp)
        assert spec.theta <= 1.0 / 3.0 + 1e-12  # 1/(beta_max - 1)

    def test_neg_part_subset(self):
        sp = hwsim.SystemParams([0.5, 0.5], [1.0, 1.0], gamma=[0.5, 2.0],
                                hat_lambda=[-0.5, -0.5])
        spec = lyap.select_parameters(Family.NEG_PART_EXP, sp)
        assert spec.class_subset == (0,)

    def test_a_family_with_no_rule_is_an_error(self):
        sp = hwsim.SystemParams([0.5, 0.5], [1.0, 1.0], hat_lambda=[-0.5, -0.5])
        with pytest.raises(ValueError, match="no parameter rule") as err:
            lyap.select_parameters(Family.NEG_PART_SUB_GAUSSIAN, sp)
        assert not isinstance(err.value, lyap.InfeasibleGoal)
        # the family's value names it as well as the member
        spec = lyap.select_parameters("exp_linear", sp)
        assert spec.family is Family.EXP_LINEAR
        assert spec.epsilon == lyap.select_parameters(Family.EXP_LINEAR, sp).epsilon
