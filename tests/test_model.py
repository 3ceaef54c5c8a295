import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hwsim
from hwsim.model import (SimplexError, WorkConservationError, project_simplex, row_max,
                         row_sum)


@pytest.fixture
def two_class():
    return hwsim.SystemParams([0.5, 0.5], [1.0, 1.0], hat_lambda=[-0.5, -0.5])


def spec_of(params):
    return hwsim.diffusion_spec(params)


class TestSystemParams:
    def test_load_must_be_critical(self):
        with pytest.raises(ValueError, match="must be 1"):
            hwsim.SystemParams([0.5, 0.5], [1.0, 1.2])

    def test_class_count_and_omitted_blocks_come_from_lambda(self):
        sp = hwsim.SystemParams([0.25, 0.25, 0.5], [1.0, 1.0, 1.0])
        assert sp.m == 3
        for block, fill in [("gamma", 0.0), ("hat_lambda", 0.0), ("hat_mu", 0.0), ("scv", 1.0)]:
            assert getattr(sp, block).tolist() == [fill] * 3, block
        with pytest.raises(AttributeError):
            sp.m = 2
        with pytest.raises(ValueError, match="length 3"):
            hwsim.SystemParams([0.25, 0.25, 0.5], [1.0, 1.0])

    def test_beta_is_derived(self, two_class):
        assert np.allclose(two_class.beta, two_class.gamma / two_class.mu)

    def test_spare_capacity_zero_perturbations(self):
        sp = hwsim.SystemParams([0.5, 0.5], [1.0, 1.0])
        assert hwsim.spare_capacity(sp) == 0.0

    def test_spare_capacity_hand_value(self, two_class):
        assert hwsim.spare_capacity(two_class) == pytest.approx(1.0)

    def test_spare_capacity_cancellation(self):
        # hat_mu_i = hat_lambda_i / rho_i cancels termwise
        lam = np.array([0.4, 0.9])
        mu = np.array([1.0, 1.5])
        hat_lambda = np.array([0.3, -0.2])
        rho = lam / mu
        sp = hwsim.SystemParams(lam, mu, hat_lambda=hat_lambda, hat_mu=hat_lambda / rho)
        assert hwsim.spare_capacity(sp) == pytest.approx(0.0, abs=1e-12)


class TestSimplex:
    def test_projection_accepts_tolerance(self):
        u = project_simplex([0.5 + 4e-13, 0.5 - 6e-13])
        assert u.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_negative_beyond_tolerance(self):
        with pytest.raises(SimplexError):
            project_simplex([1.1, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(SimplexError):
            project_simplex([0.6, 0.6])


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


class TestRowReductions:
    """row_sum and row_max equal np.sum and np.max over the last axis bit for bit."""

    SPECIAL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 0.1, -2.5,
                        1e308, -1e308, 5e-324])

    @classmethod
    def _states(cls, lead, m):
        rng = np.random.default_rng(m)
        shape = lead + (m,)
        wide = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        x = np.where(rng.random(shape) < 0.5, rng.choice(cls.SPECIAL, shape), wide)
        rows = x.reshape(-1, m)
        rows[:4] = np.array([-0.0, np.nan, np.inf, -np.inf])[:, None]
        rows[4] = np.where(np.arange(m) % 2, 0.0, -0.0)
        return x

    @staticmethod
    def _layouts(x):
        yield x
        yield np.asfortranarray(x)
        yield x[..., ::-1].copy()
        yield x[..., ::-1]

    @pytest.mark.parametrize("m", range(1, 13))
    @pytest.mark.parametrize("lead", [(300,), (30, 10)])
    def test_equal_to_numpy_bit_for_bit(self, m, lead):
        with np.errstate(all="ignore"):
            for x in self._layouts(self._states(lead, m)):
                assert np.array_equal(_bits(row_sum(x)), _bits(np.sum(x, axis=-1)))
                assert np.array_equal(_bits(row_max(x)), _bits(np.max(x, axis=-1)))
                out = np.empty(lead)
                assert row_sum(x, out=out) is out
                assert np.array_equal(_bits(out), _bits(np.sum(x, axis=-1)))

    @pytest.mark.parametrize("m", [1, 3])
    def test_one_state_gives_a_scalar(self, m):
        x = np.linspace(-1.0, 2.0, m)
        assert row_sum(x) == np.sum(x) and row_max(x) == np.max(x)
        assert row_sum(x).ndim == row_max(x).ndim == 0


class TestDrift:
    def test_hand_value_positive_branch(self, two_class):
        ds = spec_of(two_class)
        b = hwsim.drift(np.array([1.0, 1.0]), np.array([1.0, 0.0]), ds)
        assert np.allclose(b, [0.5, -1.5])

    def test_negative_branch_u_independent(self):
        ds = hwsim.DiffusionSpec(2.0, [1.0, 2.0], [0.7, 0.2], [1.0, 1.0])
        x = np.array([-1.0, -1.0])
        b1 = hwsim.drift(x, [1.0, 0.0], ds)
        b2 = hwsim.drift(x, [0.25, 0.75], ds)
        assert np.allclose(b1, [0.0, 0.0])
        assert np.array_equal(b1, b2)

    def test_origin(self, two_class):
        ds = spec_of(two_class)
        b = hwsim.drift(np.zeros(2), [0.3, 0.7], ds)
        assert np.allclose(b, -(ds.varrho / 2) * ds.mu)

    def test_continuity_across_boundary(self, two_class):
        ds = spec_of(two_class)
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=2)
            x = v - v.sum() / 2  # <e,x> = 0
            u = rng.dirichlet([1, 1])
            left = -(ds.varrho / 2) * ds.mu - ds.mu * x
            assert np.allclose(hwsim.drift(x, u, ds), left, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_negative_halfspace_ignores_control(self, seed):
        ds = hwsim.DiffusionSpec(1.0, [1.0, 1.5, 0.5], [0.2, 0.0, 1.0], [1.0, 1.0, 1.0])
        rng = np.random.default_rng(seed)
        x = -np.abs(rng.normal(size=3)) * rng.uniform(0, 5)
        u1, u2 = rng.dirichlet([1, 1, 1]), rng.dirichlet([1, 1, 1])
        assert np.array_equal(hwsim.drift(x, u1, ds), hwsim.drift(x, u2, ds))

    def test_rejects_off_simplex_control(self, two_class):
        with pytest.raises(SimplexError):
            hwsim.drift(np.zeros(2), [0.7, 0.7], spec_of(two_class))


class TestTruncatedDrift:
    def test_infinite_truncation_matches_drift(self, two_class):
        ds = hwsim.DiffusionSpec(1.0, two_class.mu, np.array([0.4, 1.3]),
                                 two_class.lambda_ * 2)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 2)) * 5
        u = rng.dirichlet([1, 1], size=100)
        assert np.allclose(hwsim.drift_truncated(x, u, ds, math.inf),
                           hwsim.drift(x, u, ds))

    def test_indicator_drops_abandonment(self):
        ds = hwsim.DiffusionSpec(1.0, [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
        x = np.array([5.0, 0.5])
        u = np.array([0.5, 0.5])
        b = hwsim.drift_truncated(x, u, ds, 1.0)
        pos = x.sum()
        expected0 = -0.5 - (x[0] - pos * 0.5)            # gamma term dropped
        expected1 = -0.5 - (x[1] - pos * 0.5) - pos * 0.5
        assert np.allclose(b, [expected0, expected1])

    def test_zero_abandonment_truncation_free(self, two_class):
        ds = spec_of(two_class)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 2)) * 3
        u = rng.dirichlet([1, 1], size=50)
        for c in (1.0, 2.5, math.inf):
            assert np.allclose(hwsim.drift_truncated(x, u, ds, c), hwsim.drift(x, u, ds))

    def test_rejects_small_truncation(self, two_class):
        with pytest.raises(ValueError):
            hwsim.drift_truncated(np.zeros(2), [0.5, 0.5], spec_of(two_class), 0.5)


class TestScaling:
    def test_hand_value(self):
        p = hwsim.PrelimitParams(100, [45.0, 45.0], [1.0, 1.0], [0.0, 0.0])
        assert p.varrho_n == pytest.approx(1.0)
        assert np.allclose(hwsim.scale_state([50, 50], p), [0.0, 0.0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        p = hwsim.prelimit_params(
            hwsim.SystemParams([0.5, 0.5], [1.0, 1.0], hat_lambda=[-0.5, -0.5]), 64)
        x = rng.integers(0, 200, size=2)
        back = hwsim.unscale_state(hwsim.scale_state(x, p), p)
        assert np.allclose(back, x, atol=1e-9)

    def test_sum_identity(self):
        sp = hwsim.SystemParams([0.4, 0.9], [1.0, 1.5], hat_lambda=[-0.3, -0.3],
                                hat_mu=[0.1, 0.0])
        p = hwsim.prelimit_params(sp, 81)
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.integers(0, 300, size=2)
            lhs = hwsim.scale_state(x, p).sum()
            assert lhs == pytest.approx((x.sum() - 81) / 9.0, abs=1e-10)


class TestAllocationToControl:
    def test_negative_total_returns_none(self):
        xhat = np.array([-1.0, -0.5])
        assert hwsim.allocation_to_control(xhat, xhat) is None

    def test_recover_control(self):
        u = hwsim.allocation_to_control(np.array([2.0, 1.0]), np.zeros(2))
        assert np.allclose(u, [2 / 3, 1 / 3])

    def test_sum_one(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            xhat = rng.normal(size=3) + 1.0
            if xhat.sum() <= 0:
                continue
            u = rng.dirichlet([1, 1, 1])
            zhat = xhat - xhat.sum() * u
            rec = hwsim.allocation_to_control(xhat, zhat)
            assert rec.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(rec, u, atol=1e-9)

    def test_flags_non_work_conserving(self):
        with pytest.raises(WorkConservationError):
            hwsim.allocation_to_control(np.array([-1.0, -1.0]), np.array([0.0, 0.0]))
        with pytest.raises(WorkConservationError):
            hwsim.allocation_to_control(np.array([2.0, 1.0]), np.array([4.0, 4.0]))


class TestPrelimitFamily:
    def test_rates_realize_limits(self):
        sp = hwsim.SystemParams([0.5, 0.5], [1.0, 1.0], gamma=[0.3, 0.0],
                                hat_lambda=[-0.5, -0.5])
        varrho = hwsim.spare_capacity(sp)
        for n in (25, 400, 10_000):
            p = hwsim.prelimit_params(sp, n)
            assert np.allclose(p.lambda_n / n, sp.lambda_, atol=1.0 / math.sqrt(n))
            assert p.varrho_n == pytest.approx(varrho, abs=1e-9)
            assert np.array_equal(p.gamma_n, sp.gamma)

    def test_diffusion_spec_invariant(self):
        sp = hwsim.SystemParams([0.5, 0.5], [1.0, 1.0], scv=[1.4, 0.6])
        ds = hwsim.diffusion_spec(sp)
        assert np.sum(ds.lambda_tilde / ds.mu) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            hwsim.DiffusionSpec(1.0, [1.0, 1.0], [0.0, 0.0], [3.0, 3.0]).validate()
