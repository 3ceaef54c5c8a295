import math

import numpy as np
import pytest

import hwsim
from hwsim import diffusion as dif
from hwsim import measures


@pytest.fixture(scope="module")
def stable_system():
    return hwsim.make_system([0.5, 0.5], [1.0, 1.0], hat_lambda=[-0.5, -0.5])


@pytest.fixture(scope="module")
def dspec(stable_system):
    return hwsim.diffusion_spec(stable_system)


class TestPolicies:
    def test_constant_projects(self):
        pol = dif.ConstantControl([0.5 + 1e-13, 0.5 - 1e-13])
        u = pol.controls(np.zeros((4, 2)))
        assert np.allclose(u.sum(axis=1), 1.0)

    def test_static_priority_is_vertex(self):
        pol = dif.StaticPriorityControl((2, 0, 1))
        u = pol.controls(np.zeros((1, 3)))[0]
        assert np.array_equal(u, [0.0, 1.0, 0.0])  # class 1 has lowest priority

    def test_state_table_lookup(self):
        edges = [np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 0.0, 1.0])]
        table = np.zeros((2, 2, 2))
        table[..., 0] = [[1.0, 0.0], [0.0, 1.0]]
        table[..., 1] = 1.0 - table[..., 0]
        pol = dif.StateTableControl(edges, table)
        u = pol.controls(np.array([[-0.5, -0.5], [0.5, -0.5]]))
        assert np.array_equal(u, [[1.0, 0.0], [0.0, 1.0]])

    def test_function_hook_projected(self):
        pol = dif.FunctionControl(lambda x: np.full_like(x, 0.5), "half")
        u = pol.controls(np.zeros((3, 2)))
        assert np.allclose(u, 0.5)


class TestSimulate:
    def test_bit_identical_replay(self, dspec):
        cfg = dif.SimConfig(horizon=5.0, step=0.01, replicas=4, seed=9, x0=0.0)
        pol = dif.ConstantControl([0.5, 0.5])
        r1 = dif.simulate(dspec, pol, cfg)
        r2 = dif.simulate(dspec, pol, cfg)
        assert np.array_equal(r1.terminal, r2.terminal)
        assert np.array_equal(r1.measure.samples, r2.measure.samples)
        for k in r1.measure.replica_integrals:
            assert np.array_equal(r1.measure.replica_integrals[k],
                                  r2.measure.replica_integrals[k])

    def test_one_step_mean_and_covariance(self, dspec):
        # increments over two tiny steps match drift and covariance within 3 SE
        h = 1e-4
        x0 = (0.7, -0.4)
        u = np.array([0.2, 0.8])
        cfg = dif.SimConfig(horizon=2 * h, step=h, burn_in=h, replicas=200_000,
                            seed=31, x0=x0, thin=h)
        run = dif.simulate(dspec, dif.ConstantControl(u), cfg)
        inc = (run.terminal - np.asarray(x0)) / (2 * h)
        b = hwsim.drift(np.asarray(x0), u, dspec)
        se = inc.std(axis=0, ddof=1) / math.sqrt(cfg.replicas)
        assert np.all(np.abs(inc.mean(axis=0) - b) < 3 * se + 1e-2)
        cov = np.cov(run.terminal.T) / (2 * h)
        assert np.allclose(np.diag(cov), dspec.a_diag, rtol=0.02)
        assert abs(cov[0, 1]) < 0.02 * dspec.a_diag.max()

    def test_deterministic_flow_rest_point(self):
        # sigma = 0, no abandonment: the negative-halfspace branch settles at
        # -(rho/m) e when that point is inside the halfspace (rho > 0)
        ds = hwsim.DiffusionSpec(1.0, [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        cfg = dif.SimConfig(horizon=40.0, step=0.005, replicas=1, seed=0,
                            x0=(-2.0, -1.0))
        run = dif.simulate(ds, dif.ConstantControl([0.5, 0.5]), cfg)
        assert np.allclose(run.terminal[0], [-0.5, -0.5], atol=1e-6)

    def test_blowup_guard_on_transient_instance(self):
        ds = hwsim.DiffusionSpec(-1.0, [1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        cfg = dif.SimConfig(horizon=4000.0, step=0.02, replicas=6, seed=1,
                            x0=0.0, blowup=500.0)
        run = dif.simulate(ds, dif.ConstantControl([1.0, 0.0]), cfg)
        assert run.tripped.all()
        assert np.all(run.trip_time[run.tripped] < 4000.0)

    def test_burn_in_and_thinning_counts(self, dspec):
        cfg = dif.SimConfig(horizon=10.0, step=0.01, burn_in=2.0, replicas=3,
                            seed=4, thin=1.0)
        run = dif.simulate(dspec, dif.ConstantControl([0.5, 0.5]), cfg)
        assert run.measure.samples.shape == (8 * 3, 2)
        assert np.allclose(run.measure.replica_time, 8.0)


# ---------------------------------------------------------------------------
# reference loop: simulate with 8192-step noise chunks and one += per moment
# per step; simulate must match it bit for bit
# ---------------------------------------------------------------------------

def _reference_accumulate(integrals, x, alive, h):
    l1 = np.abs(x).sum(axis=1)
    s = x.sum(axis=1)
    w = alive * h
    integrals["l1"] += w * l1
    integrals["neg_sum"] += w * np.maximum(-s, 0.0)
    integrals["sum"] += w * s
    for i in range(x.shape[1]):
        integrals[f"coord{i}"] += w * x[:, i]


def _reference_simulate(dspec, policy, cfg, keep_snapshots=False):
    m = dspec.m
    h = cfg.step
    n_steps = int(round(cfg.horizon / h))
    burn_step = int(round(cfg.burn_in / h))
    thin_every = max(1, int(round(cfg.thin / h)))
    R = cfg.replicas

    gens = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(R)]
    x0 = np.asarray(cfg.x0, dtype=float) * np.ones(m)
    X = np.tile(x0, (R, 1))
    alive = np.ones(R, dtype=bool)
    trip_time = np.full(R, np.nan)

    base = -(dspec.varrho / m) * dspec.mu
    sqh_sigma = math.sqrt(h) * dspec.sigma_diag
    integrals = {k: np.zeros(R) for k in dif._moment_names(m)}
    live_time = np.zeros(R)
    sample_rows = []
    snaps = [] if keep_snapshots else None
    snap_times = [] if keep_snapshots else None

    chunk = 8192
    k = 0
    while k < n_steps:
        ksz = min(chunk, n_steps - k)
        noise = np.stack([g.standard_normal((ksz, m)) for g in gens], axis=0)  # (R, ksz, m)
        for j in range(ksz):
            u = policy.controls(X)
            pos = np.maximum(X.sum(axis=1, keepdims=True), 0.0)
            b = base - dspec.mu * (X - pos * u) - pos * dspec.gamma * u
            Xn = X + b * h + sqh_sigma * noise[:, j, :]
            X = np.where(alive[:, None], Xn, X)
            step_idx = k + j + 1
            newly = alive & (np.abs(X).sum(axis=1) > cfg.blowup)
            if newly.any():
                trip_time[newly] = step_idx * h
                alive = alive & ~newly
            if step_idx > burn_step:
                _reference_accumulate(integrals, X, alive.astype(float), h)
                live_time += alive * h
                if step_idx % thin_every == 0 and alive.any():
                    sample_rows.append(X[alive].copy())
            if keep_snapshots and step_idx % thin_every == 0:
                snaps.append(X.copy())
                snap_times.append(step_idx * h)
        k += ksz

    if sample_rows:
        samples = np.concatenate(sample_rows, axis=0)
    else:
        samples = np.empty((0, m))
    measure = measures.EmpiricalMeasure(
        samples=samples,
        weights=np.full(samples.shape[0], cfg.thin),
        replica_time=live_time,
        replica_integrals=integrals,
    )
    return dif.DiffusionRun(
        measure=measure,
        tripped=~alive,
        trip_time=trip_time,
        terminal=X,
        snapshot_times=np.asarray(snap_times) if keep_snapshots else None,
        snapshots=np.stack(snaps, axis=0) if keep_snapshots and snaps else None,
    )


def _outputs(run):
    mea = run.measure
    fields = {"samples": mea.samples, "weights": mea.weights,
              "replica_time": mea.replica_time, "tripped": run.tripped,
              "trip_time": run.trip_time, "terminal": run.terminal,
              "snapshot_times": run.snapshot_times, "snapshots": run.snapshots}
    fields.update({f"integral {k}": v for k, v in mea.replica_integrals.items()})
    return fields


_TRANSIENT = hwsim.DiffusionSpec(-1.0, [1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
_THREE = hwsim.DiffusionSpec(0.5, [1.0, 2.0, 0.5], [0.3, 0.0, 1.0], [1.0, 2.0, 0.5])
_TABLE = dif.StateTableControl(
    [np.linspace(-2.0, 2.0, 5), np.linspace(-2.0, 2.0, 5)],
    np.random.default_rng(5).dirichlet(np.ones(2), size=(4, 4)))
_SOFTMAX = dif.FunctionControl(lambda x: np.exp(x) / np.exp(x).sum(axis=1, keepdims=True),
                               "softmax")


_CASES = {
    # m = 2, 1000 steps (not a multiple of the block)
    "constant": (None, dif.ConstantControl([0.3, 0.7]),
                 dict(horizon=10.0, step=0.01, burn_in=1.37, replicas=5, thin=0.05), True),
    "table": (None, _TABLE,
              dict(horizon=7.77, step=0.01, replicas=4, thin=0.3, x0=(1.0, -1.0)), True),
    # m = 3 with abandonment, 8300 steps: past the reference's 8192-step noise chunk
    "priority_m3": (_THREE, dif.StaticPriorityControl((2, 0, 1)),
                    dict(horizon=16.6, step=0.002, replicas=1, thin=0.25), False),
    "function_m3": (_THREE, _SOFTMAX,
                    dict(horizon=3.0, step=0.005, replicas=3, thin=0.1), True),
    # some replicas trip before the horizon (4 of 6 at seed 0, 2 at seed 7)
    "some_trip": (_TRANSIENT, dif.ConstantControl([1.0, 0.0]),
                  dict(horizon=30.0, step=0.02, replicas=6, thin=0.5, blowup=33.0), True),
    # every replica trips, some of them during burn-in
    "all_trip": (_TRANSIENT, dif.ConstantControl([1.0, 0.0]),
                 dict(horizon=60.0, step=0.02, burn_in=5.0, replicas=5, thin=0.7,
                      blowup=8.0), True),
}


class TestReferenceLoop:
    """simulate equals the per-step reference loop bit for bit."""

    @pytest.mark.parametrize("name, seed", [
        ("constant", 0), ("constant", 7), ("table", 0), ("table", 7),
        ("priority_m3", 0), ("function_m3", 0), ("function_m3", 7),
        ("some_trip", 0), ("some_trip", 7), ("all_trip", 0), ("all_trip", 7),
    ])
    def test_outputs_equal_reference(self, dspec, name, seed):
        ds, pol, kw, snaps = _CASES[name]
        ds = dspec if ds is None else ds
        cfg = dif.SimConfig(seed=seed, **kw)
        ref = _reference_simulate(ds, pol, cfg, keep_snapshots=snaps)
        got = dif.simulate(ds, pol, cfg, keep_snapshots=snaps)
        want, have = _outputs(ref), _outputs(got)
        assert have.keys() == want.keys()
        for field, value in want.items():
            if value is None:
                assert have[field] is None, field
            else:
                assert np.array_equal(have[field], value, equal_nan=True), field
        if name == "some_trip":
            assert 0 < got.tripped.sum() < cfg.replicas
        if name == "all_trip":
            assert got.tripped.all()
            assert np.nanmin(got.trip_time) <= cfg.burn_in < np.nanmax(got.trip_time)


class TestMeasure:
    def test_normalization(self, dspec):
        cfg = dif.SimConfig(horizon=20.0, step=0.01, replicas=4, seed=2)
        run = dif.simulate(dspec, dif.ConstantControl([0.5, 0.5]), cfg)
        w = run.measure.normalized_weights()
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_normalization_failure_raises(self):
        m = measures.EmpiricalMeasure(np.zeros((2, 2)), np.zeros(2), np.ones(1))
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="normalize"):
            m.normalized_weights()

    def test_moment_requires_accumulator(self):
        m = measures.from_samples(np.zeros((3, 2)))
        with pytest.raises(KeyError):
            m.moment("l1")

    def test_tail_directions(self):
        x = np.array([[1.0, -2.0], [-3.0, 0.5]])
        m = measures.from_samples(x)
        assert np.allclose(m.tail_values(), [3.0, 3.5])


class TestIdleness:
    def test_identity_and_control_invariance(self, dspec):
        cfg = dif.SimConfig(horizon=600.0, step=0.01, burn_in=60.0, replicas=12,
                            seed=15, thin=0.5)
        ests = []
        for pol in (dif.ConstantControl([0.5, 0.5]), dif.StaticPriorityControl((0, 1))):
            run = dif.simulate(dspec, pol, cfg)
            rep = dif.check_idleness_identity(run.measure, dspec)
            assert rep.passed
            ests.append((rep.estimate, rep.stderr))
        gap = abs(ests[0][0] - ests[1][0])
        assert gap < 3 * math.hypot(ests[0][1], ests[1][1])

    def test_rejects_abandonment(self, dspec):
        ds = hwsim.DiffusionSpec(1.0, dspec.mu, np.array([0.5, 0.5]), dspec.a_diag)
        m = measures.from_samples(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            dif.check_idleness_identity(m, ds)


class TestTails:
    def test_standard_normal_sub_gaussian_slope(self):
        rng = np.random.default_rng(8)
        v = np.abs(rng.standard_normal(200_000))
        fit = measures.fit_tail(v, np.ones_like(v), "sub_gaussian")
        assert -0.65 < fit.slope < -0.40
        assert fit.r2 > 0.99

    def test_exponential_slope(self):
        rng = np.random.default_rng(9)
        v = rng.exponential(2.0, size=200_000)
        fit = measures.fit_tail(v, np.ones_like(v), "exponential")
        assert fit.slope == pytest.approx(-0.5, rel=0.1)

    def test_insufficient_samples_flagged(self):
        fit = measures.fit_tail(np.arange(10.0), np.ones(10), "exponential")
        assert not fit.ok

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            measures.fit_tail(np.arange(100.0), np.ones(100), "cauchy")


class TestRate:
    def test_positive_rate_and_seed_agreement(self, dspec):
        gammas = []
        for seed in (21, 22):
            cfg = dif.SimConfig(horizon=25.0, step=0.01, burn_in=0.02,
                                replicas=3000, seed=seed, x0=(3.0, 3.0), thin=0.5)
            est = dif.estimate_rate(dspec, dif.ConstantControl([0.5, 0.5]), cfg)
            assert est.ok and est.gamma_hat > 0
            gammas.append(est.gamma_hat)
        assert abs(gammas[0] - gammas[1]) / gammas[0] < 0.25

    def test_transient_instance_flagged(self):
        ds = hwsim.DiffusionSpec(-1.0, [1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        cfg = dif.SimConfig(horizon=25.0, step=0.02, burn_in=0.04, replicas=500,
                            seed=3, x0=0.0, thin=0.5, blowup=1e6)
        est = dif.estimate_rate(ds, dif.ConstantControl([0.5, 0.5]), cfg)
        assert not est.ok
