import math
from dataclasses import replace

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

    @pytest.mark.parametrize("m", [2, 3])
    def test_state_table_equals_the_clipped_lookup(self, m):
        rng = np.random.default_rng(m)
        edges = [np.sort(rng.uniform(-3.0, 3.0, size=n)) for n in (5, 2, 6)[:m]]
        cells = tuple(len(e) - 1 for e in edges)
        pol = dif.StateTableControl(edges, rng.dirichlet(np.ones(m), size=cells))
        pts = [rng.uniform(-4.0, 4.0, size=(500, m))]
        far = np.array([-1e300, 1e300, -np.inf, np.inf, np.nan])
        for d, e in enumerate(edges):
            for values in (e, far):                # on every edge, far outside, NaN
                p = rng.uniform(-4.0, 4.0, size=(len(values), m))
                p[:, d] = values
                pts.append(p)
        x = np.concatenate(pts)

        def clipped(x):
            idx = [np.clip(np.searchsorted(e, x[..., d]) - 1, 0, len(e) - 2)
                   for d, e in enumerate(pol.edges)]
            return pol.table[tuple(idx)]

        assert np.array_equal(pol.controls(x), clipped(x))
        assert np.array_equal(pol.controls(x[:12].reshape(3, 4, m)),
                              clipped(x[:12].reshape(3, 4, m)))
        assert np.array_equal(pol.controls(x[0]), clipped(x[0]))

    def test_state_table_rejects_a_bad_grid(self):
        table = np.full((2, 2, 2), 0.5)
        with pytest.raises(ValueError, match="strictly increasing"):
            dif.StateTableControl([np.array([0.0, 1.0, 1.0]), np.array([0.0, 1.0, 2.0])], table)
        with pytest.raises(ValueError, match="cells"):
            dif.StateTableControl([np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0])], table)

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


def _reference_simulate(dspec, policy, cfg):
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

    base = -(dspec.varrho / m) * dspec.mu
    sqh_sigma = math.sqrt(h) * dspec.sigma_diag
    integrals = {k: np.zeros(R) for k in dif._moment_names(m)}
    live_time = np.zeros(R)
    sample_rows = []

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
            alive = alive & ~(np.abs(X).sum(axis=1) > cfg.blowup)
            if step_idx > burn_step:
                _reference_accumulate(integrals, X, alive.astype(float), h)
                live_time += alive * h
                if step_idx % thin_every == 0 and alive.any():
                    sample_rows.append(X[alive].copy())
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
        terminal=X,
    )


def _outputs(run):
    mea = run.measure
    fields = {"samples": mea.samples, "weights": mea.weights,
              "replica_time": mea.replica_time, "tripped": run.tripped,
              "terminal": run.terminal}
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
                 dict(horizon=10.0, step=0.01, burn_in=1.37, replicas=5, thin=0.05)),
    "table": (None, _TABLE,
              dict(horizon=7.77, step=0.01, replicas=4, thin=0.3, x0=(1.0, -1.0))),
    # m = 3 with abandonment, 8300 steps: past the reference's 8192-step noise chunk
    "priority_m3": (_THREE, dif.StaticPriorityControl((2, 0, 1)),
                    dict(horizon=16.6, step=0.002, replicas=1, thin=0.25)),
    "function_m3": (_THREE, _SOFTMAX,
                    dict(horizon=3.0, step=0.005, replicas=3, thin=0.1)),
    # some replicas trip before the horizon (4 of 6 at seed 0, 2 at seed 7)
    "some_trip": (_TRANSIENT, dif.ConstantControl([1.0, 0.0]),
                  dict(horizon=30.0, step=0.02, replicas=6, thin=0.5, blowup=33.0)),
    # every replica trips, some of them during burn-in
    "all_trip": (_TRANSIENT, dif.ConstantControl([1.0, 0.0]),
                 dict(horizon=60.0, step=0.02, burn_in=5.0, replicas=5, thin=0.7,
                      blowup=8.0)),
}


class TestReferenceLoop:
    """simulate equals the per-step reference loop bit for bit."""

    @pytest.mark.parametrize("name, seed", [
        ("constant", 0), ("constant", 7), ("table", 0), ("table", 7),
        ("priority_m3", 0), ("function_m3", 0), ("function_m3", 7),
        ("some_trip", 0), ("some_trip", 7), ("all_trip", 0), ("all_trip", 7),
    ])
    def test_outputs_equal_reference(self, dspec, name, seed):
        ds, pol, kw = _CASES[name]
        ds = dspec if ds is None else ds
        cfg = dif.SimConfig(seed=seed, **kw)
        want = _outputs(_reference_simulate(ds, pol, cfg))
        got = dif.simulate(ds, pol, cfg)
        have = _outputs(got)
        assert have.keys() == want.keys()
        for field, value in want.items():
            assert np.array_equal(have[field], value, equal_nan=True), field
        if name == "some_trip":
            assert 0 < got.tripped.sum() < cfg.replicas
        if name == "all_trip":
            assert got.tripped.all()
            live = got.measure.replica_time       # 0 for a replica that tripped in burn-in
            assert live.min() == 0.0 < live.max() < cfg.horizon - cfg.burn_in


_TRIP_CLASS0 = hwsim.DiffusionSpec(-1.0, [1.0, 1.0], [0.0, 1.0], [1.0, 1.0])
_TABLE3 = dif.StateTableControl(
    [np.linspace(-2.0, 2.0, 4)] * 3,
    np.random.default_rng(6).dirichlet(np.ones(3), size=(3, 3, 3)))

_LOCKSTEP = {
    # m = 2, 777 steps: not a multiple of the 64-step block of four policies
    "mixed": (None, [dif.ConstantControl([0.3, 0.7]), dif.StaticPriorityControl((1, 0)),
                     _TABLE, _SOFTMAX],
              dict(horizon=7.77, step=0.01, burn_in=1.37, replicas=3, thin=0.3,
                   x0=(1.0, -1.0))),
    "mixed_m3": (_THREE, [_SOFTMAX, dif.StaticPriorityControl((2, 0, 1)), _TABLE3,
                          dif.ConstantControl([0.2, 0.3, 0.5])],
                 dict(horizon=3.0, step=0.005, replicas=2, thin=0.1)),
    # class 0 does not abandon: under u = e_0 every replica trips, while
    # u = e_1 and the table keep theirs to the horizon
    "one_group_trips": (_TRIP_CLASS0, [dif.StaticPriorityControl((1, 0)),
                                       dif.StaticPriorityControl((0, 1)), _TABLE],
                        dict(horizon=12.0, step=0.01, burn_in=2.0, replicas=3, thin=0.5,
                             blowup=12.0)),
    # every replica of both controls trips, so the loop stops before the horizon
    "all_trip": (_TRANSIENT, [dif.ConstantControl([1.0, 0.0]), dif.ConstantControl([0.5, 0.5])],
                 dict(horizon=60.0, step=0.02, burn_in=5.0, replicas=3, thin=0.7, blowup=8.0)),
}


class TestLockstep:
    """Each run of simulate_policies equals simulate of its control alone."""

    @pytest.mark.parametrize("name", list(_LOCKSTEP))
    def test_runs_equal_one_policy_runs(self, dspec, name):
        ds, pols, kw = _LOCKSTEP[name]
        ds = dspec if ds is None else ds
        cfg = dif.SimConfig(seed=0, **kw)
        runs = dif.simulate_policies(ds, pols, cfg)
        assert len(runs) == len(pols)
        for i, (pol, run) in enumerate(zip(pols, runs)):
            alone = dif.simulate(ds, pol, replace(cfg, seed=cfg.seed + i))
            want, have = _outputs(alone), _outputs(run)
            assert have.keys() == want.keys()
            for field, value in want.items():
                assert np.array_equal(have[field], value, equal_nan=True), (i, field)
        if name == "one_group_trips":
            assert runs[0].tripped.all()
            assert not runs[1].tripped.any() and not runs[2].tripped.any()
        if name == "all_trip":
            assert all(run.tripped.all() for run in runs)

    def test_needs_a_policy(self, dspec):
        with pytest.raises(ValueError, match="policy"):
            dif.simulate_policies(dspec, [], dif.SimConfig(horizon=1.0, step=0.1))

    def test_each_run_passes_through_simulate(self, dspec, monkeypatch):
        # a wrapper of simulate sees one call per control, with that control
        # and its seed, and returns that control's run
        seen = []
        inner = dif.simulate

        def wrapped(ds, pol, cfg):
            run = inner(ds, pol, cfg)
            seen.append((pol, cfg.seed, run))
            return run

        monkeypatch.setattr(dif, "simulate", wrapped)
        pols = [dif.ConstantControl([0.5, 0.5]), _TABLE, dif.StaticPriorityControl((1, 0))]
        cfg = dif.SimConfig(horizon=3.0, step=0.01, burn_in=1.0, replicas=2, seed=4)
        runs = dif.simulate_policies(dspec, pols, cfg)
        assert [(pol, seed) for pol, seed, _ in seen] == [(p, 4 + i) for i, p in enumerate(pols)]
        assert all(a is b for (_, _, a), b in zip(seen, runs))
        assert dif._pending is None
        # a control that raises mid-lockstep leaves no pending runs behind
        bad = dif.FunctionControl(lambda x: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            dif.simulate_policies(dspec, [pols[0], bad], cfg)
        assert dif._pending is None


def _from_samples(samples):
    """A unit-weight measure over the rows of ``samples``, with no moments."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    return measures.EmpiricalMeasure(samples, np.ones(n), replica_time=np.array([float(n)]))


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
        m = _from_samples(np.zeros((3, 2)))
        with pytest.raises(KeyError):
            m.moment("l1")

    def test_tail_directions(self):
        x = np.array([[1.0, -2.0], [-3.0, 0.5]])
        m = _from_samples(x)
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
        m = _from_samples(np.zeros((3, 2)))
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
        # every replica tripped before burn-in: no samples at all
        fit = measures.fit_tail(np.empty(0), np.empty(0), "exponential")
        assert fit.flag == "insufficient tail samples" and fit.n_levels == 0

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

    def test_tripped_replicas_are_flagged(self):
        ds = hwsim.DiffusionSpec(-1.0, [1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        cfg = dif.SimConfig(horizon=25.0, step=0.02, replicas=50, seed=3, thin=0.5,
                            blowup=5.0)
        est = dif.estimate_rate(ds, dif.ConstantControl([0.5, 0.5]), cfg)
        assert not est.ok and "not stationary" in est.flag
        assert np.allclose(est.times, 0.5 * np.arange(1, 51))
        assert np.isnan(est.distances).all() and len(est.distances) == 50

    @pytest.mark.parametrize("thin", [0.01, 0.004, 2.0])
    def test_thin_needs_two_steps_and_one_ensemble(self, dspec, thin):
        cfg = dif.SimConfig(horizon=1.0, step=0.01, replicas=2, thin=thin)
        with pytest.raises(ValueError, match="two steps and at most the horizon"):
            dif.estimate_rate(dspec, dif.ConstantControl([0.5, 0.5]), cfg)
