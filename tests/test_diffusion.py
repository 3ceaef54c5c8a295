import math
from dataclasses import replace

import numpy as np
import pytest

import hwsim
from hwsim import diffusion as dif
from hwsim import measures


@pytest.fixture(scope="module")
def stable_system():
    return hwsim.SystemParams([0.5, 0.5], [1.0, 1.0], hat_lambda=[-0.5, -0.5])


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
    integrals = {k: np.zeros(R) for k in measures.moment_names(m)}
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
    fields = {"samples": mea.samples,
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
_TABLE3 = dif.StateTableControl(
    [np.linspace(-2.0, 2.0, 4)] * 3,
    np.random.default_rng(6).dirichlet(np.ones(3), size=(3, 3, 3)))
# m = 3 with no abandonment and spare capacity -1: transient
_TRANSIENT3_NO_ABANDON = hwsim.DiffusionSpec(-1.0, [1.0, 2.0, 0.5], [0.0, 0.0, 0.0],
                                             [1.0, 2.0, 0.5])
# m = 8: the class sum is numpy's pairwise sum, with and without abandonment
_MU8 = np.linspace(0.5, 2.0, 8)
_EIGHT = hwsim.DiffusionSpec(0.5, _MU8, np.zeros(8), _MU8 / 4.0)
_EIGHT_ABANDON = hwsim.DiffusionSpec(0.5, _MU8, np.linspace(0.1, 0.8, 8), _MU8 / 4.0)


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
    # m = 3, no abandonment, a state table: some replicas trip (4 of 6 at
    # seed 0, 1 at seed 7)
    "table_m3_trip": (_TRANSIENT3_NO_ABANDON, _TABLE3,
                      dict(horizon=12.0, step=0.02, burn_in=1.0, replicas=6, thin=0.5,
                           blowup=12.0)),
    "eight": (_EIGHT, _SOFTMAX, dict(horizon=3.0, step=0.01, replicas=3, thin=0.1)),
    "eight_abandon": (_EIGHT_ABANDON, dif.StaticPriorityControl((7, 0, 6, 1, 5, 2, 4, 3)),
                      dict(horizon=3.0, step=0.01, replicas=3, thin=0.1)),
}


class TestReferenceLoop:
    """simulate equals the per-step reference loop bit for bit."""

    @pytest.mark.parametrize("name, seed", [
        ("constant", 0), ("constant", 7), ("table", 0), ("table", 7),
        ("priority_m3", 0), ("function_m3", 0), ("function_m3", 7),
        ("some_trip", 0), ("some_trip", 7), ("all_trip", 0), ("all_trip", 7),
        ("table_m3_trip", 0), ("table_m3_trip", 7), ("eight", 0), ("eight_abandon", 0),
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
        if name in ("some_trip", "table_m3_trip"):
            assert 0 < got.tripped.sum() < cfg.replicas
        if name == "all_trip":
            assert got.tripped.all()
            live = got.measure.replica_time       # 0 for a replica that tripped in burn-in
            assert live.min() == 0.0 < live.max() < cfg.horizon - cfg.burn_in


_TRIP_CLASS0 = hwsim.DiffusionSpec(-1.0, [1.0, 1.0], [0.0, 1.0], [1.0, 1.0])

_LOCKSTEP = {
    # m = 2, 777 steps: not a multiple of the 64-step block of four policies
    "mixed": (None, [dif.ConstantControl([0.3, 0.7]), dif.StaticPriorityControl((1, 0)),
                     _TABLE, _SOFTMAX],
              dict(horizon=7.77, step=0.01, burn_in=1.37, replicas=3, thin=0.3,
                   x0=(1.0, -1.0))),
    "mixed_m3": (_THREE, [_SOFTMAX, dif.StaticPriorityControl((2, 0, 1)), _TABLE3,
                          dif.ConstantControl([0.2, 0.3, 0.5])],
                 dict(horizon=3.0, step=0.005, replicas=2, thin=0.1)),
    "mixed_m8": (_EIGHT_ABANDON, [_SOFTMAX, dif.StaticPriorityControl((3, 1, 4, 0, 5, 2, 6, 7)),
                                  dif.ConstantControl(np.full(8, 0.125))],
                 dict(horizon=3.0, step=0.01, replicas=2, thin=0.1)),
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


# ---------------------------------------------------------------------------
# the blow-up guard is checked once per dif._GUARD steps and the steps after a
# trip are taken again; each trip pattern below must still equal the per-step
# reference
# ---------------------------------------------------------------------------

def _first_trips(ds, pol, cfg):
    """For each guard level, the step at which each replica first exceeds it
    (0 for never): yields (level, steps), lowest level first.

    The l1 paths come from one unguarded reference run sampled at every step
    from step 2 on; the levels are the sampled values above every replica's
    value at step 2, which in these cases lies well above step 1's.
    """
    h, n = cfg.step, cfg.step_counts()[0]
    run = _reference_simulate(ds, pol, replace(cfg, burn_in=h, thin=h, blowup=math.inf))
    l1 = np.abs(run.measure.samples).sum(axis=1).reshape(n - 1, cfg.replicas)
    for level in np.unique(l1[l1 > l1[0].max()]):
        over = l1 > level
        yield level, np.where(over.any(axis=0), over.argmax(axis=0) + 2, 0)


def _rows(steps):
    """Block and row of each tripping step (steps count from 1)."""
    return [divmod(int(s) - 1, dif._BLOCK) for s in steps if s]


_QUIET = hwsim.DiffusionSpec(-1.0, [1.0, 1.0], [0.0, 0.0], [1e-6, 1e-6])
_TRANSIENT3 = hwsim.DiffusionSpec(-1.0, [1.0, 2.0, 0.5], [0.0, 0.3, 0.0], [1.0, 2.0, 0.5])

_TRIPS = {
    # a replica trips on row B - 1 of its block, the last row of a check, so
    # nothing is stepped again
    "last_row": (_TRANSIENT, dif.ConstantControl([1.0, 0.0]),
                 dict(horizon=12.0, step=0.02, burn_in=1.0, replicas=4, thin=0.5),
                 lambda s: any(row == dif._BLOCK - 1 for _, row in _rows(s))),
    # two replicas trip past burn-in at different rows of one check: the second
    # trip is found among the steps taken again after the first
    "different_rows": (_TRANSIENT, dif.ConstantControl([1.0, 0.0]),
                       dict(horizon=12.0, step=0.02, burn_in=1.0, replicas=4, thin=0.5),
                       lambda s: any(a[0] == b[0] and a[1] // dif._GUARD == b[1] // dif._GUARD
                                     and 50 <= a[1] < b[1]
                                     for a in _rows(s) for b in _rows(s))),
    # with noise 1e-3 the replicas stay within a step's drift of each other, so
    # two of them trip on one step past burn-in, mid-block
    "same_step": (_QUIET, dif.ConstantControl([1.0, 0.0]),
                  dict(horizon=12.0, step=0.02, burn_in=1.0, replicas=3, thin=0.5),
                  lambda s: any(s[a] == s[b] > 50 and 0 < (s[a] - 1) % dif._BLOCK < 200
                                for a in range(3) for b in range(a))),
    # a replica trips in burn-in, in the block where burn-in ends at row 150
    "burn_in": (_TRANSIENT, dif.ConstantControl([0.5, 0.5]),
                dict(horizon=12.0, step=0.02, burn_in=3.0, replicas=4, thin=0.5),
                lambda s: any(s[r] and s[r] <= 150 for r in range(4))
                and any(not s[r] or s[r] > 256 for r in range(4))),
    # m = 3 under a state table: the control is evaluated on the frozen rows
    "m3": (_TRANSIENT3, _TABLE3,
           dict(horizon=12.0, step=0.02, burn_in=1.0, replicas=4, thin=0.5),
           lambda s: 0 < len(_rows(s)) < 4 and all(0 < row < dif._BLOCK - 1
                                                   for _, row in _rows(s))),
}


class TestGuardReplay:
    @pytest.mark.parametrize("name", list(_TRIPS))
    def test_trips_equal_reference(self, name):
        ds, pol, kw, wanted = _TRIPS[name]
        cfg = dif.SimConfig(seed=3, **kw)
        level = next(level for level, steps in _first_trips(ds, pol, cfg) if wanted(steps))
        cfg = replace(cfg, blowup=level)
        want = _outputs(_reference_simulate(ds, pol, cfg))
        have = _outputs(dif.simulate(ds, pol, cfg))
        for field, value in want.items():
            assert np.array_equal(have[field], value, equal_nan=True), field

    def test_unstable_euler_steps_stay_finite(self):
        # h mu = 30, so each Euler step scales the difference of the two
        # coordinates by -29: a tripped replica stepped on past the guard grows
        # fast.  The control must see only finite states, and the run must
        # equal the per-step reference with no overflow warning (RuntimeWarnings
        # are errors under the test configuration)
        ds = hwsim.DiffusionSpec(0.5, [300.0, 300.0], [0.0, 0.0], [1.0, 1.0])
        seen = []

        def half(x):
            seen.append(np.abs(x).max())
            return np.full(x.shape, 0.5)

        pol = dif.FunctionControl(half, "half")
        cfg = dif.SimConfig(horizon=60.0, step=0.1, burn_in=1.0, replicas=4, seed=3)
        have = _outputs(dif.simulate(ds, pol, cfg))
        assert have["tripped"].all()
        assert np.isfinite(seen).all()
        want = _outputs(_reference_simulate(ds, pol, cfg))
        for field, value in want.items():
            assert np.array_equal(have[field], value, equal_nan=True), field

    def test_one_step_blocks(self):
        # more than _BLOCK one-replica controls step in blocks of one step
        G = dif._BLOCK + 4
        pols = [dif.ConstantControl([1.0, 0.0]) if g % 2 else _TABLE for g in range(G)]
        cfg = dif.SimConfig(horizon=2.0, step=0.02, burn_in=0.5, replicas=1, thin=0.1,
                            x0=(1.0, 1.0), blowup=3.5)
        runs = dif.simulate_policies(_TRANSIENT, pols, cfg)
        tripped = [bool(run.tripped[0]) for run in runs]
        assert 0 < sum(tripped) < G
        for i, (pol, run) in enumerate(zip(pols, runs)):
            alone = dif.simulate(_TRANSIENT, pol, replace(cfg, seed=cfg.seed + i))
            want, have = _outputs(alone), _outputs(run)
            for field, value in want.items():
                assert np.array_equal(have[field], value, equal_nan=True), (i, field)


def _from_samples(samples):
    """A measure over the rows of ``samples``, with no moments."""
    samples = np.asarray(samples, dtype=float)
    return measures.EmpiricalMeasure(samples, replica_time=np.array([float(len(samples))]))


class TestMeasure:
    @pytest.mark.parametrize("m", [2, 3])
    def test_normalization(self, m):
        # every sample weighs 1/N, and the occupied cells are the non-empty
        # bins of the dense histogramdd grid, in C order, with its masses
        system = hwsim.SystemParams([1.0 / m] * m, [1.0] * m, hat_lambda=[-1.0 / m] * m)
        cfg = dif.SimConfig(horizon=20.0, step=0.01, replicas=4, seed=2)
        run = dif.simulate(hwsim.diffusion_spec(system), dif.ConstantControl([1.0 / m] * m), cfg)
        samples = run.measure.samples
        edges, cells, masses = run.measure.histogram(5)
        dense, _ = np.histogramdd(samples, bins=edges, weights=np.full(len(samples),
                                                                       1.0 / len(samples)))
        assert np.array_equal(cells, np.argwhere(dense))
        assert np.array_equal(masses, dense[tuple(cells.T)])
        counts, _ = np.histogramdd(samples, bins=edges)
        assert np.allclose(masses * len(samples), counts[tuple(cells.T)], rtol=1e-12, atol=0.0)
        assert abs(masses.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("m", [15, 30])
    def test_cells_past_int64_are_the_sorted_index_rows(self, m):
        # 20^m > 2^63: the cells are still the occupied index rows in C
        # (lexicographic) order, each with its share of the samples
        rng = np.random.default_rng(m)
        samples = np.round(rng.normal(size=(600, m)), 1)
        samples[300:] = samples[:300][rng.integers(0, 300, size=300)]
        edges, cells, masses = _from_samples(samples).histogram(20)
        rows = np.stack([np.minimum(np.searchsorted(e, col, side="right"), 20) - 1
                         for e, col in zip(edges, samples.T)], axis=1)
        want, counts = np.unique(rows, axis=0, return_counts=True)
        assert len(want) < 600
        assert np.array_equal(cells, want)
        assert np.allclose(masses * len(samples), counts, rtol=1e-12, atol=0.0)

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
        fit = measures.fit_tail(v, "sub_gaussian")
        assert -0.65 < fit.slope < -0.40
        assert fit.r2 > 0.99

    def test_exponential_slope(self):
        rng = np.random.default_rng(9)
        v = rng.exponential(2.0, size=200_000)
        fit = measures.fit_tail(v, "exponential")
        assert fit.slope == pytest.approx(-0.5, rel=0.1)

    def test_insufficient_samples_flagged(self):
        fit = measures.fit_tail(np.arange(10.0), "exponential")
        assert not fit.ok
        # every replica tripped before burn-in: no samples at all
        fit = measures.fit_tail(np.empty(0), "exponential")
        assert fit.flag == "insufficient tail samples" and fit.n_levels == 0

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            measures.fit_tail(np.arange(100.0), "cauchy")
