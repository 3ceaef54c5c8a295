import contextlib
import hashlib
import itertools
import math
import os
import signal
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hwsim
from hwsim import queues as qs
from hwsim import workers
from hwsim.diffusion import SimConfig
from hwsim.model import prelimit_params, unscale_state

IDENTITY_SE = 4.0


@pytest.fixture(scope="module")
def demo_n20():
    # varrho = 1, equal service rates: E[(sum_i xhat_i)^-] = varrho_n exactly
    system = hwsim.SystemParams([0.5, 0.5], [1.0, 1.0], hat_lambda=[-0.5, -0.5])
    return prelimit_params(system, 20)


@pytest.fixture(scope="module")
def erlang_a():
    # M/M/n+M at n = 10, one class with abandonment
    return prelimit_params(hwsim.SystemParams([1.0], [1.0], gamma=[0.5]), 10)


def _sim_cfg(seed, horizon=100.0, replicas=16):
    return SimConfig(horizon=horizon, burn_in=horizon / 10, replicas=replicas, seed=seed,
                     x0=(-0.5, -0.5), thin=0.5)


def _serve_second_first(x, n):
    z1 = min(int(x[1]), n)
    return [min(int(x[0]), n - z1), z1]


def _serve_last_first(x, n):
    z, free = [0] * len(x), n
    for i in reversed(range(len(x))):
        z[i] = min(int(x[i]), free)
        free -= z[i]
    return z


def _policies():
    return [qs.StaticPriorityPolicy((0, 1)), qs.LongestQueueFirstPolicy(),
            qs.RandomWorkConservingPolicy(), qs.ProportionalSplitPolicy((0.3, 0.7)),
            qs.FunctionPolicy(_serve_second_first, "second_first")]


RENEWAL = qs.ArrivalSpec((qs.Erlang(2), qs.HyperExp2(1.5)))


def _raw_samples(run, p):
    """The thinned samples as raw integer states, (R, K, m); every replica
    ran to the horizon, so each has the same K samples."""
    assert not run.tripped.any()
    x = np.rint(unscale_state(run.measure.samples, p)).astype(np.int64)
    return x.reshape(len(run.tripped), -1, p.m)


def _three_class():
    # three classes at n = 30; class 1 does not abandon, class 2's input is Poisson
    system = hwsim.SystemParams([0.3, 0.5, 0.36], [1.0, 2.0, 0.8], gamma=[0.4, 0.0, 0.7],
                                hat_lambda=[-0.2, -0.3, -0.1])
    arr = qs.ArrivalSpec((qs.Erlang(3), qs.HyperExp2(2.0), qs.Exponential()))
    pols = [qs.StaticPriorityPolicy((1, 2, 0)), qs.LongestQueueFirstPolicy(),
            qs.RandomWorkConservingPolicy(), qs.ProportionalSplitPolicy((0.2, 0.3, 0.5)),
            qs.FunctionPolicy(_serve_last_first, "last_first")]
    return prelimit_params(system, 30), arr, pols, (0.5, 0.0, 0.5)


def _demo(gamma):
    # the demo system at n = 20, started with a queue
    system = hwsim.SystemParams([0.5, 0.5], [1.0, 1.0], gamma=gamma, hat_lambda=[-0.5, -0.5])
    return prelimit_params(system, 20), RENEWAL, _policies(), (0.5, 0.5)


# system name -> (prelimit parameters, renewal input, the four built-in
# policies and one FunctionPolicy, x0)
_SYSTEMS = {"demo": lambda: _demo([0.0, 0.0]), "demo_gamma": lambda: _demo([0.5, 0.8]),
            "three_class": _three_class}


def _digest(run):
    """SHA-256 of a run's integrals, samples, event counts and terminal states."""
    h = hashlib.sha256()
    for key in sorted(run.measure.replica_integrals):
        h.update(run.measure.replica_integrals[key].tobytes())
    for arr in (run.measure.samples, run.event_counts, run.terminal):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


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
        # rate conservation per class at gamma = 0: E[mu_i z_i(x)] = lambda_i,
        # the mean over the states sampled every 0.1 time units
        cfg = replace(_sim_cfg(33), thin=0.1)
        x = _raw_samples(qs.simulate_ctmc(demo_n20, pol, cfg), demo_n20)
        z = np.array([pol.allocate_list(row, demo_n20.n) for row in x.reshape(-1, 2).tolist()])
        per = (demo_n20.mu_n * z).reshape(x.shape).mean(axis=1)
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

    def test_a_poisson_spec_runs_the_ctmc_through_either_entry(self, demo_n20):
        cfg = _sim_cfg(6, horizon=20.0, replicas=3)
        pol = qs.ProportionalSplitPolicy((0.3, 0.7))
        ctmc = qs.simulate_ctmc(demo_n20, pol, cfg)
        for arr in (qs.ArrivalSpec.poisson(2), qs.ArrivalSpec((qs.Exponential(),) * 2)):
            _assert_same_run(ctmc, qs.simulate_renewal(demo_n20, arr, pol, cfg))

    def test_builtin_policy_matches_its_rule_as_a_function(self, demo_n20):
        # the list fast path of StaticPriorityPolicy and the same rule behind
        # FunctionPolicy's array path must give the same run
        cfg = _sim_cfg(8, horizon=20.0, replicas=3)
        kept = qs.simulate_ctmc(demo_n20, qs.StaticPriorityPolicy((1, 0)), cfg)
        fresh = qs.simulate_ctmc(demo_n20, qs.FunctionPolicy(_serve_second_first), cfg)
        _assert_same_run(kept, fresh)

    def test_integrals_keep_the_moment_identities(self, demo_n20, erlang_a):
        # the loop updates l1 and sum incrementally and settles coordinates
        # lazily: sum_i x_i integrates to the sum of the coordinate integrals
        # at any m, and at m = 1 |x| = x + 2 x^- integrates likewise
        cfg = SimConfig(horizon=20.0, burn_in=2.0, replicas=3, seed=10, x0=(-0.5, -0.5))
        two = qs.simulate_renewal(demo_n20, RENEWAL, qs.LongestQueueFirstPolicy(), cfg)
        one = qs.simulate_ctmc(erlang_a, qs.StaticPriorityPolicy((0,)), replace(cfg, x0=0.0))
        for run in (two, one):
            ints = run.measure.replica_integrals
            tol = 1e-9 * ints["l1"]
            coords = sum(ints[f"coord{i}"] for i in range(run.terminal.shape[1]))
            assert np.all(np.abs(ints["sum"] - coords) <= tol)
            assert np.all(run.measure.replica_time == cfg.horizon - cfg.burn_in)
        ints = one.measure.replica_integrals
        assert np.all(ints["neg_sum"] > 0) and np.all(ints["sum"] + ints["neg_sum"] > 0)
        assert np.all(np.abs(ints["l1"] - ints["sum"] - 2 * ints["neg_sum"]) <= 1e-9 * ints["l1"])

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
        # x0 = (0.5, 0.5) starts with a queue (sum x = 24 > n = 20): the map is asked at t = 0
        cfg = SimConfig(horizon=2.0, replicas=1, seed=9, x0=(0.5, 0.5))
        pol = qs.FunctionPolicy(fn)
        with pytest.raises(ValueError, match=match):
            if renewal:
                qs.simulate_renewal(demo_n20, RENEWAL, pol, cfg)
            else:
                qs.simulate_ctmc(demo_n20, pol, cfg)

    # SHA-256 of the integrals, samples, event counts and terminal states of
    # 3 replicas over horizon 20 at n = 20: a change to the loop's arithmetic,
    # to a policy's allocations or to the random policy's draws shows here.
    PINNED = {
        ("static_priority[0,1]", False):
            "8a8d07a6955ff033b4b98773d0d143fe1623f16da32b83d1a702ad8353bd20a2",
        ("static_priority[0,1]", True):
            "c7f817f015077b270e9e9d9c5c605622aa2d44e8b400e35e83095e59df56b527",
        ("longest_queue_first", False):
            "1de7705957c665bf57bd99b1b303178f15b3afa90a72ddb44113f9f40852c4a2",
        ("longest_queue_first", True):
            "45c2392c7e4712095088c5677729c34a79352ceba2181612925b7f32c4639e44",
        ("proportional_split[0.3,0.7]", False):
            "3bed30fe1ca8bdabb29fc126c196de379e7fcba0a56d3e2365065c80601a40fd",
        ("proportional_split[0.3,0.7]", True):
            "ccec49b3c41dbf38b65e388ae4c5cd635e1ca97cb86a94d8f0c4dc0bdc272856",
        ("random_work_conserving", False):
            "2d44edfb672a142f3f812ab5bbf8e215d866634aa69aed2880aa7e80c8c3bacc",
        ("random_work_conserving", True):
            "c78bb10861817215357c7c81bf5eb72a8628c0ada222203d76ac318a5aa576be",
    }

    @pytest.mark.parametrize("pol", _policies()[:4], ids=lambda p: p.describe())
    @pytest.mark.parametrize("renewal", [False, True])
    def test_pinned_output(self, demo_n20, pol, renewal):
        cfg = SimConfig(horizon=20.0, burn_in=2.0, replicas=3, seed=7, x0=(-0.5, -0.5),
                        thin=0.5)
        run = (qs.simulate_renewal(demo_n20, RENEWAL, pol, cfg) if renewal
               else qs.simulate_ctmc(demo_n20, pol, cfg))
        assert _digest(run) == self.PINNED[pol.describe(), renewal]

    # The same digest where the death rates keep their abandonment term: the
    # demo at gamma = (0.5, 0.8), and three classes, one of them with
    # gamma_i = 0 and one with exponential interarrival times.
    PINNED_ABANDON = {
        ("demo_gamma", "static_priority[0,1]", False):
            "a9297b09435854631839ec998fb0bca57ef60e9d516f492701cd5d377fa5ca7a",
        ("demo_gamma", "static_priority[0,1]", True):
            "fc8909c095c3f41fded56ac00ef4f33144a4c32d33779b4701352e1a0cf279f8",
        ("demo_gamma", "longest_queue_first", False):
            "9839c4964f0bbf76d38e722c6e6005a5e7e1bc6d7f9f153be98e0185256441f9",
        ("demo_gamma", "longest_queue_first", True):
            "ae9b2ee9f31de79540f02e650e64bacb7bf730bc0c8197cc4fbca1e1f6fac0fb",
        ("demo_gamma", "random_work_conserving", False):
            "c78b7a8b8035c98993f48d32a9d6b767c5d10d15fb92e68a03c78d1b32041c8a",
        ("demo_gamma", "random_work_conserving", True):
            "9e94c05ca402ef63973463a1762fa36df6158ea45c5cf235289e4b13acec2930",
        ("demo_gamma", "proportional_split[0.3,0.7]", False):
            "16fd75762af9aabc01538928be600b0f468e6a04c121120b5272b5dcf37dbab2",
        ("demo_gamma", "proportional_split[0.3,0.7]", True):
            "84f62f031bf057dc7e875065179fbd3a168b74841e552b637ff3041c8714672a",
        ("three_class", "static_priority[1,2,0]", False):
            "4c21314d088e9fb46ac59fbe77d00e70c31c98bceda65a8b438acff058c53346",
        ("three_class", "static_priority[1,2,0]", True):
            "627aa464e4b19e09d79af02216ced94d9e54e3af526518b548f5d504635da176",
        ("three_class", "longest_queue_first", False):
            "889e00cc5041c877742c392a67899a055e6db3eacd5ffa0a05f206fe18b5d43f",
        ("three_class", "longest_queue_first", True):
            "3c9d879807f0ceaaf50905847fba5272ffb51b87f2048efbd18df50e0de08b63",
        ("three_class", "random_work_conserving", False):
            "32a3bbc334f4bdd5b0cd53ed76513299d7d2097015f67f41e6fee6fc038f9bf5",
        ("three_class", "random_work_conserving", True):
            "7d84d5b510f253769c082f5b0ee7afcdc1a1bb5c558f6dcab05fa01e1505d0bf",
        ("three_class", "proportional_split[0.2,0.3,0.5]", False):
            "cebc760e646a452b245ea4dae3fcf39be93485e6172ec536cc68a5f0046e5f5e",
        ("three_class", "proportional_split[0.2,0.3,0.5]", True):
            "9851ff13a94b5ea5cc4aadd5931faa8db76962ca65255ee29d0e163a26a868f3",
    }

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("system", ["demo_gamma", "three_class"])
    @pytest.mark.parametrize("renewal", [False, True])
    def test_pinned_output_with_abandonment(self, system, index, renewal):
        p, arr, pols, x0 = _SYSTEMS[system]()
        pol = pols[index]
        cfg = SimConfig(horizon=20.0, burn_in=2.0, replicas=3, seed=7, x0=x0, thin=0.5)
        run = (qs.simulate_renewal(p, arr, pol, cfg) if renewal
               else qs.simulate_ctmc(p, pol, cfg))
        assert not run.tripped.any()
        assert run.event_counts[:, 2].sum() > 0           # some customer abandoned
        assert _digest(run) == self.PINNED_ABANDON[system, pol.describe(), renewal]

    @pytest.mark.parametrize("order", [(0, 0), (0, 2), (1,), (1, 2)])
    def test_static_priority_needs_a_permutation(self, order):
        with pytest.raises(ValueError, match="permutation"):
            qs.StaticPriorityPolicy(order)


class _Stream:
    """Rows of draw(qs._BLOCK) handed out one at a time, a block per call."""

    def __init__(self, draw):
        self.draw, self.left = draw, []

    def next(self):
        if not self.left:
            self.left = list(self.draw(qs._BLOCK))[::-1]
        return self.left.pop()


def _reference_replica(p, arr, pol, cfg, rng):
    """The event loop written plainly, the oracle of ``_run_queue_replica``.

    At every event the death rates come from the policy's allocation (z = x
    with no queue), the scaled state, its |.| and its sum are rebuilt from x,
    and each integral adds its value over every segment.  It draws from rng
    in the loop's order: the policy's map, each class's first block of
    interarrival times (renewal input), then one (exponential, uniform) pair
    per event in blocks of ``qs._BLOCK``, the exponentials of a block first."""
    m, n = p.m, p.n
    lam, mu, gam = p.lambda_n.tolist(), p.mu_n.tolist(), p.gamma_n.tolist()
    center, inv_rt, shift = p.fluid_center.tolist(), 1.0 / math.sqrt(n), p.varrho_n / m
    T, T0 = cfg.horizon, cfg.burn_in
    allocate = pol.allocator(m, n, rng)
    poisson = arr.is_poisson
    gaps = [] if poisson else [_Stream(lambda k, d=d: d.sample(rng, k).tolist())
                               for d in arr.dists]
    next_arr = [g.next() / rate for g, rate in zip(gaps, lam)]
    clock = _Stream(lambda k: zip(rng.standard_exponential(k).tolist(), rng.random(k).tolist()))
    lam_cum = list(itertools.accumulate(lam))
    x = qs._lattice_state(np.asarray(cfg.x0, dtype=float) * np.ones(m), p).tolist()

    def scaled():
        return [(x[k] - center[k]) * inv_rt - shift for k in range(m)]

    ints = dict.fromkeys(["l1", "neg_sum", "sum", *(f"coord{k}" for k in range(m))], 0.0)
    counts = [[0] * m for _ in range(3)]
    samples = []
    t, next_thin = 0.0, T0
    while True:
        e, u = clock.next()
        z = x if sum(x) <= n else allocate(x)
        death = [mu[k] * z[k] + gam[k] * (x[k] - z[k]) for k in range(m)]
        if poisson:
            total = lam_cum[-1] + sum(death)
            t_event, r = t + e / total, u * total
            arrival = r < lam_cum[-1]
        else:
            t_arr = min(next_arr)
            t_event = t + e / sum(death) if sum(death) > 0.0 else math.inf
            arrival = t_arr <= t_event
            t_event = t_arr if arrival else t_event
        seg_end = min(t_event, T)
        if seg_end > T0:
            w, xhat = seg_end - max(t, T0), scaled()
            ints["l1"] += w * sum(abs(v) for v in xhat)
            ints["sum"] += w * sum(xhat)
            ints["neg_sum"] += w * max(-sum(xhat), 0.0)
            for k in range(m):
                ints[f"coord{k}"] += w * xhat[k]
            while next_thin <= seg_end:
                samples.append(xhat)
                next_thin += cfg.thin
        if t_event >= T:
            break
        if arrival:
            if poisson:
                i = next(k for k in range(m) if r < lam_cum[k])
            else:
                i = next_arr.index(t_arr)
                next_arr[i] = t_event + gaps[i].next() / lam[i]
            counts[0][i] += 1
            x[i] += 1
        else:
            r = r - lam_cum[-1] if poisson else u * sum(death)
            for i in range(m):
                if r < death[i]:
                    break
                r -= death[i]
            else:  # rounding carried r past the last rate
                i, r = max(k for k in range(m) if death[k] > 0.0), 0.0
            counts[1 if r < mu[i] * z[i] else 2][i] += 1
            x[i] -= 1
        t = t_event
    return {"integrals": ints, "samples": samples, "counts": counts, "terminal": x}


class TestReferenceLoop:
    @pytest.mark.parametrize("index", range(5))
    @pytest.mark.parametrize("system", sorted(_SYSTEMS))
    @pytest.mark.parametrize("renewal", [False, True])
    def test_the_loop_matches_the_plain_loop(self, system, index, renewal):
        # the same draws give the same events, states and samples; the
        # integrals, summed in another order, agree to rounding
        p, arr, pols, x0 = _SYSTEMS[system]()
        arr = arr if renewal else qs.ArrivalSpec.poisson(p.m)
        cfg = SimConfig(horizon=20.0, burn_in=2.0, replicas=2, seed=21, x0=x0, thin=0.25)
        for seed in np.random.SeedSequence(cfg.seed).spawn(cfg.replicas):
            got = qs._run_queue_replica(p, arr, pols[index], cfg, np.random.default_rng(seed))
            want = _reference_replica(p, arr, pols[index], cfg, np.random.default_rng(seed))
            assert not got["tripped"] and got["live"] == cfg.horizon - cfg.burn_in
            assert got["counts"] == want["counts"]
            assert got["terminal"] == want["terminal"]
            assert got["samples"] == want["samples"]
            for key, val in want["integrals"].items():
                assert got["integrals"][key] == pytest.approx(val, rel=1e-12, abs=0.0), key


class _TwoArgError(Exception):
    # pickles, but cannot be rebuilt from its args
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


class _FailsIn(qs.StaticPriorityPolicy):
    """Priority (0, 1) that raises ValueError (or _TwoArgError), or kills its
    process, when a replica starts in a forked worker ("child") or in the
    calling process ("parent")."""

    def __init__(self, where, how="raise"):
        super().__init__((0, 1))
        self.where, self.how, self.pid = where, how, os.getpid()

    def allocator(self, m, n, rng):
        if (os.getpid() == self.pid) == (self.where == "parent"):
            if self.how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if self.how == "two_args":
                raise _TwoArgError("one", "two")
            raise ValueError(f"replica failed in the {self.where}")
        return super().allocator(m, n, rng)


@contextlib.contextmanager
def _no_descriptor_left_open():
    """The block leaves as many file descriptors open in this process as it
    found, where /proc/self/fd lists them: a forked run closes each pipe."""
    fds = "/proc/self/fd"
    before = len(os.listdir(fds)) if os.path.isdir(fds) else None
    yield
    if before is not None:
        assert len(os.listdir(fds)) == before


class TestWorkers:
    @pytest.mark.parametrize("pol", _policies(), ids=lambda p: p.describe())
    @pytest.mark.parametrize("renewal", [False, True])
    def test_the_worker_count_does_not_change_the_run(self, demo_n20, pol, renewal,
                                                      monkeypatch):
        arr = RENEWAL if renewal else qs.ArrivalSpec.poisson(2)
        for replicas in (1, 2, 3, 16):
            cfg = SimConfig(horizon=5.0, burn_in=0.5, replicas=replicas, seed=11,
                            x0=(-0.5, -0.5), thin=0.5)
            runs = []
            for count in (1, 2, 3):
                monkeypatch.setattr(workers, "_worker_count", lambda r, k=count: k)
                with _no_descriptor_left_open():
                    runs.append(qs.simulate_renewal(demo_n20, arr, pol, cfg))
            for run in runs[1:]:
                _assert_same_run(runs[0], run)
                assert np.array_equal(runs[0].tripped, run.tripped)

    def test_a_result_past_the_pipe_buffer(self, demo_n20, monkeypatch):
        # the worker's half pickles to ~160 kB, more than a 64 kB pipe holds:
        # its pipe must be read before the worker is reaped
        cfg = SimConfig(horizon=20.0, burn_in=2.0, replicas=4, seed=13, x0=(-0.5, -0.5),
                        thin=0.005)
        pol = qs.StaticPriorityPolicy((0, 1))
        runs = []

        def timeout(*_):
            raise TimeoutError("simulate_ctmc did not return")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(60)                           # a deadlock fails, not hangs
        try:
            for count in (1, 2):
                monkeypatch.setattr(workers, "_worker_count", lambda r, k=count: k)
                runs.append(qs.simulate_ctmc(demo_n20, pol, cfg))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        _assert_same_run(*runs)

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_a_failed_slice_raises_its_error_and_leaves_no_child(self, demo_n20, where,
                                                                 monkeypatch):
        monkeypatch.setattr(workers, "_worker_count", lambda r: 3)
        cfg = SimConfig(horizon=5.0, replicas=6, seed=12, x0=(-0.5, -0.5))
        with _no_descriptor_left_open(), pytest.raises(ValueError,
                                                       match=f"replica failed in the {where}"):
            qs.simulate_ctmc(demo_n20, _FailsIn(where), cfg)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_worker_that_dies_raises_with_its_status(self, demo_n20, monkeypatch):
        monkeypatch.setattr(workers, "_worker_count", lambda r: 2)
        cfg = SimConfig(horizon=5.0, replicas=4, seed=12, x0=(-0.5, -0.5))
        with _no_descriptor_left_open(), pytest.raises(
                RuntimeError, match=f"no result \\(signal {int(signal.SIGKILL)}\\)"):
            qs.simulate_ctmc(demo_n20, _FailsIn("child", "kill"), cfg)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_error_that_cannot_be_rebuilt_arrives_by_name(self, demo_n20, monkeypatch):
        monkeypatch.setattr(workers, "_worker_count", lambda r: 2)
        cfg = SimConfig(horizon=5.0, replicas=4, seed=12, x0=(-0.5, -0.5))
        with _no_descriptor_left_open(), pytest.raises(RuntimeError,
                                                       match="_TwoArgError: one and two"):
            qs.simulate_ctmc(demo_n20, _FailsIn("child", "two_args"), cfg)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("index", range(5),
                             ids=["static_priority", "longest_queue_first",
                                  "random_work_conserving", "proportional_split",
                                  "function"])
    @pytest.mark.parametrize("renewal", [False, True])
    def test_every_allocator_map_is_asked_only_at_a_queue(self, demo_n20, index, renewal,
                                                          monkeypatch):
        # the maps do not test sum(x) <= n: the event loop alone skips them there
        monkeypatch.setattr(workers, "_worker_count", lambda r: 1)
        pol = _policies()[index]
        asked = []
        base = pol.allocator

        def counted(m, n, rng):
            allocate = base(m, n, rng)
            return lambda x: asked.append(sum(x)) or allocate(x)

        pol.allocator = counted
        cfg = SimConfig(horizon=20.0, replicas=3, seed=9, x0=(-0.5, -0.5))
        arr = RENEWAL if renewal else qs.ArrivalSpec.poisson(2)
        run = qs.simulate_renewal(demo_n20, arr, pol, cfg)
        assert asked and min(asked) > demo_n20.n
        assert len(asked) < run.event_counts.sum()

    def test_worker_count(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        assert workers._worker_count(1) == 1
        assert 1 <= workers._worker_count(16) <= min(cpus, 16)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert workers._worker_count(16) == 1          # fork is unsafe with another thread
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()


class TestErlangA:
    def test_state_probabilities_match_birth_death_law(self, erlang_a):
        # M/M/n+M (Garnett, Mandelbaum & Reiman 2002): birth rate lambda,
        # death rate mu min(k, n) + gamma (k - n)^+ in state k
        p = erlang_a
        lam, mu, gam, n = float(p.lambda_n[0]), float(p.mu_n[0]), float(p.gamma_n[0]), p.n
        log_pi = np.zeros(200)
        for k in range(1, 200):
            log_pi[k] = log_pi[k - 1] + math.log(lam / (mu * min(k, n) + gam * max(k - n, 0)))
        pi = np.exp(log_pi - log_pi.max())
        pi /= pi.sum()
        # the share of the states sampled every 0.1 time units, per replica
        cfg = SimConfig(horizon=200.0, burn_in=10.0, replicas=16, seed=5, x0=0.0, thin=0.1)
        x = _raw_samples(qs.simulate_ctmc(p, qs.StaticPriorityPolicy((0,)), cfg), p)
        for k in (5, 8, 10, 12, 15):
            per = (x[:, :, 0] == k).mean(axis=1)
            est, se = per.mean(), per.std(ddof=1) / math.sqrt(len(per))
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

    # the laws the configs build (probe8_renewal.ini, the cli tests), each
    # from its SCV: every parameter and the SCV it reports, bit for bit
    @pytest.mark.parametrize("law, pins", [
        (qs.HyperExp2(1.5), {"p": "0x1.727c9716ffb76p-1", "r1": "0x1.727c9716ffb76p+0",
                             "r2": "0x1.1b06d1d200914p-1", "scv": "0x1.7fffffffffffep+0"}),
        (qs.HyperExp2(3.0), {"p": "0x1.b504f333f9de6p-1", "r1": "0x1.b504f333f9de6p+0",
                             "r2": "0x1.2bec333018868p-2", "scv": "0x1.7fffffffffffep+1"}),
        (qs.LogNormal(1.0), {"sigma": "0x1.aa4499161cd47p-1", "mu_ln": "-0x1.62e42fefa39eep-2",
                             "scv": "0x1.ffffffffffffep-1"}),
        (qs.Erlang(2), {"k": "0x1.0000000000000p+1", "scv": "0x1.0000000000000p-1"}),
    ], ids=["hyperexp2_1.5", "hyperexp2_3", "lognormal_1", "erlang_2"])
    def test_the_built_laws_keep_their_bits(self, law, pins):
        assert {name: float.hex(float(getattr(law, name))) for name in pins} == pins

    @pytest.mark.parametrize("law, scv", [(qs.HyperExp2, 1.0), (qs.HyperExp2, math.inf),
                                          (qs.HyperExp2, math.nan), (qs.LogNormal, 0.0),
                                          (qs.LogNormal, math.inf), (qs.LogNormal, math.nan)])
    def test_an_scv_outside_the_family_is_refused(self, law, scv):
        with pytest.raises(ValueError, match="requires"):
            law(scv)


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

    @pytest.mark.parametrize("m, n", [(1, 7), (2, 20), (3, 6)])
    def test_builtin_policies_return_the_state_without_a_queue(self, m, n):
        rng = np.random.default_rng(3)
        pols = [qs.StaticPriorityPolicy(range(m)[::-1]), qs.LongestQueueFirstPolicy(),
                qs.RandomWorkConservingPolicy(), qs.ProportionalSplitPolicy(np.ones(m) / m)]
        for pol in pols:
            allocate = pol.allocator(m, n, rng)
            for x in itertools.product(range(n + 1), repeat=m):
                x = list(x)
                if sum(x) <= n:
                    assert allocate(x) == x, (pol.describe(), x)

    def test_function_policy_map_asks_the_user_without_a_queue(self):
        # FunctionPolicy inherits the base map, which calls fn at every x it is given
        calls = []

        def idle(x, n):
            calls.append(list(x))
            return np.zeros_like(x)

        allocate = qs.FunctionPolicy(idle).allocator(2, 5, np.random.default_rng(0))
        assert qs.FunctionPolicy(lambda x, n: x).allocator(2, 5, None)([1, 2]) == [1, 2]
        with pytest.raises(ValueError, match="not work-conserving"):
            allocate([1, 2])
        assert calls == [[1, 2]]


def _reference_apportion(x, n, u):
    """The sort-based water-filling that ``_apportion_list`` replaced in the
    common case, kept as its oracle."""
    m = len(x)
    Q = sum(x) - n
    if Q <= 0:
        return [0] * m
    q = [0.0] * m
    items = sorted((x[i] / u[i], i) for i in range(m) if u[i] > 0)
    w = sum(u[i] for _, i in items)
    sat = 0.0
    level = math.inf
    for ratio, i in items:
        if w > 0 and sat + ratio * w >= Q:
            level = (Q - sat) / w
            break
        sat += x[i]
        w -= u[i]
    for i in range(m):
        if u[i] > 0:
            q[i] = min(x[i], u[i] * level) if level < math.inf else x[i]
    short = Q - sum(q)
    if short > 1e-9:
        for i in range(m):
            add = min(x[i] - q[i], short)
            q[i] += add
            short -= add
            if short <= 1e-9:
                break
    qi = [min(int(q[i]), x[i]) for i in range(m)]
    rem = Q - sum(qi)
    while rem > 0:
        best, best_frac = -1, -1.0
        for i in range(m):
            if qi[i] < x[i] and q[i] - qi[i] > best_frac:
                best, best_frac = i, q[i] - qi[i]
        qi[best] += 1
        rem -= 1
    return qi


def _queue(x, n, u):
    """x - z of the allocation z that ``_apportion_list`` returns."""
    return [xi - zi for xi, zi in zip(x, qs._apportion_list(x, n, u))]


class TestApportion:
    @pytest.mark.parametrize("u", [(0.5, 0.5), (0.3, 0.7), (1.0, 0.0), (0.0, 1.0),
                                   (1 / 3, 2 / 3)])
    @pytest.mark.parametrize("n", [1, 5, 20, 100])
    def test_equals_the_reference_on_a_grid(self, n, u):
        xs = list(itertools.product(range(160), repeat=2))
        got = [_queue(x, n, u) for x in xs]
        want = [_reference_apportion(x, n, u) for x in xs]
        assert got == want, next(x for x, a, b in zip(xs, got, want) if a != b)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_reference_on_more_classes(self, data):
        m = data.draw(st.integers(3, 4))
        x = data.draw(st.lists(st.integers(0, 200), min_size=m, max_size=m))
        n = data.draw(st.integers(1, 400))
        w = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                               min_size=m, max_size=m).filter(lambda w: sum(w) > 0))
        u = [float(v) for v in hwsim.model.project_simplex(np.asarray(w) / sum(w))]
        assert _queue(x, n, u) == _reference_apportion(x, n, u)
