import os
import select
import time
from pathlib import Path

import pytest

import hwsim
from hwsim import cli
from hwsim import verify as ver
from hwsim import workers
from test_queues import _no_descriptor_left_open

EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example.ini"

# the three-class system with abandonment that certifies every check: six
# groups (four diffusion clouds and the two Poisson-input prelimit checks)
CERTIFY = """\
[scenario]
id = certify
seed = 1

[system]
lambda = 0.5, 0.3, 0.2
mu = 1.0, 1.0, 1.0
gamma = 0.5, 0.8, 1.2
hat_lambda = -0.5, -0.3, -0.2
hat_mu = 0.0, 0.0, 0.0
scv = 1.0, 1.0, 1.0

[prelimit]
n = 20

[arrivals]
kind = poisson

[policy.bary]
kind = constant
u = 0.4, 0.3, 0.3

[verify]
samples = 3000
"""


def _workers(monkeypatch, count):
    """Run every pool on ``count`` processes, at most one per job."""
    monkeypatch.setattr(workers, "_worker_count", lambda jobs: min(count, jobs))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _job(i, sleep=0.0, fail=False):
    def run():
        time.sleep(sleep)
        if fail:
            raise ValueError(f"job {i} failed")
        return i, os.getpid()
    return run


class TestRunJobs:
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_results_come_back_in_job_order(self, monkeypatch, count):
        _workers(monkeypatch, count)
        forked, fork = [os.getpid()], workers._fork

        def recorded(work):
            pid, fd = fork(work)
            forked.append(pid)
            return pid, fd

        monkeypatch.setattr(workers, "_fork", recorded)
        # unequal costs: the processes claim the later jobs in another order
        jobs = [_job(i, sleep=0.02 * (i % 3 == 1)) for i in range(7)]
        with _no_descriptor_left_open():
            results = workers.run_jobs(jobs)
        _no_child_left()
        assert [i for i, _ in results] == list(range(7))
        # process k, this one being 0, runs job k first
        assert [pid for _, pid in results[:count]] == forked

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_the_lowest_index_error_is_raised(self, monkeypatch, count):
        # job 1 fails late in its own process, job 3 early in another: the
        # error raised is job 1's, as in a serial run
        _workers(monkeypatch, count)
        jobs = [_job(0), _job(1, sleep=0.1, fail=True), _job(2), _job(3, fail=True), _job(4)]
        with _no_descriptor_left_open(), pytest.raises(ValueError, match="job 1 failed"):
            workers.run_jobs(jobs)
        _no_child_left()

    def test_more_jobs_than_the_claim_pipe_holds_fork_nothing(self, monkeypatch):
        _workers(monkeypatch, 2)
        jobs = [_job(i) for i in range(select.PIPE_BUF // 4 + 3)]
        with _no_descriptor_left_open(), pytest.raises(ValueError, match="claim pipe"):
            workers.run_jobs(jobs)
        _no_child_left()


class TestVerifyDrift:
    @pytest.mark.parametrize("config", ["example", "certify"])
    def test_every_worker_count_writes_the_same_files(self, tmp_path, capsys, monkeypatch,
                                                      config):
        path = EXAMPLE
        if config == "certify":
            path = tmp_path / "certify.ini"
            path.write_text(CERTIFY)
        outs = []
        for count in (1, 2, 3):
            _workers(monkeypatch, count)
            outs.append(tmp_path / f"out{count}")
            with _no_descriptor_left_open():
                code = cli.main(["verify-drift", "--config", str(path), "--out", str(outs[-1])])
            assert code == 0
            _no_child_left()
        scenario = "demo" if config == "example" else "certify"
        for name in (f"{scenario}_verify_report.csv", f"{scenario}_verify_details.json"):
            first = (outs[0] / name).read_bytes()
            assert all((out / name).read_bytes() == first for out in outs[1:]), name
            if config == "example":
                assert first == (EXAMPLE.parents[1] / "out" / "demo" / name).read_bytes()
        if config == "certify":
            rows = (outs[0] / "certify_verify_report.csv").read_text().splitlines()[1:]
            assert len(rows) == 10 and all(r.split(",")[5] == "1" for r in rows)

    def test_a_check_that_raises_in_a_worker_raises_here(self, tmp_path, capsys,
                                                         monkeypatch):
        # the exp-linear Foster check is in the second group, the first job the
        # worker runs; its PreconditionError reaches the caller, and the CLI
        # exits 2 and writes no file
        _workers(monkeypatch, 2)
        here, real = os.getpid(), ver.verify_exp_linear_foster

        def failing(*args):
            if os.getpid() != here:
                raise ver.PreconditionError("failed in a worker")
            return real(*args)

        monkeypatch.setattr(ver, "verify_exp_linear_foster", failing)
        path = tmp_path / "certify.ini"
        path.write_text(CERTIFY)
        out = tmp_path / "out"
        system = hwsim.SystemParams([0.5, 0.3, 0.2], [1.0] * 3, gamma=[0.5, 0.8, 1.2],
                                    hat_lambda=[-0.5, -0.3, -0.2])
        with _no_descriptor_left_open():
            with pytest.raises(ver.PreconditionError, match="failed in a worker"):
                ver.default_suite(system, ver.SamplerConfig(500, seed=1))
            _no_child_left()
            assert cli.main(["verify-drift", "--config", str(path), "--out", str(out)]) == 2
        _no_child_left()
        assert "error: failed in a worker" in capsys.readouterr().err
        assert not any(out.glob("*"))
