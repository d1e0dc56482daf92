"""A sweep spread over forked workers prints, writes and exits as a one-worker sweep.

``ffo.cli.main`` runs sweep scenario i on worker i % W, W being the number
of CPUs ``os.sched_getaffinity`` reports (at most one per scenario); the
tests set W through that function and count the forks.
"""

import errno
import json
import os
import signal

import numpy as np
import pytest

import ffo.cli
from ffo.cli import main
from ffo.sweeps import random_spec

_FAILING = ["invariants", "--sweep", "6", "--seed", "2", "--t-final", "4.8"]


@pytest.fixture
def fields_doc(tmp_path):
    path = tmp_path / "fields.json"
    path.write_text(json.dumps({"output": {"fields": ["t", "re_eps", "lambda2", "closure_dev"]}}))
    return str(path)


def _sweep(monkeypatch, capsys, work, argv, cpus, fork=None):
    """(exit code or exception, stdout, stderr, {output file: bytes}, pids forked) of one
    in-process sweep on ``cpus`` CPUs, its outputs written under ``work``."""
    pids, real_fork = [], os.fork

    def counting_fork():
        pid = (fork or real_fork)()
        if pid:
            pids.append(pid)
        return pid

    work.mkdir()
    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        patch.setattr(os, "fork", counting_fork)
        try:
            code = main([*argv, "--out", str(work / "sweep")])
        except ValueError as exc:
            code = repr(exc)
    out, err = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    with pytest.raises(ChildProcessError):  # no child outlives main()
        os.waitpid(-1, os.WNOHANG)
    return code, out, err, files, pids


@pytest.mark.parametrize("argv, code", [
    (["invariants", "--sweep", "16", "--t-final", "2", "--format", "json"], 0),
    (["reduce", "--sweep", "3", "--config", "FIELDS"], 0),  # 10,001-row tables through a pipe
    (["coherence", "--sweep", "5", "--seed", "4", "--t-final", "2"], 0),  # free and forced draws
    ([*_FAILING, "--dt", "0.4"], 1),  # every scenario fails its checks
    ([*_FAILING, "--dt", "0.6"], 2),  # a config error in scenario 3, which a child runs
])
@pytest.mark.parametrize("cpus", [2, 3])
def test_parallel_sweep_matches_a_one_worker_sweep(monkeypatch, capsys, tmp_path, fields_doc,
                                                   argv, code, cpus):
    argv = [fields_doc if a == "FIELDS" else a for a in argv]
    one = _sweep(monkeypatch, capsys, tmp_path / "one", argv, 1)
    many = _sweep(monkeypatch, capsys, tmp_path / "many", argv, cpus)
    assert one[:4] == many[:4]
    assert one[0] == code and one[4] == []
    assert len(many[4]) == min(cpus, int(argv[argv.index("--sweep") + 1])) - 1
    if "0.6" in argv:
        assert one[1].count("\n") == 3 and len(one[3]) == 3
        assert one[2].startswith("config error: hamiltonian.omega: ")
        assert "at t=3.5999999999999996" in one[2]


def test_config_error_in_the_parents_scenario_stops_a_busy_child(monkeypatch, capsys, tmp_path):
    # dt 0.8 is too coarse for scenario 0, which the parent runs
    code, out, err, files, pids = _sweep(monkeypatch, capsys, tmp_path / "w",
                                         [*_FAILING, "--dt", "0.8"], 2)
    assert (code, out, files, len(pids)) == (2, "", {}, 1)
    assert err.startswith("config error: hamiltonian.f_im: ") and "at t=0.8" in err


def test_exception_of_a_childs_scenario_is_raised_at_its_index(monkeypatch, capsys, tmp_path):
    rng = np.random.default_rng(0)
    second = [random_spec(rng) for _ in range(2)][1]  # the draws of an invariants sweep, seed 0
    real_run = ffo.cli.run

    def run(scenario):
        if scenario.spec == second:
            raise ValueError("scenario 1")
        return real_run(scenario)

    monkeypatch.setattr(ffo.cli, "run", run)
    argv = ["invariants", "--sweep", "4", "--t-final", "1"]
    one = _sweep(monkeypatch, capsys, tmp_path / "one", argv, 1)
    many = _sweep(monkeypatch, capsys, tmp_path / "many", argv, 2)
    assert one[:4] == many[:4] and len(many[4]) == 1
    assert one[0] == "ValueError('scenario 1')" and one[1].startswith("scenario 000: pass")
    assert list(one[3]) == ["sweep-000.csv"]


@pytest.mark.parametrize("die, status", [
    (lambda: os._exit(3), "exit status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
])
def test_a_child_that_dies_without_answering_is_an_error(monkeypatch, capsys, tmp_path, die,
                                                         status):
    parent, real_run = os.getpid(), ffo.cli.run

    def run(scenario):
        if os.getpid() != parent:
            die()
        return real_run(scenario)

    monkeypatch.setattr(ffo.cli, "run", run)
    code, out, err, files, pids = _sweep(monkeypatch, capsys, tmp_path / "w",
                                         ["reduce", "--sweep", "4", "--t-final", "1"], 2)
    assert code == 2 and out.count("\n") == 1 and list(files) == ["sweep-000.csv"]
    assert err == f"error: sweep worker {pids[0]} ended without an answer ({status})\n"


def test_a_failed_fork_leaves_one_worker(monkeypatch, capsys, tmp_path):
    real_fork, forks = os.fork, []

    def second_fails():
        forks.append(1)
        if len(forks) > 1:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    argv = ["coherence", "--sweep", "6", "--seed", "1", "--t-final", "1"]
    one = _sweep(monkeypatch, capsys, tmp_path / "one", argv, 1)
    many = _sweep(monkeypatch, capsys, tmp_path / "many", argv, 3, fork=second_fails)
    assert one[:4] == many[:4] and one[0] == 0
    assert len(forks) == 2 and len(many[4]) == 1  # the one child forked was reaped


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_a_platform_without_fork_or_affinity_runs_one_worker(monkeypatch, missing):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    monkeypatch.delattr(os, missing)
    assert ffo.cli._SweepWorkers(ffo.cli.parse_config("{}"), 4, 0).count == 1
