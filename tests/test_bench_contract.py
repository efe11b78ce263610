"""The benchmark's tracer and layer probes still run against the package.

``bench/tracer.py`` wraps package names from outside and ``bench/layers.py``
probes single layers; a deletion in ``src/`` that breaks either would only
show as missing per-layer numbers, so it is checked here. Each probe below
reads one name from the package: ``RankCensus.counts`` (census),
``gauss_binomial.cache_clear`` (cold-build), ``grassmannian_subset_sum``
(subset-sum) and ``InvariantReport.checks`` (the traced oracle suite).

Every operation of ``bench/run.py`` also runs here in a fresh process, as the
benchmark runs it, and ``bench/checks.py`` checks its output; so does
``bench/selftest.py``. The sha256 of each operation's stdout is pinned as well.
In this process every module is loaded already, so a
command that lost an import it needs fails only there. The oracle checker
also runs, in this process, on four grids beyond the census workload's.

A traced benchmark run (``run.py --trace 1``) is marked incorrect, with no
failed operation, when a ``layers.py`` probe exits non-zero, when a replayed
output fails ``checks.check``, or when a workload's layer self times miss its
in-process time by more than 10 %. The kernel probe, the traced replay of every
workload and that accounting run here too.
"""
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from stringydet import cli, exactalg

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

sys.path.insert(0, str(ROOT / "bench"))
import checks
import run

OPERATIONS = {f"{name}:{' '.join(op)}": op for name, ops in run.WORKLOADS.items() for op in ops}

# sha256 of each operation's stdout: a change to any coefficient, Euler number or
# layout of a benchmarked output shows here
STDOUT_SHA256 = {
    "compute --r 7 --k 6 --variety affine --format json":
        "bfd11c09e31477710362398e4bdc660858fe52f659346f5d69f77fb4b7a328cf",
    "compute --r 7 --k 6 --variety projective --format json":
        "f11bfbf478f8479a7ccff7ba183f866db66a181fdb9b9b38ecdbf980d2ef3f3c",
    "zeta --r 7 --order 10 --format json":
        "52b33f6316330b5c8d8c0109a7f82b443c64302deb3d6be794e1474b5d657c28",
    "verify --suite identities --rmax 6":
        "8071ca7b5a029cc48b46d791105d1bbf2be4456f9c3d3bd7692c2f195dd26df4",
    "verify --suite orbits --rmax 4":
        "ebb6b9406b2eebb6d4339bbf83f5be0f5a80c329e4cb2d274b283666a33cbbf9",
    "table --rmax 13 --variety both --format json":
        "e679d2db4b8036f72676432ea71874ae9a7abf31b4f34c73ca6792f8153a3464",
    "oracle --p 3 --rmax 3":
        "7d3dae73aa9351b44d5539ba72087274e5160b2bc6ccdcebe12a668f7dc66095",
    "oracle --p 2 --rmax 4":
        "eb313857bae203e72fd6609f1980b30432e4fd1e1c47224f2d116a4e869349c2",
}


def bench_json(script: str, *argv: str) -> dict:
    """Run a bench script in a fresh process; its last stdout line is a JSON object."""
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / script), *argv],
                          cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tracer_replays_a_compute():
    result = bench_json("tracer.py", "compute", "--r", "3", "--k", "2", "--format", "json")
    assert result["exit"] == 0


def test_tracer_counts_the_oracle_checks():
    result = bench_json("tracer.py", "verify", "--suite", "oracle", "--rmax", "2")
    assert result["exit"] == 0
    assert result["verify_checks"] > 0


@pytest.mark.parametrize("argv", [("census", "2", "2", "3"), ("subset-sum", "6", "3"),
                                  ("cold-build",)], ids=["census", "subset_sum", "cold_build"])
def test_layer_probe_runs(argv):
    assert bench_json("layers.py", *argv)["seconds"] >= 0


def test_micro_probe_rows_are_positive():
    result = bench_json("layers.py", "micro", "1")
    assert sorted(result) == sorted(run.MICRO)
    assert all(result[name] > 0 for name in run.MICRO)


@pytest.fixture(scope="module")
def traced_replay():
    """Every workload replayed once through tracer.py, as ``run.trace`` replays it:
    the run's verdicts and each workload's merged aggregates."""
    replay = run.Run()
    merged = {}
    for name, ops in run.WORKLOADS.items():
        traces = [replay.operation(name, op, traced=True)[1] for op in ops]
        merged[name] = run._sum_traces([t for t in traces if t is not None])
    return replay, merged


def test_traced_replay_is_correct(traced_replay):
    replay, _ = traced_replay
    assert (replay.correct, replay.failed) == (True, 0)
    assert replay.attempted == len(OPERATIONS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_layer_self_times_account_for_the_workload(traced_replay, workload):
    t = traced_replay[1][workload]
    layer_sum = sum(v for k, v in t["layers"].items() if k != "trace")
    assert abs(layer_sum - t["main_s"]) <= 0.1 * t["main_s"], t["layers"]


def test_layer_probes_find_the_gcd():
    assert callable(exactalg.laurent_gcd)


@pytest.mark.parametrize("p,rmax", [(2, 5), (3, 4), (5, 3), (7, 2)])
def test_oracle_checker_passes_beyond_the_workload(p, rmax, capsys):
    # the checker requires the printed check names to equal those it derives
    argv = ["oracle", "--p", str(p), "--rmax", str(rmax)]
    code = cli.main(argv)
    checks.check(argv, code, capsys.readouterr().out)


@pytest.mark.parametrize("op", list(OPERATIONS.values()), ids=list(OPERATIONS))
def test_benchmark_operation_runs_cold(op):
    proc = subprocess.run([sys.executable, "-m", "stringydet.cli", *op], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=120)
    checks.check(op, proc.returncode, proc.stdout)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[" ".join(op)]


def test_every_benchmark_operation_is_pinned():
    assert sorted(STDOUT_SHA256) == sorted(" ".join(op) for op in OPERATIONS.values())


def test_checker_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT,
                          env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout
