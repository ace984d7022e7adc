"""Self-tests of the benchmark.

    python3 -m pytest bench/test_determinism.py

Two traced runs on one seed must print identical exact work counters and the
same output digest, so that later changes can cite the counts next to their
timings.  A directory holding only the benchmark must be refused."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ["gaussian.ops", "gaussian.max_bits", "orders.key_calls", "poly.mul_calls",
         "ideal.buchberger_calls", "ideal.reduce_calls", "ideal.spolys",
         "ideal.useful_reduction_ratio", "ideal.basis_max_size", "ideal.basis_max_degree"]


def run(root, workload, seed, trace=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=root)
    return proc


def traced(workload, seed):
    proc = run(ROOT, workload, seed)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    digest = [line for line in lines if line.startswith("# digest")]
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", ["groebner", "geometry", "cli"])
def test_exact_counters_repeat(workload):
    a, digest_a = traced(workload, 7)
    b, digest_b = traced(workload, 7)
    assert a["correct"] and b["correct"]
    assert a["metrics"]["gaussian.ops"]["value"] > 0
    assert a["metrics"]["ideal.spolys"]["value"] > 0
    for name in EXACT:
        assert a["metrics"][name] == b["metrics"][name], name
    assert digest_a == digest_b


def test_seed_changes_inputs():
    _, digest_a = traced("geometry", 1)
    _, digest_b = traced("geometry", 2)
    assert digest_a != digest_b


def test_refuses_checkout_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = run(str(tmp_path), "geometry", 1, trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
