"""Smoke test of the benchmark: every workload at tiny sizes.

Runs `bench/run.py --size tiny` the way the benchmark is run, checks the
result line against BENCHMARK.json, and shows that each output check can
fail.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import checks
import run

ROOT = os.path.dirname(run.BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny(workload, trace="0"):
    return ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace,
            "--size", "tiny"]


def test_benchmark_json_names_the_metrics_reported():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_at_tiny_size(workload, trace):
    proc = bench(*tiny(workload, trace))
    assert proc.returncode == 0, proc.stderr
    env_line, result_line = proc.stdout.splitlines()[-2:]
    env = json.loads(env_line.removeprefix("env "))
    assert env["seed"] == 7 and env["workload"] == workload
    assert {"python", "cpu_count", "affinity", "commit"} <= set(env)
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_wrong_reference_counts_as_failure(monkeypatch, capsys):
    right = checks.a007317
    monkeypatch.setattr(checks, "a007317", lambda n: right(n) + 1)
    code = run.main(tiny("brute_count"))
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1 and not result["correct"]
    assert result["failed"] == 4  # three counts and the enumeration
    assert result["metrics"]["ok_frac"]["value"] < 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench(*tiny("brute_count"), cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def avoiders(n, pattern):
    """Length-n ascent sequences avoiding pattern, by brute force."""
    seqs = [(0,)]
    for length in range(1, n):
        seqs = [s + (d,) for s in seqs for d in range(length + 1)]
        seqs = [s for s in seqs if checks.is_ascent_sequence(s)]
    return [s for s in seqs if not checks.contains_naive(s, pattern)]


def test_enumerate_check_rejects_missing_unsorted_and_containing_lines():
    pattern = (1, 0, 1, 2)
    lines = ["".join(map(str, s)).encode() for s in avoiders(6, pattern)]
    # A007317(6) = 188 lines, all inside the sample, so every line is checked
    check = checks.check_enumerate(6, pattern, random.Random(0))
    assert check(0, b"\n".join(lines)) is None
    assert check(1, b"\n".join(lines))
    assert check(0, b"\n".join(lines[1:]))
    assert check(0, b"\n".join(lines[1:2] + lines[:1] + lines[2:]))
    # 010102 contains 1012 and sorts where the avoider 010101 stood
    assert check(0, b"\n".join(b"010102" if x == b"010101" else x for x in lines))


def test_other_checks_reject_wrong_outputs():
    assert checks.check_count(731)(0, b"731\n") is None
    assert checks.check_count(731)(0, b"732\n")
    assert checks.check_count(731)(2, b"731\n")
    command = "table --family pair --n 8"
    assert checks.check_digest(command)(0, b"not the table\n")
    assert checks.check_residual(6)(0, b'{"order": 6, "terms": []}') is None
    assert checks.check_residual(6)(0, b'{"order": 6, "terms": [[0, 1, "1/1"]]}')
    label = "verify wilf n_max=7"
    report = ["suite: wilf"] + [f"PASS {i} [n<=7]" for i in checks.VERIFY_IDS[label]]
    verify = checks.check_verify(label)
    assert verify(0, "\n".join(report + ["overall: PASS"]).encode()) is None
    assert verify(0, "\n".join(report[:-1] + ["overall: PASS"]).encode())
    assert verify(0, "\n".join(report + ["overall: FAIL"]).encode())
    assert verify(1, "\n".join(report + ["overall: PASS"]).encode())
