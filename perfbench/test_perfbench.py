"""Self-test of the benchmark (not of the program it measures).

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload path runs at a tiny shape (``--smoke``); the test checks the
output contract, the correctness gate (an injected wrong product must
fail the run), and that ``BENCHMARK.json`` names exactly the metrics the
benchmark prints.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END  # noqa: E402
from spans import PER_LAYER, SpanIndex  # noqa: E402
from workloads import WORKLOADS, InputGenerator, int_matmul  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _run(*extra, cwd=ROOT, script=os.path.join(HERE, "run.py"), timeout=170):
    """The exit status and every result line (one per workload run)."""
    proc = subprocess.run(
        [sys.executable, script, "--seed", "3", "--seconds", "0", *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    results = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    return proc, results


def _check_result(result, expected_units):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected_units
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_one_command_prints_every_end_to_end_metric_of_every_workload():
    proc, results = _run("--workload", "all", "--trace", "0", "--smoke", timeout=400)
    assert proc.returncode == 0, proc.stderr
    assert len(results) == len(WORKLOADS)
    for result in results:
        _check_result(result, dict(END_TO_END))
        assert result["correct"] is True and result["failed"] == 0
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced_prints_every_layer_metric(workload):
    proc, (result,) = _run("--workload", workload, "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    _check_result(result, {name: unit for name, unit, _b, _m in PER_LAYER})
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if WORKLOADS[workload].backend == "groth16":
        assert m["curve.g2_mul_calls"] > 0 and m["curve.miller_loop_calls"] > 0
        assert m["spartan.prove_s"] == 0
    else:
        assert m["curve.g2_mul_calls"] == 0 and m["curve.miller_loop_calls"] == 0
        assert m["spartan.verify_s"] > 0
    if WORKLOADS[workload].executor == "process":
        # proving runs in the workers, out of the client-side trace's sight
        assert m["pool.chunks"] > 0 and m["pool.wait_s"] > 0
        assert m["spartan.prove_s"] == 0 and m["pool.inline_jobs"] == 0
    else:
        assert m["pool.chunks"] == 0 and m["gadgets.assign_s"] > 0


def test_wrong_product_fails_the_run():
    proc, (result,) = _run(
        "--workload", "spartan-vanilla-16x32x16", "--trace", "0", "--smoke",
        "--inject-wrong-product",
    )
    assert proc.returncode != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, results = _run(
        "--workload", "spartan-vanilla-16x32x16", "--trace", "0",
        cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"),
    )
    assert proc.returncode != 0
    assert results == []


def test_benchmark_json_matches_the_code():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == [(name, unit, better) for name, unit, better, _moves in PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_inputs_are_seeded_signed_int8():
    a = InputGenerator("w", 7).request((3, 5, 2), 4)
    assert a == InputGenerator("w", 7).request((3, 5, 2), 4)
    assert a != InputGenerator("w", 8).request((3, 5, 2), 4)
    for x, w in a:
        for m in (x, w):
            values = [v for row in m for v in row]
            assert min(values) >= -128 and max(values) <= 127
            assert sum(v < 0 for v in values) == len(values) // 2


def test_int_matmul():
    assert int_matmul([[1, -2]], [[3], [4]]) == [[-5]]


def test_self_time_subtracts_children():
    # parent 0..10 with children 1..3 and 4..8; the second has a child 5..6
    spans = [
        ["p", 0, 10, None, 0, None],
        ["c", 1, 3, 0, 0, None],
        ["c", 4, 8, 0, 0, None],
        ["c", 5, 6, 2, 0, None],
    ]
    idx = SpanIndex(spans)
    assert idx.self_ns == [4, 2, 3, 1]
    assert idx.calls("c") == 2  # the nested "c" is not outermost
    assert idx.total_s("c") == pytest.approx(6e-9)
    assert idx.self_under("p") == pytest.approx({"p": 4e-9, "c": 6e-9})
