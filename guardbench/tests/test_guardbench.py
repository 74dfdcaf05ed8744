"""The benchmark's own tests (run: ``python -m pytest guardbench/tests``).

- a one-second run of every workload in both modes prints exactly the
  metrics ``BENCHMARK.json`` names, with the same units;
- the verdict check trips when the oracle's vocabulary lacks a fragment
  the gateway has, so a broken gateway cannot pass it silently;
- the waterfall counts a parent span shorter than the sum of its
  children, so a span counted twice cannot pass silently.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import bench
from oracle import Oracle
from spans import waterfall
from workloads import build_trace

ROOT = os.path.dirname(bench.SRC)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["wpcom-mix", "sqli-attack"])
def test_smoke_run_prints_declared_metrics(workload, trace):
    declared = _declared()
    proc = subprocess.run(
        [sys.executable, "guardbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = declared["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in wanted}
    if trace:
        appends = result["metrics"]["persist.appends_per_query"]["value"]
        if workload == "sqli-attack":
            assert appends > 0
        else:
            assert appends == 0
        assert "waterfall" in proc.stdout
        assert "negative self times 0" in proc.stdout


def _fragment_the_trace_needs(trace) -> list[str]:
    """The vocabulary minus one fragment that the first queries rely on."""
    items = trace.ensure(40)[:40]
    candidates = sorted(
        {f for f in trace.fragments for item in items if f in item.query},
        key=len,
        reverse=True,
    )
    for fragment in candidates:
        reduced = [f for f in trace.fragments if f != fragment]
        oracle = Oracle(reduced, [])
        if not all(expected.safe for expected in oracle.extend(items)):
            return reduced
    raise AssertionError("no single fragment changes a verdict")


def test_verdict_check_trips_on_a_missing_fragment(monkeypatch):
    monkeypatch.chdir(ROOT)
    reduced = _fragment_the_trace_needs(build_trace("wpcom-mix", 3))
    result, lines = bench.run("wpcom-mix", 3, 1.0, 0, oracle_fragments=reduced)
    assert result["correct"] is False
    assert any(line.startswith("MISMATCH") for line in lines)


def _one_request(todict_start: int) -> dict:
    """A traced request whose worker call holds an engine batch and a
    to-dict span; ``todict_start`` < 800 makes the two overlap."""
    client = [("client.rtt", 0, 1000, 0, 0)]
    worker = {"role": "worker", "marks": [], "spans": [
        ("engine.batch", 200, 800, 0, 1),
        ("worker.todict", todict_start, 850, 1, 0),
    ]}
    gateway = {"role": "gateway", "marks": [], "spans": [
        ("worker.call", 100, 900, 0, 0),
    ]}
    return waterfall(client, [gateway, worker])


def test_waterfall_counts_negative_self_times():
    clean = _one_request(todict_start=810)
    assert clean["negative_self"] == 0
    assert clean["metrics"]["worker.pipe_us"] == pytest.approx(0.16)
    # A to-dict span covering the engine batch: the pipe's remainder is
    # 800 - 600 - 700 ns, which only a span counted twice can produce.
    doubled = _one_request(todict_start=150)
    assert doubled["negative_self"] == 1
    assert doubled["metrics"]["worker.pipe_us"] < 0
