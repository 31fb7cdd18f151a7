"""Tests of the benchmark harness itself.

    python3 -m pytest bench

The program is never altered here: wrong answers are injected by handing
the harness a call whose output was tampered with.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_program()

import tracer  # noqa: E402
import workloads  # noqa: E402
from elimkit import ring as rg  # noqa: E402
from elimkit.mpoly import MultiPoly  # noqa: E402


@pytest.fixture(autouse=True)
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def result(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in spec()["workloads"]] == list(workloads.GENERATE)


def test_end_to_end_metrics_match_benchmark_json():
    out = result("ffsweep", 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == want
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_per_layer_metrics_match_benchmark_json():
    out = result("ffsweep", 1)
    want = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == want
    assert out["metrics"]["oracle.gf.mul.calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "numeric", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def quick_calls(name, count=12):
    """The first calls of a seeded workload, skipping the long generic jobs."""
    return [c for c in workloads.GENERATE[name](3)[0] if c.deadline <= 10][:count]


@pytest.mark.parametrize("name", list(workloads.GENERATE))
def test_small_run_completes(name):
    records = [run.measure(call, 0) for call in quick_calls(name)]
    assert not any(r.wrong for r in records), [r.error for r in records if r.wrong]
    assert sum(r.error is None for r in records) >= 10


def tamper(name, out):
    if name == "numeric":
        return dict(out, value=str(int(out["value"]) + 1))
    if name == "family":
        terms = [dict(t) for t in out["value"]["terms"]]
        terms[0]["coeff"] = str(int(terms[0]["coeff"]) + 1)
        return dict(out, value={"terms": terms})
    if name == "ffsweep":
        if out.disc_is_zero is None:
            return dataclasses.replace(out, status="inconsistent")
        return dataclasses.replace(out, disc_is_zero=not out.disc_is_zero)
    poly = out.value
    terms = dict(poly.terms)
    first = next(iter(terms))
    terms[first] = rg.val_add(poly.ring, terms[first], rg.val_one(poly.ring))
    return rg.RingElement(out.ring, MultiPoly(poly.ring, poly.nvars, terms))


@pytest.mark.parametrize("name", list(workloads.GENERATE))
def test_checker_rejects_a_wrong_answer(name):
    call = quick_calls(name, 1)[0]
    honest = run.measure(call, 0)
    assert honest.error is None
    out = call.run()
    forged = dataclasses.replace(call, run=lambda: tamper(name, out))
    record = run.measure(forged, 0)
    assert record.wrong and record.error.startswith("wrong answer")


def test_deadline_cannot_be_swallowed():
    def stubborn():
        try:
            time.sleep(5)
        except Exception:
            return "swallowed"

    call = workloads.Call(0, "sleep", "-", "-", stubborn, lambda out: None, 0.2)
    t0 = time.perf_counter()
    record = run.measure(call, 0)
    assert time.perf_counter() - t0 < 2
    assert "deadline" in record.error and not record.wrong


def test_tracer_restores_the_program():
    import elimkit

    resultant_module = sys.modules["elimkit.resultant"]
    before = (resultant_module.resultant, elimkit.resultant, MultiPoly.mul, rg.val_mul)
    spans, counter = tracer.SpanTracer(), tracer.CallCounter()
    assert resultant_module.resultant is not before[0] and elimkit.resultant is not before[1]
    record = run.measure(quick_calls("numeric", 1)[0], 0)
    counter.restore()
    spans.restore()
    assert record.error is None
    assert spans.calls["resultant"] >= 1 and counter.counts["ring.val_mul"][0] >= 1
    assert (resultant_module.resultant, elimkit.resultant, MultiPoly.mul, rg.val_mul) == before
