"""Smoke tests of the benchmark itself, at the tiny `--size smoke`.

    python3 -m pytest -q perfbench
"""

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
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _import_benchmark_modules():
    for path in (os.path.join(ROOT, "src"), HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def test_same_seed_same_inputs():
    _import_benchmark_modules()
    import random
    import workloads

    def pairs(seed):
        rng = random.Random(seed)
        return [workloads.braid_pair(rng, 5, 30, i % 2 == 0) for i in range(4)]
    assert pairs("a") == pairs("a")
    assert pairs("a") != pairs("b")


def test_tracer_nests_spans_and_restores_functions():
    _import_benchmark_modules()
    import tracing
    from braidkit import presentations, series

    original = series.smith_normal_form
    tr = tracing.Tracer()
    tr.install()
    try:
        assert series.smith_normal_form is not original
        series.abelianization(presentations.sphere_braid(4))
    finally:
        tr.uninstall()
    assert series.smith_normal_form is original
    spans = [s for s in tr.spans if s is not None]
    snf = next(s for s in spans if s[0] == "intlin.snf")
    chain = []
    parent = snf[3]
    while parent is not None:
        chain.append(tr.spans[parent][0])
        parent = tr.spans[parent][3]
    assert chain == ["intlin.abelian_invariants", "series.abelianization"]
    assert tr.counts["intlin.snf_calls"] == 1
    for name in ("intlin.snf", "series.abelianization"):
        assert 0 <= tr.stat(name, tracing.SELF) <= tr.stat(name, tracing.INCLUSIVE)


def test_query_over_time_limit_fails(monkeypatch):
    _import_benchmark_modules()
    import run as bench
    import workloads

    monkeypatch.setattr(workloads, "QUERY_TIMEOUT_S", 0.2)
    previous = signal.signal(signal.SIGALRM, bench._time_out)
    try:
        run = bench.Run(bench.parse_args(["--workload", "kernel-ab"]),
                        workloads, None)
        slow = workloads.Query(workloads.no_input, lambda _: time.sleep(5),
                               lambda _inp, _out: (True, {}))
        _inp, elapsed = run.attempt("slow", slow, None)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert run.failed == 1 and elapsed < 2
    assert "TimeoutError" in run.failures[0]["why"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "kernel-ab", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
