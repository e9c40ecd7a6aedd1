"""Tests for the benchmark's own code.

    python3 -m pytest -q perfbench

The end-to-end cases run ``run.py`` on the shortest workloads with
``--seconds 0`` (the minimum number of children), so each takes seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import make_digests  # noqa: E402
import run  # noqa: E402


def copy_bench(dest: Path) -> Path:
    """A checkout at ``dest`` holding only the benchmark's own files."""
    (dest / "perfbench").mkdir(parents=True)
    for path in HERE.iterdir():
        if path.is_file():
            (dest / "perfbench" / path.name).write_bytes(path.read_bytes())
    (dest / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    return dest


def bench(*args, env=None, root=ROOT):
    """Run the benchmark; (record line, result line) as dicts."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0", *args],
        capture_output=True, text=True, cwd=root, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_exclude_nested_spans_and_sum_to_wall():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def inner(seconds):
        clock.now += seconds

    inner = tracer.wrap("inner", inner)

    def outer():
        clock.now += 2
        inner(3)
        inner(1)
        clock.now += 1
        recurse(0)

    def recurse(depth):
        clock.now += 0.5
        if depth < 2:
            recurse(depth + 1)

    recurse = tracer.wrap("outer", recurse)
    outer = tracer.wrap("outer", outer)
    outer()
    clock.now += 4        # time outside any span: unattributed

    metrics = tracer.layer_metrics(wall_s=clock.now)
    assert tracer.self_s == {"outer": 4.5, "inner": 4.0}
    # The recursive calls nest inside the outer span: one outermost call.
    assert tracer.counts["calls:outer"] == 1
    assert tracer.counts["calls:inner"] == 2
    assert metrics["unattributed_s"] == 4.0
    assert metrics["traced_wall_s"] == 12.5


def test_planted_wrong_digest_fails_every_operation(tmp_path):
    checkout = copy_bench(tmp_path)
    (checkout / "src").symlink_to(ROOT / "src")
    digests = checkout / "perfbench" / "digests.json"
    table = json.loads(digests.read_text())
    table["workloads"]["stream-dma"]["2005"] = "0" * 64
    digests.write_text(json.dumps(table))

    record, result = bench("--workload", "stream-dma", "--seed", "2005",
                           "--trace", "0", root=checkout)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= run.MIN_CHILDREN
    assert record["fail_rate"] == 1.0
    assert any("digest" in why for why in record["failures"])


def test_committed_digest_passes():
    record, result = bench("--workload", "stream-dma", "--seed", "2005",
                           "--trace", "0")
    assert result["correct"] is True and result["failed"] == 0
    assert record["fail_rate"] == 0.0
    assert record["digest"]["observed"] == [record["digest"]["committed"]]
    assert set(result["metrics"]) == {
        m["name"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_forced_rung_demotion_is_reported_failed(tmp_path):
    # A numpy that cannot be imported demotes the auto ladder to the
    # kernel rung, which the benchmark must refuse to report as a number.
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text(
        "raise ImportError('numpy blocked for the test')\n")
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    env.pop("REPRO_BACKEND", None)

    record, result = bench("--workload", "stream-crypto", "--trace", "0",
                           env=env)
    assert record["host"]["rung"] == {"requested": "auto",
                                      "active": "kernel"}
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert record["failures"] == ["rung kernel ran, numpy was requested"]


def test_layer_self_times_plus_unattributed_sum_to_traced_wall():
    record, result = bench("--workload", "stream-crypto", "--trace", "1")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    self_times = [values[name] for name in layers.TIME_METRICS]
    assert all(t >= 0 for t in self_times)
    assert values["unattributed_s"] >= 0
    assert sum(self_times) + values["unattributed_s"] == pytest.approx(
        values["traced_wall_s"], rel=1e-9)
    assert values["crypto.cipher_calls"] > 0
    # Per-layer values are per operation.
    assert values["traces.accesses"] == \
        run.workloads.STREAM_RUNS["stream-crypto"]["accesses"]
    assert result["correct"] is True


def test_committed_digests_cover_default_and_held_out_seeds():
    table = json.loads((HERE / "digests.json").read_text())
    assert table["default_seed"] == run.DEFAULT_SEED
    assert table["held_out_seed"] == make_digests.HELD_OUT_SEED
    for workload in run.workloads.WORKLOADS:
        by_seed = table["workloads"][workload]
        assert str(run.DEFAULT_SEED) in by_seed
        assert str(make_digests.HELD_OUT_SEED) in by_seed


def test_campaign_grid_digest_is_the_scaling_bench_digest():
    scaling = json.loads((ROOT / "BENCH_campaign_scaling.json").read_text())
    table = json.loads((HERE / "digests.json").read_text())
    assert table["workloads"]["campaign-grid"][str(run.DEFAULT_SEED)] == \
        scaling["metrics_sha256"]


def test_refuses_to_run_without_the_program(tmp_path):
    bare = copy_bench(tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-dma",
         "--seconds", "1"], capture_output=True, text=True, cwd=bare,
        timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
