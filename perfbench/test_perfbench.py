"""Smoke tests of the benchmark itself (tiny sample counts, one pipeline)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "61", "--seconds", "1",
         "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_untraced_run_emits_every_end_to_end_metric():
    result = _result(_bench("--workload", "scan-deep-tri", "--trace", "0"))
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_emits_per_layer_metrics_and_same_report_bytes():
    # a failed byte comparison would mark the run incorrect and exit 1
    proc = _bench("--workload", "verdict-tri", "--trace", "1")
    result = _result(proc)
    _assert_metrics(result, SPEC["per_layer"])
    assert result["attempted"] == 2
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["bmap.forward.calls"] > 0
    assert m["flow.first_collision.calls"] >= m["bmap.forward.calls"] / 2
    assert m["ucurves.choose_depth.trees"] > 0
    assert m["bmap.certify_expansion_constant.s"] > 0
    assert m["singularities.trace_singularity.calls"] > 0
    assert m["trace.overhead"] > 0


def test_benchmark_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "verdict-tri", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    from billexp import bmap, cli, flow, singularities, ucurves
    from tracer import Tracer

    bindings = [(m, "forward") for m in (bmap, singularities, ucurves, cli)]
    bindings += [(m, "first_collision") for m in (flow, bmap, singularities)]
    before = [getattr(m, name) for m, name in bindings]
    with Tracer():
        wrapped = [getattr(m, name) for m, name in bindings]
    assert all(w is not b for w, b in zip(wrapped, before))
    assert len({id(w) for w in wrapped[:4]}) == 1
    assert [getattr(m, name) for m, name in bindings] == before
