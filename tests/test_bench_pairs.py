import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pairs(workload, parent, change, layer=None):
    """Pairs of correct runs with the given verdict_s values, and the given
    per-layer counter on both sides."""
    out = []
    for p, c in zip(parent, change):
        sides = [{"correct": True, "verdict_s": v} for v in (p, c)]
        if layer is not None:
            for side in sides:
                side["bmap.forward.calls"] = layer
        out.append({"workload": workload, "trace": 0, "parent": sides[0],
                    "change": sides[1]})
    return out


def _line(lines, workload, metric):
    return next(line for line in lines
                if line.startswith(f"{workload} --trace 0 {metric}:"))


@pytest.mark.parametrize("parent,change,label", [
    # tight parent, change 10% slower: inside the 0.25 bound
    ([1.0, 1.01, 0.99, 1.0, 1.02, 0.98], [1.1] * 6, "within the bound"),
    # tight parent, change 40% slower
    ([1.0, 1.01, 0.99, 1.0, 1.02, 0.98], [1.4] * 6,
     "worse beyond the bound"),
    # parent quartiles 0.6 apart, wider than 0.25 of its median
    ([0.5, 0.7, 1.0, 1.3, 1.5, 1.0], [1.0, 0.9, 1.1, 1.0, 1.2, 0.8],
     "unresolved"),
    # the same spread, but every change run beats every parent run
    ([0.5, 0.7, 1.0, 1.3, 1.5, 1.0], [0.4, 0.3, 0.45, 0.35, 0.3, 0.4],
     "within the bound"),
])
def test_summary_labels_end_to_end_metrics_against_their_bound(
        parent, change, label):
    bound = bench_pairs.BOUND["verdict_s"]
    assert bound == 0.25
    lines = bench_pairs.summary(_pairs("w", parent, change, layer=7.0))
    assert _line(lines, "w", "verdict_s").endswith(f", {label} {bound:g}")
    # a per-layer metric has no bound, so no label
    layer = _line(lines, "w", "bmap.forward.calls")
    assert layer.endswith("median equal, within the parent's quartile "
                          "distance 0, not claimable")


_TIGHT = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]


@pytest.mark.parametrize("change,median", [
    # better in every pair, by far more than the parent's quartile distance
    ([0.8] * 10, "better by 0.2, exceeding"),
    # as far better, but in only 8 pairs of 10
    ([0.8] * 8 + [1.1, 1.1], "better by 0.2, exceeding"),
    # better in every pair, but by less than the quartile distance
    ([0.999] * 10, "better by 0.001, within"),
    # worse in every pair, by far more than the quartile distance
    ([1.2] * 10, "worse by 0.2, exceeding"),
])
def test_summary_signs_the_median_gap_and_labels_a_claim(change, median):
    """The gap is signed, so a worse change does not read like a gain, and
    only a change that wins 9 pairs of 10 by more than the parent's
    quartile distance may claim it."""
    line = _line(bench_pairs.summary(_pairs("w", _TIGHT, change)), "w",
                 "verdict_s")
    assert f", median {median} the parent's quartile distance 0.015, " \
        in line
    claim = "claimable" if change == [0.8] * 10 else "not claimable"
    assert f"0.015, {claim}, " in line


_STDOUT = """\
# verdict-tri untraced seed=61 rc=0 N=2 [empirical] sup_E_N=1.1768 \
verdict_s=0.410 wall_s=0.343 fit_s=0.175 curves_per_s=7054.0 \
failed_ratio=0 check=ok
# verdict-tri untraced seed=1061 rc=0 N=2 [empirical] sup_E_N=1.083 \
verdict_s=0.255 wall_s=0.338 fit_s=0.173 curves_per_s=7138.3 \
failed_ratio=0 check=ok
# verdict-tri: 2 pipelines (median wall 0.3405 s each, 20.8 stretches), \
verdict_s=0.3325 s peak_rss_mb=42.7734 MB setup_s=0.000327643 s
{"correct": true, "attempted": 2, "failed": 0, "metrics": {"verdict_s": \
{"value": 0.3325, "unit": "s"}, "peak_rss_mb": {"value": 42.7734375, \
"unit": "MB"}, "setup_s": {"value": 0.0003276, "unit": "s"}}}
"""


def test_run_side_keeps_pipeline_times_and_summary_prints_them(monkeypatch):
    """From a perfbench run's canned stdout a side keeps its metrics and
    each untraced pipeline's wall_s and fit_s, and the summary prints each
    side's medians of those beside the corrected metrics."""
    class Done:
        stdout, stderr = _STDOUT, ""

    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda *args, **kw: Done)
    side = bench_pairs.run_side(".", "verdict-tri", 61, 0)
    assert side == {
        "verdict_s": 0.3325, "peak_rss_mb": 42.7734375, "setup_s": 0.0003276,
        "correct": True, "pipelines": [
            {"seed": 61, "wall_s": 0.343, "fit_s": 0.175},
            {"seed": 1061, "wall_s": 0.338, "fit_s": 0.173}]}
    faster = {**side, "pipelines": [
        {"seed": 61, "wall_s": 0.3, "fit_s": 0.15},
        {"seed": 1061, "wall_s": 0.2, "fit_s": 0.1}]}
    pairs = [{"workload": "verdict-tri", "trace": 0, "parent": side,
              "change": faster}] * 2
    lines = bench_pairs.summary(pairs)
    assert "verdict-tri --trace 0 pipeline wall_s: parent median 0.3405, " \
        "change median 0.25; by sub-seed 61 0.343 -> 0.3, " \
        "1061 0.338 -> 0.2" in lines
    assert "verdict-tri --trace 0 pipeline fit_s: parent median 0.174, " \
        "change median 0.125; by sub-seed 61 0.175 -> 0.15, " \
        "1061 0.173 -> 0.1" in lines
    assert lines[-1] == "verdict-tri --trace 0 incorrect runs: parent 0/2, " \
        "change 0/2"
    # pairs kept before sides had pipelines print no such line
    old = [{"workload": "w", "trace": 0, "parent": {"correct": True},
            "change": {"correct": True}}]
    assert not [line for line in bench_pairs.summary(old)
                if "pipeline" in line]
