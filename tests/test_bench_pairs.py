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
    assert layer.endswith("quartile distance 0")
