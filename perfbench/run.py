"""Benchmark of the ``billexp expansion`` verdict pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verdict-tri --seed 61 --seconds 42 \\
        --trace 0

Each pipeline is one in-process ``billexp expansion`` call through
``billexp.cli.run``: table build, ``fit_constants``, ``choose_depth``,
``sup_scan`` and the report write, on one core.  The package is imported
from ``src/`` of the checkout; nothing needs building.

``--trace 0`` times pipelines at sub-seeds of ``--seed`` with only stage
timers and progress marks attached, corrects each stretch between marks
for the host's speed measured next to it (``probe``), and prints the
end-to-end metrics.  ``--trace 1`` runs each pipeline twice, untraced
then traced (every public billexp function wrapped, see tracer.py), checks
that both reports are byte-identical and prints the per-layer metrics.
Every report is checked (workloads.check_report); a failed check fails the
run and the exit code is 1.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import STAGE_TIMERS, Marks, Tracer
from workloads import (DEFAULT_SEED, SAMPLES, SMOKE_SAMPLES, WORKLOADS,
                       argv as workload_argv, check_report, failed_ratio)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# sub-seed i of a run is seed + SEED_STRIDE * i
SEED_STRIDE = 1000
# Times are host-corrected: each is scaled by PROBE_REF_S / (the time of a
# fixed pure-Python loop, the probe, run next to it).  PROBE_REF_S is about
# the probe's time on an idle core of the reference host (2-core Xeon at
# 2.0 GHz, Python 3.11), so corrected seconds read as wall seconds there;
# on a core that a neighbour slows down, both grow, and the ratio stays.
# The probe makes small objects, tuples, lists and dict entries and calls
# math, as billexp's Python code does: of the probes tried, it followed the
# pipeline's slowdowns most closely (an arithmetic-only loop slowed less)
PROBE_LOOPS, PROBE_REF_S = 150, 1.1e-4
# setup_s: table builds in batches, one before the first pipeline and one
# after each.  A batch builds the table until SETUP_SECONDS have passed (at
# least once, at most SETUP_MAX times), each build right after a probe that
# corrects it; setup_s is the median corrected build of the run
SETUP_SECONDS, SETUP_MAX = 0.2, 200
# progress marks: the clock at every MARK_EVERY-th call of MARK_FUNCTION,
# which every stage after the table build calls (about 150k calls in a tri
# pipeline, 500k in a torus2 one), so a stretch between marks takes about
# 10 ms; a probe runs at every PROBE_EVERY-th mark, about every 0.15 s, and
# corrects the stretches that end at or before it
MARK_FUNCTION, MARK_EVERY, PROBE_EVERY = "flow.first_collision", 256, 16
# a host too slow to finish by OVERRUN * --seconds ends the run early
OVERRUN = 1.5

clock = time.perf_counter


class _Point:
    def __init__(self, x, y):
        self.x, self.y = x, y


def probe() -> float:
    """Seconds one fixed pure-Python loop takes now: the host's speed."""
    t0 = clock()
    acc, seen = 0.0, {}
    for i in range(PROBE_LOOPS):
        p = _Point(i * 0.37, i * 1.1)
        seen[i] = (p.x, p.y, [p.x])
        acc += math.hypot(p.x, p.y)
    return clock() - t0


@dataclass
class Pipeline:
    seed: int
    rc: int
    data: bytes
    doc: dict | None      # the parsed report
    problems: list
    wall_s: float         # built table -> report written, wall clock
    verdict_s: float      # the same, host-corrected
    stretches: int        # progress marks passed, plus one
    fit_s: float | None
    scan_s: float | None
    write_s: float | None
    tracer: Tracer


def _import_billexp():
    src = ROOT / "src"
    if not (src / "billexp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no billexp sources under {src}")
    sys.path.insert(0, str(src))
    import billexp
    if Path(billexp.__file__).resolve().parent != src / "billexp":
        raise SystemExit(f"perfbench: imported billexp from "
                         f"{billexp.__file__}, not from {src}")
    from billexp import cli, tables
    return cli, tables


def run_pipeline(cli, w, seed, samples, workdir, tracer) -> Pipeline:
    out = os.path.join(workdir, f"{w.name}-{seed}.json")
    marks = Marks(MARK_FUNCTION, MARK_EVERY, probe, PROBE_EVERY)
    gc.collect()
    with tracer, marks, contextlib.redirect_stdout(io.StringIO()):
        t0 = clock()
        rc = cli.run(workload_argv(w, seed, samples, out))
        t1 = clock()
    data, doc = b"", None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            data = fh.read()
        os.remove(out)
    if rc != 0:
        problems = [f"billexp exited with code {rc}"]
    else:
        try:
            doc = json.loads(data)
            problems = check_report(w, doc, seed, samples)
        except (ValueError, KeyError, TypeError, IndexError) as err:
            doc, problems = None, [f"malformed report: {err!r}"]
    fit = tracer.first_span("ucurves.fit_constants")
    scan = tracer.first_span("ucurves.sup_scan")
    # the table is built first, so verdict_s runs from the end of the build
    built = tracer.first_span("tables.load_builtin")
    begin = built[1] if built else t0
    kept = [m for m in marks.marks if m[0] > begin]
    walls = [end - start for start, end in
             zip([begin, *(resume for _t, resume, _p in kept)],
                 [*(t for t, _r, _p in kept), t1])]
    # a stretch is corrected by the first probe at or after its end; those
    # after the last mark's probe, by one taken now
    speeds, speed = [], probe()
    for i in reversed(range(len(walls))):
        if i < len(kept) and kept[i][2] is not None:
            speed = kept[i][2]
        speeds.append(speed)
    verdict_s = sum(wall * PROBE_REF_S / speed
                    for wall, speed in zip(walls, reversed(speeds)))
    return Pipeline(
        seed=seed, rc=rc, data=data, doc=doc, problems=problems,
        wall_s=sum(walls), verdict_s=verdict_s, stretches=len(walls),
        fit_s=None if fit is None else fit[1] - fit[0],
        scan_s=None if scan is None else scan[1] - scan[0],
        write_s=None if scan is None else t1 - scan[1],
        tracer=tracer)


def setup_batch(tables, name) -> list:
    """Host-corrected durations of one batch of table builds."""
    gc.collect()
    times = []
    start = clock()
    while not times or (clock() - start < SETUP_SECONDS
                        and len(times) < SETUP_MAX):
        speed = probe()
        t0 = clock()
        tables.load_builtin(name)
        times.append((clock() - t0) * PROBE_REF_S / speed)
    return times


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(plain: Pipeline, traced: Pipeline) -> dict:
    """Per-layer values of one traced pipeline, keyed by metric name."""
    t = traced.tracer
    fc, fw, ev = "flow.first_collision", "bmap.forward", "ucurves.evolve_n"
    seeds = "ucurves.seed_ucurve"
    return {
        "geometry.build_table.s": (t.total_s("geometry.build_table"), "s"),
        "flow.first_collision.calls": (t.calls(fc), "count"),
        "flow.first_collision.us":
            (1e6 * _ratio(t.self_s(fc), t.calls(fc)), "us"),
        "bmap.forward.calls": (t.calls(fw), "count"),
        "bmap.forward.us": (1e6 * _ratio(t.total_s(fw), t.calls(fw)), "us"),
        "bmap.forward.branched_share":
            (_ratio(t.counters["bmap.forward.branched"], t.calls(fw)),
             "ratio"),
        "bmap.certify_expansion_constant.s":
            (t.total_s("bmap.certify_expansion_constant"), "s"),
        "bmap.certify_hyperbolicity.s":
            (t.total_s("bmap.certify_hyperbolicity"), "s"),
        "singularities.trace_singularity.s":
            (t.total_s("singularities.trace_singularity"), "s"),
        "singularities.trace_singularity.calls":
            (t.calls("singularities.trace_singularity"), "count"),
        "singularities.trace_singularity.curves":
            (t.counters["singularities.trace_singularity.curves"], "count"),
        "singularities.find_multiple_points.s":
            (t.total_s("singularities.find_multiple_points"), "s"),
        "singularities.sector_portrait.calls":
            (t.calls("singularities.sector_portrait"), "count"),
        "singularities.sector_portrait.s":
            (t.total_s("singularities.sector_portrait"), "s"),
        "ucurves.fit_constants.s": (t.total_s("ucurves.fit_constants"), "s"),
        "ucurves.certify_length_constant.s":
            (t.total_s("ucurves.certify_length_constant"), "s"),
        "ucurves.choose_depth.s": (t.total_s("ucurves.choose_depth"), "s"),
        "ucurves.choose_depth.trees":
            (t.counters["ucurves.choose_depth.trees"], "count"),
        "ucurves.sup_scan.s": (t.total_s("ucurves.sup_scan"), "s"),
        "ucurves.sup_scan.curves_per_s": (_ratio(
            traced.doc["samples"] if traced.doc else 0,
            t.total_s("ucurves.sup_scan")), "1/s"),
        "ucurves.sup_scan.failed_ratio":
            (failed_ratio(traced.doc) if traced.doc else 1.0, "ratio"),
        "ucurves.evolve_n.calls": (t.calls(ev), "count"),
        "ucurves.evolve_n.self_s": (t.self_s(ev), "s"),
        "ucurves.components": (t.counters["ucurves.components"], "count"),
        "ucurves.tails": (t.counters["ucurves.tails"], "count"),
        "ucurves.degenerate_merged":
            (t.counters["ucurves.degenerate_merged"], "count"),
        "ucurves.seed_accept_ratio":
            (_ratio(t.calls(seeds) - t.raised(seeds), t.calls(seeds)),
             "ratio"),
        "cli.write_s": (traced.write_s or 0.0, "s"),
        "cli.artifact_bytes": (len(traced.data), "bytes"),
        "trace.overhead": (_ratio(traced.verdict_s, plain.verdict_s),
                           "ratio"),
    }


def _summary(w, p: Pipeline, label) -> str:
    doc = p.doc
    parts = [f"# {w.name} {label} seed={p.seed} rc={p.rc}"]
    if doc:
        parts.append(f"N={doc['n_steps']} [{doc['n_source']}] "
                     f"sup_E_N={doc['sup_e'][-1]:.6g}")
    parts.append(f"verdict_s={p.verdict_s:.3f} wall_s={p.wall_s:.3f}")
    if p.fit_s is not None:
        parts.append(f"fit_s={p.fit_s:.3f}")
    if p.scan_s and doc:
        parts.append(f"curves_per_s={doc['samples'] / p.scan_s:.1f}")
    if doc:
        parts.append(f"failed_ratio={failed_ratio(doc):.4g}")
    parts.append("check=" + ("ok" if not p.problems
                             else "FAILED: " + "; ".join(p.problems)))
    return " ".join(parts)


def timed_runs(cli, tables, w, args, samples, workdir, setup_times):
    """Untraced pipelines for --trace 0, a setup batch after each.

    Pipeline j uses sub-seed seed + SEED_STRIDE * j.  Their number follows
    from --seconds and the workload's nominal pipeline time, not from the
    host's speed, so that every run at a seed measures the same inputs; only
    a host too slow to finish by OVERRUN * --seconds ends the run early.
    """
    count = 1 if args.smoke else max(1, round(args.seconds / w.pipeline_s))
    runs = []
    start = clock()
    for j in range(count):
        if j and (clock() - start) * (j + 1) / j > OVERRUN * args.seconds:
            break
        seed = args.seed + SEED_STRIDE * j
        p = run_pipeline(cli, w, seed, samples, workdir, Tracer(STAGE_TIMERS))
        print(_summary(w, p, "untraced"), flush=True)
        runs.append(p)
        setup_times.extend(setup_batch(tables, w.table))
    return runs


def traced_runs(cli, w, args, samples, workdir):
    """Pipelines for --trace 1: each untraced, then traced at the same seed.

    Pipeline pair j uses seed + SEED_STRIDE * j; pairs are added while one
    more is predicted to fit in --seconds.
    """
    runs, layers = [], []
    start = clock()
    j = 0
    while j < 1 or (not args.smoke
                    and (clock() - start) * (j + 1) / j <= args.seconds):
        seed = args.seed + SEED_STRIDE * j
        plain = run_pipeline(cli, w, seed, samples, workdir,
                             Tracer(STAGE_TIMERS))
        print(_summary(w, plain, "untraced"), flush=True)
        traced = run_pipeline(cli, w, seed, samples, workdir, Tracer())
        if traced.data != plain.data:
            traced.problems.append("traced report bytes differ from untraced")
        print(_summary(w, traced, "traced"), flush=True)
        traced.tracer.dump(OUT_DIR / f"trace-{w.name}-{seed}.json")
        runs += [plain, traced]
        layers.append(layer_metrics(plain, traced))
        j += 1
    return runs, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"{SMOKE_SAMPLES} samples, one pipeline, no "
                         "reference comparison (for the benchmark's tests)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    cli, tables = _import_billexp()
    w = WORKLOADS[args.workload]
    samples = SMOKE_SAMPLES if args.smoke else SAMPLES
    OUT_DIR.mkdir(exist_ok=True)

    setup_times = []
    if not args.trace:
        setup_times.extend(setup_batch(tables, w.table))
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        if args.trace:
            runs, layers = traced_runs(cli, w, args, samples, workdir)
        else:
            runs = timed_runs(cli, tables, w, args, samples, workdir,
                              setup_times)

    failed = sum(1 for p in runs if p.problems)
    if args.trace:
        metrics = {name: {"value": statistics.median(m[name][0]
                                                     for m in layers),
                          "unit": unit}
                   for name, (_v, unit) in layers[0].items()}
    else:
        med = statistics.median
        metrics = {
            "verdict_s": {"value": med(p.verdict_s for p in runs),
                          "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "setup_s": {"value": med(setup_times), "unit": "s"},
        }
        rates = [samples / p.scan_s for p in runs if p.scan_s]
        fits = [p.fit_s for p in runs if p.fit_s is not None]
        ratios = [failed_ratio(p.doc) for p in runs if p.doc]
        print(f"# {w.name}: {len(runs)} pipelines "
              f"(median wall {med(p.wall_s for p in runs):.4g} s each, "
              f"{statistics.fmean(p.stretches for p in runs):.1f} "
              f"stretches), "
              + " ".join(f"{k}={v['value']:.6g} {v['unit']}"
                         for k, v in metrics.items())
              + (f" fit_s={med(fits):.6g} s" if fits else "")
              + (f" curves_per_s={med(rates):.6g} 1/s" if rates else "")
              + (f" failed_ratio={med(ratios):.4g}" if ratios else ""))
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
