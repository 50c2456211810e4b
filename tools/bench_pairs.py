"""Alternating parent/change pairs of benchmark runs, kept as BENCH_<name>.json.

Usage, from the root of a checkout, one ``--seeds`` value per pair, the
same seed for every pair of a claim:

    python3 tools/bench_pairs.py --parent DIR --change DIR --name NAME \\
        --what "what the change does" --workload scan-deep-tri \\
        --seeds 8301 8301 8301 8301 8301 8301 8301 8301 8301 8301 [--trace 0]

For each seed, runs each checkout's own ``perfbench/run.py --trace K`` for
the benchmark's ``run_seconds`` (BENCHMARK.json), parent and change one after
the other, alternating which runs first.  A side keeps every metric and the
"correct" flag of its run's last stdout line, and as ``pipelines`` the
sub-seed, ``wall_s`` and ``fit_s`` of each ``# <workload> untraced seed=...``
line: the plain wall clock of each pipeline, which the host correction in
``verdict_s`` does not touch.  The pairs are appended to BENCH_<NAME>.json in
the current directory, made when missing.

After its pairs it prints a summary of every pair in that file, per workload
and metric: each side's median and quartiles over its correct runs, the
change's wins out of the pairs where both sides are correct (ties count for
neither side), how much better or worse the change's median is than the
parent's and whether that gap exceeds the distance between the parent's
quartiles, and whether a gain is ``claimable``: the change wins at least
nine pairs in ten and is better by more than that distance.  An end-to-end
metric also gets a label against its ``bound`` in BENCHMARK.json, a fraction
of the parent's median (``bound_label``).  Then, per workload, each side's
median pipeline ``wall_s`` and ``fit_s``, overall and per sub-seed, and the
number of runs on each side that were not correct, with or without
metrics.  The exit status is 1 when any run of the change in the file was
not correct.

A claim compares the change with the spread of the parent's runs, so all
its pairs must run at one seed: each seed has its own sub-seeds, whose
work differs.  With a different seed per pair (3701..3710), scan-deep-tri's
parent runs had a quartile distance of 0.078 s in ``verdict_s``, against
0.027 s over 12 pairs at the single seed 8301, and the same gain read "not
claimable" there.  ``peak_rss_mb`` of a run started here, through
``subprocess.run``, reads about 0.7 MB above a run of the same tree started
from a shell (44.71-45.00 against 44.09-44.30 MB on scan-deep-tri at seed
61); compare it only with runs started the same way.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]
# metric name -> "lower" or "higher", whichever is better
BETTER = {m["name"]: m["better"]
          for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
# end-to-end metric name -> the largest worsening allowed, as a fraction of
# the parent's median
BOUND = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
# per-pipeline wall times kept from perfbench's untraced summary lines
PIPELINE_TIMES = ("wall_s", "fit_s")


def run_side(checkout, workload, seed, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace",
         str(trace)], cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False}
    side = {k: v["value"] for k, v in result["metrics"].items()}
    side["correct"] = result["correct"]
    side["pipelines"] = pipeline_times(proc.stdout, workload)
    return side


def pipeline_times(stdout, workload) -> list[dict]:
    """The sub-seed and the ``wall_s`` and ``fit_s`` (when given) of each
    ``# <workload> untraced seed=...`` line of a perfbench run's stdout."""
    out = []
    for line in stdout.splitlines():
        words = line.split()
        if words[:3] != ["#", workload, "untraced"]:
            continue
        fields = dict(w.split("=", 1) for w in words[3:] if "=" in w)
        pipe = {"seed": int(fields["seed"])}
        for key in PIPELINE_TIMES:
            if key in fields:
                pipe[key] = float(fields[key])
        out.append(pipe)
    return out


def bound_label(par, chg, better, bound) -> str:
    """Where the change's runs chg stand against the parent's runs par for a
    metric whose median may worsen by at most bound times the parent's.

    "unresolved" when the parent's quartile distance exceeds that margin,
    unless every change run beats every parent run; else "worse beyond the
    bound" when the change's median is worse by more than the margin, and
    "within the bound" when it is not.
    """
    margin = bound * np.median(par)
    q1, q3 = np.percentile(par, [25, 75])
    if better == "lower":
        worse = np.median(chg) - np.median(par)
        beats_all = chg.max() < par.min()
    else:
        worse = np.median(par) - np.median(chg)
        beats_all = chg.min() > par.max()
    if q3 - q1 > margin and not beats_all:
        return "unresolved"
    return "worse beyond the bound" if worse > margin else "within the bound"


def claimable(wins, pairs, gap, iqr) -> bool:
    """Whether a gain may be claimed: the change wins at least nine pairs
    in ten, and its median is better than the parent's (gap > 0) by more
    than the parent's quartile distance iqr."""
    return 10 * wins >= 9 * pairs and gap > iqr


def summary(pairs) -> list[str]:
    """One line per workload, trace level and metric over the given pairs,
    from the pairs where both sides are correct and report that metric (an
    end-to-end metric's line ends with its ``bound_label`` and bound), then
    one line per workload and trace level counting the runs of each side
    that were not correct."""
    lines = []
    for workload, trace in sorted({(p["workload"], p["trace"])
                                   for p in pairs}):
        group = [p for p in pairs
                 if (p["workload"], p["trace"]) == (workload, trace)]
        for name, better in BETTER.items():
            both = [p for p in group
                    if all(p[side]["correct"] and name in p[side]
                           for side in ("parent", "change"))]
            if not both:
                continue
            par = np.array([p["parent"][name] for p in both], dtype=float)
            chg = np.array([p["change"][name] for p in both], dtype=float)
            gain = par - chg if better == "lower" else chg - par
            pq = np.percentile(par, [25, 50, 75])
            cq = np.percentile(chg, [25, 50, 75])
            wins, iqr = int(np.sum(gain > 0.0)), pq[2] - pq[0]
            # the change's median against the parent's, signed: > 0 better
            gap = pq[1] - cq[1] if better == "lower" else cq[1] - pq[1]
            median = f"better by {gap:.6g}" if gap > 0.0 else \
                f"worse by {-gap:.6g}" if gap < 0.0 else "equal"
            lines.append(
                f"{workload} --trace {trace} {name}: parent {pq[1]:.6g} "
                f"[{pq[0]:.6g}, {pq[2]:.6g}], change {cq[1]:.6g} "
                f"[{cq[0]:.6g}, {cq[2]:.6g}], change wins {wins}/{len(both)}"
                f", median {median}, "
                f"{'exceeding' if abs(gap) > iqr else 'within'} the "
                f"parent's quartile distance {iqr:.6g}, "
                f"{'' if claimable(wins, len(both), gap, iqr) else 'not '}"
                "claimable"
                + (f", {bound_label(par, chg, better, BOUND[name])} "
                   f"{BOUND[name]:g}" if name in BOUND else ""))
        lines.extend(pipeline_lines(group, f"{workload} --trace {trace}"))
        wrong = {side: sum(not p[side]["correct"] for p in group)
                 for side in ("parent", "change")}
        lines.append(
            f"{workload} --trace {trace} incorrect runs: parent "
            f"{wrong['parent']}/{len(group)}, change "
            f"{wrong['change']}/{len(group)}")
    return lines


def pipeline_lines(group, label) -> list[str]:
    """Per key of PIPELINE_TIMES, each side's median over the pipelines of
    the pairs in group where both sides are correct, overall and per
    sub-seed ("seed parent -> change")."""
    both = [p for p in group
            if all(p[side]["correct"] for side in ("parent", "change"))]
    lines = []
    for key in PIPELINE_TIMES:
        runs = {side: [(pipe["seed"], pipe[key]) for p in both
                       for pipe in p[side].get("pipelines", ())
                       if key in pipe]
                for side in ("parent", "change")}
        if not all(runs.values()):
            continue
        med = {side: np.median([v for _, v in got])
               for side, got in runs.items()}
        seeds = sorted({s for s, _ in runs["parent"]}
                       & {s for s, _ in runs["change"]})
        per_seed = ", ".join(
            f"{seed} " + " -> ".join(
                f"{np.median([v for s, v in runs[side] if s == seed]):.4g}"
                for side in ("parent", "change"))
            for seed in seeds)
        lines.append(f"{label} pipeline {key}: parent median "
                     f"{med['parent']:.4g}, change median "
                     f"{med['change']:.4g}; by sub-seed {per_seed}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for opt in ("--parent", "--change", "--name", "--what", "--workload"):
        ap.add_argument(opt, required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True,
                    help="one per pair; a claim needs one seed repeated for "
                         "every pair")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out = Path(f"BENCH_{args.name}.json")
    doc = json.loads(out.read_text()) if out.exists() else {
        "what": args.what,
        "host": f"{os.cpu_count()}-core {platform.machine()} container, "
                f"Python {platform.python_version()}, numpy {np.__version__}",
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                   "<seconds> --trace K, run in a fresh copy of each commit; "
                   "pairs alternate which side runs first",
        "seconds": SECONDS,
        "pairs": []}
    for seed in args.seeds:
        order = ["parent", "change"]
        if len(doc["pairs"]) % 2:
            order.reverse()
        pair = {"workload": args.workload, "seed": seed, "first": order[0],
                "trace": args.trace}
        for side in order:
            pair[side] = run_side(getattr(args, side), args.workload, seed,
                                  args.trace)
        doc["pairs"].append(pair)
        print(json.dumps(pair), flush=True)
        out.write_text(json.dumps(doc, indent=1) + "\n")
    print("\n".join(summary(doc["pairs"])))
    return int(any(not p["change"]["correct"] for p in doc["pairs"]))


if __name__ == "__main__":
    sys.exit(main())
