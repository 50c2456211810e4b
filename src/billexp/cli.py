"""Command-line front end.

Subcommands:

* ``validate``     -- build a table from its spec, run the corridor check,
  sample the geometric constants, print them.
* ``orbit``        -- iterate the collision map from a phase point; CSV dump.
* ``singularities``-- trace the level-l singularity curves; phase CSV.
* ``portrait``     -- sector portrait at a phase point; JSON.
* ``evolve``       -- evolve one curve n steps; component tree summary or
  phase CSV of the leaf components.
* ``grazing-sum``  -- sampled supremum of the one-step nearly-grazing sum,
  over the same per-sample curves as ``expansion`` at the same seed.
* ``expansion``    -- the full expansion-sum scan with auto depth selection.
* ``render``       -- SVG view of a previously written artifact.

Exit codes: 0 success, 1 usage error or an unwritable ``--out``, 2
validation failure (bad table, bad input artifact), 3 numerical abort.
Aborts write whatever partial artifact exists before exiting.  Commands that
sample require an explicit --seed; there is no wall-clock fallback, the same
invocation always rebuilds the same bytes.  Output files are written
atomically (temp file + rename).

A ``--config run.json`` file may supply any long flag (dashes as
underscores); explicit flags win over the file, the file wins over built-in
defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import tables
from .bmap import PhasePoint, forward
from .errors import (
    BilliardError,
    ComponentExplosion,
    NumericalAbort,
    UnknownKind,
    UnstablePortrait,
    ValidationError,
)
from .geometry import build_table, estimate_constants
from .render import render_artifact
from .serialize import write_atomic
from .singularities import classify_sectors, sector_portrait, trace_singularity
from .ucurves import (
    N_CAP,
    evolve_n,
    expansion_total,
    fit_constants,
    grazing_sum,
    seed_ucurve,
    sup_scan,
)

PROG = "billexp"

COMMANDS = ("validate", "orbit", "singularities", "portrait", "evolve",
            "grazing-sum", "expansion", "render")

# fixed, documented seed for validate's constant sampling; everything
# stochastic beyond that demands an explicit --seed
VALIDATE_SEED = 0

DEFAULT_OUT = {
    "orbit": "orbit.csv", "singularities": "singularities.csv",
    "portrait": "portrait.json", "evolve": "evolve.json",
    "grazing-sum": "grazing-sum.json", "expansion": "expansion.json",
    "render": "render.svg",
}

DEFAULT_FORMAT = {
    "orbit": "csv", "singularities": "csv", "portrait": "json",
    "evolve": "json", "grazing-sum": "json", "expansion": "json",
    "render": "svg",
}

DEFAULTS = {
    "k0": 30, "k_cap": 10_000, "delta": 1e-4, "samples": 1000,
    "threads": 0, "resolution": 400, "order": 1, "steps": 20,
    "level": -1, "length": 1e-4, "depth": "auto", "kind": "table",
    "front_back": False, "fit": False, "seed": None, "rho": None,
    "table": None, "input": None, "out": None, "format": None,
    "wall": 0, "r": None, "phi": None, "config": None,
}


class _UsageError(Exception):
    pass


class _WriteError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # validation failures, so reroute to our own usage handling
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command")

    def add(name, *flags):
        sp = sub.add_parser(name)
        sp.add_argument("--config")
        sp.add_argument("--table")
        sp.add_argument("--out")
        sp.add_argument("--format", choices=("csv", "json", "svg"))
        for flag in flags:
            if flag == "seed":
                sp.add_argument("--seed", type=int)
            elif flag == "point":
                sp.add_argument("--wall", type=int)
                sp.add_argument("--r", type=float)
                sp.add_argument("--phi", type=float)
            elif flag == "k0":
                sp.add_argument("--k0", type=int)
            elif flag == "k_cap":
                sp.add_argument("--k-cap", dest="k_cap", type=int)
            elif flag == "delta":
                sp.add_argument("--delta", type=float)
            elif flag == "samples":
                sp.add_argument("--samples", type=int)
            elif flag == "threads":
                sp.add_argument("--threads", type=int)
            elif flag == "steps":
                sp.add_argument("--n", dest="steps", type=int)
            elif flag == "depth":
                sp.add_argument("--N", dest="depth")
            elif flag == "level":
                sp.add_argument("--level", type=int)
            elif flag == "resolution":
                sp.add_argument("--resolution", type=int)
            elif flag == "order":
                sp.add_argument("--order", type=int)
            elif flag == "length":
                sp.add_argument("--length", type=float)
            elif flag == "rho":
                sp.add_argument("--rho", type=float)
            elif flag == "front_back":
                sp.add_argument("--front-back", dest="front_back",
                                action="store_const", const=True)
            elif flag == "fit":
                sp.add_argument("--fit", action="store_const", const=True)
            elif flag == "kind":
                sp.add_argument("--kind")
            elif flag == "input":
                sp.add_argument("--input")
        return sp

    add("validate", "samples", "seed")
    add("orbit", "point", "steps")
    add("singularities", "level", "resolution", "k0")
    add("portrait", "point", "order", "k0", "rho", "front_back")
    add("evolve", "point", "length", "steps", "k0", "k_cap")
    add("grazing-sum", "k0", "k_cap", "delta", "samples", "seed")
    add("expansion", "k0", "k_cap", "delta", "samples", "seed", "depth",
        "threads", "fit")
    add("render", "kind", "input", "k0")
    return p


def _merge_config(args: argparse.Namespace) -> dict:
    """Fill unset flags from --config, then from built-in defaults."""
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as err:
            raise _UsageError(f"cannot read config: {err}")
        except json.JSONDecodeError as err:
            raise _UsageError(f"config is not valid JSON: {err}")
        if not isinstance(cfg, dict):
            raise _UsageError("config must be a JSON object")
    opts = dict(vars(args))
    for key, val in cfg.items():
        key = key.replace("-", "_")
        if key == "command":
            continue
        if key not in DEFAULTS and key not in ("steps", "depth"):
            raise _UsageError(f"unknown config key: {key}")
        if key in opts and opts[key] is None:
            opts[key] = val
    for key, val in opts.items():
        if val is None and key in DEFAULTS:
            opts[key] = DEFAULTS[key]
    cmd = opts["command"]
    # orbit walks 20 collisions by default; evolve depth is capped at 12
    if cmd == "evolve" and args.__dict__.get("steps") is None \
            and "steps" not in cfg:
        opts["steps"] = 3
    if opts.get("format") is None:
        opts["format"] = DEFAULT_FORMAT.get(cmd, "json")
    if opts.get("out") is None:
        opts["out"] = DEFAULT_OUT.get(cmd)
    return opts


def _check_positive(opts, *keys):
    for key in keys:
        val = opts.get(key)
        if val is not None and val <= 0:
            raise _UsageError(f"--{key.replace('_', '-')} must be positive")


def _require(opts, *keys):
    for key in keys:
        if opts.get(key) is None:
            raise _UsageError(f"--{key.replace('_', '-')} is required")


def _load_table(name: str):
    if name in tables._BUILTIN:
        return tables.load_builtin(name)
    try:
        with open(name) as fh:
            spec = json.load(fh)
    except OSError as err:
        raise ValidationError(f"cannot read table spec: {err}")
    except json.JSONDecodeError as err:
        raise ValidationError(f"table spec is not valid JSON: {err}")
    return build_table(spec)


def _table_id(name: str) -> str:
    if name in tables._BUILTIN:
        return name
    return os.path.splitext(os.path.basename(name))[0]


def _json_bytes(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _write(path: str, data) -> None:
    try:
        write_atomic(path, data)
    except OSError as err:
        raise _WriteError(f"cannot write {path}: {err.strerror or err}")


def _phase_csv(rows) -> str:
    out = ["wall_id,r,phi,k"]
    for wall_id, r, phi, k in rows:
        out.append("%d,%.17g,%.17g,%d" % (wall_id, r, phi, k))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def _cmd_validate(opts) -> int:
    table = _load_table(opts["table"])
    seed = opts["seed"] if opts["seed"] is not None else VALIDATE_SEED
    table = table.with_constants(estimate_constants(
        table, samples=opts["samples"], seed=seed))
    con = table.constants
    lines = [
        f"table {_table_id(opts['table'])}: ok",
        f"ambient        {table.ambient}",
        f"walls          {len(table.walls)}",
        f"corners        {len(table.corners)}",
        f"gamma_min      {table.gamma_min:.17g}",
        f"kappa          [{con.kappa_min:.17g}, {con.kappa_max:.17g}]",
    ]
    if con.tau_max is not None:
        lines.append(f"tau_max        {con.tau_max:.17g}")
    if con.tau_max_sampled is not None:
        lines.append(f"tau_max_sample {con.tau_max_sampled:.17g}")
    if con.tau_star is not None:
        lines.append(f"tau_star       {con.tau_star:.17g}")
        lines.append(f"sector_bound   {con.sector_bound():.17g}")
    print("\n".join(lines))
    if opts["out"]:
        doc = {"table": _table_id(opts["table"]), "ambient": table.ambient,
               "walls": len(table.walls), "corners": len(table.corners),
               "gamma_min": table.gamma_min, "kappa_min": con.kappa_min,
               "kappa_max": con.kappa_max, "tau_max": con.tau_max,
               "tau_max_sampled": con.tau_max_sampled,
               "tau_star": con.tau_star, "samples": con.samples,
               "seed": seed}
        _write(opts["out"], _json_bytes(doc))
        print(f"wrote {opts['out']}")
    return 0


def _orbit_rows(table, z: PhasePoint, n: int):
    """(step, point, tau, kind, properness, label) rows; stops on events."""
    rows = [[0, z, 0.0, "start", "proper", ""]]
    cur = z
    for step in range(1, n + 1):
        try:
            res = forward(table, cur)
        except BilliardError as err:
            rows[-1][3] = "singular"
            rows[-1][5] = type(err).__name__
            break
        if len(res.images) > 1:
            rows[-1][3] = "corner"
            rows[-1][5] = "corner-split"
            break
        im = res.images[0]
        rows[-1][2] = im.tau
        if im.grazing:
            kind, properness = "grazing", "improper"
        elif any(ev.startswith("pass:") for ev in im.trail):
            kind, properness = "corner", "proper"
        else:
            kind, properness = "regular", "proper"
        rows.append([step, im.point, 0.0, kind, properness, im.label])
        if im.grazing:
            break
        cur = im.point
    return rows


def _cmd_orbit(opts) -> int:
    _require(opts, "r", "phi")
    table = _load_table(opts["table"])
    z = PhasePoint(opts["wall"], opts["r"], opts["phi"])
    rows = _orbit_rows(table, z, opts["steps"])
    if opts["format"] == "svg":
        svg = render_artifact(
            "table", table=table,
            rows=[(p.wall_id, p.r, p.phi, tau)
                  for _, p, tau, _, _, _ in rows])
        _write(opts["out"], svg)
    else:
        out = ["step,wall_id,r,phi,tau,kind,properness,branch_label"]
        for step, p, tau, kind, properness, label in rows:
            out.append("%d,%d,%.17g,%.17g,%.17g,%s,%s,%s"
                       % (step, p.wall_id, p.r, p.phi, tau, kind,
                          properness, label))
        _write(opts["out"], "\n".join(out) + "\n")
    print(f"wrote {opts['out']} ({len(rows)} collisions, "
          f"last kind {rows[-1][3]})")
    return 0


def _cmd_singularities(opts) -> int:
    table = _load_table(opts["table"])
    level = opts["level"]
    if level == 0:
        raise _UsageError("--level must be nonzero")
    curves = trace_singularity(table, level, resolution=opts["resolution"])
    rows = [(p.wall_id, p.r, p.phi, c.level)
            for c in curves for p in c.nodes]
    if opts["format"] == "svg":
        data = render_artifact("phase", table=table, rows=rows,
                               k0=opts["k0"])
    else:
        data = _phase_csv(rows)
    _write(opts["out"], data)
    print(f"wrote {opts['out']} ({len(curves)} curves, {len(rows)} points)")
    return 0


def _cmd_portrait(opts) -> int:
    _require(opts, "r", "phi")
    table = _load_table(opts["table"])
    z = PhasePoint(opts["wall"], opts["r"], opts["phi"])
    try:
        portrait = classify_sectors(sector_portrait(
            table, z, opts["order"], k0=opts["k0"], rho0=opts["rho"],
            front_back=opts["front_back"]))
    except UnstablePortrait as err:
        doc = {"aborted": str(err),
               "candidates": [[s.to_json() for s in sectors]
                              for sectors in
                              getattr(err, "decompositions", [])]}
        _write(opts["out"], _json_bytes(doc))
        print(f"wrote partial {opts['out']}", file=sys.stderr)
        raise
    doc = portrait.to_json()
    if opts["format"] == "svg":
        _write(opts["out"], render_artifact("portrait", doc=doc))
    else:
        _write(opts["out"], _json_bytes(doc))
    print(f"wrote {opts['out']} ({len(doc['sectors'])} sectors, "
          f"rho_hat {doc['rho_hat']:.3g})")
    return 0


def _component_rows(tree, n):
    rows = []
    for comp in tree.leaves(n):
        k = comp.tail_from if comp.tail else \
            (comp.itinerary[-1][2] if comp.itinerary else 0)
        for p in comp.curve.nodes:
            rows.append((p.wall_id, p.r, p.phi, k))
    return rows


def _cmd_evolve(opts) -> int:
    _require(opts, "r", "phi")
    table = _load_table(opts["table"])
    z = PhasePoint(opts["wall"], opts["r"], opts["phi"])
    n = opts["steps"]
    if not 1 <= n <= N_CAP:
        raise _UsageError(f"--n must lie in 1..{N_CAP}")
    W = seed_ucurve(table, z, opts["length"], None, k0=opts["k0"])
    try:
        tree = evolve_n(table, W, n, k0=opts["k0"], k_cap=opts["k_cap"])
    except ComponentExplosion as err:
        if err.partial is not None:
            done = len(err.partial.generations) - 1
            _write(opts["out"], _phase_csv(_component_rows(err.partial, done)))
            print(f"wrote partial {opts['out']} (depth {done})",
                  file=sys.stderr)
        raise
    if opts["format"] == "csv":
        _write(opts["out"], _phase_csv(_component_rows(tree, n)))
    elif opts["format"] == "svg":
        _write(opts["out"], render_artifact(
            "phase", table=table, rows=_component_rows(tree, n),
            k0=opts["k0"]))
    else:
        regular = tree.regular_counts()
        doc = {
            "table": _table_id(opts["table"]),
            "seed_point": {"wall_id": z.wall_id, "r": z.r, "phi": z.phi},
            "length": W.euclidean_length, "n": n,
            "k0": opts["k0"], "k_cap": opts["k_cap"],
            "components": [len(g) for g in tree.generations],
            "regular_components": regular,
            "expansion_sums": [expansion_total(tree, g)
                               for g in range(n + 1)],
            "grazing_sum": grazing_sum(tree.generations[1]),
            "degenerate_merged": tree.degenerate_merged,
        }
        _write(opts["out"], _json_bytes(doc))
    print(f"wrote {opts['out']} ({len(tree.generations[n])} leaf "
          f"components at depth {n})")
    return 0


def _cmd_grazing_sum(opts) -> int:
    _require(opts, "seed")
    table = _load_table(opts["table"])
    k0, k_cap = opts["k0"], opts["k_cap"]
    report = sup_scan(table, opts["delta"], opts["samples"], 1, k0,
                      opts["seed"], k_cap=k_cap)
    rows = [r for r in report.rows if r["flag"] != "skipped"]
    if not rows:
        raise NumericalAbort("no admissible curves could be seeded")
    values = [r["grazing_sum"] for r in rows]
    doc = {"table": _table_id(opts["table"]), "k0": k0, "k_cap": k_cap,
           "delta": opts["delta"], "samples": opts["samples"],
           "used": len(values), "seed": opts["seed"],
           "sup": max(values), "mean": sum(values) / len(values),
           "nonzero": sum(1 for v in values if v > 0.0)}
    if opts["format"] == "csv":
        out = ["sample_id,grazing_sum"]
        out.extend("%d,%.17g" % (r["sample_id"], r["grazing_sum"])
                   for r in rows)
        _write(opts["out"], "\n".join(out) + "\n")
    else:
        _write(opts["out"], _json_bytes(doc))
    print(f"wrote {opts['out']} (sup {doc['sup']:.6g} over "
          f"{doc['used']} curves)")
    return 0


def _parse_depth(raw) -> int | None:
    if raw in (None, "auto"):
        return None
    try:
        n = int(raw)
    except (TypeError, ValueError):
        raise _UsageError("--N must be an integer or 'auto'")
    if not 1 <= n <= N_CAP:
        raise _UsageError(f"--N must lie in 1..{N_CAP}")
    return n


def _cmd_expansion(opts) -> int:
    _require(opts, "seed")
    table = _load_table(opts["table"])
    depth = _parse_depth(opts["depth"])
    constants = None
    if opts["fit"]:
        constants = fit_constants(table, opts["seed"], k0=opts["k0"])
    report = sup_scan(table, opts["delta"], opts["samples"], depth,
                      opts["k0"], opts["seed"], k_cap=opts["k_cap"],
                      constants=constants, threads=opts["threads"],
                      table_id=_table_id(opts["table"]))
    if opts["format"] == "csv":
        _write(opts["out"], report.csv_text())
    else:
        _write(opts["out"], report.json_bytes())
    print(f"wrote {opts['out']} (N={report.n_steps} [{report.n_source}], "
          f"sup E_N {report.sup_e[-1]:.6g}, verdict {report.verdict})")
    return 0


def _read_csv_rows(path, columns):
    try:
        with open(path) as fh:
            lines = [l for l in fh.read().splitlines() if l]
    except OSError as err:
        raise ValidationError(f"cannot read input artifact: {err}")
    if not lines:
        raise ValidationError(f"empty input artifact: {path}")
    header = lines[0].split(",")
    try:
        idx = [header.index(c) for c in columns]
    except ValueError:
        raise ValidationError(
            f"{path}: expected columns {columns}, found {header}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(tuple(cells[i] for i in idx))
    return rows


def _cmd_render(opts) -> int:
    kind = opts["kind"]
    table = _load_table(opts["table"]) if opts["table"] else None
    if kind == "table":
        if table is None:
            raise _UsageError("--table is required for the table view")
        rows = []
        if opts["input"]:
            raw = _read_csv_rows(opts["input"],
                                 ("wall_id", "r", "phi", "tau"))
            rows = [(int(w), float(r), float(phi), float(tau))
                    for w, r, phi, tau in raw]
        svg = render_artifact("table", table=table, rows=rows)
    elif kind == "phase":
        _require(opts, "input")
        raw = _read_csv_rows(opts["input"], ("wall_id", "r", "phi", "k"))
        rows = [(int(w), float(r), float(phi), int(k))
                for w, r, phi, k in raw]
        svg = render_artifact("phase", table=table, rows=rows,
                              k0=opts["k0"])
    elif kind == "portrait":
        _require(opts, "input")
        try:
            with open(opts["input"]) as fh:
                doc = json.load(fh)
        except OSError as err:
            raise ValidationError(f"cannot read input artifact: {err}")
        except json.JSONDecodeError as err:
            raise ValidationError(f"input is not valid JSON: {err}")
        if "sectors" not in doc:
            raise ValidationError("input is not a portrait document")
        svg = render_artifact("portrait", doc=doc)
    else:
        raise UnknownKind(f"no such render kind: {kind}")
    _write(opts["out"], svg)
    print(f"wrote {opts['out']}")
    return 0


# ---------------------------------------------------------------------------
# driver

_DISPATCH = {
    "validate": _cmd_validate,
    "orbit": _cmd_orbit,
    "singularities": _cmd_singularities,
    "portrait": _cmd_portrait,
    "evolve": _cmd_evolve,
    "grazing-sum": _cmd_grazing_sum,
    "expansion": _cmd_expansion,
    "render": _cmd_render,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError(
                "a subcommand is required: " + ", ".join(COMMANDS))
        opts = _merge_config(args)
        _check_positive(opts, "k0", "k_cap", "delta", "samples",
                        "resolution", "order", "length", "rho")
        if opts.get("threads") is not None and opts["threads"] < 0:
            raise _UsageError("--threads must be >= 0")
        if opts["command"] != "render":
            _require(opts, "table")
        return _DISPATCH[opts["command"]](opts)
    except _UsageError as err:
        print(f"{PROG}: usage error: {err}", file=sys.stderr)
        return 1
    except _WriteError as err:
        print(f"{PROG}: {err}", file=sys.stderr)
        return 1
    except ValidationError as err:
        print(f"{PROG}: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except NumericalAbort as err:
        print(f"{PROG}: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except BilliardError as err:
        print(f"{PROG}: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
