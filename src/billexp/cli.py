"""Command-line front end.

Subcommands:

* ``validate``     -- build a table from its spec, run the corridor check,
  sample the geometric constants, print them.
* ``orbit``        -- iterate the collision map from a phase point; CSV dump.
* ``singularities``-- trace the level-l singularity curves; phase CSV.
* ``portrait``     -- sector portrait at a phase point; JSON.
* ``evolve``       -- evolve one curve n steps; component tree summary, or
  phase CSV or SVG of the leaf components.
* ``grazing-sum``  -- sampled supremum of the one-step nearly-grazing sum,
  over the same per-sample curves as ``expansion`` at the same seed.
* ``expansion``    -- the full expansion-sum scan with auto depth selection.
* ``render``       -- SVG view of a previously written artifact.

Exit codes: 0 success; 1 usage error, including a non-finite or
out-of-range numeric flag (``--delta`` and ``--length`` lie in (0, 1e-2],
counts are positive) and an unwritable ``--out``; 2 validation failure (bad
table, bad input artifact, a phase point off the table); 3 numerical abort.
Aborts write whatever partial artifact exists before exiting.  Commands that
sample require an explicit --seed; there is no wall-clock fallback, the same
invocation always rebuilds the same bytes.  Output files are written
atomically (temp file + rename) by ``serialize``.  ``FORMATS`` lists the
artifact formats of each command; any other ``--format`` is a usage error.

A ``--config run.json`` file may supply any long flag (dashes as
underscores); its values pass the same conversions and checks as the flags.
Explicit flags win over the file, the file wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import tables
# cli does not call forward; the name stays bound because
# perfbench/test_perfbench.py checks that the tracer wraps it here too
from .bmap import HALF_PI, PhasePoint, forward, orbit  # noqa: F401
from .errors import (
    BilliardError,
    ComponentExplosion,
    NumericalAbort,
    OutOfRange,
    UnknownKind,
    UnstablePortrait,
    ValidationError,
)
from .geometry import build_table, estimate_constants
from .render import render_artifact
from .serialize import csv_text, json_bytes, write_atomic
from .singularities import classify_sectors, sector_portrait, trace_singularity
from .ucurves import (
    CSV_HEADER,
    MAX_LENGTH,
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

# the artifact formats each command writes, its default first; the default
# --out is <command>.<format>, except that validate writes only to an --out
FORMATS = {
    "validate": ("json",), "orbit": ("csv", "svg"),
    "singularities": ("csv", "svg"), "portrait": ("json", "svg"),
    "evolve": ("json", "csv", "svg"), "grazing-sum": ("json", "csv"),
    "expansion": ("json", "csv"), "render": ("svg",),
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


def _finite(text: str) -> float:
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return val


_SWITCH = {"action": "store_const", "const": True, "default": False}

# option dest -> (flag, argparse keywords); options without a default are
# None when unset
_FLAGS = {
    "config": ("--config", {}),
    "table": ("--table", {}),
    "out": ("--out", {}),
    "format": ("--format", {}),
    "seed": ("--seed", {"type": int}),
    "wall": ("--wall", {"type": int, "default": 0}),
    "r": ("--r", {"type": _finite}),
    "phi": ("--phi", {"type": _finite}),
    "k0": ("--k0", {"type": int, "default": 30}),
    "k_cap": ("--k-cap", {"type": int, "default": 10_000}),
    "delta": ("--delta", {"type": _finite, "default": 1e-4}),
    "samples": ("--samples", {"type": int, "default": 1000}),
    "threads": ("--threads", {"type": int, "default": 0}),
    "steps": ("--n", {"type": int, "default": 20}),
    "depth": ("--N", {"default": "auto"}),
    "level": ("--level", {"type": int, "default": -1}),
    "resolution": ("--resolution", {"type": int, "default": 400}),
    "order": ("--order", {"type": int, "default": 1}),
    "length": ("--length", {"type": _finite, "default": 1e-4}),
    "rho": ("--rho", {"type": _finite}),
    "front_back": ("--front-back", _SWITCH),
    "fit": ("--fit", _SWITCH),
    "kind": ("--kind", {"default": "table"}),
    "input": ("--input", {}),
}

_POINT = ("wall", "r", "phi")
_COMMON = ("config", "table", "out", "format")
_COMMAND_FLAGS = {
    "validate": ("samples", "seed"),
    "orbit": (*_POINT, "steps"),
    "singularities": ("level", "resolution", "k0"),
    "portrait": (*_POINT, "order", "k0", "rho", "front_back"),
    "evolve": (*_POINT, "length", "steps", "k0", "k_cap"),
    "grazing-sum": ("k0", "k_cap", "delta", "samples", "seed"),
    "expansion": ("k0", "k_cap", "delta", "samples", "seed", "depth",
                  "threads", "fit"),
    "render": ("kind", "input", "k0"),
}


def _build_parser() -> _Parser:
    p = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command")
    for name in COMMANDS:
        sp = sub.add_parser(name)
        for dest in _COMMON + _COMMAND_FLAGS[name]:
            flag, kw = _FLAGS[dest]
            if dest == "format":
                kw = {"choices": FORMATS[name], "default": FORMATS[name][0]}
            sp.add_argument(flag, dest=dest, **kw)
    # orbit walks 20 collisions by default; evolve depth is capped at 12
    sub.choices["evolve"].set_defaults(steps=3)
    return p


def _config_argv(command: str, path: str) -> list[str]:
    """The entries of a --config file, spelled as the command's flags."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise _UsageError(f"cannot read config: {err}")
    except json.JSONDecodeError as err:
        raise _UsageError(f"config is not valid JSON: {err}")
    if not isinstance(cfg, dict):
        raise _UsageError("config must be a JSON object")
    argv = []
    for key, val in cfg.items():
        key = key.replace("-", "_")
        if key in ("command", "config"):
            continue
        if key not in _FLAGS:
            raise _UsageError(f"unknown config key: {key}")
        # keys of other commands are ignored, so one file can serve several
        if key not in _COMMON + _COMMAND_FLAGS[command] or val is None:
            continue
        flag, kw = _FLAGS[key]
        if kw is _SWITCH:
            if not isinstance(val, bool):
                raise _UsageError(f"config key {key} must be true or false")
            argv += [flag] if val else []
            continue
        want = (int, float) if "type" in kw else (str, int, float)
        if isinstance(val, bool) or not isinstance(val, want):
            raise _UsageError(f"config key {key} must be a " + (
                "number" if "type" in kw else "string or number"))
        argv.append(f"{flag}={val}")
    return argv


def _parse(argv: list[str]) -> dict:
    """Options from argv, then from --config, then the flags' defaults.

    Config entries are parsed as flags placed before the explicit ones, so
    they pass the same conversions and checks, and an explicit flag wins.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise _UsageError("a subcommand is required: " + ", ".join(COMMANDS))
    if args.config:
        args = parser.parse_args([args.command,
                                  *_config_argv(args.command, args.config),
                                  *argv[1:]])
    if args.out is None and args.command != "validate":
        args.out = f"{args.command}.{args.format}"
    return vars(args)


def _check_positive(opts, *keys):
    for key in keys:
        val = opts.get(key)
        if val is not None and val <= 0:
            raise _UsageError(f"{_FLAGS[key][0]} must be positive")


def _check_length(opts, *keys):
    for key in keys:
        val = opts.get(key)
        if val is not None and not 0.0 < val <= MAX_LENGTH:
            raise _UsageError(
                f"{_FLAGS[key][0]} must lie in (0, {MAX_LENGTH:g}]")


def _require(opts, *keys):
    for key in keys:
        if opts.get(key) is None:
            raise _UsageError(f"{_FLAGS[key][0]} is required")


def _load_table(name: str):
    if name in tables.BUILTIN_TABLES:
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
    if name in tables.BUILTIN_TABLES:
        return name
    return os.path.splitext(os.path.basename(name))[0]


def _write(path: str, data) -> None:
    try:
        write_atomic(path, data)
    except OSError as err:
        raise _WriteError(f"cannot write {path}: {err.strerror or err}")


def _phase_csv(rows) -> str:
    return csv_text(("wall_id", "r", "phi", "k"), rows)


def _phase_point(table, opts) -> PhasePoint:
    _require(opts, "r", "phi")
    wall, phi = opts["wall"], opts["phi"]
    if not 0 <= wall < len(table.walls):
        raise OutOfRange(f"--wall {wall}: the table has walls "
                         f"0..{len(table.walls) - 1}")
    if abs(phi) > HALF_PI:
        raise OutOfRange(f"--phi {phi} outside [-pi/2, pi/2]")
    return PhasePoint(wall, opts["r"], phi)


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
        _write(opts["out"], json_bytes(doc))
        print(f"wrote {opts['out']}")
    return 0


def _orbit_rows(table, z: PhasePoint, n: int):
    """(step, point, tau, kind, properness, label) rows; stops on events.

    A row's tau is the flight leaving its point; the last row marks why the
    walk stopped when that was not the step count or a grazing hit.
    """
    walk = orbit(table, z, n)
    rows = [[0, z, 0.0, "start", "proper", ""]]
    for step, im in enumerate(walk.images, 1):
        rows[-1][2] = im.tau
        if im.grazing:
            kind, properness = "grazing", "improper"
        elif any(ev.startswith("pass:") for ev in im.trail):
            kind, properness = "corner", "proper"
        else:
            kind, properness = "regular", "proper"
        rows.append([step, im.point, 0.0, kind, properness, im.label])
    if walk.status == "singular":
        rows[-1][3], rows[-1][5] = "singular", walk.error
    elif walk.status == "branched":
        rows[-1][3], rows[-1][5] = "corner", "corner-split"
    return rows


def _cmd_orbit(opts) -> int:
    table = _load_table(opts["table"])
    z = _phase_point(table, opts)
    rows = _orbit_rows(table, z, opts["steps"])
    if opts["format"] == "svg":
        svg = render_artifact(
            "table", table=table,
            rows=[(p.wall_id, p.r, p.phi, tau)
                  for _, p, tau, _, _, _ in rows])
        _write(opts["out"], svg)
    else:
        _write(opts["out"], csv_text(
            ("step", "wall_id", "r", "phi", "tau", "kind", "properness",
             "branch_label"),
            ((step, p.wall_id, p.r, p.phi, tau, kind, properness, label)
             for step, p, tau, kind, properness, label in rows)))
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
    table = _load_table(opts["table"])
    z = _phase_point(table, opts)
    try:
        portrait = classify_sectors(sector_portrait(
            table, z, opts["order"], k0=opts["k0"], rho0=opts["rho"],
            front_back=opts["front_back"]))
    except UnstablePortrait as err:
        doc = {"aborted": str(err),
               "candidates": [[s.to_json() for s in sectors]
                              for sectors in
                              getattr(err, "decompositions", [])]}
        _write(opts["out"], json_bytes(doc))
        print(f"wrote partial {opts['out']}", file=sys.stderr)
        raise
    doc = portrait.to_json()
    if opts["format"] == "svg":
        _write(opts["out"], render_artifact("portrait", doc=doc))
    else:
        _write(opts["out"], json_bytes(doc))
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


def _evolve_artifact(opts, table, z, tree, n, aborted=None):
    """evolve's artifact in --format for depths 0..n, the last of tree."""
    if opts["format"] == "csv":
        return _phase_csv(_component_rows(tree, n))
    if opts["format"] == "svg":
        return render_artifact("phase", table=table,
                               rows=_component_rows(tree, n), k0=opts["k0"])
    doc = {
        "table": _table_id(opts["table"]),
        "seed_point": {"wall_id": z.wall_id, "r": z.r, "phi": z.phi},
        "length": tree.root.euclidean_length, "n": n,
        "k0": opts["k0"], "k_cap": opts["k_cap"],
        "components": [len(g) for g in tree.generations],
        "regular_components": tree.regular_counts(),
        "expansion_sums": [expansion_total(tree, g) for g in range(n + 1)],
        "grazing_sum": grazing_sum(tree.generations[1]),
        "degenerate_merged": tree.degenerate_merged,
    }
    if aborted is not None:
        doc["aborted"] = aborted
    return json_bytes(doc)


def _cmd_evolve(opts) -> int:
    table = _load_table(opts["table"])
    z = _phase_point(table, opts)
    n = opts["steps"]
    if not 1 <= n <= N_CAP:
        raise _UsageError(f"--n must lie in 1..{N_CAP}")
    W = seed_ucurve(table, z, opts["length"], None, k0=opts["k0"])
    try:
        tree = evolve_n(table, W, n, k0=opts["k0"], k_cap=opts["k_cap"])
    except ComponentExplosion as err:
        # the partial tree ends with the generation cut short at the cap
        done = len(err.partial.generations) - 1
        _write(opts["out"], _evolve_artifact(opts, table, z, err.partial, done,
                                             aborted=str(err)))
        print(f"wrote partial {opts['out']} (depth {done})", file=sys.stderr)
        raise
    _write(opts["out"], _evolve_artifact(opts, table, z, tree, n))
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
        _write(opts["out"], csv_text(
            ("sample_id", "grazing_sum"),
            ((r["sample_id"], r["grazing_sum"]) for r in rows)))
    else:
        _write(opts["out"], json_bytes(doc))
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
        _write(opts["out"], csv_text(CSV_HEADER, report.csv_rows()))
    else:
        _write(opts["out"], json_bytes(report.to_json()))
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
    try:
        opts = _parse(sys.argv[1:] if argv is None else list(argv))
        _check_positive(opts, "k0", "k_cap", "samples", "resolution",
                        "order", "rho")
        _check_length(opts, "delta", "length")
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
