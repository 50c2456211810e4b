"""Bounce a few orbits around the built-in tables and render them.

Writes demos/out/{tri,torus2}_orbit.svg (configuration-space view with the
trajectory overlay) and a phase-space scatter for the triangle run.
"""

import os

from billexp import PhasePoint, load_builtin, strip_index
from billexp.bmap import orbit
from billexp.render import phase_svg, table_svg
from billexp.serialize import write_atomic

OUT = os.path.join(os.path.dirname(__file__), "out")

START = {
    "tri": PhasePoint(0, 0.83, 0.19),
    "torus2": PhasePoint(0, 0.40, -0.31),
}


def run_orbit(table, z, steps):
    """(wall_id, r, phi, tau in) rows of the orbit up to a corner or graze."""
    walk = orbit(table, z, steps)
    return [(z.wall_id, z.r, z.phi, 0.0)] + [
        (im.point.wall_id, im.point.r, im.point.phi, im.tau)
        for im in walk.images]


def main():
    os.makedirs(OUT, exist_ok=True)
    for name in ("tri", "torus2"):
        table = load_builtin(name)
        rows = run_orbit(table, START[name], 60)
        svg = table_svg(table, rows)
        path = os.path.join(OUT, f"{name}_orbit.svg")
        write_atomic(path, svg)
        taus = [t for _, _, _, t in rows[1:]]
        print(f"{name}: {len(rows) - 1} flights, "
              f"mean free path {sum(taus) / len(taus):.4f}, "
              f"longest {max(taus):.4f} -> {path}")

    # phase-space view of the same triangle orbit, colored by strip index
    table = load_builtin("tri")
    rows = run_orbit(table, START["tri"], 400)
    phase = [(w, r, phi, strip_index(phi)) for w, r, phi, _ in rows]
    svg = phase_svg(phase, table, k0=30)
    path = os.path.join(OUT, "tri_phase.svg")
    write_atomic(path, svg)
    deep = sum(1 for _, _, _, k in phase if k != 0)
    print(f"tri phase: {len(phase)} collisions, {deep} in a homogeneity "
          f"strip -> {path}")


if __name__ == "__main__":
    main()
