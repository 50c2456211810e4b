"""Bounce a few orbits around the built-in tables and render them.

Writes demos/out/{tri,torus2}_orbit.svg, each orbit walk drawn as
``bmap.orbit`` returns it (a dot per collision, and from each collision
the flight that reaches the next), and a phase-space view of a longer
triangle walk, one dot per collision colored by its homogeneity strip.
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


def main():
    os.makedirs(OUT, exist_ok=True)
    for name in ("tri", "torus2"):
        table = load_builtin(name)
        walk = orbit(table, START[name], 60)
        path = os.path.join(OUT, f"{name}_orbit.svg")
        write_atomic(path, table_svg(table, walk))
        taus = [im.tau for im in walk.images]
        print(f"{name}: {len(taus)} flights, "
              f"mean free path {sum(taus) / len(taus):.4f}, "
              f"longest {max(taus):.4f} -> {path}")

    # phase-space view of the same triangle orbit, colored by strip index
    table = load_builtin("tri")
    walk = orbit(table, START["tri"], 400)
    points = [walk.start] + [im.point for im in walk.images]
    dots = [(strip_index(p.phi), [p]) for p in points]
    path = os.path.join(OUT, "tri_phase.svg")
    write_atomic(path, phase_svg(dots, table, k0=30))
    deep = sum(1 for k, _ in dots if k != 0)
    print(f"tri phase: {len(dots)} collisions, {deep} in a homogeneity "
          f"strip -> {path}")


if __name__ == "__main__":
    main()
