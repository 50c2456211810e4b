"""Bounce a few orbits around the built-in tables and render them.

Writes demos/out/{tri,torus2}_orbit.svg, each orbit walk drawn as
``bmap.orbit`` returns it (a dot per collision, and from each collision
the flight that reaches the next), and a phase-space view of a longer
triangle walk, one dot per collision colored by its homogeneity strip H_k,
|k| >= PHASE_K0, and gray outside the strips.  Its 401 collisions come no
closer to grazing than pi/2 - |phi| = 0.059, so at the usual k0 = 30 (strips
below 1/900) none would lie in a strip; at k0 = 2 (strips below 1/4, the
dotted lines) 14 do.
"""

import os

from billexp import PhasePoint, load_builtin, strip_index
from billexp.bmap import orbit
from billexp.render import phase_svg, table_svg
from billexp.serialize import write_atomic

OUT = os.path.join(os.path.dirname(__file__), "out")
PHASE_K0 = 2            # first strip of the phase view's coloring

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
    dots = [(strip_index(p.phi, PHASE_K0), [p]) for p in points]
    path = os.path.join(OUT, "tri_phase.svg")
    write_atomic(path, phase_svg(dots, table, k0=PHASE_K0))
    deep = sum(1 for k, _ in dots if k != 0)
    print(f"tri phase: {len(dots)} collisions, {deep} in a homogeneity "
          f"strip H_k, |k| >= {PHASE_K0} -> {path}")


if __name__ == "__main__":
    main()
