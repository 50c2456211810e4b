"""Sector structure around singularity junctions of the triangle table.

Finds points where several level -1 singularity branches meet, prints the
order-1 and order-2 sector decomposition at the first junction, checks the
active-quadrant conservation rule there, and renders the portrait.
"""

import os

from billexp import (
    PhasePoint,
    active_sector_conservation,
    classify_sectors,
    find_multiple_points,
    load_builtin,
    sector_portrait,
)
from billexp.render import portrait_svg
from billexp.serialize import json_bytes, write_atomic

OUT = os.path.join(os.path.dirname(__file__), "out")


def describe(portrait):
    for s in portrait.sectors:
        width = s.theta_hi - s.theta_lo
        tags = []
        if s.regular:
            tags.append("regular")
        else:
            tags.append("nearly-grazing")
        if s.active:
            tags.append("active")
        if s.wall_type != "none":
            tags.append(f"type {s.wall_type}")
        itin = " -> ".join(":".join(map(str, step)) for step in s.itinerary) \
            if s.itinerary else "(none)"
        print(f"   [{s.theta_lo:+.3f}, {s.theta_hi:+.3f}] "
              f"width {width:.3f}  {', '.join(tags):24s} {itin}")


def main():
    os.makedirs(OUT, exist_ok=True)
    table = load_builtin("tri")
    junctions = find_multiple_points(table)
    print(f"{len(junctions)} junction points on the level -1 curves")

    z = PhasePoint(junctions[2].wall_id, junctions[2].r, junctions[2].phi)
    print(f"center: wall {z.wall_id}, r {z.r:.6f}, phi {z.phi:.6f}")
    for order in (1, 2):
        portrait = classify_sectors(sector_portrait(table, z, order))
        print(f"order {order}: {len(portrait.sectors)} sectors "
              f"(stable radius {portrait.rho_hat:.2e})")
        describe(portrait)

    verdict = active_sector_conservation(table, z)
    print("active-quadrant expander counts:", verdict.counts,
          "->", "pass" if verdict.passed else "FAIL")

    doc = classify_sectors(sector_portrait(table, z, 1)).to_json()
    write_atomic(os.path.join(OUT, "junction_portrait.json"), json_bytes(doc))
    path = os.path.join(OUT, "junction_portrait.svg")
    write_atomic(path, portrait_svg(doc))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
