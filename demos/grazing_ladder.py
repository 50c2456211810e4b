"""Push a short unstable curve across a grazing singularity.

A curve straddling a preimage of the grazing set shatters into a ladder of
H-components, one per homogeneity strip, with geometrically shrinking
lengths and quadratically growing expansion.  This script prints the ladder
and shows how the nearly-grazing part of the sum 1/Lambda responds to the
strip cutoff k0.
"""

from billexp import evolve_n, load_builtin, seed_ucurve
from billexp.bmap import PhasePoint
from billexp.ucurves import graze_anchors, grazing_sum

DELTA = 1e-4


def main():
    table = load_builtin("tri")
    anchor = graze_anchors(table)[0]
    z = PhasePoint(anchor.wall_id, anchor.r, anchor.phi)
    W = seed_ucurve(table, z, DELTA)
    print(f"seed curve: wall {z.wall_id}, r {z.r:.6f}, phi {z.phi:.6f}, "
          f"|W| = {W.euclidean_length:.2e}")

    comps = evolve_n(table, W, 1, k0=30).generations[1]
    regular = [c for c in comps if c.regular]
    ladder = sorted((c for c in comps if not c.regular and not c.tail),
                    key=lambda c: abs(c.itinerary[-1][2]))
    tails = [c for c in comps if c.tail]
    print(f"{len(comps)} one-step components: {len(regular)} regular, "
          f"{len(ladder)} in enumerated strips, {len(tails)} tail lumps")

    print("  strip      |W'|        min expansion   1/Lambda")
    if len(ladder) > 11:
        shown, skipped = ladder[:8] + ladder[-3:], len(ladder) - 11
    else:
        shown, skipped = ladder, 0
    for i, c in enumerate(shown):
        k = c.itinerary[-1][2]
        print(f"  {k:5d}  {c.curve.euclidean_length:10.3e}  "
              f"{c.min_expansion:14.1f}  {1.0 / c.min_expansion:.3e}")
        if skipped and i == 7:
            print(f"    ... {skipped} strips elided ...")
    for c in tails:
        print(f"  >={c.tail_from:3d} (lumped)              "
              f"          {c.tail_inv:.3e}")

    for k0 in (30, 60, 120):
        one_step = evolve_n(table, W, 1, k0).generations[1]
        print(f"nearly-grazing sum at k0={k0:4d}: "
              f"{grazing_sum(one_step):.6f}")
    print("doubling the cutoff should at least halve the sum.")


if __name__ == "__main__":
    main()
