"""Built-in table fixtures.

``tri``: a side-2 equilateral triangle whose sides are replaced by radius-3
arcs bulging into the domain (arc centers sit outside, beyond each side on its
perpendicular bisector, at distance 2*sqrt(2) from the midpoint so the arcs
pass through the vertices).  Three equal acute corners; every midpoint normal
runs through the opposite vertex.

``torus2``: two disks on the unit torus, radii 0.44 and 0.17, placed so every
direction is blocked (finite horizon) while the disks stay disjoint.

``lens``: the tri domain scaled by 3 containing a lens-shaped scatterer
bounded by two orthogonally crossing radius-0.5 arcs; its two tips are obtuse
corners with sector angle 3*pi/2, giving improper collisions and fly-bys.
"""

from __future__ import annotations

import math

from .geometry import BilliardTable, build_table

SQRT3 = math.sqrt(3.0)
_BULGE = 2.0 * math.sqrt(2.0)   # center offset making a radius-3 arc hit both vertices
_TRI_VERTS = ((-1.0, 0.0), (1.0, 0.0), (0.0, SQRT3))   # B, C, A counterclockwise


def _arc_between(p, q, scale=1.0):
    """Wall dict for the inward-bulging arc from p to q (interior on the left)."""
    px, py = p[0] * scale, p[1] * scale
    qx, qy = q[0] * scale, q[1] * scale
    mx, my = 0.5 * (px + qx), 0.5 * (py + qy)
    ex, ey = qx - px, qy - py
    L = math.hypot(ex, ey)
    # outward normal of the chord: interior is left of p->q
    ox, oy = ey / L, -ex / L
    cx, cy = mx + _BULGE * scale * ox, my + _BULGE * scale * oy
    return {
        "center": [cx, cy],
        "radius": 3.0 * scale,
        "theta_start": math.atan2(py - cy, px - cx),
        "theta_end": math.atan2(qy - cy, qx - cx),
        "orientation": -1,
    }


def make_tri_spec() -> dict:
    b, c, a = _TRI_VERTS
    return {"ambient": "plane",
            "walls": [_arc_between(b, c), _arc_between(c, a),
                      _arc_between(a, b)]}


def make_torus2_spec() -> dict:
    disk = {"theta_start": 0.0, "theta_end": 0.0, "orientation": -1}
    return {"ambient": "torus",
            "walls": [dict(disk, center=[0.0, 0.0], radius=0.44),
                      dict(disk, center=[0.5, 0.5], radius=0.17)]}


def make_lens_spec() -> dict:
    """Scaled tri container plus an off-center lens scatterer with obtuse tips."""
    b, c, a = _TRI_VERTS
    walls = [_arc_between(b, c, 3.0), _arc_between(c, a, 3.0),
             _arc_between(a, b, 3.0)]
    # orthogonally crossing circles: center distance^2 = r1^2 + r2^2
    half = math.sqrt(2.0) / 4.0
    x0, y0 = 0.04, SQRT3 + 0.03
    qpi = math.pi / 4.0
    walls.append({"center": [x0 - half, y0], "radius": 0.5,
                  "theta_start": qpi, "theta_end": -qpi, "orientation": -1})
    walls.append({"center": [x0 + half, y0], "radius": 0.5,
                  "theta_start": -3.0 * qpi, "theta_end": 3.0 * qpi,
                  "orientation": -1})
    return {"ambient": "plane", "walls": walls}


BUILTIN_TABLES = {"tri": make_tri_spec, "torus2": make_torus2_spec,
                  "lens": make_lens_spec}


def load_builtin(name: str) -> BilliardTable:
    if name not in BUILTIN_TABLES:
        raise KeyError(f"no built-in table {name!r}")
    return build_table(BUILTIN_TABLES[name]())
