"""Straight-line flight and the first collision along it.

The collision solver works on circles: a flight hits wall ``w`` where the ray
meets the wall's circle arriving against the inward normal.  Tangential hits
(incidence within EPS_TAN of pi/2) are flagged grazing; hits within EPS_CORNER
arclength of a wall endpoint are corner events, classified proper or improper
by the incoming velocity.  How a flight continues through a corner (one image
per wall it presses into, plus the fly-by of an improper hit) is resolved by
``bmap.forward``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import EscapedDomain, SectorBoundary
from .geometry import (EPS_CORNER, TWO_PI, BilliardTable, Corner,
                       corner_angle)

EPS_TAN = 1e-9       # rad; tangency / sector-boundary tolerance
TAU_FLOOR = 1e-12    # departure exclusion window for root acceptance
_MAX_TORUS_RING = 64


class Ray(NamedTuple):
    origin: tuple[float, float]
    direction: tuple[float, float]

    def at(self, t: float) -> tuple[float, float]:
        return (self.origin[0] + t * self.direction[0],
                self.origin[1] + t * self.direction[1])


class CollisionOutcome(NamedTuple):
    kind: str              # regular | grazing | corner
    tau: float
    point: tuple[float, float]
    wall_id: int | None = None
    r: float | None = None
    normal_component: float | None = None     # d . n at the hit
    corner_id: int | None = None
    properness: str | None = None             # proper | improper (corners only)


# ---------------------------------------------------------------------------
# first collision

def _scan_cell(ox, oy, dx, dy, walls, ci, cj, best):
    """Nearest admissible hit on the walls translated by lattice cell (ci, cj).

    ``best`` is the (t, wall, ddn, cell, theta) to beat, or None; returns the
    improved one.  Roots of the ray-circle equation use the numerically
    stable quadratic form and must arrive against the inward normal; the
    arrival condition d.n <= eps accepts the grazing double root.
    """
    for w in walls:
        cx = w.center[0] + ci
        cy = w.center[1] + cj
        R = w.radius
        ux, uy = ox - cx, oy - cy
        b = dx * ux + dy * uy
        c0 = ux * ux + uy * uy - R * R
        disc = b * b - c0
        if disc < 0.0:
            continue
        sq = math.sqrt(disc)
        if b >= 0.0:
            q = -(b + sq)
        else:
            q = -(b - sq)
        for t in ((q, c0 / q) if q != 0.0 else (0.0,)):
            if t <= TAU_FLOOR:
                continue
            ddn = -w.orientation * (b + t) / R
            if ddn > EPS_TAN:
                continue
            if best is not None and t >= best[0]:
                continue
            px, py = ox + t * dx, oy + t * dy
            theta = math.atan2(py - cy, px - cx)
            if not w.contains_angle(theta, slack=EPS_CORNER / R):
                continue
            best = (t, w, ddn, (ci, cj), theta)
    return best


def _cells(ring: int):
    if ring == 0:
        yield (0, 0)
        return
    for i in range(-ring, ring + 1):
        yield (i, ring)
        yield (i, -ring)
    for j in range(-ring + 1, ring):
        yield (ring, j)
        yield (-ring, j)


def first_collision(table: BilliardTable, ray: Ray) -> CollisionOutcome:
    """Nearest collision along the ray, or EscapedDomain.

    On the torus the scatterer lattice is searched ring by ring until no
    farther cell can beat the best hit.
    """
    ox, oy = ray.origin
    dx, dy = ray.direction
    walls = table.walls
    if table.ambient == "plane":
        best = _scan_cell(ox, oy, dx, dy, walls, 0, 0, None)
    else:
        best = None
        for ring in range(_MAX_TORUS_RING):
            # a cell at this ring is at least ring - 1 away from the origin
            if best is not None and ring > 1 \
                    and (ring - 1.0) - table.max_radius > best[0]:
                break
            for ci, cj in _cells(ring):
                best = _scan_cell(ox, oy, dx, dy, walls, ci, cj, best)
    if best is None:
        raise EscapedDomain("ray met no wall")

    t, w, ddn, cell, theta = best
    px, py = ox + t * dx, oy + t * dy
    r = w.r_from_angle(theta)

    corner_id = table.corner_in_band(w.wall_id, r)
    if corner_id is not None:
        corner = table.corners[corner_id]
        incoming = (dx, dy)
        try:
            properness = classify_collision(corner, incoming)
        except SectorBoundary:
            properness = "improper"   # tangent arrivals behave like grazing
        pos = corner.position if table.ambient == "plane" else (
            corner.position[0] + cell[0], corner.position[1] + cell[1])
        return CollisionOutcome("corner", t, pos, w.wall_id, r, ddn,
                                corner_id, properness)
    kind = "grazing" if abs(ddn) <= EPS_TAN else "regular"
    return CollisionOutcome(kind, t, (px, py), w.wall_id, r, ddn)


# ---------------------------------------------------------------------------
# corner classification

def classify_collision(corner: Corner, incoming) -> str:
    """'proper' when the incoming velocity lies in the open external sector.

    The internal sector is swept clockwise from -w_minus to w_plus and has
    angle gamma; arrivals within EPS_TAN of either boundary raise
    SectorBoundary so the caller can pick the branch set explicitly.
    """
    alpha = corner_angle(corner.w_minus, incoming)
    g = corner.gamma
    if alpha <= EPS_TAN or alpha >= TWO_PI - EPS_TAN or abs(alpha - g) <= EPS_TAN:
        raise SectorBoundary(
            f"incoming within {EPS_TAN} of a sector boundary at corner "
            f"{corner.corner_id}")
    return "improper" if alpha < g else "proper"
