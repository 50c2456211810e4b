import contextlib
import math

import numpy as np
import pytest

from billexp import bmap, errors, geometry, tables


@contextlib.contextmanager
def kernel_calls():
    """A list that gets (the rows asked, the answer) of each call of
    ``bmap._regular_block``, the kernel of ``plain_rows``, made inside the
    with block."""
    calls = []
    kernel = bmap._regular_block

    def recorded(table, rows, *cols):
        calls.append((rows, kernel(table, rows, *cols)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bmap, "_regular_block", recorded)
        yield calls


@pytest.fixture(scope="session")
def tri():
    return tables.load_builtin("tri")


@pytest.fixture(scope="session")
def torus2():
    return tables.load_builtin("torus2")


@pytest.fixture(scope="session")
def lens():
    return tables.load_builtin("lens")


@pytest.fixture(scope="session")
def circle_oracle():
    # focusing unit circle; geometry-level oracle, dispersing check bypassed
    spec = {"ambient": "plane",
            "walls": [{"center": [0.0, 0.0], "radius": 1.0,
                       "theta_start": 0.0, "theta_end": 0.0,
                       "orientation": 1}]}
    return geometry.build_table(spec, strict=False)


def wedge_table(gamma: float, arc_span: float = 0.6):
    """Closed three-wall table with a corner of the requested angle at (0,0).

    Wall 0 ends at the origin arriving along (1, 0); wall 1 starts there
    leaving along the direction scribing the internal sector gamma.  Wall 2
    closes the boundary through the two remaining endpoints, which sit at
    equal distance from the origin.  Only the origin corner is meaningful.
    """
    # wall 0: circle center (0, -1), arrives at origin with tangent (1, 0)
    w0 = {"center": [0.0, -1.0], "radius": 1.0,
          "theta_start": math.pi / 2 + arc_span,
          "theta_end": math.pi / 2, "orientation": -1}
    # wall 1: leaves the origin along w_plus at angle pi - gamma
    ang = math.pi - gamma
    th1 = ang + math.pi / 2          # tangent (sin th, -cos th) = w_plus
    # center = origin - radial unit vector at th1
    c1 = (-math.cos(th1), -math.sin(th1))
    w1 = {"center": [c1[0], c1[1]], "radius": 1.0,
          "theta_start": th1, "theta_end": th1 - arc_span, "orientation": -1}
    # closing arc: focusing circle about the origin through both loose
    # endpoints, walked counterclockwise so it spans the open side
    p0 = _point_on(w0, "start")
    p1 = _point_on(w1, "end")
    rr = math.hypot(*p0)
    a1 = math.atan2(p1[1], p1[0])
    a0 = math.atan2(p0[1], p0[0])
    w2 = {"center": [0.0, 0.0], "radius": rr,
          "theta_start": a1, "theta_end": a0, "orientation": 1}
    t = geometry.build_table({"ambient": "plane", "walls": [w0, w1, w2]},
                             strict=False)
    assert math.isclose(t.corners[0].gamma, gamma, abs_tol=1e-9) or \
        any(math.isclose(c.gamma, gamma, abs_tol=1e-9) for c in t.corners)
    return t


def _point_on(ws, end):
    th = ws["theta_end"] if end == "end" else ws["theta_start"]
    return (ws["center"][0] + ws["radius"] * math.cos(th),
            ws["center"][1] + ws["radius"] * math.sin(th))


@pytest.fixture(scope="session")
def split_circle():
    """Disk scatterer whose boundary is artificially broken into two arcs;
    nothing encloses it, so the strict checks are bypassed."""
    spec = {"ambient": "plane",
            "walls": [
                {"center": [0.0, 0.0], "radius": 1.0, "theta_start": 0.0,
                 "theta_end": math.pi, "orientation": -1},
                {"center": [0.0, 0.0], "radius": 1.0, "theta_start": math.pi,
                 "theta_end": 0.0, "orientation": -1},
            ]}
    return geometry.build_table(spec, strict=False)


# ---------------------------------------------------------------------------
# corners and diameter one distance at a time: geometry's code as it stood
# while each distance was its own scalar np.hypot call

def _scalar_dist(p, q) -> float:
    return float(np.hypot(p[0] - q[0], p[1] - q[1]))


def scalar_build_corners(walls, strict):
    """``geometry._build_corners``, each endpoint pair matched by its own
    distance."""
    open_walls = [w for w in walls if not w.closed]
    starts = {w.wall_id: w.frame_at(0.0)[0] for w in open_walls}
    ends = {w.wall_id: w.frame_at(w.length)[0] for w in open_walls}
    corners = []
    at_end, at_start = [None] * len(walls), [None] * len(walls)
    for i, e in ends.items():
        matches = [j for j, s in starts.items()
                   if _scalar_dist(e, s) <= geometry.EPS_JOIN]
        end_matches = [j for j, e2 in ends.items()
                       if j != i and _scalar_dist(e, e2) <= geometry.EPS_JOIN]
        if end_matches:
            raise errors.OpenBoundary(
                f"wall {i} end meets wall {end_matches[0]} end; traversal "
                "directions are inconsistent")
        if not matches:
            raise errors.OpenBoundary(
                f"wall {i} end point is not joined to any wall start")
        if len(matches) > 1:
            raise errors.NonSimpleCorner(
                f"{len(matches) + 1} walls meet at wall {i} end")
        j = matches[0]
        _, _, w_minus = walls[i].frame_at(walls[i].length)
        _, _, w_plus = walls[j].frame_at(0.0)
        gamma = geometry.corner_angle(w_minus, w_plus)
        if strict and (gamma <= geometry.GAMMA_TOL
                       or gamma >= geometry.TWO_PI - geometry.GAMMA_TOL):
            raise errors.CuspDetected(
                f"corner between walls {i} and {j}: gamma = {gamma:.3e}")
        s = starts[j]
        cid = len(corners)
        corners.append(geometry.Corner(
            corner_id=cid, position=(0.5 * (e[0] + s[0]), 0.5 * (e[1] + s[1])),
            left_wall_id=i, right_wall_id=j, gamma=float(gamma),
            kind=geometry._classify_gamma(gamma),
            w_minus=(float(w_minus[0]), float(w_minus[1])),
            w_plus=(float(w_plus[0]), float(w_plus[1]))))
        at_end[i] = at_start[j] = cid
    for j in starts:
        if at_start[j] is None:
            raise errors.OpenBoundary(
                f"wall {j} start point is not joined to any wall end")
    return tuple(corners), tuple(at_end), tuple(at_start)


def scalar_diameter(walls, corners) -> float:
    """``geometry._exact_diameter``, each candidate distance its own call."""
    pts = [c.position for c in corners]
    for w in walls:
        if not w.closed:
            pts.append(w.frame_at(0.0)[0])
            pts.append(w.frame_at(w.length)[0])
    best = max([0.0] + [_scalar_dist(p, q) for p in pts for q in pts])
    for w in walls:
        c = w.center
        for p in pts:
            dx, dy = c[0] - p[0], c[1] - p[1]
            nd = _scalar_dist(c, p)
            if nd >= 1e-15 and w.contains_angle(math.atan2(dy, dx)):
                q = (c[0] + w.radius * dx / nd, c[1] + w.radius * dy / nd)
                best = max(best, _scalar_dist(q, p))
    for wa in walls:
        for wb in walls:
            if wb.wall_id < wa.wall_id:
                continue
            ca, cb = wa.center, wb.center
            if wa is wb:
                if wa.span >= math.pi:
                    best = max(best, 2.0 * wa.radius)
                continue
            nd = _scalar_dist(cb, ca)
            if nd < 1e-15:
                continue
            ux, uy = (cb[0] - ca[0]) / nd, (cb[1] - ca[1]) / nd
            pa = (ca[0] - wa.radius * ux, ca[1] - wa.radius * uy)
            qb = (cb[0] + wb.radius * ux, cb[1] + wb.radius * uy)
            if wa.contains_angle(math.atan2(-uy, -ux)) and \
               wb.contains_angle(math.atan2(uy, ux)):
                best = max(best, _scalar_dist(qb, pa))
    return best


def corners_and_diameter(build_corners, diameter, walls, strict):
    """(corners, the diameter's float.hex) of walls, or the error's type
    and message, by the given functions."""
    try:
        built = build_corners(walls, strict)
    except errors.BilliardError as err:
        return type(err), str(err)
    return built, diameter(walls, built[0]).hex()
