import contextlib
import math

import pytest

from billexp import bmap, geometry, tables


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
    return geometry.build_table(tables.make_lens_spec())


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
