import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from billexp import bmap, geometry, serialize, tables
from billexp.errors import (
    CuspDetected,
    NonDispersing,
    NonSimpleCorner,
    OpenBoundary,
    OutOfRange,
    UnboundedHorizon,
    ValidationError,
)
from billexp.geometry import EPS_CORNER, build_table
from conftest import (corners_and_diameter, scalar_build_corners,
                      scalar_diameter, wedge_table)

TWO_PI = 2.0 * math.pi


def rotate_spec(spec, ang, shift):
    ca, sa = math.cos(ang), math.sin(ang)
    out = {"ambient": spec["ambient"], "walls": []}
    for w in spec["walls"]:
        x, y = w["center"]
        out["walls"].append({
            "center": [ca * x - sa * y + shift[0], sa * x + ca * y + shift[1]],
            "radius": w["radius"],
            "theta_start": w["theta_start"] + ang,
            "theta_end": w["theta_end"] + ang,
            "orientation": w["orientation"],
        })
    return out


# ---------------------------------------------------------------------------
# arc parameterization

def test_chart_frame_basic(circle_oracle):
    p, n, t = circle_oracle.walls[0].chart_frame(0.0)
    assert np.allclose(p, [1.0, 0.0], atol=1e-15)
    # focusing circle: interior is the disk, normal points at the center
    assert np.allclose(n, [-1.0, 0.0], atol=1e-15)
    p2, _, _ = circle_oracle.walls[0].chart_frame(circle_oracle.walls[0].length)
    assert np.allclose(p, p2, atol=1e-12)


def test_frames_orthonormal_on_arc(tri):
    rng = np.random.default_rng(5)
    for _ in range(300):
        w = tri.walls[rng.integers(len(tri.walls))]
        r = rng.random() * w.length
        p, n, t = map(np.array, w.chart_frame(r))
        assert abs(np.dot(n, n) - 1) < 1e-12
        assert abs(np.dot(t, t) - 1) < 1e-12
        assert abs(np.dot(n, t)) < 1e-12
        assert abs(np.hypot(*(p - w.center)) - w.radius) < 1e-12


def test_out_of_range(tri):
    with pytest.raises(OutOfRange):
        tri.walls[0].chart_frame(tri.walls[0].length + 1.0)
    with pytest.raises(OutOfRange):
        tri.walls[0].chart_frame(-0.5)


# ---------------------------------------------------------------------------
# validation

def test_focusing_disk_rejected():
    spec = {"ambient": "plane",
            "walls": [{"center": [0.0, 0.0], "radius": 1.0,
                       "theta_start": 0.0, "theta_end": 0.0,
                       "orientation": 1}]}
    with pytest.raises(NonDispersing):
        build_table(spec)


def test_cusp_tangent_arcs():
    # two externally tangent circles joined at the tangency point: the wall
    # tangents agree there, so the corner angle collapses to zero
    spec = {"ambient": "plane", "walls": [
        {"center": [0.0, 0.0], "radius": 1.0, "theta_start": 0.8,
         "theta_end": 0.0, "orientation": -1},
        {"center": [2.0, 0.0], "radius": 1.0, "theta_start": math.pi,
         "theta_end": math.pi - 0.8, "orientation": -1},
    ]}
    with pytest.raises(CuspDetected):
        build_table(spec)


def test_cusp_tangent_disks():
    spec = tables.make_tri_spec()
    spec = {"ambient": "plane", "walls": [
        dict(w, radius=float(w["radius"])) for w in spec["walls"]]}
    d = {"theta_start": 0.0, "theta_end": 0.0, "orientation": -1}
    spec["walls"].append(dict(d, center=[0.0, 0.6], radius=0.2))
    spec["walls"].append(dict(d, center=[0.0, 1.0], radius=0.2))
    with pytest.raises(CuspDetected):
        build_table(spec)


def test_open_boundary():
    spec = tables.make_tri_spec()
    spec["walls"][1]["theta_end"] += 0.05
    with pytest.raises(OpenBoundary):
        build_table(spec)


def test_unenclosed_plane_table_rejected():
    # a lone disk scatterer: its loop turns by -2 pi and nothing encloses it
    disk = {"center": [0.0, 0.0], "radius": 1.0, "theta_start": 0.0,
            "theta_end": 0.0, "orientation": -1}
    with pytest.raises(OpenBoundary):
        build_table({"ambient": "plane", "walls": [disk]})
    # inside tri's +2 pi loop the same disk is a scatterer
    spec = tables.make_tri_spec()
    spec["walls"].append(dict(disk, radius=0.05))
    assert len(build_table(spec).walls) == 4


def test_non_simple_corner():
    spec = tables.make_tri_spec()
    w1 = spec["walls"][1]
    # extra arc starting exactly at the shared vertex of walls 0 and 1
    spec["walls"].append({
        "center": [w1["center"][0] + 0.3, w1["center"][1]],
        "radius": w1["radius"],
        "theta_start": w1["theta_start"],
        "theta_end": w1["theta_start"] - 0.2,
        "orientation": -1,
    })
    with pytest.raises((NonSimpleCorner, OpenBoundary)):
        build_table(spec)


def test_single_torus_disk_unbounded():
    spec = {"ambient": "torus",
            "walls": [{"center": [0.2, 0.7], "radius": 0.3,
                       "theta_start": 0.0, "theta_end": 0.0,
                       "orientation": -1}]}
    with pytest.raises(UnboundedHorizon):
        build_table(spec)


def test_torus_pair_bounded(torus2):
    assert torus2.ambient == "torus"
    assert torus2.constants.tau_max is not None


def test_overlapping_disks_rejected():
    spec = {"ambient": "torus", "walls": [
        {"center": [0.0, 0.0], "radius": 0.44, "theta_start": 0.0,
         "theta_end": 0.0, "orientation": -1},
        {"center": [0.3, 0.3], "radius": 0.17, "theta_start": 0.0,
         "theta_end": 0.0, "orientation": -1}]}
    with pytest.raises(ValidationError):
        build_table(spec)


def test_walls_crossing_away_from_corner_rejected(tri, lens):
    # a disk centred on wall 0's midpoint crosses it twice, away from the
    # corners; rays through a crossing switch wall there
    spec = tables.make_tri_spec()
    (mx, my), _, _ = tri.walls[0].frame_at(0.5 * tri.walls[0].length)
    spec["walls"].append({"center": [mx, my], "radius": 0.1,
                          "theta_start": 0.0, "theta_end": 0.0,
                          "orientation": -1})
    with pytest.raises(ValidationError, match="cross"):
        build_table(spec)
    crossed = build_table(spec, strict=False)
    assert len(crossed.crossings) == len(tri.crossings) + 2
    # the built-in plane tables cross only at their corners
    for table in (tri, lens):
        for x, y in table.crossings:
            assert min(math.hypot(x - c.position[0], y - c.position[1])
                       for c in table.corners) <= geometry.EPS_CROSS


# ---------------------------------------------------------------------------
# the tri fixture

def test_tri_shape(tri):
    assert len(tri.walls) == 3
    assert len(tri.corners) == 3
    gs = [c.gamma for c in tri.corners]
    assert max(gs) - min(gs) < 1e-12
    assert all(c.kind == "acute" for c in tri.corners)


def test_tri_gamma_symbolic_oracle(tri):
    sp = pytest.importorskip("sympy")
    s3 = sp.sqrt(3)
    B, C, A = sp.Matrix([-1, 0]), sp.Matrix([1, 0]), sp.Matrix([0, s3])
    bulge = 2 * sp.sqrt(2)

    def center(p, q):
        m = (p + q) / 2
        e = q - p
        L = sp.sqrt(e.dot(e))
        return m + bulge * sp.Matrix([e[1], -e[0]]) / L

    def walk_tangent(p, c):
        d = p - c
        return sp.Matrix([d[1], -d[0]]) / 3

    w_minus = walk_tangent(B, center(A, B))   # wall A->B arrives at B
    w_plus = walk_tangent(B, center(B, C))    # wall B->C departs from B
    ga = sp.atan2(-w_minus[1], -w_minus[0])
    gb = sp.atan2(w_plus[1], w_plus[0])
    gamma = sp.Mod(ga - gb, 2 * sp.pi)
    oracle = float(gamma.evalf(30))
    closed_form = float((sp.pi / 3 - 2 * sp.asin(sp.Rational(1, 3))).evalf(30))
    assert abs(oracle - closed_form) < 1e-20
    for c in tri.corners:
        assert abs(c.gamma - oracle) < 1e-12


def test_tri_midpoint_normal_hits_opposite_vertex(tri):
    A = np.array([0.0, math.sqrt(3.0)])
    w = tri.walls[0]
    p, n, _ = map(np.array, w.chart_frame(w.length / 2))
    d = A - p
    assert abs(d[0] * n[1] - d[1] * n[0]) < 1e-12    # collinear
    assert np.dot(d, n) > 0                          # and on the inward side


def test_tri_diameter(tri):
    assert tri.constants.tau_max == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("name", ["tri", "lens", "split_circle", "wedge"])
def test_corners_and_diameter_keep_the_scalar_bits(name, request):
    """Matching endpoints and taking the diameter over arrays of np.hypot
    gives each pair the bits of its own np.hypot call; the table's tau_max
    is that diameter."""
    tables_ = [request.getfixturevalue(name)]
    if name == "wedge":
        tables_ += [wedge_table(g) for g in (math.pi / 2, 2.0, math.pi, 4.0)]
    for table in tables_:
        got = corners_and_diameter(geometry._build_corners,
                                   geometry._exact_diameter, table.walls,
                                   False)
        assert got == corners_and_diameter(scalar_build_corners,
                                           scalar_diameter, table.walls,
                                           False)
        assert got[0][0] == table.corners
        assert got[1] == table.constants.tau_max.hex()


def test_tri_sequence_cap(tri):
    g = tri.gamma_min
    assert tri.sequence_cap == int(math.ceil(TWO_PI / g)) + 2


def test_lens_tips_obtuse(lens):
    obtuse = [c for c in lens.corners if c.kind == "obtuse"]
    assert len(obtuse) == 2
    for c in obtuse:
        assert c.gamma == pytest.approx(3 * math.pi / 2, abs=1e-9)


def test_orthogonal_corner_quarter(lens):
    # seen from inside the lens the same tips are right angles; build that
    # focusing mirror table directly
    spec = tables.make_lens_spec()
    w3, w4 = spec["walls"][3], spec["walls"][4]
    for w in (w3, w4):
        w["theta_start"], w["theta_end"] = w["theta_end"], w["theta_start"]
        w["orientation"] = 1
    t = geometry.build_table({"ambient": "plane", "walls": [w4, w3]},
                             strict=False)
    for c in t.corners:
        assert c.gamma == pytest.approx(math.pi / 2, abs=1e-9)
        assert c.kind == "acute"


def test_flat_corner(split_circle):
    for c in split_circle.corners:
        assert c.kind == "flat"
        assert c.gamma == pytest.approx(math.pi, abs=1e-12)


# ---------------------------------------------------------------------------
# canonical form

def _spec(table):
    """The table spec that build_table turns into table."""
    return {"ambient": table.ambient,
            "walls": [{"center": [w.center[0], w.center[1]],
                       "radius": w.radius, "theta_start": w.theta_start,
                       "theta_end": w.theta_end,
                       "orientation": w.orientation}
                      for w in table.walls]}


def test_spec_roundtrip_identical(tri):
    emitted = serialize.json_bytes(_spec(tri))
    rebuilt = build_table(json.loads(emitted))
    assert serialize.json_bytes(_spec(rebuilt)) == emitted
    for c1, c2 in zip(tri.corners, rebuilt.corners):
        assert c1.gamma == c2.gamma
    assert rebuilt.constants.tau_max == tri.constants.tau_max


def test_gamma_rigid_motion_invariant():
    spec = tables.make_tri_spec()
    t0 = build_table(spec)
    t1 = build_table(rotate_spec(spec, 0.83, (2.5, -1.25)))
    for c0, c1 in zip(t0.corners, t1.corners):
        assert abs(c0.gamma - c1.gamma) < 1e-12


# ---------------------------------------------------------------------------
# corner bands

@pytest.fixture(scope="module")
def wedge():
    return wedge_table(1e-5)


BAND_TABLES = ["tri", "lens", "wedge", "torus2"]

# (case, r as a function of the wall length L, the end of an open wall whose
# corner's band holds r, or None)
BAND_CASES = [
    ("0", lambda L: 0.0, "start"),
    ("eps", lambda L: EPS_CORNER, "start"),
    ("above-eps", lambda L: math.nextafter(EPS_CORNER, math.inf), None),
    ("L-eps", lambda L: L - EPS_CORNER, "end"),
    ("below-L-eps", lambda L: math.nextafter(L - EPS_CORNER, 0.0), None),
    ("L", lambda L: L, "end"),
    ("L/2", lambda L: 0.5 * L, None),
    ("before-0", lambda L: -1e-10, "start"),
    ("past-L", lambda L: L + 1e-10, "end"),
]


def _corner_at(table, wall, end):
    """The id of the corner that an open wall starts or ends at, read from
    the corners' own wall ids."""
    side = "right_wall_id" if end == "start" else "left_wall_id"
    ids = [c.corner_id for c in table.corners
           if getattr(c, side) == wall.wall_id]
    assert len(ids) == 1
    return ids[0]


@pytest.mark.parametrize("case,at,end", BAND_CASES,
                         ids=[c[0] for c in BAND_CASES])
@pytest.mark.parametrize("name", BAND_TABLES)
def test_corner_in_band(name, case, at, end, request):
    """On an open wall the band of the corner at its start holds r <=
    EPS_CORNER, the band at its end r >= L - EPS_CORNER, and nothing holds
    the r between; on a closed wall no band holds any r."""
    table = request.getfixturevalue(name)
    assert any(not w.closed for w in table.walls) == (name != "torus2")
    for w in table.walls:
        want = None if w.closed or end is None else _corner_at(table, w, end)
        assert table.corner_in_band(w.wall_id, at(w.length)) == want


def _off_corner(table, wall_id, r):
    """The band rule as the fit's centre filter wrote it before
    ``corner_in_band``: whether r lies outside the EPS_CORNER bands of its
    wall's ends (always, on a closed wall)."""
    w = table.walls[wall_id]
    return w.closed or EPS_CORNER < r < w.length - EPS_CORNER


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(BAND_TABLES), data=st.data())
def test_corner_in_band_is_the_off_corner_rule(tri, lens, wedge, torus2,
                                               name, data):
    """For every finite r, no band holds r exactly where the old rule put
    r off the corners."""
    table = {"tri": tri, "lens": lens, "wedge": wedge, "torus2": torus2}[name]
    w = table.walls[data.draw(st.integers(0, len(table.walls) - 1))]
    near = st.floats(-3 * EPS_CORNER, 3 * EPS_CORNER)
    r = data.draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1.0, w.length + 1.0), near,
        near.map(lambda d: w.length + d)))
    assert (table.corner_in_band(w.wall_id, r) is None) \
        == _off_corner(table, w.wall_id, r)


# ---------------------------------------------------------------------------
# sampled constants

def test_estimate_constants_tri(tri):
    c1 = bmap.estimate_constants(tri, samples=3000, seed=11)
    c2 = bmap.estimate_constants(tri, samples=3000, seed=11)
    assert c1 == c2
    assert c1.tau_star > 0
    assert c1.tau_max_sampled <= tri.constants.tau_max + 1e-9
    with pytest.raises(ValueError):
        bmap.estimate_constants(tri, samples=10)
