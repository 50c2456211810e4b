import json
import math

import numpy as np
import pytest

from billexp import geometry, serialize, tables
from billexp.errors import (
    CuspDetected,
    NonDispersing,
    NonSimpleCorner,
    OpenBoundary,
    OutOfRange,
    UnboundedHorizon,
    ValidationError,
)
from billexp.geometry import build_table, boundary_point

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

def test_boundary_point_basic(circle_oracle):
    p, n, t = boundary_point(circle_oracle, 0, 0.0)
    assert np.allclose(p, [1.0, 0.0], atol=1e-15)
    # focusing circle: interior is the disk, normal points at the center
    assert np.allclose(n, [-1.0, 0.0], atol=1e-15)
    p2, _, _ = boundary_point(circle_oracle, 0, circle_oracle.walls[0].length)
    assert np.allclose(p, p2, atol=1e-12)


def test_frames_orthonormal_on_arc(tri):
    rng = np.random.default_rng(5)
    for _ in range(300):
        w = tri.walls[rng.integers(len(tri.walls))]
        r = rng.random() * w.length
        p, n, t = boundary_point(tri, w.wall_id, r)
        assert abs(np.dot(n, n) - 1) < 1e-12
        assert abs(np.dot(t, t) - 1) < 1e-12
        assert abs(np.dot(n, t)) < 1e-12
        assert abs(np.hypot(*(p - w.center)) - w.radius) < 1e-12


def test_out_of_range(tri):
    with pytest.raises(OutOfRange):
        boundary_point(tri, 0, tri.walls[0].length + 1.0)
    with pytest.raises(OutOfRange):
        boundary_point(tri, 0, -0.5)


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
    p, n, _ = boundary_point(tri, 0, w.length / 2)
    d = A - p
    assert abs(d[0] * n[1] - d[1] * n[0]) < 1e-12    # collinear
    assert np.dot(d, n) > 0                          # and on the inward side


def test_tri_diameter(tri):
    assert tri.constants.tau_max == pytest.approx(2.0, abs=1e-12)


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

def test_builtin_bytes_stable():
    for name, maker in [("tri", tables.make_tri_spec),
                        ("torus2", tables.make_torus2_spec)]:
        assert tables.data_text(name).encode() \
            == serialize.json_bytes(maker())


def test_spec_roundtrip_identical(tri):
    emitted = serialize.json_bytes(tri.to_spec())
    rebuilt = build_table(json.loads(emitted))
    assert serialize.json_bytes(rebuilt.to_spec()) == emitted
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
# sampled constants

def test_estimate_constants_tri(tri):
    c1 = geometry.estimate_constants(tri, samples=3000, seed=11)
    c2 = geometry.estimate_constants(tri, samples=3000, seed=11)
    assert c1 == c2
    assert c1.tau_star > 0
    assert c1.tau_max_sampled <= tri.constants.tau_max + 1e-9
    with pytest.raises(ValueError):
        geometry.estimate_constants(tri, samples=10)
