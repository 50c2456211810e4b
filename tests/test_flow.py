import math

import numpy as np
import pytest

from billexp import geometry
from billexp.bmap import PhasePoint, forward, outgoing_ray
from billexp.errors import EscapedDomain, SectorBoundary
from billexp.flow import Ray, classify_collision, first_collision, reflect

from conftest import wedge_table

TWO_PI = 2.0 * math.pi


def unit(ang):
    return (math.cos(ang), math.sin(ang))


def ang_of(v):
    return math.atan2(v[1], v[0])


# ---------------------------------------------------------------------------
# reflection

def test_reflect_headon():
    assert reflect((1.0, 0.0), (-1.0, 0.0)) == (-1.0, 0.0)


def test_reflect_oblique():
    s = 1.0 / math.sqrt(2.0)
    out = reflect((s, -s), (0.0, 1.0))
    assert out[0] == pytest.approx(s, abs=1e-15)
    assert out[1] == pytest.approx(s, abs=1e-15)


def test_reflect_decomposition():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = unit(rng.uniform(0, TWO_PI))
        n = unit(rng.uniform(0, TWO_PI))
        t = (-n[1], n[0])
        out = reflect(d, n)
        dn = d[0] * n[0] + d[1] * n[1]
        on = out[0] * n[0] + out[1] * n[1]
        assert on == pytest.approx(-dn, abs=1e-14)
        assert (out[0] * t[0] + out[1] * t[1]) == pytest.approx(
            d[0] * t[0] + d[1] * t[1], abs=1e-14)


# ---------------------------------------------------------------------------
# chords of the circle: flight-time oracle

def test_circle_diameter_chord(circle_oracle):
    out = first_collision(circle_oracle, Ray((-1.0, 0.0), (1.0, 0.0)))
    assert out.kind == "regular"
    assert out.tau == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(out.point, (1.0, 0.0), atol=1e-12)
    assert out.normal_component == pytest.approx(-1.0, abs=1e-12)


def test_circle_chord_length(circle_oracle):
    # leaving the rim at incidence phi the chord has length 2 R cos(phi)
    # and lands pi - 2 phi further along the rim
    for a, phi in [(0.3, 0.25), (2.0, -0.9), (-1.2, 1.3), (4.0, 0.0)]:
        p = (math.cos(a), math.sin(a))
        n = (-p[0], -p[1])
        t = (-math.sin(a), math.cos(a))
        v = (math.cos(phi) * n[0] + math.sin(phi) * t[0],
             math.cos(phi) * n[1] + math.sin(phi) * t[1])
        out = first_collision(circle_oracle, Ray(p, v))
        assert out.kind == "regular"
        assert out.tau == pytest.approx(2.0 * math.cos(phi), abs=1e-12)
        assert out.normal_component == pytest.approx(-math.cos(phi), abs=1e-12)
        expect = a + math.pi - 2.0 * phi
        assert out.point == pytest.approx((math.cos(expect), math.sin(expect)),
                                          abs=1e-9)


# ---------------------------------------------------------------------------
# grazing and escape

def test_exact_tangency_is_grazing(split_circle):
    # the horizontal tangent line at (0,-1) is exactly representable, so the
    # discriminant vanishes without rounding
    out = first_collision(split_circle, Ray((-0.5, -1.0), (1.0, 0.0)))
    assert out.kind == "grazing"
    assert out.tau == pytest.approx(0.5, abs=1e-12)
    assert out.wall_id == 0
    assert out.r == pytest.approx(math.pi / 2, abs=1e-12)
    assert abs(out.normal_component) <= 1e-9
    assert out.corner_id is None


def test_miss_raises_escape(split_circle):
    with pytest.raises(EscapedDomain):
        first_collision(split_circle, Ray((-0.5, -1.001), (1.0, 0.0)))


# ---------------------------------------------------------------------------
# corner classification

def alpha_direction(corner, alpha):
    """Incoming direction at clockwise angle alpha from -w_minus."""
    base = ang_of((-corner.w_minus[0], -corner.w_minus[1]))
    return unit(base - alpha)


def test_acute_arrivals_always_proper(tri):
    c = tri.corners[0]
    g = c.gamma
    # realizable arrivals sweep the reversed internal sector
    for frac in (0.05, 0.3, 0.5, 0.77, 0.95):
        v = alpha_direction(c, math.pi + frac * g)
        assert classify_collision(c, v) == "proper"


def test_flat_corner_classification(split_circle):
    c = next(c for c in split_circle.corners
             if np.allclose(c.position, (1.0, 0.0), atol=1e-12))
    assert classify_collision(c, (-1.0, 0.0)) == "proper"
    # barely off the tangent line, still pressing the material
    assert classify_collision(c, unit(math.pi + 1e-3)) == "proper"
    for tangential in [(0.0, -1.0), (0.0, 1.0)]:
        with pytest.raises(SectorBoundary):
            classify_collision(c, tangential)


def test_obtuse_tip_proper_and_improper(lens):
    c = next(c for c in lens.corners if c.kind == "obtuse")
    assert classify_collision(c, alpha_direction(c, TWO_PI - 0.3)) == "proper"
    assert classify_collision(c, alpha_direction(c, math.pi + 0.3)) == "improper"


# ---------------------------------------------------------------------------
# corner continuations through forward

def aim_at_corner(table, corner, v):
    """Departure whose flight arrives at the corner with velocity v.

    Found by flying backward from the corner; also returns that flight's
    length.
    """
    hit = first_collision(table, Ray(corner.position, (-v[0], -v[1])))
    _, n, t = table.wall(hit.wall_id).frame_at(hit.r)
    phi = math.atan2(v[0] * t[0] + v[1] * t[1], v[0] * n[0] + v[1] * n[1])
    return PhasePoint(hit.wall_id, hit.r, phi), hit.tau


def corner_exit(table, im):
    """Direction in which corner image im leaves the corner, after following
    its corner-step images."""
    for _ in range(table.sequence_cap + 1):
        nxt = forward(table, im.point).images
        if nxt[0].label != "corner-step":
            return outgoing_ray(table, im.point).direction
        assert len(nxt) == 1
        im = nxt[0]
    raise AssertionError("corner-step chain did not leave the corner")


def corner_images(table, corner, v):
    p, _ = aim_at_corner(table, corner, v)
    return forward(table, p).images


def corner_of(table, gamma):
    return next(c for c in table.corners
                if math.isclose(c.gamma, gamma, abs_tol=1e-9))


def test_improper_branch_set(lens):
    c = next(c for c in lens.corners if c.kind == "obtuse")
    v = alpha_direction(c, math.pi + 0.3)
    images = corner_images(lens, c, v)
    assert len(images) == 2
    front = next(im for im in images if im.label.endswith("-wall"))
    fly = next(im for im in images if im.trail)
    # the front wall reflects once and the flight leaves the tip
    assert front.trail == ()
    _, n, _ = lens.wall(front.point.wall_id).frame_at(front.point.r)
    assert np.allclose(corner_exit(lens, front), reflect(v, n), atol=1e-12)
    # the fly-by passes the tip undeflected to the next wall
    assert fly.label == "regular"
    assert fly.trail == (f"pass:c{c.corner_id}",)
    hit = first_collision(lens, Ray(c.position, v))
    assert fly.point.wall_id == hit.wall_id
    assert fly.point.r == pytest.approx(hit.r, abs=1e-9)


def test_proper_tip_reflects_off_each_face(lens):
    # a convex scatterer tip: each image reflects once, off its own face;
    # the faces cross orthogonally, so the two exits are opposite, and
    # nearby orbits realize both
    c = next(c for c in lens.corners if c.kind == "obtuse")
    v = alpha_direction(c, TWO_PI - 0.3)
    images = corner_images(lens, c, v)
    assert sorted(im.label for im in images) == ["left-wall", "right-wall"]
    exits = [corner_exit(lens, im) for im in images]
    for im, ex in zip(images, exits):
        _, n, _ = lens.wall(im.point.wall_id).frame_at(im.point.r)
        assert np.allclose(ex, reflect(v, n), atol=1e-12)
    assert np.allclose(exits[0], (-exits[1][0], -exits[1][1]), atol=1e-12)
    assert_realized(lens, c, v, exits)


def test_obtuse_proper_two_chains():
    t = wedge_table(4.0)
    c = corner_of(t, 4.0)
    images = corner_images(t, c, alpha_direction(c, 5.8))
    assert sorted(im.label for im in images) == ["left-wall", "right-wall"]


def test_wedge_two_branches():
    t = wedge_table(2.0)
    c = corner_of(t, 2.0)
    images = corner_images(t, c, unit(-0.8))
    assert len(images) == 2
    for im in images:
        assert not im.grazing
        ex = corner_exit(t, im)
        assert math.hypot(*ex) == pytest.approx(1.0, abs=1e-12)
        # the exit leaves through the open sector: improper at the corner
        assert classify_collision(c, ex) == "improper"
    d0, d1 = (corner_exit(t, im) for im in images)
    assert d0[0] * d1[0] + d0[1] * d1[1] < 1.0 - 1e-6


def test_orthogonal_wedge_retroreflects():
    t = wedge_table(math.pi / 2)
    c = corner_of(t, math.pi / 2)
    v = unit(-math.pi / 4)
    images = corner_images(t, c, v)
    assert sorted(im.label for im in images) == ["left-wall", "right-wall"]
    # each image reflects off its wall, steps onto the other and leaves
    # antiparallel to the arrival
    for im in images:
        assert forward(t, im.point).images[0].label == "corner-step"
        ex = corner_exit(t, im)
        assert ex[0] == pytest.approx(-v[0], abs=1e-12)
        assert ex[1] == pytest.approx(-v[1], abs=1e-12)


def test_flat_corner_single_branch():
    # both walls share the tangent line at a flat corner, so both images
    # exit along the mirror of the arrival: one continuation
    t = wedge_table(math.pi)
    c = corner_of(t, math.pi)
    v = unit(-1.0)
    images = corner_images(t, c, v)
    assert sorted(im.label for im in images) == ["left-wall", "right-wall"]
    for im in images:
        ex = corner_exit(t, im)
        assert ex[0] == pytest.approx(v[0], abs=1e-12)
        assert ex[1] == pytest.approx(-v[1], abs=1e-12)


def test_tri_vertex_shot(tri):
    out = first_collision(tri, Ray((0.0, 1.0), (0.0, 1.0)))
    assert out.kind == "corner"
    assert out.properness == "proper"
    apex = (0.0, math.sqrt(3.0))
    assert np.allclose(out.point, apex, atol=1e-9)
    images = corner_images(tri, tri.corners[out.corner_id], (0.0, 1.0))
    assert {im.label for im in images} == {"left-wall", "right-wall"}
    d0, d1 = (corner_exit(tri, im) for im in images)
    assert d0[0] == pytest.approx(-d1[0], abs=1e-9)
    assert d0[1] == pytest.approx(d1[1], abs=1e-9)


def rattle_exit(table, ray, center, radius=0.05, cap=12):
    """Iterate reflections until the orbit leaves the ball about center."""
    for _ in range(cap):
        out = first_collision(table, ray)
        assert out.kind == "regular"
        if math.hypot(out.point[0] - center[0],
                      out.point[1] - center[1]) > radius:
            return ray.direction
        _, n, _ = geometry.boundary_point(table, out.wall_id, out.r)
        ray = Ray(out.point, reflect(ray.direction, n))
    raise AssertionError("orbit stuck near the corner")


def assert_realized(table, corner, v, exits):
    """Orbits shifted sideways off the corner-hitting flight leave along
    one of the exits, and between them realize every exit."""
    _, reach = aim_at_corner(table, corner, v)
    perp = (-v[1], v[0])
    cx, cy = corner.position
    matched = set()
    for s in (1e-5, -1e-5, 1e-7, -1e-7):
        origin = (cx - 0.5 * reach * v[0] + s * perp[0],
                  cy - 0.5 * reach * v[1] + s * perp[1])
        got = rattle_exit(table, Ray(origin, v), corner.position)
        errs = [abs((ang_of(got) - ang_of(e) + math.pi) % TWO_PI - math.pi)
                for e in exits]
        assert min(errs) < 1e-3
        matched.update(k for k, e in enumerate(errs) if e < 1e-3)
    assert matched == set(range(len(exits)))


@pytest.mark.parametrize("gamma,alpha", [
    (2.0, None), (math.pi / 2, None), (4.0, 5.8)],
    ids=["acute", "orthogonal", "obtuse"])
def test_branches_match_perturbed_orbits(gamma, alpha):
    t = wedge_table(gamma)
    c = corner_of(t, gamma)
    v = unit(-0.8) if alpha is None else alpha_direction(c, alpha)
    exits = [corner_exit(t, im) for im in corner_images(t, c, v)]
    assert len(exits) == 2
    assert_realized(t, c, v, exits)
