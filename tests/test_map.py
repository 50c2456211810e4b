import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from billexp import tables
from billexp.bmap import (
    HALF_PI,
    K_INF,
    PhasePoint,
    cone_slopes,
    flight_derivative,
    forward,
    inverse,
    involute,
    orbit,
    random_phase_point,
    strip_index,
)
from billexp.errors import BilliardError, SingularInput
from billexp.flow import Ray, first_collision
from billexp.geometry import boundary_point

TWO_PI = 2.0 * math.pi


def clean_image(res):
    if not res.regular:
        return None
    return res.images[0]


# ---------------------------------------------------------------------------
# circle closed form

def test_circle_map_closed_form(circle_oracle):
    L = circle_oracle.walls[0].length
    for r, phi in [(0.2, 0.3), (3.0, -0.7), (5.9, 1.1), (1.0, 0.0)]:
        im = clean_image(forward(circle_oracle, PhasePoint(0, r, phi)))
        assert im is not None
        assert im.tau == pytest.approx(2.0 * math.cos(phi), abs=1e-12)
        assert im.point.phi == pytest.approx(phi, abs=1e-10)
        expect = (r + math.pi - 2.0 * phi) % L
        assert im.point.r % L == pytest.approx(expect % L, abs=1e-9)
        (a, b), (c, d) = im.derivative
        assert a == pytest.approx(1.0, abs=1e-12)
        assert b == pytest.approx(-2.0, abs=1e-12)
        assert c == pytest.approx(0.0, abs=1e-12)
        assert d == pytest.approx(1.0, abs=1e-12)


def test_circle_inverse_shifts_back(circle_oracle):
    L = circle_oracle.walls[0].length
    r, phi = 2.4, 0.5
    im = clean_image(inverse(circle_oracle, PhasePoint(0, r, phi)))
    assert im is not None
    expect = (r - (math.pi - 2.0 * phi)) % L
    assert im.point.r % L == pytest.approx(expect, abs=1e-9)
    assert im.point.phi == pytest.approx(phi, abs=1e-10)


def test_flight_derivative_circle_entries():
    for phi in (0.0, 0.4, -1.1):
        (a, b), (c, d) = flight_derivative(2.0 * math.cos(phi), -1.0, phi,
                                           -1.0, phi)
        assert a == pytest.approx(1.0, abs=1e-13)
        assert b == pytest.approx(-2.0, abs=1e-13)
        assert c == pytest.approx(0.0, abs=1e-13)
        assert d == pytest.approx(1.0, abs=1e-13)


# ---------------------------------------------------------------------------
# structural identities on the dispersing table

def regular_sample(table, count, seed, need_clean_inverse=False):
    rng = np.random.default_rng(seed)
    out = []
    guard = 0
    while len(out) < count and guard < 100 * count:
        guard += 1
        z = random_phase_point(table, rng)
        try:
            res = forward(table, z)
        except SingularInput:
            continue
        im = clean_image(res)
        if im is None or abs(im.point.phi) > 1.45:
            continue
        if need_clean_inverse:
            try:
                back = inverse(table, im.point)
            except SingularInput:
                continue
            if clean_image(back) is None:
                continue
        out.append((z, im))
    assert len(out) == count
    return out


def test_determinant_identity(tri):
    for z, im in regular_sample(tri, 200, seed=17):
        (a, b), (c, d) = im.derivative
        det = a * d - b * c
        expect = math.cos(z.phi) / math.cos(im.point.phi)
        assert det == pytest.approx(expect, rel=1e-10)


def test_derivative_matches_finite_differences(tri):
    h = 1e-6
    checked = 0
    for z, im in regular_sample(tri, 300, seed=23):
        if im.tau < 0.05 or abs(im.point.phi) > 1.2:
            continue
        wall = tri.walls[z.wall_id]
        if not (h < z.r < wall.length - h) or abs(z.phi) > HALF_PI - h:
            continue
        cols = []
        ok = True
        for dr, dphi in ((h, 0.0), (0.0, h)):
            ims = []
            for s in (1.0, -1.0):
                res = forward(tri, PhasePoint(z.wall_id, z.r + s * dr,
                                              z.phi + s * dphi))
                p = clean_image(res)
                if p is None or p.point.wall_id != im.point.wall_id:
                    ok = False
                    break
                ims.append(p.point)
            if not ok:
                break
            cols.append(((ims[0].r - ims[1].r) / (2 * h),
                         (ims[0].phi - ims[1].phi) / (2 * h)))
        if not ok:
            continue
        (a, b), (c, d) = im.derivative
        fd = ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))
        for got, exp in zip((fd[0][0], fd[0][1], fd[1][0], fd[1][1]),
                            (a, b, c, d)):
            assert abs(got - exp) <= 1e-4 * max(1.0, abs(exp))
        checked += 1
    assert checked >= 60


def test_forward_inverse_roundtrip(tri):
    for z, im in regular_sample(tri, 100, seed=31, need_clean_inverse=True):
        back = clean_image(inverse(tri, im.point))
        assert back.point.wall_id == z.wall_id
        assert back.point.r == pytest.approx(z.r, abs=1e-10)
        assert back.point.phi == pytest.approx(z.phi, abs=1e-10)


def test_involution_conjugacy(tri):
    # the time-reversal involution I satisfies I F I F = id on regular points
    for z, im in regular_sample(tri, 50, seed=37):
        w = involute(im.point)
        try:
            res2 = forward(tri, w)
        except SingularInput:
            continue
        im2 = clean_image(res2)
        if im2 is None:
            continue
        z2 = involute(im2.point)
        assert z2.wall_id == z.wall_id
        assert z2.r == pytest.approx(z.r, abs=1e-9)
        assert z2.phi == pytest.approx(z.phi, abs=1e-9)


def test_involute_is_involution():
    p = PhasePoint(2, 0.375, -0.8125)
    assert involute(involute(p)) == p


def test_inverse_derivative_is_matrix_inverse(tri):
    for z, im in regular_sample(tri, 50, seed=41, need_clean_inverse=True):
        back = clean_image(inverse(tri, im.point))
        (a, b), (c, d) = im.derivative
        (e, f), (g, h2) = back.derivative
        prod = ((a * e + b * g, a * f + b * h2),
                (c * e + d * g, c * f + d * h2))
        assert prod[0][0] == pytest.approx(1.0, abs=1e-8)
        assert prod[0][1] == pytest.approx(0.0, abs=1e-8)
        assert prod[1][0] == pytest.approx(0.0, abs=1e-8)
        assert prod[1][1] == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# branching

def test_vertex_shot_two_images(tri):
    L0 = tri.walls[0].length
    res = forward(tri, PhasePoint(0, L0 / 2, 0.0))
    assert len(res.images) > 1 or any(im.grazing for im in res.images)
    assert len(res.images) == 2
    tau_expect = math.sqrt(3.0) - (3.0 - 2.0 * math.sqrt(2.0))
    labels = {im.label for im in res.images}
    assert labels == {"left-wall", "right-wall"}
    walls = {im.point.wall_id for im in res.images}
    assert walls == {1, 2}
    for im in res.images:
        assert im.tau == pytest.approx(tau_expect, abs=1e-9)
        assert not im.grazing
        assert im.derivative is not None
    p0, p1 = (im.point for im in res.images)
    assert abs(p0.phi) == pytest.approx(abs(p1.phi), abs=1e-9)


def test_corner_step_image(tri):
    corner = tri.corners[tri.corner_at_start[0]]
    res = forward(tri, PhasePoint(0, 0.0, 0.0))
    assert len(res.images) == 1
    im = res.images[0]
    assert im.label == "corner-step"
    assert im.tau == 0.0
    other = corner.left_wall_id
    assert im.point.wall_id == other
    assert im.point.r == pytest.approx(tri.walls[other].length, abs=1e-12)
    assert im.derivative is not None


def test_singular_departures(tri):
    with pytest.raises(SingularInput):
        forward(tri, PhasePoint(0, 1.0, HALF_PI))
    with pytest.raises(SingularInput):
        forward(tri, PhasePoint(0, 1.0, -HALF_PI))


# ---------------------------------------------------------------------------
# grazing branch across a scatterer tangency

def hits_lens(res):
    for im in res.images:
        if im.point.wall_id in (3, 4):
            return True
        if any(ev.startswith("graze:w") for ev in im.trail):
            return True
    return False


def test_grazing_branch_at_lens_tangency(lens):
    L0 = lens.walls[0].length
    r0 = L0 / 2

    def probe(phi):
        return forward(lens, PhasePoint(0, r0, phi))

    lo, hi = -0.2, 0.0
    assert not hits_lens(probe(lo)) and hits_lens(probe(hi))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if hits_lens(probe(mid)):
            hi = mid
        else:
            lo = mid

    found = None
    for j in range(-300, 301):
        res = probe(hi + j * 1e-10)
        if any(im.grazing for im in res.images):
            found = res
            break
    assert found is not None
    assert len(found.images) > 1 or any(im.grazing for im in found.images)
    graze = next(im for im in found.images if im.grazing)
    assert graze.label == "graze"
    assert abs(graze.point.phi) == HALF_PI
    assert graze.derivative is None
    assert graze.point.wall_id in (3, 4)
    cont = [im for im in found.images if not im.grazing]
    assert len(cont) >= 1
    assert any(ev.startswith("graze:w") for ev in cont[0].trail)
    assert cont[0].derivative is not None


# ---------------------------------------------------------------------------
# homogeneity strips

def test_strip_examples_small_k0():
    assert strip_index(0.3, k0=10) == 0
    assert strip_index(HALF_PI - 1.0 / 121.0, k0=10) == 10
    assert strip_index(-(HALF_PI - 1.0 / 400.0), k0=10) == -19


def test_strip_zero_band_inclusive():
    assert strip_index(HALF_PI - 1e-2, k0=10) == 0
    assert strip_index(HALF_PI - 1e-2 + 1e-12, k0=10) == 10
    assert strip_index(HALF_PI - 1.0 / 900.0, k0=30) == 0


def test_strip_infinite_and_signs():
    assert strip_index(HALF_PI) == K_INF
    assert strip_index(-HALF_PI) == -K_INF
    assert strip_index(-0.2) == 0
    k = strip_index(HALF_PI - 1e-5)
    assert k > 0
    assert strip_index(-(HALF_PI - 1e-5)) == -k


def test_strip_membership_random():
    rng = np.random.default_rng(9)
    for _ in range(500):
        u = 10.0 ** rng.uniform(-7, -0.5)
        phi = math.copysign(HALF_PI - u, 1 if rng.random() < 0.5 else -1)
        k = strip_index(phi)
        if k == 0:
            assert u >= 1.0 / (30 * 30) - 1e-18
        else:
            m = abs(k)
            lo, hi = 1.0 / ((m + 1) * (m + 1)), 1.0 / (m * m)
            assert lo <= u < hi or math.isclose(u, lo, rel_tol=1e-15)
            assert abs(k) >= 30
            assert (k > 0) == (phi > 0)


# ---------------------------------------------------------------------------
# invariant cones

def test_cone_push_positive(tri):
    for z, im in regular_sample(tri, 100, seed=43):
        k0 = tri.walls[z.wall_id].kappa
        k1 = tri.walls[im.point.wall_id].kappa
        lo, hi = cone_slopes(im.tau, k0, z.phi, k1, im.point.phi)
        assert 0.0 < lo <= hi
        assert math.isfinite(hi)


def test_zero_flight_cone_is_half_infinite():
    lo, hi = cone_slopes(0.0, 1.0, 0.3, 1.0, 0.2)
    assert lo > 0.0
    assert hi == math.inf


# ---------------------------------------------------------------------------
# orbits

def test_torus_orbit_invariants(torus2):
    rng = np.random.default_rng(2)
    best = None
    for _ in range(6):
        z = random_phase_point(torus2, rng)
        res = orbit(torus2, z, 300)
        if best is None or len(res.images) > len(best.images):
            best = res
        if len(res.images) == 300:
            break
    assert len(best.images) >= 200
    cap = torus2.constants.tau_max
    for im in best.images:
        assert 1e-12 < im.tau <= cap + 1e-9
    for p in (best.start, *(im.point for im in best.images)):
        assert abs(p.phi) < HALF_PI
        assert 0.0 <= p.r <= torus2.walls[p.wall_id].length


def test_orbit_statuses(tri):
    L0 = tri.walls[0].length
    res = orbit(tri, PhasePoint(0, L0 / 2, 0.0), 5)
    assert res.status == "branched"
    assert res.images == ()
    res = orbit(tri, PhasePoint(0, 1.0, HALF_PI), 5)
    assert res.status == "singular"
    assert res.error == "SingularInput"
    assert res.images == ()
    res = orbit(tri, PhasePoint(0, 0.8, 0.2), 7)
    assert res.status == "ok" and res.error == ""
    assert len(res.images) == 7 and res.start == PhasePoint(0, 0.8, 0.2)


def test_random_phase_point_ranges(tri):
    rng = np.random.default_rng(4)
    seen = set()
    for _ in range(200):
        p = random_phase_point(tri, rng)
        seen.add(p.wall_id)
        assert 0.0 <= p.r <= tri.walls[p.wall_id].length
        assert -HALF_PI < p.phi < HALF_PI
    assert seen == {0, 1, 2}
    a = np.random.default_rng(77)
    b = np.random.default_rng(77)
    assert random_phase_point(tri, a) == random_phase_point(tri, b)


# ---------------------------------------------------------------------------
# bit identity of the map

def _hex(x):
    return "-" if x is None else float(x).hex()


def _map_tokens(fn, table, p):
    try:
        res = fn(table, p)
    except BilliardError as err:   # the raised type and message count too
        return [type(err).__name__, str(err)]
    out = []
    for im in res.images:
        d = im.derivative
        out += [str(im.point.wall_id), _hex(im.point.r), _hex(im.point.phi),
                _hex(im.tau), im.label, ",".join(im.trail), str(im.grazing),
                "-" if d is None else ",".join(_hex(v) for row in d
                                               for v in row)]
    return out


def _aimed_points(table, rng, count):
    """Departures aimed at a corner or tangent to a wall at their first hit.

    A tangent departure is found by flying backward from a grazing point.
    """
    out = []
    while len(out) < count:
        w = table.walls[int(rng.integers(len(table.walls)))]
        r = float(rng.uniform(0.0, w.length))
        if table.corners and rng.random() < 0.5:
            c = table.corners[int(rng.integers(len(table.corners)))]
            p, n, t = boundary_point(table, w.wall_id, r)
            dx, dy = c.position[0] - p[0], c.position[1] - p[1]
        else:
            q, _n, t = boundary_point(table, w.wall_id, r)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            dx, dy = sign * t[0], sign * t[1]
            try:
                hit = first_collision(table, Ray((q[0], q[1]), (-dx, -dy)))
            except BilliardError:
                continue
            w, r = table.walls[hit.wall_id], hit.r
            p, n, t = boundary_point(table, w.wall_id, r)
        phi = math.atan2(dx * t[0] + dy * t[1], dx * n[0] + dy * n[1])
        if abs(phi) < HALF_PI:
            out.append(PhasePoint(w.wall_id, float(r), float(phi)))
    return out


def map_digest(table, seed, count=2000, ends=200, aimed=200):
    """sha256 over every field of forward and inverse at seeded points.

    ``count`` points come from the invariant measure, ``ends`` more depart
    from wall endpoints (corner departures and corner steps), and ``aimed``
    more are aimed at a corner or graze a wall (branched and grazing images).
    """
    rng = np.random.default_rng(seed)
    pts = [random_phase_point(table, rng) for _ in range(count)]
    for _ in range(ends):
        w = table.walls[int(rng.integers(len(table.walls)))]
        r = w.length if rng.random() < 0.5 else 0.0
        pts.append(PhasePoint(w.wall_id, r, float(rng.uniform(-1.5, 1.5))))
    pts += _aimed_points(table, rng, aimed)
    h = hashlib.sha256()
    for p in pts:
        for fn in (forward, inverse):
            h.update("|".join(_map_tokens(fn, table, p)).encode() + b"\n")
    return h.hexdigest()


# digests of the kernel that ran on numpy scalars; the plain-float kernel
# must reproduce every bit of them
MAP_DIGESTS = {
    "tri": "321a24bf053ae90392fac43ae4696f26e425d65a1a77f477d76e3e5661eb0a63",
    "torus2": "0a611b688b70dc62b0463a5d298f45426d4c295f266eafabfede1113e2560cfe",
    "lens": "7fd26c46c4d6ed262f1a20d23ddd3f7315a414ca63604d700aa656fc5a2d72a2",
}


@pytest.mark.parametrize("name", sorted(MAP_DIGESTS))
def test_map_bit_identity(name, request):
    table = request.getfixturevalue(name)
    assert map_digest(table, 20260) == MAP_DIGESTS[name]


# ---------------------------------------------------------------------------
# generated properties of the map and the orbit walker

_TABLES = ("tri", "torus2", "lens")


@st.composite
def _phase_points(draw):
    """(table name, wall index, arclength fraction, phi): any phase point of
    the three test tables, wall ends and near-grazing angles included."""
    return (draw(st.sampled_from(_TABLES)), draw(st.integers(0, 4)),
            draw(st.floats(0.0, 1.0)),
            draw(st.floats(-HALF_PI, HALF_PI, exclude_min=True,
                           exclude_max=True)))


def _point(request, drawn):
    name, wall, frac, phi = drawn
    table = request.getfixturevalue(name)
    w = table.walls[wall % len(table.walls)]
    return table, PhasePoint(w.wall_id, frac * w.length, phi)


def _regular_step(table, z):
    """z's single smooth image when z departs inside a wall, else None.

    A departure within 1e-6 of tangency is left out too: rounding shifts
    a flight line by about 1e-16, which moves its hit on a wall met at
    incidence cos(phi) by about 1e-16 / cos(phi), and below cos(phi) of
    about 1e-8 can miss that wall altogether.
    """
    w = table.wall(z.wall_id)
    if not w.closed and not 1e-6 < z.r < w.length - 1e-6 \
            or math.cos(z.phi) < 1e-6:
        return None
    try:
        return clean_image(forward(table, z))
    except BilliardError:
        return None


@settings(max_examples=300, deadline=None)
@given(_phase_points())
def test_inverse_undoes_forward_property(request, drawn):
    table, z = _point(request, drawn)
    im = _regular_step(table, z)
    assume(im is not None)
    back = clean_image(inverse(table, im.point))
    assert back is not None
    w = table.wall(z.wall_id)
    dr = back.point.r - z.r
    if w.closed:
        dr = (dr + w.length / 2) % w.length - w.length / 2
    assert back.point.wall_id == z.wall_id
    assert abs(dr) <= 1e-9 and abs(back.point.phi - z.phi) <= 1e-9


@settings(max_examples=300, deadline=None)
@given(_phase_points())
def test_determinant_and_cone_property(request, drawn):
    table, z = _point(request, drawn)
    im = _regular_step(table, z)
    assume(im is not None)
    (a, b), (c, d) = im.derivative
    expect = math.cos(z.phi) / math.cos(im.point.phi)
    assert a * d - b * c == pytest.approx(expect, rel=1e-8)
    # the edges dphi/dr = 0 and infinity of the upward cone map onto the
    # edges of cone_slopes, inside the upward cone
    lo, hi = cone_slopes(im.tau, table.wall(z.wall_id).kappa, z.phi,
                         table.wall(im.point.wall_id).kappa, im.point.phi)
    assert 0.0 < lo <= hi
    assert sorted((c / a, d / b)) == pytest.approx([lo, hi], rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(_phase_points(), st.integers(1, 6))
@example(("tri", 0, 0.5, 0.0), 2)          # a vertex shot: branched
def test_orbit_chains_forward_property(request, drawn, n):
    table, z = _point(request, drawn)
    walk = orbit(table, z, n)
    cur = z
    for im in walk.images:
        assert forward(table, cur).images == (im,)
        cur = im.point
    if walk.status == "ok":
        assert len(walk.images) == n and not walk.split and not walk.error
        return
    assert len(walk.images) < n or walk.status == "grazed"
    if walk.status == "grazed":
        assert walk.images[-1].grazing
    elif walk.status == "branched":
        assert len(walk.split) > 1
        assert forward(table, cur).images == walk.split
    else:
        with pytest.raises(BilliardError) as err:
            forward(table, cur)
        assert type(err.value).__name__ == walk.error
