import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from billexp.bmap import (
    BATCH_MIN,
    BATCH_ROWS,
    HALF_PI,
    K_INF,
    MapImage,
    MapResult,
    PhasePoint,
    certify_expansion_constant,
    Stream,
    certify_hyperbolicity,
    expansion_factors,
    flight_derivative,
    forward,
    inverse,
    involute,
    orbit,
    phase_columns,
    random_phase_point,
    random_phase_points,
    plain_rows,
    point_columns,
    regular_steps,
    strip_index,
    unstable_cones,
)
from billexp.errors import BilliardError, NumericalAbort, SingularInput
from billexp.flow import CollisionOutcome, Ray, first_collision

from conftest import kernel_calls, wedge_table

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

def cone_slopes(tau: float, kappa0: float, phi0: float, kappa1: float,
                phi1: float) -> tuple[float, float]:
    """Image under the step derivative of the full upward cone dphi/dr >= 0:
    the reference for ``bmap.unstable_cones``, which takes it in numpy in
    this operation order.

    Both edges stay positive on dispersing walls, so the cone family
    {0 <= slope <= inf} is forward invariant.
    """
    c0 = math.cos(phi0)
    c1 = math.cos(phi1)
    lo = kappa1 + kappa0 * c1 / (tau * kappa0 + c0)
    hi = kappa1 + c1 / tau if tau > 0.0 else math.inf
    return (lo, hi) if lo <= hi else (hi, lo)


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


# the tri corner arcs: radius 3 over a side-2 chord
_THETA = 2.0 * math.asin(1.0 / 3.0)
_TRI_AREA = math.sqrt(3.0) - 13.5 * (_THETA - math.sin(_THETA))
# Santalo's mean free flight pi |Q| / |dQ| under the invariant measure
# (Chernov & Markarian, Chaotic Billiards)
MEAN_FLIGHT = {
    "tri": math.pi * _TRI_AREA / (9.0 * _THETA),
    "lens": math.pi * (9.0 * _TRI_AREA - 0.25 * (HALF_PI - 1.0))
    / (27.0 * _THETA + HALF_PI),
    "torus2": math.pi * (1.0 - math.pi * (0.44 ** 2 + 0.17 ** 2))
    / (2.0 * math.pi * 0.61),
}


@pytest.mark.parametrize("name, n, steps",
                         [("tri", 20_000, 8), ("lens", 20_000, 8),
                          ("torus2", 2_000, 2)])
def test_invariant_measure_sampler_matches_closed_forms(request, name, n,
                                                        steps):
    """Points drawn by ``phase_columns`` follow cos(phi) dr dphi: cos(phi)
    has mean pi/4 and variance 2/3 - pi^2/16 at the draw and after the
    walk, and the mean flight is Santalo's, each within 4 standard errors.
    A flight's error is taken over per-orbit means, since the steps of one
    orbit are correlated."""
    table = request.getfixturevalue(name)
    wall_ids, r, phi = phase_columns(table, Stream([7]).random(2 * n))
    taus = np.empty((n, steps))
    for k, step in enumerate(regular_steps(table, wall_ids, r, phi, steps)):
        taus[step.rows, k] = step.tau
    assert step.rows.size == n       # the walk keeps every row
    var = 2.0 / 3.0 - math.pi ** 2 / 16.0
    for c in (np.cos(phi), np.cos(step.phi)):
        assert abs(c.mean() - math.pi / 4) < 4.0 * math.sqrt(var / n)
        dev = (c - c.mean()) ** 2
        assert abs(dev.mean() - var) < 4.0 * dev.std() / math.sqrt(n)
    per_orbit = taus.mean(axis=1)
    assert abs(per_orbit.mean() - MEAN_FLIGHT[name]) \
        < 4.0 * per_orbit.std(ddof=1) / math.sqrt(n)


# ---------------------------------------------------------------------------
# bit identity of the map

def _hex(x):
    return "-" if x is None else float(x).hex()


def _image_tokens(im):
    d = im.derivative
    return [str(im.point.wall_id), _hex(im.point.r), _hex(im.point.phi),
            _hex(im.tau), im.label, ",".join(im.trail), str(im.grazing),
            "-" if d is None else ",".join(_hex(v) for row in d
                                           for v in row)]


def _map_tokens(fn, table, p):
    try:
        res = fn(table, p)
    except BilliardError as err:   # the raised type and message count too
        return [type(err).__name__, str(err)]
    return [tok for im in res.images for tok in _image_tokens(im)]


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
            p, n, t = w.chart_frame(r)
            dx, dy = c.position[0] - p[0], c.position[1] - p[1]
        else:
            q, _n, t = w.chart_frame(r)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            dx, dy = sign * t[0], sign * t[1]
            try:
                hit = first_collision(table, Ray((q[0], q[1]), (-dx, -dy)))
            except BilliardError:
                continue
            w, r = table.walls[hit.wall_id], hit.r
            p, n, t = w.chart_frame(r)
        phi = math.atan2(dx * t[0] + dy * t[1], dx * n[0] + dy * n[1])
        if abs(phi) < HALF_PI:
            out.append(PhasePoint(w.wall_id, float(r), float(phi)))
    return out


def _digest_points(table, seed, count=2000, ends=200, aimed=200):
    """``count`` points from the invariant measure, ``ends`` more departing
    from wall endpoints (corner departures and corner steps), and ``aimed``
    more aimed at a corner or grazing a wall (branched and grazing images).
    """
    rng = np.random.default_rng(seed)
    pts = [random_phase_point(table, rng) for _ in range(count)]
    for _ in range(ends):
        w = table.walls[int(rng.integers(len(table.walls)))]
        r = w.length if rng.random() < 0.5 else 0.0
        pts.append(PhasePoint(w.wall_id, r, float(rng.uniform(-1.5, 1.5))))
    return pts + _aimed_points(table, rng, aimed)


def map_digest(table, seed):
    """sha256 over every field of forward and inverse at seeded points."""
    h = hashlib.sha256()
    for p in _digest_points(table, seed):
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
# the value types of one collision step

def test_value_types_are_immutable_hashable_and_ordered():
    p = PhasePoint(1, 0.5, 0.25)
    assert (p.wall_id, p.r, p.phi) == (1, 0.5, 0.25)
    im = MapImage(p, 2.0, "regular", ((1.0, 0.0), (0.0, 1.0)))
    assert (im.point, im.tau, im.label) == (p, 2.0, "regular")
    assert im.derivative == ((1.0, 0.0), (0.0, 1.0))
    assert im.trail == () and im.grazing is False
    assert MapImage(p, 2.0, "graze", None, ("pass:c0",), True).branch \
        == "graze|pass:c0"
    res = MapResult((im,))
    assert res.images == (im,) and res.regular and res.smooth is im
    ray = Ray((0.0, 1.0), (1.0, 0.0))
    assert (ray.origin, ray.direction) == ((0.0, 1.0), (1.0, 0.0))
    assert ray.at(2.0) == (2.0, 1.0)
    oc = CollisionOutcome("regular", 1.5, (3.0, 4.0))
    assert (oc.kind, oc.tau, oc.point) == ("regular", 1.5, (3.0, 4.0))
    assert (oc.wall_id, oc.r, oc.normal_component, oc.corner_id,
            oc.properness) == (None,) * 5
    for value, field in ((p, "phi"), (im, "tau"), (res, "images"),
                         (ray, "origin"), (oc, "kind")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        assert hash(value) == hash(type(value)(*value))
    assert len({p, PhasePoint(1, 0.5, 0.25)}) == 1


def _conjugate(im):
    d = im.derivative
    if d is not None:
        d = ((d[0][0], -d[0][1]), (-d[1][0], d[1][1]))
    return MapImage(involute(im.point), im.tau, im.label, d, im.trail,
                    im.grazing)


@pytest.mark.parametrize("name", ["tri", "torus2", "lens"])
def test_inverse_is_conjugated_forward_of_involute(name, request):
    table = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    pts = [random_phase_point(table, rng) for _ in range(150)]
    # points whose backward step is aimed at a corner or grazes a wall
    pts += [involute(q) for q in _aimed_points(table, rng, 50)]
    branched = 0
    for p in pts:
        try:
            want = forward(table, involute(p))
        except BilliardError as err:
            with pytest.raises(type(err)):
                inverse(table, p)
            continue
        got = inverse(table, p)
        assert got == MapResult(tuple(map(_conjugate, want.images)))
        assert type(got) is MapResult
        assert all(type(im) is MapImage and type(im.point) is PhasePoint
                   for im in got.images)
        branched += len(got.images) > 1
    assert branched > 0


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


# ---------------------------------------------------------------------------
# the batched regular step and the estimators built on it

def _assert_is_forward_image(table, p, im):
    """im is forward's one plain regular image at p, bit for bit."""
    res = forward(table, p)
    assert res.regular
    assert _image_tokens(im) == _image_tokens(res.images[0])
    assert type(im.point.wall_id) is int and type(im.tau) is float


def _by_point(got, count):
    """The MapImage of each of count points in a RegularRows, or None."""
    out = [None] * count
    for i, im in zip(got.rows.tolist(), got.images(slice(None))):
        out[i] = im
    return out


def _kernel_images(calls, count):
    """The MapImage that the recorded kernel calls gave each of count points,
    or None where none answered."""
    out = [None] * count
    for _, got in calls:
        for i, im in zip(got.rows.tolist(), got.images(slice(None))):
            out[i] = im
    return out


def _plain_images(table, points):
    return _by_point(plain_rows(table, *point_columns(points)), len(points))


def _plain_image(table, p):
    """forward's image at p when it is one plain regular step, else None."""
    try:
        res = forward(table, p)
    except BilliardError:
        return None
    return res.images[0] if res.regular else None


@pytest.mark.parametrize("name", ["tri", "lens", "torus2", "wedge"])
def test_regular_images_equal_forward(name, request):
    """plain_rows and its kernel give forward's image, bit for bit, at every
    point they map; plain_rows maps every point forward maps plainly, and
    the kernel more than half of them off the torus."""
    table = (wedge_table(1e-5) if name == "wedge"
             else request.getfixturevalue(name))
    pts = _digest_points(table, 20260)
    pts += [involute(p) for p in pts]
    accepted = 0
    with kernel_calls() as calls:
        plains = _plain_images(table, pts)
    kernel = _kernel_images(calls, len(pts))
    for p, im, plain in zip(pts, kernel, plains):
        if im is not None:
            _assert_is_forward_image(table, p, im)
            accepted += 1
        assert (plain is None) == (_plain_image(table, p) is None)
        if plain is not None:
            _assert_is_forward_image(table, p, plain)
    if name == "torus2":
        assert accepted == 0
    else:
        assert accepted > len(pts) // 2


def _outcome(table, p):
    try:
        res = forward(table, p)
    except BilliardError:
        return "raises"
    if any(im.grazing for im in res.images):
        return "grazing"
    return "branched" if len(res.images) > 1 else "single"


def _near_grazing_arrivals(table, rng, count):
    """count points whose forward image is one plain regular step that
    arrives with 1e-9 < cos(phi') < 1e-6, where the kernel of plain_rows
    declines it: each flies back from a departure that close to tangency."""
    out = []
    while len(out) < count:
        w = table.walls[int(rng.integers(len(table.walls)))]
        u = 10.0 ** rng.uniform(-8.5, -6.2)
        y = PhasePoint(w.wall_id, float(rng.uniform(0.05, 0.95)) * w.length,
                       math.copysign(HALF_PI - u, rng.random() - 0.5))
        im = _plain_image(table, y)
        if im is not None:
            p = involute(im.point)
            back = _plain_image(table, p)
            if back is not None and 1e-9 < math.cos(back.point.phi) < 1e-6:
                out.append(p)
    return out


def _kinds(table):
    """test_regular_images_equal_forward's points, and two at |phi| = pi/2,
    by ``_outcome``."""
    pool = _digest_points(table, 20260)
    pool += [involute(p) for p in pool]
    pool += [PhasePoint(0, 0.5 * table.walls[0].length, s * HALF_PI)
             for s in (1.0, -1.0)]
    kinds = {}
    for p in pool:
        kinds.setdefault(_outcome(table, p), []).append(p)
    return kinds


def _declined_points(table, kinds):
    """Up to three points of kinds where forward raises (among them |phi| =
    pi/2), branches or grazes, and three whose plain image the kernel
    declines near grazing."""
    ends = [p for kind in ("raises", "branched", "grazing")
            for p in kinds.get(kind, [])[-3:]]
    if table.ambient == "plane":
        ends += _near_grazing_arrivals(table, np.random.default_rng(5), 3)
    return ends


def _mixed_points(table, count):
    """count points of test_regular_images_equal_forward's set: the
    ``_declined_points`` at each end, and single-image points between
    them."""
    kinds = _kinds(table)
    ends = _declined_points(table, kinds)
    return ends + kinds["single"][:count - 2 * len(ends)] + ends


@pytest.mark.parametrize("name", ["tri", "lens", "torus2", "wedge"])
def test_smooth_images_equal_forward(name, request):
    """plain_rows gives forward's image at each point it maps plainly and
    none elsewhere; on a plane table a block of BATCH_MIN rows or more goes
    through the kernel, and the tail of BATCH_ROWS + 10 rows, below
    BATCH_MIN, does not; on the torus no block does."""
    table = (wedge_table(1e-5) if name == "wedge"
             else request.getfixturevalue(name))
    kinds = set()
    for count, sizes in ((BATCH_MIN - 1, []), (BATCH_MIN, [BATCH_MIN]),
                         (BATCH_ROWS + 10, [BATCH_ROWS])):
        pts = _mixed_points(table, count)
        assert len(pts) == count
        with kernel_calls() as calls:
            got = _plain_images(table, pts)
        if table.ambient != "plane":
            sizes = []
        assert [rows.size for rows, _ in calls] == sizes
        assert len(got) == count
        for p, im in zip(pts, got):
            kinds.add(_outcome(table, p))
            want = _plain_image(table, p)
            assert (im is None) == (want is None)
            if im is not None:
                assert _image_tokens(im) == _image_tokens(want)
    assert {"raises", "grazing", "single"} <= kinds
    if table.corners:
        assert "branched" in kinds


def _assert_row_shapes(got):
    """got has plain_rows' layout: strictly rising integer rows, integer
    walls, float64 r, phi and tau, and one 2 x 2 float64 derivative per
    row."""
    k = got.rows.size
    assert np.all(np.diff(got.rows) > 0)
    for a in (got.rows, got.wall_id):
        assert a.dtype == np.dtype(int) and a.shape == (k,)
    for a in (got.r, got.phi, got.tau):
        assert a.dtype == np.float64 and a.shape == (k,)
    assert got.derivative.dtype == np.float64
    assert got.derivative.shape == (k, 2, 2)


def _assert_plain_rows(table, pts):
    """plain_rows over pts has its layout, and its rows are the points
    with a plain image, each forward's bit for bit."""
    got = plain_rows(table, *point_columns(pts))
    _assert_row_shapes(got)
    want = [_plain_image(table, p) for p in pts]
    assert got.rows.tolist() == [i for i, im in enumerate(want)
                                 if im is not None]
    for i, im in zip(got.rows.tolist(), got.images(slice(None))):
        assert _image_tokens(im) == _image_tokens(want[i])
    return got


@pytest.mark.parametrize("name", ["tri", "torus2"])
def test_plain_rows_of_no_points(name, request):
    table = request.getfixturevalue(name)
    for cols in (([], [], []), point_columns([])):
        got = plain_rows(table, *cols)
        _assert_row_shapes(got)
        assert got.rows.size == 0


def test_plain_rows_where_the_kernel_answers_no_row(tri):
    """A block of BATCH_MIN points that the kernel declines one and all
    (raising, branched, grazing and near-grazing ones): forward alone
    answers, and only at the near-grazing points."""
    ends = _declined_points(tri, _kinds(tri))
    pts = (ends * BATCH_MIN)[:BATCH_MIN]
    with kernel_calls() as calls:
        got = _assert_plain_rows(tri, pts)
    assert [(rows.size, ans.rows.size) for rows, ans in calls] \
        == [(BATCH_MIN, 0)]
    assert 0 < got.rows.size < BATCH_MIN


def test_plain_rows_across_a_block_boundary(tri):
    """Kernel answers, declined rows that forward maps and rows where
    forward raises or does not map plainly, on both sides of the first
    BATCH_ROWS boundary, come back as one set of rows in point order."""
    pts = _mixed_points(tri, BATCH_ROWS + 40)
    pts = pts[40:] + pts[:40]
    with kernel_calls() as calls:
        got = _assert_plain_rows(tri, pts)
    assert [rows.size for rows, _ in calls] == [BATCH_ROWS, 40]
    answered = {i for _, ans in calls for i in ans.rows.tolist()}
    declined = set(got.rows.tolist()) - answered
    missing = set(range(len(pts))) - set(got.rows.tolist())
    for block in (range(0, BATCH_ROWS), range(BATCH_ROWS, len(pts))):
        assert answered & set(block) and declined & set(block)
        assert missing & set(block)
    assert {_outcome(tri, pts[i]) for i in missing} \
        == {"raises", "branched", "grazing"}


def test_regular_images_accept_most_random_points(tri):
    cols = random_phase_points(tri, np.random.default_rng(3), 2000)
    with kernel_calls() as calls:
        assert plain_rows(tri, *cols).rows.size >= 0.95 * 2000
    assert sum(got.rows.size for _, got in calls) >= 0.95 * 2000


def _padded(table, z):
    """z followed by BATCH_MIN random points, so that plain_rows sends it
    through its kernel."""
    rng = np.random.default_rng(11)
    return [z] + [random_phase_point(table, rng) for _ in range(BATCH_MIN)]


@settings(max_examples=300, deadline=None)
@given(_phase_points())
def test_regular_images_property(request, drawn):
    table, z = _point(request, drawn)
    pts = _padded(table, z)
    with kernel_calls() as calls:
        im = _plain_images(table, pts)[0]
    kernel = _kernel_images(calls, len(pts))[0]
    if kernel is not None:
        _assert_is_forward_image(table, z, kernel)
    assert (im is None) == (_plain_image(table, z) is None)
    if im is not None:
        _assert_is_forward_image(table, z, im)


def _cone_by_forward(table, z):
    """The operative cone at z from forward one point at a time: the
    cone_slopes of the plain step that arrives at z, or None."""
    im = _plain_image(table, involute(z))
    if im is None:
        return None
    return cone_slopes(im.tau, table.wall(im.point.wall_id).kappa,
                       -im.point.phi, table.wall(z.wall_id).kappa, z.phi)


def _assert_cones_by_forward(table, points):
    """unstable_cones over the points, and over each point as one row, are
    _cone_by_forward bit for bit."""
    rows, lo, hi = unstable_cones(table, *point_columns(points))
    cones = dict(zip(rows.tolist(), zip(lo.tolist(), hi.tolist())))
    for i, z in enumerate(points):
        want = _cone_by_forward(table, z)
        one, one_lo, one_hi = unstable_cones(table, [z.wall_id], [z.r],
                                             [z.phi])
        if want is None:
            assert i not in cones
            assert not one.size
        else:
            assert [_hex(v) for v in cones[i]] == [_hex(v) for v in want]
            assert one.tolist() == [0]
            assert [_hex(v) for v in (one_lo[0], one_hi[0])] \
                == [_hex(v) for v in want]


@pytest.mark.parametrize("name", ["tri", "lens", "torus2", "wedge"])
def test_unstable_cones_equal_forward_cones(name, request):
    """Cones over a block of random points, corner departures, points aimed
    at corners or tangencies, near-tangent departures, |phi| = pi/2 and
    points whose arriving step the kernel of plain_rows declines near
    grazing."""
    table = (wedge_table(1e-5) if name == "wedge"
             else request.getfixturevalue(name))
    rng = np.random.default_rng(808)
    pts = _digest_points(table, 808, count=300, ends=60, aimed=60)
    pts += [PhasePoint(w.wall_id, 0.5 * w.length, s * (HALF_PI - u))
            for w in table.walls for s in (1.0, -1.0)
            for u in (0.0, 1e-12, 1e-9, 1e-7, 1e-5)]
    declined = []
    if table.ambient == "plane":
        declined = [involute(p) for p in _near_grazing_arrivals(table, rng,
                                                                 20)]
    pts += declined
    assert len(pts) >= BATCH_MIN
    with kernel_calls() as calls:
        _assert_cones_by_forward(table, pts)
    # the kernel maps the block of arriving steps, but none of those
    answered = {i for _, got in calls for i in got.rows.tolist()}
    assert bool(calls) == (table.ambient == "plane")
    assert answered.isdisjoint(range(len(pts) - len(declined), len(pts)))


@settings(max_examples=200, deadline=None)
@given(_phase_points())
@example(("tri", 0, 0.0, 0.4))          # corner departures
@example(("tri", 1, 1.0, -0.4))
@example(("lens", 0, 0.5, HALF_PI - 1e-7))
def test_unstable_cones_property(request, drawn):
    table, z = _point(request, drawn)
    _assert_cones_by_forward(table, _padded(table, z))


def test_block_draws_equal_scalar_draws(tri, lens):
    for table in (tri, lens):
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        block = random_phase_points(table, a, 300)
        assert list(map(PhasePoint, *(c.tolist() for c in block))) \
            == [random_phase_point(table, b) for _ in range(300)]
        assert a.random() == b.random()


# recorded from the one-point-at-a-time estimators
_ESTIMATES = {
    "tri": (
        (0.33624332764501735, 2000),
        (6.418171734908016, 1.3530752042790595,
         (0.48570504796960634, 0.30231593570347703, 0.08560979590592949,
          -0.14515038635919167, -0.3780491526710764, -0.6008893044815578,
          -0.7817854397594686, -0.09007565179143473, 0.30107143360230304,
          0.8212477218814216),
         (0.7488153295121339, 0.8434353176749428, 0.9188813506411819,
          0.9871053346012792, 1.0581294097723069, 1.1457304951610794,
          1.2937257272893796, 3.495987685409223, 6.994631678053037,
          15.92195813014496))),
    "torus2": (
        (1.5221661031786686, 2000),
        (1.6134130238476694, 2.4424564526393895,
         (0.08544111251711328, -0.05527448441123961, -0.1885296594310999,
          -0.1774555068178123, 0.01533671189442476, 0.278754188216765,
          0.24611359092416496, 0.09871919607425905, -0.06981295769961093,
          -0.23329219126694234),
         (2.0821182267456066, 4.417944013687305, 9.444414734038485,
          23.324445221139012, 69.0822936955995, 219.58078554354066,
          519.0934302709403, 1094.106981677703, 2257.8445306483663,
          4682.984652300685))),
    "lens": (
        (0.2967141943651992, 2000),
        (14.827168345079391, 1.6722902213255975,
         (0.8269011376825023, 0.28464752998260623, -0.1295034911367962,
          -0.47696113556183445, -0.7269359305578351, -0.8288309354388463,
          0.10858706942120167, 0.1285916257230082, 0.416059707160251,
          0.3974444227257625),
         (0.5906479957689725, 0.5743050501308478, 0.6347325678566248,
          0.7499002440297546, 0.9766803970676597, 1.4750667820893524,
          6.29852416586042, 10.745789246248778, 23.954977670747645,
          39.320850714525925))),
}


@pytest.mark.parametrize("name", sorted(_ESTIMATES))
def test_estimators_reproduce_recorded_values(name, request):
    table = request.getfixturevalue(name)
    expansion, hyperbolicity = _ESTIMATES[name]
    assert repr(certify_expansion_constant(table, 2000, 61)) \
        == repr(expansion)
    assert repr(certify_hyperbolicity(table, 200, 61, n_max=10)) \
        == repr(hyperbolicity)


@pytest.mark.parametrize("name,seed,want", [
    ("tri", 61, (0.28032629280360616, 10000)),
    ("torus2", 1061, (1.5431402725861232, 10000)),
])
def test_expansion_constant_reproduces_recorded_values(name, seed, want,
                                                       request):
    """10,000 samples span many BATCH_ROWS blocks: the values recorded when
    each block was drawn and mapped by its own calls."""
    table = request.getfixturevalue(name)
    assert repr(certify_expansion_constant(table, 10000, seed)) == repr(want)


def _expansion_constant_in_one_shot(table, samples, seed):
    """certify_expansion_constant as it was before it worked in blocks:
    every sample drawn by one call and mapped by one plain_rows call."""
    cols = random_phase_points(table, Stream([seed, 0xC0]), samples)
    rows, lo, _ = unstable_cones(table, *cols)
    step = plain_rows(table, *cols)
    both = np.isin(step.rows, rows)
    slope = lo[np.searchsorted(rows, step.rows[both])]
    floor = expansion_factors(step.derivative[both], slope) \
        * np.array([math.cos(phi) for phi in step.phi[both].tolist()])
    return float(floor.min()), floor.size


@pytest.mark.parametrize("samples", [1, 511, 512, 513, 10000])
def test_expansion_constant_in_blocks_equals_one_shot(tri, samples):
    """Counts around one BATCH_ROWS block and across many: the minimum and
    the count are exact, so the blocks change no bit; and the 10,000-sample
    run holds one block's arrays at a time, where the one-shot run's peak is
    about 2.8 MB."""
    tracemalloc.start()
    try:
        got = certify_expansion_constant(tri, samples, 61)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert repr(got) == repr(_expansion_constant_in_one_shot(tri, samples,
                                                             61))
    assert peak < 1_000_000


def _growth_minima_by_point(table, samples, seed, n_max):
    """certify_hyperbolicity's per-step minima, one point at a time: each
    point of a block is an attempt until `samples` points were used, and a
    point is used when it has a cone and n_max plain steps."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC1]))
    mins = [math.inf] * n_max
    used = attempts = 0
    cap = 20 * samples
    while used < samples and attempts < cap:
        cols = random_phase_points(table, rng,
                                   min(BATCH_ROWS, cap - attempts))
        for z in map(PhasePoint, *(c.tolist() for c in cols)):
            if used >= samples:
                break
            attempts += 1
            cone = _cone_by_forward(table, z)
            if cone is None:
                continue
            lo, hi = cone
            if math.isinf(hi):
                hi = 10.0 * lo + 1.0
            s = lo + 0.5 * (hi - lo) if lo <= 0.0 else lo * (hi / lo) ** 0.5
            h = math.hypot(1.0, s)
            vx, vy, p, norms = 1.0 / h, s / h, z, []
            for _ in range(n_max):
                im = _plain_image(table, p)
                if im is None:
                    break
                (a, b), (c, d) = im.derivative
                vx, vy = a * vx + b * vy, c * vx + d * vy
                norms.append(math.hypot(vx, vy))
                p = im.point
            if len(norms) == n_max:
                used += 1
                mins = [min(m, g) for m, g in zip(mins, norms)]
    return tuple(mins)


@pytest.mark.parametrize("samples", [1, 2, 3, 40])
def test_growth_minima_equal_one_point_at_a_time(tri, samples):
    """Small sample counts end the count inside a block, so a block that
    used one point too many or too few would change a minimum."""
    for seed in (61, 62, 63):
        assert repr(certify_hyperbolicity(tri, samples, seed, n_max=4)[3]) \
            == repr(_growth_minima_by_point(tri, samples, seed, 4))


def test_estimators_abort_when_nothing_was_sampled(tri):
    with pytest.raises(NumericalAbort, match="no regular samples"):
        certify_expansion_constant(tri, 0, 61)
    with pytest.raises(NumericalAbort, match="no full-length regular orbits"):
        certify_hyperbolicity(tri, 0, 61)
