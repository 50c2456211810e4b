import hashlib
import json
import math

import numpy as np
import pytest

from billexp import singularities as S
from billexp.bmap import (HALF_PI, K0_DEFAULT, PhasePoint, bisect_edge,
                          estimate_constants, forward, inverse, orbit,
                          random_phase_point, strip_index)
from billexp.errors import BilliardError, OutOfRange, UnstablePortrait
from billexp.flow import Ray, first_collision
from billexp.geometry import EPS_CORNER


def sminus1(table, resolution=400):
    return [c for c in S.trace_singularity(table, -1, resolution=resolution)
            if not c.fragment]


def branch_on(curves, wall_id, origin, r_hint=None):
    got = [c for c in curves if c.wall_id == wall_id and c.origin == origin]
    if r_hint is not None:
        got = [c for c in got if c.nodes[0].r <= r_hint <= c.nodes[-1].r]
    assert got
    return got[0]


# ---------------------------------------------------------------------------
# level-0 inventory and traced levels

def test_level0_inventory(tri):
    curves = S.trace_singularity(tri, 0, resolution=50)
    grazing = [c for c in curves if c.origin == "grazing-preimage"]
    verticals = [c for c in curves if c.origin == "corner-preimage"]
    assert len(grazing) == 2 * len(tri.walls)
    assert len(verticals) == 2 * len(tri.corners)
    for c in grazing:
        assert all(abs(p.phi) == HALF_PI for p in c.nodes)
    for c in verticals:
        rs = {p.r for p in c.nodes}
        assert len(rs) == 1


def test_level_cap(tri):
    with pytest.raises(ValueError):
        S.trace_singularity(tri, 7)
    with pytest.raises(ValueError):
        S.trace_singularity(tri, -7)


def test_sminus1_strictly_decreasing(tri):
    curves = sminus1(tri)
    assert curves
    for c in curves:
        assert c.level == -1
        for a, b in zip(c.nodes, c.nodes[1:]):
            assert (b.r - a.r) * (b.phi - a.phi) < 0.0


def _monotone(c):
    """Whether the nodes of c run strictly decreasing on a negative level and
    strictly increasing on a positive one."""
    if c.level == 0 or len(c.nodes) < 2:
        return True
    want = -1.0 if c.level < 0 else 1.0
    return all((b.r - a.r) * (b.phi - a.phi) * want > 0.0
               for a, b in zip(c.nodes, c.nodes[1:]))


def test_s1_matches_involuted_sminus1(tri):
    fwd = S.trace_singularity(tri, 1, resolution=200)
    bwd = S.trace_singularity(tri, -1, resolution=200)
    assert len(fwd) == len(bwd)
    for cf, cb in zip(fwd, bwd):
        assert cf.level == 1 and not cf.fragment or cf.fragment
        assert len(cf.nodes) == len(cb.nodes)
        for pf, pb in zip(cf.nodes, cb.nodes):
            assert pf.wall_id == pb.wall_id
            assert abs(pf.r - pb.r) <= 1e-8
            assert abs(pf.phi + pb.phi) <= 1e-8
    for c in fwd:
        assert _monotone(c)


def test_branch_count_stable_under_doubling(tri):
    coarse = sminus1(tri, resolution=200)
    fine = sminus1(tri, resolution=400)
    assert len(coarse) == len(fine)
    # one grazing-corner-grazing chain per wall
    assert len(fine) == 3 * len(tri.walls)


def test_sminus2_pullback(tri):
    curves = [c for c in S.trace_singularity(tri, -2, resolution=300)
              if not c.fragment]
    assert curves
    for c in curves:
        assert c.level == -2
        assert _monotone(c)


def test_junction_points(tri):
    pts = S.find_multiple_points(tri, resolution=300)
    assert len(pts) == 12
    per_wall = {w.wall_id: [p for p in pts if p.wall_id == w.wall_id]
                for w in tri.walls}
    assert all(len(v) == 4 for v in per_wall.values())
    # stable under refinement
    assert len(S.find_multiple_points(tri, resolution=600)) == 12
    # ends of the per-wall chain sit on the corner verticals
    L = tri.wall(0).length
    rs = sorted(p.r for p in per_wall[0])
    assert rs[0] < 1e-3 and L - rs[-1] < 1e-3
    # interior junctions mirror each other through the chart center
    assert abs((rs[1] + rs[2]) - L) < 5e-3


# ---------------------------------------------------------------------------
# portraits

def test_portrait_smooth_point_single_sector(tri):
    z = PhasePoint(0, 0.5 * tri.wall(0).length, 0.3)
    p = S.sector_portrait(tri, z, 1)
    assert p.full_circle
    assert len(p.sectors) == 1
    assert p.sectors[0].width == pytest.approx(2.0 * math.pi)


def test_portrait_on_corner_preimage_curve(tri):
    c = branch_on(sminus1(tri), 0, "corner-preimage")
    z = min(c.nodes, key=lambda p: abs(p.r - 0.9))
    p = S.classify_sectors(S.sector_portrait(tri, z, 1))
    wide = [s for s in p.sectors if s.width > 1e-4]
    # one cut through the center: two domains of smoothness; anything else
    # is a corner-ball artifact band far below the real sector scale
    assert len(wide) == 2
    assert all(s.regular for s in wide)
    assert {s.itinerary[0][0] for s in wide} == {"w1", "w2"}
    assert all(s.width < 1e-4 for s in p.sectors if s not in wide)
    assert {s.wall_type for s in wide} == {"A", "B"}


def test_portrait_on_graze_preimage_curve(tri):
    c = branch_on(sminus1(tri), 0, "grazing-preimage", r_hint=0.4)
    z = min(c.nodes, key=lambda p: abs(p.r - 0.4))
    p = S.classify_sectors(S.sector_portrait(tri, z, 1))
    wide = [s for s in p.sectors if s.width > 1e-2]
    slivers = [s for s in p.sectors if s not in wide]
    assert len(wide) == 2 and all(s.regular for s in wide)
    # the nearly-grazing class shows up on the clipping side of the tangency
    assert slivers
    assert all(s.itinerary[0][2] == "-" and not s.regular for s in slivers)


def test_inactive_sector_exists(tri):
    c = branch_on(sminus1(tri), 0, "grazing-preimage", r_hint=0.4)
    z = min(c.nodes, key=lambda p: abs(p.r - 0.4))
    p = S.classify_sectors(S.sector_portrait(tri, z, 1))
    assert any(s.active is False for s in p.sectors)
    for s in p.sectors:
        if s.active is False:
            lo, hi = s.image_lo, s.image_hi
            inside = any(S._inside_open_arc(lo, hi - lo, S.QUADRANTS[q])
                         for q in S.INACTIVE_QUADRANTS)
            assert inside


def test_portrait_boundary_center_half_ball(tri):
    z = PhasePoint(0, 0.5 * tri.wall(0).length, HALF_PI)
    p = S.sector_portrait(tri, z, 1)
    assert not p.full_circle
    lo = min(s.theta_lo for s in p.sectors)
    hi = max(s.theta_hi for s in p.sectors)
    assert hi - lo == pytest.approx(math.pi, abs=1e-9)
    for s in p.sectors:
        assert math.sin(0.5 * (s.theta_lo + s.theta_hi)) < 0.0


def test_unstable_portrait_reports_both(tri, monkeypatch):
    monkeypatch.setattr(S, "MAX_HALVINGS", 1)
    z = PhasePoint(0, 0.5 * tri.wall(0).length, 0.3)
    with pytest.raises(UnstablePortrait) as exc:
        S.sector_portrait(tri, z, 1)
    assert len(exc.value.decompositions) == 2


def test_probe_radius_reaching_the_chart_edge_is_refused(tri):
    """At r = 0.5, phi = 0.3 on wall 0 the nearest chart edge the probe
    circle can cross is r = 0, 0.5 away: a given rho0 must stay below it."""
    z = PhasePoint(0, 0.5, 0.3)
    for rho0 in (10.0, 0.5):
        with pytest.raises(OutOfRange):
            S.sector_portrait(tri, z, 2, rho0=rho0)


def test_vertex_order1_bound(tri):
    con = estimate_constants(tri, samples=4000, seed=3)
    table = tri.with_constants(con)
    z = PhasePoint(0, 0.5 * table.wall(0).length, 0.0)
    rec = S.regular_complexity(table, z, 1)
    assert len(S.sector_portrait(table, z, 1).sectors) <= con.sector_bound()
    assert rec.k_hat == 2


# preimage of the upper lens tip along an improper approach, found by
# scanning aimed shots from wall 0 and kept fixed for reproducibility
IMPROPER_TIP_PREIMAGE = PhasePoint(0, 1.9992819686086227, 0.9715563880818995)


def test_improper_tip_one_type_a(lens):
    z = IMPROPER_TIP_PREIMAGE
    oc, _tau = S._march(lens, lens.wall(0), z.r, z.phi, target_wall=None)
    assert oc.kind == "corner" and oc.corner_id == 3
    assert oc.properness == "improper"
    p = S.classify_sectors(S.sector_portrait(lens, z, 1))
    emanating = [s for s in p.sectors
                 if any(q in s.quadrants for q in S.ACTIVE_QUADRANTS)
                 and s.width > 1e-4]
    assert sum(1 for s in emanating if s.wall_type == "A") == 1


def test_front_back_split_refines(lens):
    z = IMPROPER_TIP_PREIMAGE
    plain = S.sector_portrait(lens, z, 1)
    split = S.sector_portrait(lens, z, 1, front_back=True)
    assert len(split.sectors) >= len(plain.sectors)
    assert all(len(sym) == 4 for s in split.sectors for sym in s.itinerary
               if sym[0] != "!")


# ---------------------------------------------------------------------------
# complexity and conservation

def test_complexity_record_vertex(tri):
    z = PhasePoint(0, 0.5 * tri.wall(0).length, 0.0)
    rec = S.regular_complexity(tri, z, 3)
    assert rec.k_hat <= sum(rec.quadrant_counts.values())
    for q in S.INACTIVE_QUADRANTS:
        assert rec.quadrant_counts[q] == 1
    assert len(S.sector_portrait(tri, z, 1).sectors) == 4


def test_simple_point_complexity_at_most_two(tri):
    c = branch_on(sminus1(tri), 0, "corner-preimage")
    z = min(c.nodes, key=lambda p: abs(p.r - 0.9))
    rec = S.regular_complexity(tri, z, 1)
    assert rec.k_hat <= 2


def test_fit_complexity_slope(tri):
    z = PhasePoint(0, 0.5 * tri.wall(0).length, 0.0)
    recs = [S.regular_complexity(tri, z, n) for n in (1, 2, 3)]
    xi = S.fit_complexity_slope(recs)
    for rec in recs:
        assert rec.k_hat <= xi * rec.order + 1e-12
    assert xi == pytest.approx(max(r.k_hat / r.order for r in recs), rel=0.5)


def test_conservation_vertex_and_smooth(tri):
    L0 = tri.wall(0).length
    v1 = S.active_sector_conservation(tri, PhasePoint(0, 0.5 * L0, 0.0))
    assert v1.passed
    v2 = S.active_sector_conservation(tri, PhasePoint(0, 0.4 * L0, 0.21))
    assert v2.passed
    assert all(n <= 1 for n in v2.counts.values())


def test_portrait_json_shape(tri):
    z = PhasePoint(0, 0.5 * tri.wall(0).length, 0.0)
    p = S.classify_sectors(S.sector_portrait(tri, z, 1))
    doc = p.to_json()
    assert set(doc) == {"center", "rho_hat", "order", "k0", "sectors"}
    assert doc["center"]["wall_id"] == 0
    for s in doc["sectors"]:
        assert set(s) == {"theta_lo", "theta_hi", "itinerary", "regular",
                          "active", "type"}
        assert isinstance(s["itinerary"], list)


# ---------------------------------------------------------------------------
# complexity counts on the batched probe ring

# a centre on a level -1 curve per table, and per order n = 1, 2, 3 the
# (k_hat, quadrant_counts) and the sha256 prefix of the portrait's JSON,
# recorded from the probe ring walked one direction at a time
_CENTRES = {
    "tri": ((0, "0x1.07a18cf41e625p+0", "-0x1.48b9156547ca5p-7"), (
        (2, (1, 2, 1, 2), "2ee23695d4958934"),
        (6, (1, 4, 1, 4), "abad50ce04ec24c8"),
        (10, (1, 6, 1, 6), "ab73808f3b517e8d"))),
    "torus2": ((0, "0x1.251a866617ac0p+0", "0x1.add44a8b2d560p-4"), (
        (1, (1, 1, 1, 1), "629d7040824f806d"),
        (1, (1, 1, 1, 1), "069ee6e2281e3969"),
        (6, (2, 3, 1, 4), "0e71f14917cb9b5b"))),
    "lens": ((0, "0x1.4c2cd57107905p+1", "0x1.32ed279c1ed06p-3"), (
        (2, (1, 2, 1, 2), "6f5fb258d7f26dcc"),
        (6, (1, 4, 1, 4), "3a34c83e4fe3de2b"),
        (10, (1, 6, 1, 6), "0be4cfc4bc35b3f9"))),
}


@pytest.mark.parametrize("name", sorted(_CENTRES))
def test_regular_complexity_reproduces_recorded_records(name, request):
    table = request.getfixturevalue(name)
    (wall_id, r, phi), want = _CENTRES[name]
    z = PhasePoint(wall_id, float.fromhex(r), float.fromhex(phi))
    for n, (k_hat, counts, digest) in enumerate(want, start=1):
        rec = S.regular_complexity(table, z, n)
        assert (rec.center, rec.order, rec.k_hat) == (z, n, k_hat)
        assert rec.quadrant_counts == dict(zip(("NE", "NW", "SW", "SE"),
                                               counts))
        doc = json.dumps(S.sector_portrait(table, z, n).to_json())
        assert hashlib.sha256(doc.encode()).hexdigest()[:16] == digest


# ---------------------------------------------------------------------------
# one probe walk per centre, shared by every order

def _portrait_fields(p):
    """Everything a classified portrait reports, with the image arcs."""
    return (json.dumps(p.to_json()), p.rho_hat, p.full_circle,
            [(s.active, s.wall_type, s.quadrants, s.regular,
              s.image_lo, s.image_hi) for s in p.sectors])


def _centres(name, table):
    if name == "torus2":
        rng = np.random.default_rng(np.random.SeedSequence([23, 0xC3]))
        return [random_phase_point(table, rng) for _ in range(4)]
    return S.find_multiple_points(table, resolution=200)


@pytest.mark.parametrize("name", ["tri", "lens", "torus2"])
def test_shared_walks_equal_one_order_portraits(name, request):
    """Orders 1-3 walked together give the portraits and classifications of
    one order at a time, and at the fit's two centres the same records."""
    table = request.getfixturevalue(name)
    centres = _centres(name, table)
    for z in centres:
        shared = S._portraits(table, z, (1, 2, 3), K0_DEFAULT, None, False)
        for n, got in zip((1, 2, 3), shared):
            try:
                want = S.sector_portrait(table, z, n)
            except BilliardError as err:
                assert (type(got), str(got)) == (type(err), str(err))
                continue
            assert got.order == n
            assert _portrait_fields(S.classify_sectors(got)) \
                == _portrait_fields(S.classify_sectors(want))
    for z in centres[:2]:
        assert list(S.regular_complexities(table, z, (1, 2, 3))) \
            == [S.regular_complexity(table, z, n) for n in (1, 2, 3)]


def test_unstable_order_leaves_the_others_unchanged(tri, monkeypatch):
    (wall_id, r, phi), _ = _CENTRES["tri"]
    z = PhasePoint(wall_id, float.fromhex(r), float.fromhex(phi))
    want = {n: S.regular_complexity(tri, z, n) for n in (1, 3)}
    sectors_at = S._sectors_at
    calls = []

    def restless(walks, n, rho, arc):
        got = sectors_at(walks, n, rho, arc)
        if n == 2:   # a new sector at every radius: order 2 never settles
            calls.append(rho)
            got.append(S.Sector(0.0, 1.0, (("x", len(calls)),)))
        return got

    monkeypatch.setattr(S, "_sectors_at", restless)
    one, two, three = S.regular_complexities(tri, z, (1, 2, 3))
    assert isinstance(two, UnstablePortrait)
    assert len(calls) == S.MAX_HALVINGS + 1
    assert [p.order for p in two.decompositions] == [2, 2]
    assert (one, three) == (want[1], want[3])


def _split_departures(table, rng, count):
    """count departures whose first step branches: aimed at a corner, or
    tangent to a wall at their first hit (found by flying backward from the
    grazing point, then moving phi by a few ulps until the flight grazes)."""
    def branches(p):
        try:
            return len(forward(table, p).images) > 1
        except BilliardError:
            return False

    out = []
    while len(out) < count:
        w = table.walls[int(rng.integers(len(table.walls)))]
        r = float(rng.uniform(0.02, 0.98)) * w.length
        q, n, t = w.chart_frame(r)
        if rng.random() < 0.5:
            c = table.corners[int(rng.integers(len(table.corners)))]
            dx, dy = c.position[0] - q[0], c.position[1] - q[1]
        else:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            dx, dy = sign * t[0], sign * t[1]
            try:
                hit = first_collision(table, Ray(q, (-dx, -dy)))
            except BilliardError:
                continue
            w, r = table.walls[hit.wall_id], hit.r
            q, n, t = w.chart_frame(r)
        phi = math.atan2(dx * t[0] + dy * t[1], dx * n[0] + dy * n[1])
        got = [p for p in (PhasePoint(w.wall_id, r, phi + k * 1e-16)
                           for k in range(-6, 7))
               if abs(p.phi) < HALF_PI and branches(p)]
        out += got[:1]
    return out


def _boundary_departures(table):
    """Corner departures within 1e-12 of each edge in phi where the
    corner-step into the other wall begins; where that edge is the wedge
    boundary, forward raises."""
    def corner_step(p):
        try:
            return forward(table, p).images[0].label == "corner-step"
        except BilliardError:
            return None

    out = []
    phis = np.linspace(-1.5, 1.5, 301).tolist()
    for w in table.walls:
        for r in (0.0, w.length):
            steps = [corner_step(PhasePoint(w.wall_id, r, f)) for f in phis]
            for f0, s0, f1, s1 in zip(phis, steps, phis[1:], steps[1:]):
                if None not in (s0, s1) and s0 != s1:
                    good, bad = bisect_edge(
                        lambda f: corner_step(PhasePoint(w.wall_id, r, f))
                        == s0, f0, f1, 1e-12)
                    out.append(PhasePoint(w.wall_id, r, 0.5 * (good + bad)))
    return out


def _preimages(table, points, steps):
    """The points, and their smooth preimages up to ``steps`` steps back."""
    out, cur = list(points), list(points)
    for _ in range(steps):
        nxt = []
        for q in cur:
            try:
                im = inverse(table, q).smooth
            except BilliardError:
                continue
            if im is not None:
                nxt.append(im.point)
        out += nxt
        cur = nxt
    return out


def _ending(walk):
    """How a walk ends (a graze or corner split, or its status), and after
    how many completed steps."""
    kind = walk.status
    if kind == "branched":
        kind = "graze" if any(im.grazing for im in walk.split) else "corner"
    return kind, len(walk.images)


@pytest.mark.parametrize("name", ["tri", "lens"])
def test_truncated_deep_walks_equal_itineraries(name, request):
    """The m-step itinerary is the first m symbols of a deeper one, on
    points whose walks end by a graze, a corner split or a singular
    departure at the first, second or third step."""
    table = request.getfixturevalue(name)
    rng = np.random.default_rng(31)
    ends = _split_departures(table, rng, 40) + _boundary_departures(table)
    ends += [PhasePoint(0, 0.5 * table.walls[0].length, s * HALF_PI)
             for s in (1.0, -1.0)]
    points = _preimages(table, ends, 2)
    seen = {_ending(orbit(table, p, 5)) for p in points}
    for p in points:
        for front_back in (False, True):
            deep = S.itinerary(table, p, 5, K0_DEFAULT, front_back)
            for n in (1, 2, 3, 4):
                assert deep[:n] == S.itinerary(table, p, n, K0_DEFAULT,
                                               front_back)
    for kind in ("graze", "corner", "singular"):
        assert {(kind, k) for k in (0, 1, 2)} <= seen


def test_first_homogeneity_strip_is_signed_in_itineraries(tri):
    """An image in H_{+-k0}, pi/2 - |phi'| in [1/(k0+1)^2, 1/k0^2), is in a
    strip, as ``HComponent.regular`` reads it: its symbol's class is the
    strip's sign, in ``itinerary`` and in the lockstep walk alike."""
    end = tri.wall(0).length - 1e-4
    for z, k in ((PhasePoint(0, 1e-4, 1.198197), -K0_DEFAULT),
                 (PhasePoint(0, end, -1.198197), K0_DEFAULT)):
        im = orbit(tri, z, 1).images[0]
        assert strip_index(im.point.phi, K0_DEFAULT) == k
        want = (("w%d" % im.point.wall_id, "regular", "+" if k > 0 else "-"),)
        assert S.itinerary(tri, z, 1, K0_DEFAULT) == want
        assert S._itineraries(tri, [z], 1, K0_DEFAULT, False) == [want]


@pytest.mark.parametrize("name", ["tri", "lens", "torus2"])
def test_lockstep_itineraries_equal_itinerary(name, request):
    """A row that leaves the lockstep walk, continued from its last plain
    image, gets ``itinerary``'s symbols: on probe rings around the fit's
    first centre (on tri it sits 7.6e-11 from a corner, so every probe
    departs from the corner band) and on random, split and singular
    departures and their preimages."""
    table = request.getfixturevalue(name)
    rng = np.random.default_rng(np.random.SeedSequence([37]))
    z = _centres(name, table)[0]
    rho = S._seed_rho(table, z, None)
    rings = [[S._probe_point(z, rho * 0.5 ** k, 2.0 * math.pi * i / 256)
              for i in range(256)] for k in (0, 3)]
    if name == "tri":
        assert all(p.r < EPS_CORNER for ring in rings for p in ring)
    mixed = [random_phase_point(table, rng) for _ in range(150)]
    if table.corners:
        mixed += _preimages(table, _split_departures(table, rng, 20)
                            + _boundary_departures(table), 2)
    for points in rings + [mixed]:
        for n in (1, 2, 3):
            for front_back in (False, True):
                assert S._itineraries(table, points, n, K0_DEFAULT,
                                      front_back) \
                    == [S.itinerary(table, p, n, K0_DEFAULT, front_back)
                        for p in points]


# ---------------------------------------------------------------------------
# multiple points as array crossings

def _segment_cross(a0, a1, b0, b1):
    dax, day = a1[0] - a0[0], a1[1] - a0[1]
    dbx, dby = b1[0] - b0[0], b1[1] - b0[1]
    den = dax * dby - day * dbx
    if abs(den) < 1e-18:
        return None
    ex, ey = b0[0] - a0[0], b0[1] - a0[1]
    s = (ex * dby - ey * dbx) / den
    t = (ex * day - ey * dax) / den
    if -1e-12 <= s <= 1.0 + 1e-12 and -1e-12 <= t <= 1.0 + 1e-12:
        return (a0[0] + s * dax, a0[1] + s * day)
    return None


def _nested_loop_junctions(curves):
    """The one-pair-at-a-time junction search that ``S._junctions`` does
    with arrays: the reference it must equal bit for bit."""
    by_wall = {}
    for c in curves:
        by_wall.setdefault(c.wall_id, []).append(c)
    found = []
    for wall_id, lst in sorted(by_wall.items()):
        for i, a in enumerate(lst):
            for j, b in enumerate(lst):
                if j <= i:
                    continue
                for a0, a1 in zip(a.nodes, a.nodes[1:]):
                    for b0, b1 in zip(b.nodes, b.nodes[1:]):
                        hit = _segment_cross((a0.r, a0.phi), (a1.r, a1.phi),
                                             (b0.r, b0.phi), (b1.r, b1.phi))
                        if hit is not None and abs(hit[1]) < HALF_PI - 1e-9:
                            found.append(PhasePoint(wall_id, hit[0], hit[1]))
            for e in (a.nodes[0], a.nodes[-1]):
                best = None
                for b in lst:
                    if b is a:
                        continue
                    for b0, b1 in zip(b.nodes, b.nodes[1:]):
                        d, foot = S._point_seg_foot((e.r, e.phi),
                                                    (b0.r, b0.phi),
                                                    (b1.r, b1.phi))
                        if d <= S.JUNCTION_TOL and (
                                best is None or d < best[0]):
                            best = (d, foot)
                if best is not None and abs(best[1][1]) < HALF_PI - 1e-9:
                    found.append(PhasePoint(wall_id,
                                            0.5 * (e.r + best[1][0]),
                                            0.5 * (e.phi + best[1][1])))
    found.sort(key=lambda p: (p.wall_id, p.r, p.phi))
    kept = []
    for p in found:
        if any(q.wall_id == p.wall_id
               and math.hypot(q.r - p.r, q.phi - p.phi) <= S.JUNCTION_TOL
               for q in kept):
            continue
        kept.append(p)
    return kept


def _same_points(got, want):
    assert [(p.wall_id, p.r.hex(), p.phi.hex()) for p in got] \
        == [(p.wall_id, p.r.hex(), p.phi.hex()) for p in want]
    assert all(type(p.r) is float and type(p.phi) is float for p in got)


@pytest.mark.parametrize("name", ["tri", "lens"])
def test_multiple_points_equal_nested_loops(name, request):
    table = request.getfixturevalue(name)
    for resolution in (200, 300, 600):
        curves = [c for c in S.level_minus_one(table, resolution)
                  if not c.fragment]
        curves += [c for c in S._s0_curves(table, 16)
                   if c.origin == "corner-preimage"]
        got = S.find_multiple_points(table, resolution)
        assert got
        _same_points(got, _nested_loop_junctions(curves))


def _polyline(*nodes, wall_id=0):
    return S.SingularityCurve(-1, tuple(PhasePoint(wall_id, r, phi)
                                        for r, phi in nodes),
                              "grazing-preimage")


def _edge_case_sets():
    """(threshold, curve set) at each threshold of the junction search."""
    tol, top = S.JUNCTION_TOL, HALF_PI - 1e-9
    sets = []
    # parallel and nearly parallel segments: den = 1e-9 * e, on both sides
    # of 1e-18
    for e in (0.0, 1e-10, 5e-10, 9e-10, 1e-9, 2e-9, 1e-8):
        sets.append(("den", [_polyline((0.0, 0.0), (1e-9, 0.0)),
                             _polyline((0.0, -0.5 * e), (1e-9, 0.5 * e)),
                             _polyline((0.0, 0.0), (1e-9, 0.0))]))
    # crossings at s and t near 0 and 1, within and beyond 1e-12
    for k in range(-20, 21):
        for at in (0.0, 1.0):
            x = at + k * 1e-13
            sets.append(("s", [_polyline((0.0, 0.0), (1.0, 0.0)),
                               _polyline((x, -0.5), (x, 0.5))]))
            sets.append(("t", [_polyline((x, -0.5), (x, 0.5)),
                               _polyline((0.0, 0.0), (1.0, 0.0))]))
    # crossings with |phi| within 1e-9 of pi/2
    for k in range(-10, 11):
        y = top + k * 2e-10
        for sign in (1.0, -1.0):
            sets.append(("phi", [_polyline((0.0, sign * y), (1.0, sign * y)),
                                 _polyline((0.4, sign * (y - 0.1)),
                                           (0.6, sign * (y + 0.1)))]))
    # an endpoint JUNCTION_TOL from a segment, and a few ulps either way
    for d in (tol, math.nextafter(tol, 0.0), math.nextafter(tol, 1.0),
              tol * (1.0 + 1e-12), tol * (1.0 - 1e-12)):
        for sign in (1.0, -1.0):
            sets.append(("tol", [_polyline((0.2, 0.0), (0.8, 0.0)),
                                 _polyline((0.5, sign * d),
                                           (0.5, sign * 0.4))]))
    return sets


def _nested_loop_crossings(a, b):
    return [hit for a0, a1 in zip(a.nodes, a.nodes[1:])
            for b0, b1 in zip(b.nodes, b.nodes[1:])
            for hit in [_segment_cross((a0.r, a0.phi), (a1.r, a1.phi),
                                       (b0.r, b0.phi), (b1.r, b1.phi))]
            if hit is not None and abs(hit[1]) < HALF_PI - 1e-9]


def test_junctions_equal_nested_loops_at_thresholds():
    """Each threshold is met from both sides: some sets keep a point (a
    crossing, or for "tol" a junction) and some do not."""
    outcomes = {}
    for threshold, curves in _edge_case_sets():
        want = _nested_loop_junctions(curves)
        _same_points(S._junctions(curves), want)
        hits = []
        for i, a in enumerate(curves):
            for b in curves[i + 1:]:
                got = list(S._crossings(
                    *(np.array([(p.r, p.phi) for p in c.nodes])
                      for c in (a, b))))
                assert [(x.hex(), y.hex()) for x, y in got] \
                    == [(x.hex(), y.hex())
                        for x, y in _nested_loop_crossings(a, b)]
                hits += got
        kept = bool(want) if threshold == "tol" else bool(hits)
        outcomes.setdefault(threshold, set()).add(kept)
    assert outcomes == {k: {True, False}
                        for k in ("den", "s", "t", "phi", "tol")}


def test_junctions_equal_nested_loops_on_random_polylines():
    rng = np.random.default_rng(np.random.SeedSequence([41]))
    for _ in range(40):
        curves = []
        for _ in range(int(rng.integers(2, 7))):
            m = int(rng.integers(1, 12))
            r = np.sort(rng.uniform(0.0, 1.0, m))
            phi = rng.uniform(-1.0, 1.0, m) * HALF_PI
            curves.append(_polyline(*zip(r.tolist(), phi.tolist()),
                                    wall_id=int(rng.integers(2))))
        # endpoints that rest on, or just off, another curve
        a, b = curves[0].nodes, curves[-1].nodes
        if len(b) > 1:
            t = float(rng.uniform())
            foot = (b[0].r + t * (b[1].r - b[0].r),
                    b[0].phi + t * (b[1].phi - b[0].phi))
            off = float(rng.choice([0.0, 0.5, 0.999, 1.001])) * S.JUNCTION_TOL
            curves.append(_polyline((foot[0], foot[1] + off),
                                    (a[0].r, a[0].phi),
                                    wall_id=b[0].wall_id))
        _same_points(S._junctions(curves), _nested_loop_junctions(curves))
