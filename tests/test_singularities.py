import hashlib
import json
import math

import pytest

from billexp import geometry, singularities as S, tables
from billexp.bmap import HALF_PI, PhasePoint
from billexp.errors import UnstablePortrait


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
        assert c.monotone_ok()


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
        assert c.monotone_ok()


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


def test_vertex_order1_bound(tri):
    con = geometry.estimate_constants(tri, samples=4000, seed=3)
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
        (6, (2, 3, 1, 4), "1b1ab3e99123e0c6"))),
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
