import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from billexp import singularities as S, ucurves as U
from billexp.bmap import (PhasePoint, certify_hyperbolicity, forward,
                          involute, strip_index, unstable_cone_at)
from billexp.errors import (BilliardError, ComponentExplosion, NoSuchN,
                            SingularSeed)
from billexp.serialize import csv_text, json_bytes


@pytest.fixture(scope="module")
def far_curve(tri):
    z = PhasePoint(0, 0.5 * tri.wall(0).length, 0.3)
    return U.seed_ucurve(tri, z, 1e-4, None)


@pytest.fixture(scope="module")
def straddle_curve(tri):
    # crosses the wall-0 grazing preimage branch near r = 0.4
    curves = [c for c in S.trace_singularity(tri, -1, resolution=400)
              if not c.fragment and c.wall_id == 0
              and c.origin == "grazing-preimage"]
    branch = next(c for c in curves if c.nodes[0].r <= 0.4 <= c.nodes[-1].r)
    p = min(branch.nodes, key=lambda q: abs(q.r - 0.4))
    z = PhasePoint(0, p.r + 2e-5, p.phi + 2e-5)
    return U.seed_ucurve(tri, z, 1e-4, None)


@pytest.fixture(scope="module")
def cheap_constants(tri):
    c_hyp, lam, _res, _mins = certify_hyperbolicity(tri, 300, 3, n_max=8)
    return U.FittedConstants(c_expansion=0.1, c_hyper=float(c_hyp),
                             lam_hyper=float(lam), c_length=40.0,
                             xi_complexity=4.0, k_complexity=10, seed=3)


# ---------------------------------------------------------------------------
# seeding

def test_seed_invariants(tri):
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        z = PhasePoint(0, rng.uniform(0.2, 1.8), rng.uniform(-1.1, 1.1))
        try:
            W = U.seed_ucurve(tri, z, 1e-4, rng)
        except SingularSeed:
            continue
        assert W.increasing
        assert W.euclidean_length == pytest.approx(1e-4, abs=1e-12)
        for p, m in zip(W.nodes, W.slopes):
            lo, hi = unstable_cone_at(tri, p)
            assert lo < m < hi
        checked += 1


def test_seed_time_reversal_gives_s_curve(tri, far_curve):
    flipped = [involute(p) for p in far_curve.nodes]
    for a, b in zip(flipped, flipped[1:]):
        assert b.r > a.r and b.phi < a.phi


def test_seed_rejections(tri):
    L0 = tri.wall(0).length
    with pytest.raises(ValueError):
        U.seed_ucurve(tri, PhasePoint(0, 0.5 * L0, 0.3), 0.5, None)
    near_graze = PhasePoint(0, 0.5 * L0, math.pi / 2 - 1e-12)
    with pytest.raises(SingularSeed):
        U.seed_ucurve(tri, near_graze, 1e-4, None)
    on_strip = PhasePoint(0, 0.5 * L0, math.pi / 2 - 1.0 / 31 ** 2)
    with pytest.raises(SingularSeed):
        U.seed_ucurve(tri, on_strip, 1e-4, None)


# ---------------------------------------------------------------------------
# arc interpolation

def _bits(x):
    return float(x).hex()


def _ends_and_breaks(xp):
    return [xp[0], xp[-1], -0.0, 0.0, 1.0, *xp,
            math.nextafter(xp[0], -math.inf), math.nextafter(xp[-1], math.inf),
            -1.0, 2.0, math.nan]


_fin = st.floats(-1e3, 1e3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-9, 1.0), st.floats(1e-9, 1.0), _fin,
                          _fin), min_size=1, max_size=12),
       st.lists(st.floats(-0.25, 1.25), max_size=8))
def test_arc_interpolation_is_np_interp(steps, probes):
    r, phi = [0.3], [-0.2]
    for dr, dphi, _, _ in steps:
        r.append(r[-1] + dr)
        phi.append(phi[-1] + dphi)
    params = [0.0] + [p for _, _, p, _ in steps]
    growth = [1.0] + [g for _, _, _, g in steps]
    W = U.make_ucurve(0, [PhasePoint(0, a, b) for a, b in zip(r, phi)],
                      params=params, growth=growth)
    arc = U._Arc(W)
    frac = np.asarray(arc.frac)
    for s in _ends_and_breaks(arc.frac) + probes:
        p = arc.at(s)
        assert _bits(p.r) == _bits(np.interp(s, frac, np.array(r)))
        assert _bits(p.phi) == _bits(np.interp(s, frac, np.array(phi)))
        assert _bits(arc.root_param(s)) \
            == _bits(np.interp(s, frac, np.array(W.params)))
        assert _bits(arc.growth_at(s)) \
            == _bits(np.interp(s, frac, np.array(W.growth)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(allow_nan=False)),
                min_size=1, max_size=10),
       st.floats(allow_nan=False), st.lists(st.floats(-1.0, 3.0), max_size=6))
@example([(0.5, math.inf)], math.inf, [0.25])
def test_interp_repeated_breaks_and_huge_values(steps, f0, probes):
    # repeated breakpoints and infinite or overflowing values exercise the
    # bracketing search and the NaN fallbacks
    xp, fp = [0.0], [f0]
    for dx, f in steps:
        xp.append(xp[-1] + dx)
        fp.append(f)
    for x in _ends_and_breaks(xp) + probes:
        assert _bits(U._interp(x, xp, fp)) == _bits(np.interp(x, xp, fp))


# ---------------------------------------------------------------------------
# one-step evolution

def test_far_curve_single_regular_component(tri, far_curve):
    comps = U.evolve_one_step(tri, far_curve)
    assert len(comps) == 1
    c = comps[0]
    assert c.regular and c.rank is None
    assert c.itinerary[0][2] == 0
    assert c.min_expansion > 1.0
    assert c.curve.increasing


def test_straddle_strip_ladder(tri, straddle_curve):
    comps = U.evolve_one_step(tri, straddle_curve, k0=30)
    ks = sorted({abs(c.itinerary[-1][2]) for c in comps
                 if not c.tail and c.itinerary[-1][2] != 0})
    # consecutive strips from k0 upward
    assert ks[0] == 30
    assert ks == list(range(30, ks[-1] + 1))
    tails = [c for c in comps if c.tail]
    assert len(tails) == 1
    assert abs(tails[0].tail_from) == ks[-1] + 1
    assert 0.0 < tails[0].tail_inv < 0.05
    by_k = {abs(c.itinerary[-1][2]): c.curve.euclidean_length
            for c in comps if not c.tail and c.itinerary[-1][2] != 0}
    lens = [by_k[k] for k in ks]
    assert all(a >= b for a, b in zip(lens, lens[1:]))


def test_one_step_partition(tri, far_curve, straddle_curve):
    for W in (far_curve, straddle_curve):
        comps = U.evolve_one_step(tri, W)
        total = sum(b - a for a, b in (c.source_interval for c in comps))
        assert total == pytest.approx(1.0, abs=1e-5)
        edges = sorted(x for c in comps for x in c.source_interval)
        for a, b in zip(edges[1:-1:2], edges[2:-1:2]):
            assert b - a < 1e-9   # adjacent pieces share their cut point


def test_refinement_conservation(tri, straddle_curve, monkeypatch):
    monkeypatch.setattr(U, "_grid_for", lambda total: 17)
    coarse = U.evolve_one_step(tri, straddle_curve)
    monkeypatch.setattr(U, "_grid_for", lambda total: 34)
    fine = U.evolve_one_step(tri, straddle_curve)

    def key(c):
        return (c.itinerary[-1][0], c.itinerary[-1][2], c.tail)

    fine_by = {key(c): c for c in fine}
    matched = 0
    for c in coarse:
        mate = fine_by.get(key(c))
        if mate is None or c.tail:
            continue
        assert c.min_expansion == pytest.approx(mate.min_expansion, rel=0.05)
        assert c.source_interval[0] == pytest.approx(
            mate.source_interval[0], abs=1e-9)
        assert c.source_interval[1] == pytest.approx(
            mate.source_interval[1], abs=1e-9)
        matched += 1
    assert matched >= len(coarse) - 2


def test_component_lengths_sqrt_bound(tri, straddle_curve):
    c_len, used = U.certify_length_constant(tri, 150, seed=9)
    assert used > 100 and c_len > 0.0
    again, _ = U.certify_length_constant(tri, 150, seed=9)
    assert again == c_len

    # square-root scaling: the worst image length over sqrt(|W|) should be
    # roughly flat as |W| varies, so two curves through the same grazing
    # branch give comparable ratios even at 4x the length.
    base = straddle_curve.nodes[0]
    ratios = []
    for length in (1e-4, 4e-4):
        w = U.seed_ucurve(tri, base, length, None)
        worst = max(c.curve.euclidean_length
                    for c in U.evolve_one_step(tri, w) if not c.tail)
        ratios.append(worst / math.sqrt(w.euclidean_length))
    assert ratios[0] > 0.0 and ratios[1] > 0.0
    assert max(ratios) / min(ratios) < 3.0


def test_grazing_sum(tri, far_curve, straddle_curve):
    assert U.one_step_grazing_sum(tri, far_curve, 30) == 0.0
    g30 = U.one_step_grazing_sum(tri, straddle_curve, 30)
    g60 = U.one_step_grazing_sum(tri, straddle_curve, 60)
    assert g30 > 0.0
    assert g60 <= g30


# ---------------------------------------------------------------------------
# depth-n trees

def test_conventions(tri, far_curve):
    tree = U.evolve_n(tri, far_curve, 2)
    assert tree.regular_counts()[0] == 1
    assert U.expansion_total(tree, 0) == 1.0


def test_tree_regular_counts_independent(tri, straddle_curve):
    tree = U.evolve_n(tri, straddle_curve, 2)
    for g in (1, 2):
        from_flags = sum(1 for c in tree.generations[g] if c.regular)
        from_phis = sum(
            1 for c in tree.generations[g]
            if not c.tail and len(c.mid_phis) == g
            and all(strip_index(phi, 30) == 0 for phi in c.mid_phis))
        assert from_flags == from_phis


def test_rank_bookkeeping(tri, straddle_curve):
    tree = U.evolve_n(tri, straddle_curve, 2)
    for c in tree.generations[2]:
        if c.regular:
            assert c.rank is None
        else:
            p = c.rank
            assert 1 <= p <= 2
            assert all(k == 0 for _, _, k in c.itinerary[:p - 1])
            assert c.itinerary[p - 1][2] != 0 or c.tail


def test_reevolving_parent_reproduces_children(tri, straddle_curve):
    tree = U.evolve_n(tri, straddle_curve, 2)
    parent = next(c for c in tree.generations[1]
                  if not c.tail and c.regular)
    redo = U.evolve_one_step(tri, parent.curve)
    want = [c.itinerary[-1] for c in tree.generations[2]
            if c.parent == parent.birth]
    got = [c.itinerary[-1] for c in redo]
    assert want == got


def test_certified_floor(tri, straddle_curve, cheap_constants):
    con = cheap_constants
    tree = U.evolve_n(tri, straddle_curve, 3, constants=con)
    for g in range(1, 4):
        floor = con.lam_hyper ** g / con.c_hyper
        for c in tree.generations[g]:
            if not c.tail:
                assert c.min_expansion >= 0.5 * floor
            assert c.min_expansion_sampled >= c.min_expansion * 0.99 \
                or c.tail


def test_component_explosion(tri, straddle_curve, monkeypatch):
    monkeypatch.setattr(U, "LEAF_CAP", 10)
    with pytest.raises(ComponentExplosion) as exc:
        U.evolve_n(tri, straddle_curve, 2)
    assert isinstance(exc.value.partial, U.EvolutionTree)


# ---------------------------------------------------------------------------
# constants and depth selection

def test_select_n_oracle():
    con = U.FittedConstants(c_expansion=1, c_hyper=2, lam_hyper=1.5,
                            c_length=1, xi_complexity=6, k_complexity=1)
    with pytest.raises(NoSuchN):
        U.select_N(con)
    assert U.select_N(dataclasses.replace(con, n_cap=20)) == 16
    flat = U.FittedConstants(c_expansion=1, c_hyper=2, lam_hyper=0.9,
                             c_length=1, xi_complexity=1, k_complexity=1)
    with pytest.raises(NoSuchN):
        U.select_N(dataclasses.replace(flat, n_cap=50))
    prev = 0
    for xi in (1.0, 2.0, 4.0, 8.0):
        con_x = U.FittedConstants(c_expansion=1, c_hyper=2, lam_hyper=1.5,
                                  c_length=1, xi_complexity=xi,
                                  k_complexity=1)
        n = U.select_N(dataclasses.replace(con_x, n_cap=40))
        assert n >= prev
        prev = n


def test_constants_roundtrip(cheap_constants):
    doc = cheap_constants.to_json()
    again = U.FittedConstants.from_json(doc)
    assert again == cheap_constants


# ---------------------------------------------------------------------------
# scans and reports

def test_sup_scan_deterministic(tri):
    a = U.sup_scan(tri, 1e-4, 20, 1, 30, seed=13)
    b = U.sup_scan(tri, 1e-4, 20, 1, 30, seed=13)
    c = U.sup_scan(tri, 1e-4, 20, 1, 30, seed=13, threads=4)
    assert json_bytes(a.to_json()) == json_bytes(b.to_json()) \
        == json_bytes(c.to_json())


def test_sup_scan_report_shape(tri, cheap_constants):
    rep = U.sup_scan(tri, 1e-4, 15, 2, 30, seed=21,
                     constants=cheap_constants)
    assert rep.sup_e[0] == 1.0
    assert len(rep.sup_e) == 3 and len(rep.k_max) == 3
    assert rep.k_max[0] == 1
    assert rep.etree_margins is not None and len(rep.etree_margins) == 2
    assert rep.verdict.startswith("expansion estimate")
    if rep.sup_e[2] < 1.0:
        assert "holds" in rep.verdict
    again = U.ExpansionReport.from_json(rep.to_json())
    assert json_bytes(again.to_json()) == json_bytes(rep.to_json())
    header = csv_text(U.CSV_HEADER, rep.csv_rows()).splitlines()[0]
    assert header == "sample_id,curve_length,n,leaf_count,k_n,e_n,grazing_sum"


def test_explosion_rows_stay_valid_json_and_csv(tri, monkeypatch):
    # every curve explodes at depth 1, leaving depths 2 and 3 without a sum
    monkeypatch.setattr(U, "LEAF_CAP", 0)
    rep = U.sup_scan(tri, 1e-4, 4, 3, 30, seed=13)

    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    doc = json.loads(json_bytes(rep.to_json()), parse_constant=refuse)
    assert doc["partial"]
    # sup_e[3] == 0.0 only because no row reached depth 3
    assert doc["verdict"] == "expansion estimate fails (empirical)"
    rows = [r for r in doc["rows"] if r["flag"] == "explosion"]
    assert len(rows) == doc["used"] > 0
    for r in rows:
        assert r["e"][0] == 1.0 and r["e"][1] > 0.0
        assert r["e"][2:] == [None, None]
    assert doc["sup_e"][1] > 0.0 and doc["sup_e"][2:] == [0.0, 0.0]
    text = csv_text(U.CSV_HEADER, rep.csv_rows())
    cells = [line.split(",") for line in text.splitlines()[1:]]
    assert [c[5] == "" for c in cells] == [False, False, True, True] * 4


def test_sup_scan_requires_seed(tri):
    with pytest.raises(ValueError):
        U.sup_scan(tri, 1e-4, 5, 1, 30, seed=None)


def test_choose_depth_empirical(tri):
    n, source = U.choose_depth(tri, 1e-4, 30, seed=3,
                               constants=None, probe_samples=12)
    assert 1 <= n <= U.N_CAP
    assert source.startswith("empirical")


def _depth_by_rebuilding(table, seed, probes):
    """choose_depth's rule, with every probe tree evolved from scratch at
    each depth: a probe that fails at depth n is left out of depth n."""
    curves = []
    for i in range(probes):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD0, i]))
        try:
            curves.append(U._draw_curve(table, rng, 1e-4, 30)[0])
        except SingularSeed:
            continue
    best_n, best_sup, first_ok, alive = U.N_CAP, math.inf, None, []
    for n in range(1, U.N_CAP + 1):
        sups = []
        for W in curves:
            try:
                sups.append(U.expansion_total(U.evolve_n(table, W, n), n))
            except BilliardError:
                continue
        sup = max([0.0] + sups)
        alive.append(len(sups))
        if sup < best_sup:
            best_n, best_sup = n, sup
        if first_ok is None and sup < 1.0:
            first_ok = n
        if sup < 0.9:
            return (n, "empirical"), alive
    if first_ok is not None:
        return (first_ok, "empirical"), alive
    return (best_n, "empirical-best"), alive


def test_choose_depth_matches_rebuilt_trees(tri, monkeypatch):
    want, _ = _depth_by_rebuilding(tri, 3, 12)
    assert U.choose_depth(tri, 1e-4, 30, seed=3, constants=None,
                          probe_samples=12) == want

    # probe curves on tri almost never branch: double the children of every
    # curve on wall 2, so that some trees outgrow LEAF_CAP after depth 2
    one_step = U._one_step

    def doubled(table, W, *args, **kwargs):
        kids, ndeg = one_step(table, W, *args, **kwargs)
        return (kids + kids if W.wall_id == 2 else kids), ndeg

    monkeypatch.setattr(U, "_one_step", doubled)
    monkeypatch.setattr(U, "LEAF_CAP", 2)
    want, alive = _depth_by_rebuilding(tri, 3, 12)
    assert alive[0] == alive[1] > alive[-1] > 0
    assert U.choose_depth(tri, 1e-4, 30, seed=3, constants=None,
                          probe_samples=12) == want
