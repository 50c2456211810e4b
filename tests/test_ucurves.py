import collections
import dataclasses
import functools
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from billexp import geometry, singularities as S, tables, ucurves as U
from billexp.bmap import (BATCH_MIN, BATCH_ROWS, HALF_PI, SINGLE_BRANCH_MU,
                          PhasePoint, RegularRows, Stream,
                          certify_hyperbolicity, expansion_factor, forward,
                          inverse, involute, outgoing_ray,
                          random_phase_point, single_branch, unstable_cones)
from billexp.errors import (BilliardError, ComponentExplosion, NoSuchN,
                            SingularSeed)
from billexp.flow import Ray, first_collision
from billexp.serialize import csv_text, json_bytes
from conftest import kernel_calls, wedge_table


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

def _increasing(W):
    """Whether both r and phi rise strictly from node to node of W."""
    return all(b.r > a.r and b.phi > a.phi
               for a, b in zip(W.nodes, W.nodes[1:]))


def test_seed_invariants(tri):
    """A seed curve rises, has its length, and each segment's slope lies
    strictly inside the unstable cones at both of its ends: the node the
    walk left it from and the node the step reached."""
    rng = np.random.default_rng(42)
    half = U.SEED_HALF
    checked = 0
    while checked < 100:
        z = PhasePoint(0, rng.uniform(0.2, 1.8), rng.uniform(-1.1, 1.1))
        try:
            W = U.seed_ucurve(tri, z, 1e-4, rng)
        except SingularSeed:
            continue
        assert _increasing(W)
        assert len(W.nodes) == 2 * half + 1 and W.nodes[half] == z
        assert W.euclidean_length == pytest.approx(1e-4, abs=1e-12)
        rows, lo, hi = unstable_cones(tri, *map(np.array, zip(*W.nodes)))
        assert rows.tolist() == list(range(2 * half + 1))
        for i, (a, b) in enumerate(zip(W.nodes, W.nodes[1:])):
            m = (b.phi - a.phi) / (b.r - a.r)
            assert lo[i] < m < hi[i] and lo[i + 1] < m < hi[i + 1]
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


def _geometry_of(curves):
    """The ``_geometry`` of the curves as the rows of one ``_Seeds``, each
    padded by repeating its last node, as ``_prefetched`` pads rows."""
    seeds = U._Seeds.of(curves)
    size = np.diff(seeds.start)
    at = seeds.start[:-1, None] \
        + np.minimum(np.arange(size.max()), size[:, None] - 1)
    return U._geometry(seeds.r[at], seeds.phi[at], size)


def _arc(W):
    """A fresh ``_Arc`` of W alone, nothing probed."""
    return U._Arc(W.wall_id, _geometry_of([W]), 0)


def _curve_of(arc):
    """The UCurve whose nodes an ``_Arc`` holds."""
    return U._curve(arc.wall_id, arc.r, arc.phi)


def _layer(curves):
    """Generation 0 of a forest of the curves' depth-0 trees."""
    return U._Forest(U._Seeds.of(curves)).layers[0]


def _walked(why, seeds):
    """The seeds of U._seed_walks per walk: its curve, or the str saying
    why there is none."""
    t = iter(range(seeds.wall.size))
    return [U._curve_at(seeds, next(t)) if w is None else w for w in why]


def _drawn(table, rngs, delta, k0):
    """U._draw_curves per rng: (curve, tries), or None where it drew no
    curve."""
    tries, seeds = U._draw_curves(table, rngs, delta, k0)
    t = iter(range(seeds.wall.size))
    return [None if k is None else (U._curve_at(seeds, next(t)), k)
            for k in tries]


def _prefetch(table, curves, layer=None):
    """_prefetched's arcs of the curves, the parents of a forest's first
    generation: per curve, None where it is decided, else its _Arc."""
    layer = _layer(curves) if layer is None else layer
    return U._prefetched(table, layer, np.arange(len(curves)), 30)[1]


def _grown(table, curves, stopped=None):
    """The depth-1 trees of the curves, grown together by _grow, and
    what stopped each of them."""
    forest = U._Forest(U._Seeds.of(curves))
    U._grow(table, forest, 30, None, stopped)
    return ([U.EvolutionTree(forest, t) for t in range(len(curves))],
            forest.stops)


def _ends_and_breaks(xp):
    return [xp[0], xp[-1], -0.0, 0.0, 1.0, *xp,
            math.nextafter(xp[0], -math.inf), math.nextafter(xp[-1], math.inf),
            -1.0, 2.0, math.nan]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-9, 1.0), st.floats(1e-9, 1.0)),
                min_size=1, max_size=12),
       st.lists(st.floats(-0.25, 1.25), max_size=8))
def test_arc_interpolation_is_np_interp(steps, probes):
    r, phi = [0.3], [-0.2]
    for dr, dphi in steps:
        r.append(r[-1] + dr)
        phi.append(phi[-1] + dphi)
    W = U.make_ucurve(0, [PhasePoint(0, a, b) for a, b in zip(r, phi)])
    arc = _arc(W)
    frac = np.asarray(arc.frac)
    xs = _ends_and_breaks(arc.frac) + probes
    for s in xs:
        p = arc.at(s)
        assert _bits(p.r) == _bits(np.interp(s, frac, np.array(r)))
        assert _bits(p.phi) == _bits(np.interp(s, frac, np.array(phi)))
    # W and its prefixes as the rows of one padded geometry
    curves = [U.make_ucurve(0, W.nodes[:k])
              for k in range(2, len(W.nodes) + 1)]
    geo = _geometry_of(curves)
    x = np.broadcast_to(np.array(xs), (len(curves), len(xs)))
    rows = U._interp_rows(x, geo.frac, geo.phi)
    for i, C in enumerate(curves):
        arc = U._Arc(C.wall_id, geo, i)
        assert list(map(_bits, arc.frac)) == _arc_fractions(C)
        assert arc.seg_slope == [(b.phi - a.phi) / (b.r - a.r)
                                 for a, b in zip(C.nodes, C.nodes[1:])]
        want = np.interp(xs, np.asarray(arc.frac), np.asarray(arc.phi))
        assert list(map(_bits, rows[i])) == list(map(_bits, want))


def _arc_fractions(W):
    """The arclength fraction at each node of W, as float hex: the segment
    lengths by np.hypot, summed one after another."""
    dr = [b.r - a.r for a, b in zip(W.nodes, W.nodes[1:])]
    dphi = [b.phi - a.phi for a, b in zip(W.nodes, W.nodes[1:])]
    cum, total = [0.0], 0.0
    for seg in np.hypot(dr, dphi).tolist():
        total += seg
        cum.append(total)
    return [_bits(c / total) for c in cum]


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

def _generation_1(table, W, k0=U.K0_DEFAULT):
    """W's one-step H-components: the first generation of its tree."""
    return U.evolve_n(table, W, 1, k0).generations[1]


def _grazing_sum_of_one_step(table, W, k0):
    return U.grazing_sum(_generation_1(table, W, k0))


def test_far_curve_single_regular_component(tri, far_curve):
    comps = _generation_1(tri, far_curve)
    assert len(comps) == 1
    c = comps[0]
    assert c.regular
    assert c.itinerary[0][2] == 0
    assert c.min_expansion > 1.0
    assert _increasing(c.curve)


def test_straddle_strip_ladder(tri, straddle_curve):
    comps = _generation_1(tri, straddle_curve, 30)
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


def _one_step_pieces(table, W, monkeypatch):
    """(piece, child) of each piece that _one_step builds a child from on a
    fresh arc of W, in order, the child None when the piece gives none.
    The kept children are evolve_n's, which builds a decided arc's child
    without _one_step."""
    child, calls = U._child, []

    def recorded(table_, arc, piece, *args):
        calls.append((piece, child(table_, arc, piece, *args)))
        return calls[-1][1]

    with monkeypatch.context() as mp:
        mp.setattr(U, "_child", recorded)
        comps, _ = U._one_step(table, _arc(W), 1.0, U.K0_DEFAULT, None)
    assert [c for _, c in calls if U._kept(c)] == comps \
        == _generation_1(table, W)
    return calls


def test_one_step_partition(tri, far_curve, straddle_curve, monkeypatch):
    for W in (far_curve, straddle_curve):
        spans = [piece[:2] for piece, _ in _one_step_pieces(tri, W,
                                                            monkeypatch)]
        total = sum(b - a for a, b in spans)
        assert total == pytest.approx(1.0, abs=1e-5)
        edges = sorted(x for span in spans for x in span)
        for a, b in zip(edges[1:-1:2], edges[2:-1:2]):
            assert b - a < 1e-9   # adjacent pieces share their cut point


def test_refinement_conservation(tri, straddle_curve, monkeypatch):
    monkeypatch.setattr(U, "_grid_for", lambda total: 17)
    coarse = _one_step_pieces(tri, straddle_curve, monkeypatch)
    monkeypatch.setattr(U, "_grid_for", lambda total: 34)
    fine = _one_step_pieces(tri, straddle_curve, monkeypatch)

    def key(c):
        return (c.itinerary[-1][0], c.itinerary[-1][2], c.tail)

    fine_by = {key(c): (piece, c) for piece, c in fine if U._kept(c)}
    coarse = [(piece, c) for piece, c in coarse if U._kept(c)]
    matched = 0
    for piece, c in coarse:
        mate_piece, mate = fine_by.get(key(c), (None, None))
        if mate is None or c.tail:
            continue
        assert c.min_expansion == pytest.approx(mate.min_expansion, rel=0.05)
        assert piece[0] == pytest.approx(mate_piece[0], abs=1e-9)
        assert piece[1] == pytest.approx(mate_piece[1], abs=1e-9)
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
                    for c in _generation_1(tri, w) if not c.tail)
        ratios.append(worst / math.sqrt(w.euclidean_length))
    assert ratios[0] > 0.0 and ratios[1] > 0.0
    assert max(ratios) / min(ratios) < 3.0


def test_grazing_sum(tri, far_curve, straddle_curve):
    assert _grazing_sum_of_one_step(tri, far_curve, 30) == 0.0
    g30 = _grazing_sum_of_one_step(tri, straddle_curve, 30)
    g60 = _grazing_sum_of_one_step(tri, straddle_curve, 60)
    assert g30 > 0.0
    assert g60 <= g30


def test_scan_grazing_column_is_grazing_sum_of_one_step(tri):
    # the per-sample one-step grazing sum has one path: the grazing_sum
    # column of a scan is grazing_sum of the sample's own one-step image
    rows = U.sup_scan(tri, 1e-2, 1000, 1, 30, seed=5).rows
    for i in (0, 1, 811, 872, 998):
        rng = np.random.default_rng(np.random.SeedSequence([5, 1, i]))
        (W, _), = _drawn(tri, [rng], 1e-2, 30)
        assert _grazing_sum_of_one_step(tri, W, 30) == rows[i]["grazing_sum"]
    assert all(rows[i]["grazing_sum"] > 0.0 for i in (811, 872, 998))


@pytest.mark.parametrize("drop", [0, 5])
def test_dropped_child_joins_a_neighbour(tri, straddle_curve, monkeypatch,
                                         drop):
    # piece `drop` gives no child: it is dropped and counted as merged, and
    # no other child changes
    full = U.evolve_n(tri, straddle_curve, 1)
    child, calls = U._child, []

    def refuse_one(*args):
        calls.append(None)
        return None if len(calls) == drop + 1 else child(*args)

    monkeypatch.setattr(U, "_child", refuse_one)
    cut = U.evolve_n(tri, straddle_curve, 1)
    kept = full.generations[1][:drop] + full.generations[1][drop + 1:]
    assert [c.curve for c in cut.generations[1]] == [c.curve for c in kept]
    assert cut.degenerate_merged == full.degenerate_merged + 1


# ---------------------------------------------------------------------------
# lazy strip ladders of the length constant

def _length_constant_by_full_evolution(table, samples, seed, k0=30,
                                      delta_hi=1e-3):
    """certify_length_constant without lazy ladders: every sample evolved
    by evolve_n one step, then the max over its non-tail components."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC2]))
    anchors = U.graze_anchors(table)
    best, used = 0.0, 0
    lo, hi = math.log(1e-6), math.log(delta_hi)
    for i in range(samples):
        length = math.exp(rng.uniform(lo, hi))
        z = random_phase_point(table, rng)
        if anchors and i % U.GRAZE_STRIDE == 0:
            j = i // U.GRAZE_STRIDE
            a = anchors[j % len(anchors)]
            f = U._ANCHOR_OFFSETS[j % len(U._ANCHOR_OFFSETS)]
            z = PhasePoint(a.wall_id, a.r + f * length, a.phi + f * length)
        try:
            W = U.seed_ucurve(table, z, length, rng, k0)
            comps = _generation_1(table, W, k0)
        except BilliardError:
            continue
        root = math.sqrt(W.euclidean_length)
        for comp in comps:
            if not comp.tail:
                best = max(best, comp.curve.euclidean_length / root)
        used += 1
    return best, used


# (best, used) of 101 samples (anchors 0, 50 and 100), recorded before
# lazy ladders
LENGTH_CONSTANTS = {
    ("tri", 61): (2.7495472114392707, 101),
    ("tri", 1061): (3.1626510592359636, 101),
    ("lens", 61): (5.270289027957431, 101),
    ("lens", 1061): (6.700684428137302, 101),
    ("torus2", 61): (3.425750488984956, 101),
    ("torus2", 1061): (3.56464426132658, 101),
}


# (best, used) of 300 samples, where the ladders that can complete made 279
# and 232 cuts while they were resolved in full
LENGTH_CONSTANTS_300 = {
    ("tri", 1061): (3.1626510592359636, 300),
    ("tri", 3061): (2.771446301612434, 300),
}


@pytest.mark.parametrize("name,seed,samples", [
    *(pytest.param(name, seed, 101, id=f"{name}-{seed}")
      for name, seed in sorted(LENGTH_CONSTANTS)),
    *(pytest.param(name, seed, 300, id=f"{name}-{seed}-300")
      for name, seed in sorted(LENGTH_CONSTANTS_300))])
def test_length_constant_equals_full_evolution(name, seed, samples, request,
                                               monkeypatch):
    table = request.getfixturevalue(name)
    strips, resumed = U._strip_children, []

    def counted(*args):
        for item in strips(*args):
            resumed.append(item)
            yield item

    monkeypatch.setattr(U, "_strip_children", counted)
    got = U.certify_length_constant(table, samples, seed)
    assert got == (LENGTH_CONSTANTS_300 if samples == 300
                   else LENGTH_CONSTANTS)[name, seed]
    assert _length_constant_by_full_evolution(table, samples, seed) == got
    if (name, seed) == ("tri", 61):
        assert resumed     # pass 2 resumed a stopped ladder here


def test_length_constant_prefetches_its_samples_together(tri, monkeypatch):
    # the samples share one rng, so they are seeded one by one, but their
    # arcs are prefetched in one call, large enough for the batched map
    prefetched, sizes = U._prefetched, []

    def counted(table, layer, rows, k0):
        sizes.append(len(rows))
        return prefetched(table, layer, rows, k0)

    monkeypatch.setattr(U, "_prefetched", counted)
    best, used = U.certify_length_constant(tri, 101, 61)
    assert (best, used) == LENGTH_CONSTANTS["tri", 61]
    assert max(sizes) == used > 1


def test_length_constant_drops_a_sample_whose_step_raises(tri, monkeypatch):
    """A sample whose step raises after one of its ladders has stopped is
    not used, and that ladder is never resumed: the run gives what a run
    without the sample gives."""
    one_step, strips, seed_walks = \
        U._one_step, U._strip_children, U._seed_walks
    resumed = []

    def counted(table, stop, k0):
        resumed.append(_curve_of(stop.arc))
        yield from strips(table, stop, k0)

    monkeypatch.setattr(U, "_strip_children", counted)
    full = U.certify_length_constant(tri, 101, 61)
    assert full == LENGTH_CONSTANTS["tri", 61]
    # a sample that stops a ladder, which pass 2 then resumes
    target = resumed[0]

    def raises_once_stopped(table, arc, lam, k0, c_expansion, stopped=None):
        out = one_step(table, arc, lam, k0, c_expansion, stopped)
        if _curve_of(arc) == target:
            assert _curve_of(stopped[-1].arc) == target
            raise BilliardError("a step that fails after stopping a ladder")
        return out

    def left_out(*args):
        why, seeds = seed_walks(*args)
        walks = _walked(why, seeds)
        kept = [t for t, W in enumerate(w for w in walks
                                        if not isinstance(w, str))
                if W != target]
        return (["left out" if W == target else w
                 for w, W in zip(why, walks)], seeds.take(kept))

    resumed.clear()
    with monkeypatch.context() as mp:
        mp.setattr(U, "_one_step", raises_once_stopped)
        got = U.certify_length_constant(tri, 101, 61)
    assert target not in resumed
    with monkeypatch.context() as mp:
        mp.setattr(U, "_seed_walks", left_out)
        want = U.certify_length_constant(tri, 101, 61)
    assert got == want
    assert got[1] == full[1] - 1


def _anchor_curves(table, count):
    """Curves seeded astride tangency-preimage anchors, the way the anchor
    samples of certify_length_constant are, at three lengths."""
    anchors = U.graze_anchors(table)
    out = []
    for j, a in enumerate(anchors[::max(1, len(anchors) // count)][:count]):
        length = (1e-5, 1e-4, 1e-3)[j % 3]
        f = U._ANCHOR_OFFSETS[j % len(U._ANCHOR_OFFSETS)]
        z = PhasePoint(a.wall_id, a.r + f * length, a.phi + f * length)
        try:
            out.append(U.seed_ucurve(table, z, length, None))
        except SingularSeed:
            continue
    return out


@pytest.fixture(scope="module")
def lazy_runs(tri, lens):
    """Per anchor curve of tri and lens: the full one-step components, the
    (u_shallow, u_deep, k0, tail_from) of each of their ladders, the lazy
    components, and per stopped ladder its (bound, cut, child) strips, the
    bound the box from the cut before that strip to the ladder's far end."""
    runs = []
    ladder = U._ladder
    for table in (tri, lens):
        for W in _anchor_curves(table, 8):
            seen = []

            def recorded(table_, arc, shallow, deep, u_s, u_d, k0):
                cuts, tail_from = U._drain(
                    ladder(table_, arc, shallow, deep, u_s, u_d, k0))
                seen.append((u_s, u_d, k0, tail_from))
                yield from cuts
                return tail_from

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(U, "_ladder", recorded)
                full = _generation_1(table, W)
            stopped = []
            (tree,), stops = _grown(table, [W], stopped)
            assert stops == [None]
            lazy = tree.generations[1]
            resumed = []
            for s in stopped:
                prev, strips = s.cut0, []
                for cut, c in U._strip_children(table, s, 30):
                    strips.append((U._image_box(table, s.arc, s.sig, prev,
                                                s.far), cut, c))
                    prev = cut
                resumed.append(strips)
            runs.append((full, seen, lazy, resumed))
    return runs


def test_lazy_ladder_strips_stay_within_the_box(lazy_runs):
    """Every strip a stopped ladder resumes, the last piece of a ladder
    that completes (cut None) too, lies within the box from the cut before
    it to the ladder's far end."""
    checked = last = 0
    for full, _seen, lazy, resumed in lazy_runs:
        for strips in resumed:
            for bound, cut, c in strips:
                if c is not None:
                    assert c.curve.euclidean_length <= bound
                    checked += 1
                    last += cut is None
        # resuming every stopped ladder rebuilds the full run's strips
        rebuilt = {c.curve for strips in resumed for _, _, c in strips
                   if U._kept(c)}
        assert {c.curve for c in full if not c.tail} \
            == {c.curve for c in lazy if not c.tail} | rebuilt
    # 3,380 strips, 2 of them the last piece of a ladder that completes
    assert checked > 500 and last >= 2


def test_pass_1_cuts_each_ladder_once(tri, monkeypatch):
    """Pass 1 stops every strip ladder after its first cut, the ladders
    that can complete among them; pass 2 resumes them without _drain."""
    drain, tails, drained, kinds = U._drain, U._ladder_tails, [], []

    def recorded(ladder, stop_after=None):
        cuts, tail_from = drain(ladder, stop_after)
        drained.append((stop_after, len(cuts)))
        return cuts, tail_from

    def asked(*args):
        kinds.append(tails(*args))
        return kinds[-1]

    monkeypatch.setattr(U, "_drain", recorded)
    monkeypatch.setattr(U, "_ladder_tails", asked)
    got = U.certify_length_constant(tri, 300, 1061)
    assert got == LENGTH_CONSTANTS_300["tri", 1061]
    assert drained and all(stop == 1 and n <= 1 for stop, n in drained)
    # every ladder with a cut stopped, and some of them could complete
    assert len(kinds) == sum(n for _, n in drained)
    assert False in kinds and True in kinds


@pytest.mark.parametrize("name", ["tri", "lens", "torus2"])
def test_length_constant_sweep_equals_full_evolution(name, request,
                                                     monkeypatch):
    """At 20 seeds of 60 samples each (anchor samples 0 and 50), delta_hi
    1e-3 and 1e-2 by turns, the lazy passes give what the full evolution
    gives."""
    table = request.getfixturevalue(name)
    anchors = U.graze_anchors(table)
    monkeypatch.setattr(U, "graze_anchors", lambda _table: anchors)
    strips, last = U._strip_children, []

    def counted(*args):
        for cut, c in strips(*args):
            last.append(cut is None)
            yield cut, c

    monkeypatch.setattr(U, "_strip_children", counted)
    for seed in range(20):
        delta_hi = (1e-3, 1e-2)[seed % 2]
        got = U.certify_length_constant(table, 60, seed, delta_hi=delta_hi)
        assert got == _length_constant_by_full_evolution(
            table, 60, seed, delta_hi=delta_hi)
    assert last     # pass 2 resumed stopped ladders
    if name == "tri":
        assert any(last)    # and one of them to the last piece


def test_ladder_that_cannot_complete_ends_in_a_tail(lazy_runs):
    lazy = 0
    for _full, seen, _lazy, _resumed in lazy_runs:
        for u_s, u_d, k0, tail_from in seen:
            if U._ladder_tails(u_s, u_d, k0):
                assert tail_from > 0
                lazy += 1
    assert lazy > 5


# ---------------------------------------------------------------------------
# depth-n trees

def test_conventions(tri, far_curve):
    tree = U.evolve_n(tri, far_curve, 2)
    sums, regular, leaves = U.depth_columns(tree)
    assert (sums[0], regular[0], leaves[0]) == (1.0, 1, 1)


def test_finding_e_curve_keeps_one_component_per_depth(tri):
    """A curve seeded 4.7e-5 from tri's corner at a nearly grazing angle:
    each of its first four steps gives one H-component, so the corner band
    does not count a reflection twice (E_2 was 3.1618 when it did)."""
    W = U.seed_ucurve(tri, PhasePoint(0, 4.7436246276394146e-05,
                                      -1.5707765195686705), 1e-4, None, 30)
    tree = U.evolve_n(tri, W, 4, 30)
    assert [len(gen) for gen in tree.generations[1:]] == [1, 1, 1, 1]
    assert U.depth_columns(tree)[0][2] == pytest.approx(1.5809175, abs=1e-6)


def _pulled_back(table, p, steps):
    """p mapped back ``steps`` times by bmap.inverse, whose image is unique
    at every step."""
    for _ in range(steps):
        (im,) = inverse(table, p).images
        p = im.point
    return p


def _fraction_on(W, p):
    """The arclength fraction along W's polyline of its point nearest to p,
    which lies on W's wall within 1e-7 of it."""
    near, at, done = math.inf, 0.0, 0.0
    for a, b in zip(W.nodes, W.nodes[1:]):
        dr, dphi = b.r - a.r, b.phi - a.phi
        seg = math.hypot(dr, dphi)
        t = min(1.0, max(0.0, ((p.r - a.r) * dr + (p.phi - a.phi) * dphi)
                         / (seg * seg)))
        d = math.hypot(a.r + t * dr - p.r, a.phi + t * dphi - p.phi)
        if d < near:
            near, at = d, done + t * seg
        done += seg
    assert p.wall_id == W.wall_id and near < 1e-7
    return at / done


def _gaps_beyond_insets(table, tree, n):
    """The time-reversal audit of Findings E and K: the (lo, hi) arclength
    fractions of the root W that no depth-n leaf covers and that are wider
    than the insets ``_child`` takes.

    Each leaf's end nodes are pulled back to W, a depth-n leaf's by n steps
    and a tail of generation g's by g, and projected onto W's polyline.
    ``_child`` insets each end of a piece by 1e-6 of the piece at each of
    the n steps, so a gap at an end of W may be n * 1e-6 of W wide, and one
    between two leaves twice that; NODE_RATIO allows for the uneven
    stretch along a piece, whose node stretch factors agree within it."""
    W, spans = tree.root, []
    for g, gen in enumerate(tree.generations[1:n + 1], 1):
        spans += [sorted(_fraction_on(W, _pulled_back(table, p, g))
                         for p in (c.curve.nodes[0], c.curve.nodes[-1]))
                  for c in gen if c.tail or g == n]
    gaps, reach, inset = [], 0.0, n * 1e-6 * U.NODE_RATIO
    for k, (lo, hi) in enumerate(sorted(spans)):
        if lo - reach > (1 if k == 0 else 2) * inset:
            gaps.append((reach, lo))
        reach = max(reach, hi)
    if 1.0 - reach > inset:
        gaps.append((reach, 1.0))
    return gaps


def test_the_audit_pins_the_seed_61_trees_that_lose_curve(tri):
    """Of the seed-61 scan samples 0-99 of tri, grown to N = 3, only sample
    98 has a gap beyond the insets (Finding K): its image at step 3 runs
    into a corner, the wall-1 child's inset probe lands inside the corner
    band and is dropped, and the tree misses 8.5% of its curve with no
    dropped piece counted.  This pins the known defect; mending the inset
    probes (ROADMAP item 21) empties the set."""
    ids = range(100)
    tries, seeds = U._draw_curves(
        tri, Stream.each([61, 1, i] for i in ids), 1e-4, 30)
    forest = U._Forest(seeds)
    for _ in range(3):
        U._grow(tri, forest, 30, None)
    assert forest.stops == [None] * seeds.wall.size
    samples = [i for i, k in zip(ids, tries) if k is not None]
    lost = {i: gaps for i, gaps in (
        (i, _gaps_beyond_insets(tri, U.EvolutionTree(forest, t), 3))
        for t, i in enumerate(samples)) if gaps}
    assert list(lost) == [98]
    (lo, hi), = lost[98]
    assert hi - lo == pytest.approx(0.085, abs=5e-4)
    assert U.EvolutionTree(forest, samples.index(98)).degenerate_merged == 0


def _walked_columns(tree, constants):
    """The three walks that ``depth_columns`` replaced, as they stood: the
    sums of ``expansion_totals``, then ``regular_counts`` and
    ``leaf_counts``, over depths 0..depth of the tree."""
    gens = tree.generations
    tails = [[c for c in gen if c.tail] for gen in gens]
    sums = [1.0]
    for m in range(1, len(gens)):
        total = 0.0
        for g in range(1, m + 1):
            for comp in gens[g] if g == m else tails[g]:
                if comp.tail:
                    total += comp.tail_inv / U._remaining_floor(constants,
                                                                m - g)
                else:
                    total += 1.0 / comp.min_expansion
        sums.append(total)
    regular = [1] + [sum(1 for c in gen if c.regular) for gen in gens[1:]]
    leaves, seen = [], 0
    for g, gen in enumerate(gens):
        t = sum(1 for c in gen if c.tail)
        if g:
            seen += t
        leaves.append(len(gen) - t + seen)
    return sums, regular, leaves


def _same_columns(tree, constants):
    """Whether ``depth_columns`` gives the old walks' lists bit for bit; the
    leaf counts are also ``len(tree.leaves(m))``."""
    sums, regular, leaves = U.depth_columns(tree, constants)
    want_sums, want_regular, want_leaves = _walked_columns(tree, constants)
    assert leaves == [len(tree.leaves(m)) for m in range(len(leaves))]
    return ([x.hex() for x in sums], regular, leaves) \
        == ([x.hex() for x in want_sums], want_regular, want_leaves)


def _component(tail_inv=0.0, min_expansion=1.0, k=0):
    return U.HComponent(curve=None, itinerary=((0, "", k),),
                        min_expansion=min_expansion, tail_inv=tail_inv,
                        tail_from=31 if tail_inv else 0)


class _ListTree:
    """A tree given as its generations, lists of HComponents, read as
    ``depth_columns`` and ``EvolutionTree.leaves`` read a forest's tree."""

    def __init__(self, generations):
        self.generations = generations

    leaves = U.EvolutionTree.leaves

    def _columns(self):
        return [U._Columns([c.inv_expansion for c in gen],
                           [c.tail_inv for c in gen if c.tail],
                           sum(1 for c in gen if c.regular))
                for gen in self.generations]


def test_depth_columns_add_earlier_tails_first_in_generation_order(
        cheap_constants):
    """Tails at generations 1, 2 and 3 among pieces, with terms whose
    rounded sum depends on the order they are added in."""
    tree = _ListTree([
        [U.HComponent(None, (), 1.0)],
        [_component(tail_inv=1e-16), _component(min_expansion=1.0, k=1)],
        [_component(min_expansion=1e16), _component(tail_inv=1.0),
         _component(min_expansion=3.0)],
        [_component(tail_inv=3e-16), _component(min_expansion=7.0)],
        [_component(min_expansion=1e16 / 3.0)]])
    for constants in (None, cheap_constants):
        assert _same_columns(tree, constants)
    assert U.depth_columns(tree) == (
        [1.0, 1.0 + 1e-16, 1e-16 + 1e-16 + 1.0 + 1.0 / 3.0,
         1e-16 + 1.0 + 3e-16 + 1.0 / 7.0, 1e-16 + 1.0 + 3e-16 + 3e-16],
        [1, 0, 2, 1, 1], [1, 2, 4, 4, 4])


@pytest.mark.parametrize("name", ["tri", "lens"])
@pytest.mark.parametrize("cap", [U.LEAF_CAP, 200])
def test_depth_columns_match_the_walks_on_anchor_trees(
        name, cap, cheap_constants, request, monkeypatch):
    """Trees of curves astride tangency-preimage anchors, grown to depth 4
    at k0 = 30 with and without fitted constants, carry a tail at
    generation 1; with LEAF_CAP at 200 the wide ones explode at depth 1
    and leave a partial tree."""
    table = request.getfixturevalue(name)
    monkeypatch.setattr(U, "LEAF_CAP", cap)
    tails = exploded = 0
    for W in _anchor_curves(table, 8):
        for constants in (None, cheap_constants):
            try:
                tree = U.evolve_n(table, W, 4, 30, constants)
            except ComponentExplosion as err:
                tree = err.partial
                exploded += 1
            assert _same_columns(tree, constants)
            tails += any(c.tail for c in tree.generations[1])
    assert tails >= 8
    assert (exploded > 0) == (cap == 200)


# sha256 over evolve_n's trees of _anchor_curves(table, 8) at depth 4 and
# k0 = 30, without constants and with c_expansion = 0.1: per tree its
# degenerate_merged, then per component its generation, its regular flag
# and its _component_tokens.  Recorded while _grow still kept each
# generation as a list of HComponents.
ANCHOR_TREE_DIGESTS = {
    ("tri", False):
        "4b1dfad44b2ebbd1c08a8aae242e48b5c800d03d9798e4dcf5c4768432761314",
    ("tri", True):
        "226505157ab21b0e96177f56354a21ff9d55b9a9e1c5da1402e8a786026be298",
    ("lens", False):
        "746ce81d00d55980cc8c060600b97359565bffe1751af2338c22637675de2f0d",
    ("lens", True):
        "1b0afd0224be09be396dfb6ba1f6712e9e41e81dbdafe7ddbceaa439826439c2",
}


@pytest.mark.parametrize("name, fitted", sorted(ANCHOR_TREE_DIGESTS))
def test_tree_views_equal_the_recorded_component_trees(name, fitted,
                                                       request):
    """The HComponents that an evolve_n tree builds from its forest's rows
    are field for field the ones that _grow built as objects: itinerary,
    curve, floor, regular flag and tail fields, on trees that carry
    tails."""
    table = request.getfixturevalue(name)
    constants = U.FittedConstants(
        c_expansion=0.1, c_hyper=2.0, lam_hyper=1.5, c_length=40.0,
        xi_complexity=4.0, k_complexity=10) if fitted else None
    h = hashlib.sha256()
    tails = 0
    for W in _anchor_curves(table, 8):
        tree = U.evolve_n(table, W, 4, 30, constants)
        h.update(str(tree.degenerate_merged).encode() + b"\n")
        for g, gen in enumerate(tree.generations):
            for c in gen:
                h.update(f"{g}|{c.regular}|".encode()
                         + "|".join(_component_tokens(c)).encode() + b"\n")
                tails += c.tail
    assert tails > 0
    assert h.hexdigest() == ANCHOR_TREE_DIGESTS[name, fitted]


# fit_constants(torus2, 61)
TORUS2_FIT = U.FittedConstants(
    c_expansion=1.5221661031786686, c_hyper=2.1147733060334013,
    lam_hyper=2.3522897002324656, c_length=3.425750488984956,
    xi_complexity=1.0, k_complexity=1, seed=61)


def test_depth_columns_match_the_walks_on_scan_trees(tri, torus2,
                                                     monkeypatch):
    """Every tree of the seed-61 scans of tri (N = 6, no fit) and torus2
    (N = 4 under its seed-61 fitted constants); two torus2 trees carry a
    tail, tri's none."""
    row, checked = U._row, []

    def checking(head, tree, stop, n, constants):
        checked.append((_same_columns(tree, constants),
                        any(c.tail for gen in tree.generations for c in gen)))
        return row(head, tree, stop, n, constants)

    monkeypatch.setattr(U, "_row", checking)
    U.sup_scan(tri, 1e-4, 1000, 6, 30, 61)
    U.sup_scan(torus2, 1e-4, 1000, 4, 30, 61, TORUS2_FIT)
    assert len(checked) == 2000
    assert all(same for same, _ in checked)
    assert sum(tail for _, tail in checked) == 2


def _check_lineage(table, W):
    """W's depth-2 generation is, in order, each non-tail depth-1 parent's
    curve re-evolved one step, each child grown from its parent: the
    itineraries joined, the floors multiplied, regular only when both are.
    Returns the number of tail children checked."""
    tree = U.evolve_n(table, W, 2)
    pairs = [(parent, r) for parent in tree.generations[1] if not parent.tail
             for r in _generation_1(table, parent.curve)]
    assert len(pairs) == len(tree.generations[2])
    tails = 0
    for c, (parent, r) in zip(tree.generations[2], pairs):
        assert c.itinerary == parent.itinerary + r.itinerary
        assert c.curve == r.curve
        assert c.regular == (parent.regular and r.regular)
        if c.tail:
            assert c.tail_inv == r.tail_inv / parent.min_expansion
            tails += 1
        else:
            assert c.min_expansion == parent.min_expansion * r.min_expansion
    return tails


def test_reevolving_parent_reproduces_children(tri, lens, straddle_curve):
    # the lens curve crosses a level -2 grazing preimage, so its one
    # depth-1 parent straddles a level -1 one and has a tail child
    branch = next(c for c in S.trace_singularity(lens, -2, resolution=150)
                  if not c.fragment and c.origin == "grazing-preimage"
                  and len(c.nodes) >= 8)
    p = branch.nodes[len(branch.nodes) // 2]
    W = U.seed_ucurve(lens, PhasePoint(p.wall_id, p.r + 2e-5, p.phi + 2e-5),
                      1e-4, None)
    assert _check_lineage(tri, straddle_curve) \
        + _check_lineage(lens, W) > 0


# ---------------------------------------------------------------------------
# single-branch certificate

@functools.cache
def _cert_table(name):
    """(table, {"graze": graze anchors, "corner": nodes of the corner
    preimage curves}) of tri or lens."""
    table = tables.load_builtin(name)
    corner = [p for c in S.trace_singularity(table, -1, resolution=200)
              if c.origin == "corner-preimage" for p in c.nodes]
    return table, {"graze": U.graze_anchors(table), "corner": corner}


def _grid(n_s):
    step = 1.0 / (n_s - 1)
    return [i * step for i in range(n_s - 1)] + [1.0]


def _one_box(table, wall_id, r_lo, r_hi, phi_lo, phi_hi):
    """single_branch on one box, as a bool."""
    held, = single_branch(table, [wall_id], [r_lo], [r_hi], [phi_lo],
                          [phi_hi])
    return bool(held)


def _one_box_reference(table, wall_id, r_lo, r_hi, phi_lo, phi_hi):
    """The certificate on one box in scalar Python, the reference for
    single_branch (whose docstring holds the proof): the same tests in the
    same order, refusing at the first one that fails."""
    if table.ambient != "plane":
        return False
    mu = SINGLE_BRANCH_MU
    wall = table.walls[wall_id]
    if max(abs(phi_lo), abs(phi_hi)) >= HALF_PI - mu:
        return False
    if not wall.closed and (r_lo <= mu or r_hi >= wall.length - mu):
        return False
    dr = 0.5 * (r_hi - r_lo)
    turn = abs(wall.kappa) * dr + 0.5 * (phi_hi - phi_lo)
    (ox, oy), (ux, uy) = outgoing_ray(table, PhasePoint(
        wall_id, 0.5 * (r_lo + r_hi), 0.5 * (phi_lo + phi_hi)))
    for w in table.walls:
        vx, vy = w.center[0] - ox, w.center[1] - oy
        dist = math.hypot(vx, vy)
        e = dist * turn + dr + mu
        if abs(abs(ux * vy - uy * vx) - w.radius) <= e:
            return False
        if w is not wall and abs(dist - w.radius) <= dr + mu:
            return False
    for x, y in (*(k.position for k in table.corners), *table.crossings):
        vx, vy = x - ox, y - oy
        e = math.hypot(vx, vy) * turn + dr + mu
        if abs(ux * vy - uy * vx) <= e and ux * vx + uy * vy >= -e:
            return False
    return True


def _random_boxes(table, anchors, rng, count):
    """(wall_ids, r_lo, r_hi, phi_lo, phi_hi) of count boxes of widths
    1e-12 to 1e-2: a quarter at random, a quarter with an end at or just
    inside a wall end, a quarter with |phi| near pi/2 - SINGLE_BRANCH_MU
    and a quarter astride the anchors (a corner or tangency preimage)."""
    mu = SINGLE_BRANCH_MU
    walls = rng.integers(len(table.walls), size=count)
    length = np.array([table.walls[w].length for w in walls])
    dr = 10.0 ** rng.uniform(-12.0, -2.0, count)
    dphi = dr * 10.0 ** rng.uniform(-1.5, 1.5, count)
    r = rng.uniform(0.0, 1.0, count) * (length - dr)
    phi = rng.uniform(-1.5, 1.5, count)
    place = rng.integers(4, size=count)
    end = place == 1
    inside = rng.choice([0.0, 0.5 * mu, mu, 2.0 * mu, 1e-6], size=count)
    at_start = rng.random(count) < 0.5
    r[end] = np.where(at_start, inside, length - dr - inside)[end]
    steep = place == 2
    edge = HALF_PI - mu - dphi - rng.choice([-1e-9, 0.0, 1e-12, 1e-9],
                                            size=count)
    phi[steep] = np.where(rng.random(count) < 0.5, edge, -edge - dphi)[steep]
    for k in np.flatnonzero(place == 3):
        if anchors:
            a = anchors[int(rng.integers(len(anchors)))]
            walls[k] = a.wall_id
            r[k] = a.r - dr[k] * rng.random()
            phi[k] = a.phi - dphi[k] * rng.random()
    return walls, r, r + dr, phi, phi + dphi


@pytest.mark.parametrize("name", ["tri", "lens", "wedge", "torus2"])
def test_single_branch_equals_the_one_box_reference(name, request):
    """Row by row, the certificate over arrays is the scalar reference's
    answer, on random boxes of tri, lens (whose walls cross), a 1e-5 wedge
    and torus2 (always False)."""
    if name == "wedge":
        table, anchors = _wedge(), []
    elif name == "torus2":
        table, anchors = request.getfixturevalue("torus2"), []
    else:
        table, found = _cert_table(name)
        anchors = found["graze"] + found["corner"]
    boxes = _random_boxes(table, anchors, np.random.default_rng(1917), 8000)
    held = single_branch(table, *boxes)
    want = [_one_box_reference(table, int(w), *map(float, box))
            for w, *box in zip(*boxes)]
    assert held.dtype == bool and held.tolist() == want
    if name == "torus2":
        assert not any(want)
    else:
        assert 0.1 < np.mean(want) < 0.9


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["tri", "lens"]),
       place=st.sampled_from(["random", "graze", "corner", "end", "steep"]),
       pick=st.integers(0, 10 ** 6), u=st.floats(0.0, 1.0),
       v=st.floats(0.0, 1.0), log_len=st.floats(-7.0, -2.0),
       slope=st.floats(0.05, 20.0))
def test_single_branch_is_sound(name, place, pick, u, v, log_len, slope):
    """Only a certified arc is decided, and an arc that _prefetched leaves
    to _one_step cuts the segments that a fresh arc cuts.  Where the
    certificate holds, every grid probe of every grid size has the
    midpoint's regular signature, so the cut grid finds the one segment
    (0, 1) that _decided takes."""
    table, anchors = _cert_table(name)
    length = 10.0 ** log_len
    wall = table.walls[pick % len(table.walls)]
    r, phi = u * wall.length, (2.0 * v - 1.0) * 1.5
    if place in anchors:
        # astride a tangency or corner preimage, at a varying fraction of
        # the curve
        a = anchors[place][pick % len(anchors[place])]
        wall = table.walls[a.wall_id]
        r, phi = a.r + (u - 0.5) * length, a.phi + (v - 0.5) * length
    elif place == "end":
        r = 1e-3 * u if v < 0.5 else wall.length - 1e-3 * u
        phi = (2.0 * (pick % 1000) / 999 - 1.0) * 1.5
    elif place == "steep":
        phi = math.copysign(1.5 + v * (HALF_PI - 1.5 - 1e-9),
                            (pick % 2) - 0.5)
    h = math.hypot(1.0, slope)
    dr, dphi = length / h / 8, length * slope / h / 8
    pts = [PhasePoint(wall.wall_id, r + (i - 4) * dr, phi + (i - 4) * dphi)
           for i in range(9)]
    assume(all(0.0 <= p.r <= wall.length and abs(p.phi) < HALF_PI
               for p in pts))
    W = U.make_ucurve(wall.wall_id, pts)
    a, b = W.nodes[0], W.nodes[-1]
    held = _one_box(table, wall.wall_id, a.r, b.r, a.phi, b.phi)
    # only a certified arc is decided; an arc left to _one_step cuts the
    # same segments from its prefetched memo as a fresh arc does
    arc, = _prefetch(table, [W])
    assert held or isinstance(arc, U._Arc)
    n_s = U._grid_for(_arc(W).total)
    if isinstance(arc, U._Arc):
        assert U._primary_segments(table, arc, n_s) \
            == U._primary_segments(table, _arc(W), n_s)
    if held:
        arc = _arc(W)
        sig = U._probe(table, arc, 0.5)[0]
        assert sig == (sig[0], "regular")
        for n_s in (5, 9, 17):
            assert all(U._probe(table, arc, s)[0] == sig for s in _grid(n_s))
        assert U._primary_segments(table, arc, U._grid_for(arc.total)) \
            == [(0.0, 1.0, sig)]


def test_single_branch_false_on_torus(torus2):
    for w in torus2.walls:
        for phi in (-1.2, 0.0, 0.7):
            assert not _one_box(torus2, w.wall_id, 0.3, 0.3 + 1e-6, phi,
                                phi + 1e-6)


def test_single_branch_refuses_events(tri):
    """Boxes holding a corner departure, a grazing image or |phi| = pi/2
    are refused; a box far from all of them is certified."""
    L = tri.wall(0).length
    assert _one_box(tri, 0, 0.5 * L, 0.5 * L + 1e-6, 0.3, 0.3 + 1e-6)
    assert not _one_box(tri, 0, 0.0, 1e-6, 0.3, 0.3 + 1e-6)
    assert not _one_box(tri, 0, L - 1e-6, L, 0.3, 0.3 + 1e-6)
    assert not _one_box(tri, 0, 0.5 * L, 0.5 * L + 1e-6,
                        HALF_PI - 1e-9, HALF_PI - 1e-10)
    # a box astride a tangency preimage holds a grazing image
    g = U.graze_anchors(tri)[0]
    assert not _one_box(tri, g.wall_id, g.r - 1e-4, g.r + 1e-4,
                        g.phi - 1e-4, g.phi + 1e-4)


def _cut_box(table, wall_id, r, phi, dr, dphi):
    """(certificate, grid segments) of the straight curve from (r, phi)
    to (r + dr, phi + dphi); a fresh arc is not certified, so it takes the
    grid."""
    W = U.make_ucurve(wall_id, [PhasePoint(wall_id, r + i * dr / 8,
                                           phi + i * dphi / 8)
                                for i in range(9)])
    segments = U._primary_segments(table, _arc(W), 17)
    return _one_box(table, wall_id, r, r + dr, phi, phi + dphi), segments


def test_single_branch_sees_crossings_and_near_cusps():
    """Two branch changes that no corner or tangency marks: rays through a
    crossing of two walls, and departures so close to a near-cusp corner
    that the other wall's hit falls below TAU_FLOOR."""
    spec = tables.make_tri_spec()
    w0 = geometry.build_table(spec).walls[0]
    (mx, my), _n, _t = w0.frame_at(0.5 * w0.length)
    spec["walls"].append({"center": [mx, my], "radius": 0.1,
                          "theta_start": 0.0, "theta_end": 0.0,
                          "orientation": -1})
    # a strict build refuses walls that cross away from a corner
    crossed = geometry.build_table(spec, strict=False)
    # the crossing nearer wall 1, where the disk meets wall 0
    x, y = max((p for p in crossed.crossings
                if all(math.dist(p, c.position) > 1e-3
                       for c in crossed.corners)), key=lambda p: p[0])
    (ox, oy), n, t = crossed.walls[1].frame_at(0.3)
    phi = math.atan2((x - ox) * t[0] + (y - oy) * t[1],
                     (x - ox) * n[0] + (y - oy) * n[1])
    held, segments = _cut_box(crossed, 1, 0.3 - 1e-6, phi - 1e-6, 2e-6, 2e-6)
    assert not held and len(segments) == 2

    wedge = wedge_table(1e-5)
    L = wedge.walls[0].length
    held, segments = _cut_box(wedge, 0, L - 3e-7, -1e-7, 2.5e-7, 2e-7)
    assert not held and segments[0][1] < 1.0


def _counted_single_branch(monkeypatch):
    """The list to which each row's single_branch answer in ucurves is
    appended."""
    calls = []

    def counted(*args):
        held = single_branch(*args)
        calls.extend(held.tolist())
        return held

    monkeypatch.setattr(U, "single_branch", counted)
    return calls


def test_single_branch_fast_path_is_taken(tri, monkeypatch):
    """On seeded tri curves evolved to depth 3, at least 90% of the
    one-steps are certified, which _decided may take without the cut
    grid."""
    calls = _counted_single_branch(monkeypatch)
    for i in range(40):
        rng = np.random.default_rng(np.random.SeedSequence([7, 1, i]))
        (W, _), = _drawn(tri, [rng], 1e-4, 30)
        U.evolve_n(tri, W, 3)
    assert len(calls) >= 120
    assert sum(calls) >= 0.9 * len(calls)


def test_single_branch_fast_path_is_taken_in_the_scan(tri, monkeypatch):
    """The same bound on a block of seeded tri curves that the scan grows
    to depth 3 together, whose arcs _prefetched certifies."""
    calls = _counted_single_branch(monkeypatch)
    U.sup_scan(tri, 1e-4, U.SCAN_BLOCK, 3, 30, seed=7)
    assert len(calls) >= 120
    assert sum(calls) >= 0.9 * len(calls)


def _straight_curve(table, place, pick, u, v, log_len, slope):
    """A 9-node increasing straight curve of length 10**log_len and the
    given slope: astride a point whose next collision is tangent
    (``_graze_points``), near a wall end, or at random; None when a node
    leaves the chart."""
    length = 10.0 ** log_len
    wall = table.walls[pick % len(table.walls)]
    r, phi = u * wall.length, (2.0 * v - 1.0) * 1.5
    if place == "graze":
        a = _graze_points(table, np.random.default_rng(pick), 1)[0]
        wall = table.walls[a.wall_id]
        r, phi = a.r + (u - 0.5) * length, a.phi + (v - 0.5) * length
    elif place == "corner":
        r = 1e-3 * u if v < 0.5 else wall.length - 1e-3 * u
        phi = (2.0 * (pick % 1000) / 999 - 1.0) * 1.5
    h = math.hypot(1.0, slope)
    dr, dphi = length / h / 8, length * slope / h / 8
    pts = [PhasePoint(wall.wall_id, r + (i - 4) * dr, phi + (i - 4) * dphi)
           for i in range(9)]
    if not all((wall.closed or 0.0 <= p.r <= wall.length)
               and abs(p.phi) < HALF_PI for p in pts):
        return None
    return U.make_ucurve(wall.wall_id, pts)


@functools.cache
def _wedge():
    return wedge_table(1e-5)


def _probe_tokens(hit):
    sig, im = hit
    if im is None:
        return [repr(sig)]
    (a, b), (c, d) = im.derivative
    return [repr(sig), str(im.point.wall_id), *map(_bits, (
        im.point.r, im.point.phi, im.tau, a, b, c, d)), im.label,
        repr(im.trail), str(im.grazing)]


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["tri", "lens", "wedge"]),
       drawn=st.lists(st.tuples(
           st.sampled_from(["graze", "corner", "random"]),
           st.integers(0, 10 ** 6), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(-7.0, -2.0), st.floats(0.05, 20.0)),
           min_size=1, max_size=4))
def test_prefetch_cannot_move_a_number(name, drawn):
    """_assert_prefetch_moves_no_number near tangencies and corners too,
    where the kernel of plain_rows declines rows."""
    table = _wedge() if name == "wedge" else _cert_table(name)[0]
    curves = [W for W in (_straight_curve(table, *d) for d in drawn)
              if W is not None]
    assume(curves)
    _assert_prefetch_moves_no_number(table, curves)


def _seeded_curves(table, seed, count, length=U.MAX_LENGTH):
    """count curves seeded at random points, all from one rng."""
    rng = np.random.default_rng(seed)
    curves = []
    while len(curves) < count:
        try:
            curves.append(U.seed_ucurve(
                table, random_phase_point(table, rng), length, rng))
        except SingularSeed:
            continue
    return curves


def test_prefetch_maps_its_probes_by_the_row_count_rule(tri, monkeypatch):
    """_prefetched maps its probes with one plain_rows call: one curve's
    probes are too few for the kernel, and n > BATCH_ROWS probes make one
    kernel call per block of ceil(n / BATCH_ROWS) near-equal blocks."""
    sizes = []
    plain = U.plain_rows

    def recorded(table, wall_ids, r, phi):
        sizes.append(len(wall_ids))
        return plain(table, wall_ids, r, phi)

    monkeypatch.setattr(U, "plain_rows", recorded)
    curves = _seeded_curves(tri, 5, 200)
    for block in (curves[:1], curves):
        sizes.clear()
        layer = _layer(block)
        with kernel_calls() as calls:
            _prefetch(tri, block, layer)
        (n,) = sizes
        k = -(-n // BATCH_ROWS)
        blocks = [n // k + (j < n % k) for j in range(k)]
        assert [rows.size for rows, _ in calls] \
            == [size for size in blocks if size >= BATCH_MIN]
    assert n > BATCH_ROWS and len(calls) >= 2
    monkeypatch.undo()
    _assert_prefetch_moves_no_number(tri, curves[:1])
    _assert_prefetch_moves_no_number(tri, curves)


def test_torus_memo_holds_the_plain_grid_probes(torus2):
    """No arc is certified on the torus; each arc's memo holds, from
    _prefetched, exactly its grid probes that forward maps plainly, each
    what _probe returns there."""
    curves = _seeded_curves(torus2, 7, 6)
    for W, arc in zip(curves, _prefetch(torus2, curves)):
        assert isinstance(arc, U._Arc)
        plain = []
        for s in _grid(U._grid_for(arc.total)):
            try:
                if forward(torus2, arc.at(s)).regular:
                    plain.append(s)
            except BilliardError:
                pass
        assert plain and sorted(arc.memo) == plain
    _assert_prefetch_moves_no_number(torus2, curves)


def test_prefetched_arcs_hold_rows_until_an_image_is_read(torus2,
                                                         monkeypatch):
    """The arcs that _prefetched returns for 128 torus2 curves, none of them
    certified, keep their 2,176 grid probes as entries of one RegularRows:
    they hold about 0.6 MB (peak 0.9 MB), where a MapImage per probe held
    1.7 MB (peak 2.4 MB).  _primary_segments reads signatures only and
    builds no image; _probe_at builds one when it is first read."""
    curves = _seeded_curves(torus2, 7, 128)
    _prefetch(torus2, curves[:2])
    layer = _layer(curves)
    tracemalloc.start()
    try:
        arcs = _prefetch(torus2, curves, layer)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(isinstance(arc, U._Arc) for arc in arcs)
    assert held < 1_000_000 and peak < 1_500_000
    built = []
    images = RegularRows.images

    def counted(self, picks):
        built.extend(picks)
        return images(self, picks)

    monkeypatch.setattr(RegularRows, "images", counted)
    for arc in arcs:
        U._primary_segments(torus2, arc, U._grid_for(arc.total))
    assert built == []
    arc = arcs[0]
    s = min(arc.memo)
    assert U._probe_at(torus2, arc, s) is U._probe_at(torus2, arc, s)
    assert len(built) == 1


def _assert_prefetch_moves_no_number(table, curves):
    """Every entry that _prefetched puts in an arc's memo gives, through
    _signature_at and, once built, through _probe_at, what _probe returns
    there, and _grow, which steps the curves on arcs prefetched together,
    decided or not, builds the children and drops that _one_step builds on
    a fresh arc probed only as it goes."""
    for W, arc in zip(curves, _prefetch(table, curves)):
        if isinstance(arc, U._Arc):
            for s in list(arc.memo):
                want = U._probe(table, _arc(W), s)
                assert repr(U._signature_at(table, arc, s)) == repr(want[0])
                assert _probe_tokens(U._probe_at(table, arc, s)) \
                    == _probe_tokens(want)
                assert repr(U._signature_at(table, arc, s)) == repr(want[0])
    trees, stops = _grown(table, curves)
    assert stops == [None] * len(trees)
    for W, tree in zip(curves, trees):
        kids, ndeg = U._one_step(table, _arc(W), 1.0, 30, None)
        assert tree.degenerate_merged == ndeg
        assert [_component_tokens(c) for c in tree.generations[1]] \
            == [_component_tokens(c) for c in kids]


# ---------------------------------------------------------------------------
# bit identity of the evolution

def _graze_points(table, rng, count):
    """Phase points whose next collision is tangent to a wall, found by
    flying a tangent ray backward from a random boundary point."""
    out = []
    while len(out) < count:
        w = table.walls[int(rng.integers(len(table.walls)))]
        q, _n, t = w.chart_frame(float(rng.uniform(0.0, w.length)))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        dx, dy = sign * t[0], sign * t[1]
        try:
            hit = first_collision(table, Ray(q, (-dx, -dy)))
        except BilliardError:
            continue
        if hit.kind != "regular":
            continue
        _p, n, t = table.walls[hit.wall_id].chart_frame(hit.r)
        phi = math.atan2(dx * t[0] + dy * t[1], dx * n[0] + dy * n[1])
        out.append(PhasePoint(hit.wall_id, hit.r, phi))
    return out


def _component_tokens(c):
    W = c.curve
    return [str(W.wall_id),
            *(_bits(v) for p in W.nodes for v in (p.r, p.phi)),
            repr(c.itinerary),
            _bits(c.min_expansion), str(c.tail), _bits(c.tail_inv),
            str(c.tail_from)]


def evolution_digest(table, seed, count=12, grazing=3):
    """sha256 over every field of the depth-3 trees of seeded curves.

    ``count`` curves are seeded at random points of the invariant measure
    (of the longest length, so that some of them are cut), ``grazing`` more astride
    a tangency preimage, where the strip ladder ends in a tail.
    """
    rng = np.random.default_rng(seed)
    curves = []
    while len(curves) < count:
        try:
            curves.append(U.seed_ucurve(
                table, random_phase_point(table, rng), U.MAX_LENGTH, rng))
        except SingularSeed:
            continue
    for a in _graze_points(table, rng, grazing):
        z = PhasePoint(a.wall_id, a.r + 1e-5, a.phi + 1e-5)
        try:
            curves.append(U.seed_ucurve(table, z, 1e-4, None))
        except SingularSeed:
            continue
    h = hashlib.sha256()
    for W in curves:
        tree = U.evolve_n(table, W, 3)
        h.update(str(tree.degenerate_merged).encode() + b"\n")
        for g, gen in enumerate(tree.generations):
            for c in gen:
                h.update(f"{g}|".encode()
                         + "|".join(_component_tokens(c)).encode() + b"\n")
    return h.hexdigest()


# digests of the evolution, over the fields a component keeps, taken before
# the lineage fields (source intervals, birth numbers, chained growth) were
# deleted; the seeding, cutting and tail code must reproduce every bit of them.
# When UCurve's per-node slopes were deleted, these were computed again with
# the commit before that deletion (aa08ebe), its _component_tokens changed
# only by leaving out the slope tokens.  When children were restricted to the
# probes of their own branch, tri's was computed again with the commit before
# (ebdef2e) and only that change to ucurves applied; lens and torus2 held.
EVOLUTION_DIGESTS = {
    "tri": "bba06f1f272070514148f7099ef996396e499388223a4e71f9199fd94f9a1d13",
    "lens": "a43752d192a18547c9289ec255968f7962434a1d40a5169f12a2854b54f2a57d",
    "torus2": "a871876a9ce437149de2041d7e802579aa088ffa9e8c89c658a35197c5b7b63b",
}


@pytest.mark.parametrize("name", sorted(EVOLUTION_DIGESTS))
def test_evolution_bit_identity(name, request):
    table = request.getfixturevalue(name)
    assert evolution_digest(table, 20261) == EVOLUTION_DIGESTS[name]


def _off_wall(tree):
    """The components of tree with a node off their curve's wall."""
    return [c for gen in tree.generations for c in gen
            if any(p.wall_id != c.curve.wall_id for p in c.curve.nodes)]


@pytest.mark.parametrize("name, sample, depth", [
    ("tri", 915, 6), ("torus2", 210, 4), ("torus2", 467, 4)])
def test_recorded_components_lie_on_their_wall(name, sample, depth, request):
    """Every node of a component's curve lies on the curve's wall.  Each of
    these samples of sup_scan at seed 61 has a piece narrower than the
    primary cut's bracket, whose inset probe lands on the branch across
    the cut; a child takes only the probes of its own piece's branch."""
    table = request.getfixturevalue(name)
    (W, _), = _drawn(table, [Stream([61, 1, sample])], 1e-4, 30)
    assert _off_wall(U.evolve_n(table, W, depth)) == []


@pytest.mark.parametrize("name", ["tri", "lens", "torus2"])
def test_scan_block_components_lie_on_their_wall(name, request):
    table = request.getfixturevalue(name)
    drawn = _drawn(table, [Stream([61, 1, i]) for i in range(40)], 1e-4,
                   30)
    assert all(d is not None for d in drawn)
    for W, _ in drawn:
        assert _off_wall(U.evolve_n(table, W, 5)) == []


# ---------------------------------------------------------------------------
# decided arcs

H0 = 1.0 / (30 * 30)     # the strip-0 edge of u at k0 = 30
EDGE_ULP = math.ulp(HALF_PI - H0)   # the spacing of phi', and so of u, there


def _polyline(table, z, steps):
    """The curve from z by the (dr, dphi) steps, or None when a node leaves
    the chart."""
    pts = [z]
    for dr, dphi in steps:
        pts.append(PhasePoint(z.wall_id, pts[-1].r + dr, pts[-1].phi + dphi))
    wall = table.walls[z.wall_id]
    if not all((wall.closed or 0.0 <= p.r <= wall.length)
               and abs(p.phi) < HALF_PI for p in pts):
        return None
    return U.make_ucurve(z.wall_id, pts)


def _step_of(length, slope):
    h = math.hypot(1.0, slope)
    return length / h, length * slope / h


def _inset_u(table, W, s):
    """u = pi/2 - |phi'| of W's image at parameter s, or None."""
    im = U._probe(table, _arc(W), s)[1]
    return None if im is None else HALF_PI - abs(im.point.phi)


def _stretch_ratio(table, W):
    """The ratio of the larger to the smaller of W's stretch factors at the
    first inset and the midpoint, as _refine_params takes them."""
    arc = _arc(W)
    f = [expansion_factor(U._probe(table, arc, s)[1].derivative,
                          arc.slope_at(s)) for s in (1e-6, 0.5)]
    return max(f) / min(f)


def _bisect_floats(good, bad, holds):
    """Adjacent floats (good, bad), or as near as halving gets, with
    holds(good) and not holds(bad)."""
    while True:
        mid = 0.5 * (good + bad)
        if mid in (good, bad):
            return good, bad
        if holds(mid):
            good = mid
        else:
            bad = mid


def _rising(table, W):
    """Whether W's images at the insets and the midpoint rise from the
    inset at 1 - 1e-6 to the one at 1e-6, as a child's nodes must."""
    arc = _arc(W)
    pts = [U._probe(table, arc, s)[1] for s in (1.0 - 1e-6, 0.5, 1e-6)]
    return None not in pts and all(
        b.point.r > a.point.r and b.point.phi > a.point.phi
        for a, b in zip(pts, pts[1:]))


def _strip_edge_pairs(table, rng):
    """A pair of 2-node curves of length 1e-8 for each inset (1e-6 and
    1 - 1e-6), alike but for an ulp of phi, whose images at the inset have
    u on either side of H0, one of them within an ulp of phi' (EDGE_ULP),
    and at the other inset u >= H0, and the images of the second curve at
    _KNOWN rise (``_rising``).  Each pair is found by turning the ray of a
    point whose next collision is tangent until u reaches H0; u moves by
    many ulps per ulp of phi, so only some of them land that close."""
    pairs = {}
    for a in _graze_points(table, rng, 4000):
        for inset, other in ((1e-6, 1.0 - 1e-6), (1.0 - 1e-6, 1e-6)):
            for sign in (1.0, -1.0):
                def curve(t):
                    z = PhasePoint(a.wall_id, a.r, a.phi + sign * t)
                    return _polyline(table, z, [_step_of(1e-8, 1.0)])

                def u_at(t, s=inset):
                    W = curve(t)
                    return None if W is None else _inset_u(table, W, s)

                def below(t):
                    u = u_at(t)
                    return u is not None and u < H0

                ts = [t for t in 10.0 ** np.arange(-12.0, -1.0) if below(t)]
                if not ts or u_at(10.0 * ts[-1]) is None:
                    continue
                lo, hi = _bisect_floats(ts[-1], 10.0 * ts[-1], below)
                u = u_at(lo), u_at(hi)
                if u[1] is not None and min(H0 - u[0], u[1] - H0) \
                        <= EDGE_ULP and (u_at(hi, other) or 0.0) >= H0 \
                        and _rising(table, curve(hi)):
                    pairs.setdefault(inset, (inset, curve(lo), curve(hi)))
                break
        if len(pairs) == 2:
            break
    return list(pairs.values())


def _ratio_pairs(table, rng, count):
    """Pairs of 3-node curves, alike but for the slope of the second
    segment, whose stretch ratio (``_stretch_ratio``) lies on either side of
    NODE_RATIO, and whose images at _KNOWN rise (``_rising``)."""
    pairs = []
    while len(pairs) < count:
        z = random_phase_point(table, rng)
        m = 10.0 ** rng.uniform(-1.0, 1.0)

        def curve(q):
            return _polyline(table, z, [_step_of(1e-5, m),
                                        _step_of(3e-5, m * q)])

        def smooth(q):
            W = curve(q)
            return W is not None and _rising(table, W)

        def within(q):
            return smooth(q) \
                and _stretch_ratio(table, curve(q)) <= U.NODE_RATIO

        if not within(1.0):
            continue
        far = next((q for q in (1.5, 0.5, 3.0, 0.2, 10.0, 0.05, 50.0)
                    if smooth(q) and not within(q)), None)
        if far is not None:
            near, far = _bisect_floats(1.0, far, within)
            pairs.append((curve(near), curve(far)))
    return pairs


def _decided_cases(table, rng):
    """Curves for the decided rule: 9-node and 2-node curves of lengths
    1e-7 to 1e-2 at random and astride tangencies, 4-node curves whose
    first or last segment is shorter than 1e-6 of the arc, so that
    _Arc.slope_at takes the inset's slope from the next segment in, and
    certified 2-node curves 1e-14 to 1e-13 long (any such curve on the
    torus, where nothing is certified), whose children fall below
    DEGEN_LEN."""
    curves = []
    for nodes in (9, 2, 4) * 12:
        z = random_phase_point(table, rng)
        if nodes != 4 and rng.random() < 0.3:
            g = _graze_points(table, rng, 1)[0]
            z = PhasePoint(g.wall_id, g.r - 1e-6 * rng.random(),
                           g.phi - 1e-6 * rng.random())
        length = 10.0 ** rng.uniform(-7.0, -2.0)
        m = 10.0 ** rng.uniform(-1.3, 1.3)
        steps = [_step_of(length / (nodes - 1), m * rng.uniform(0.9, 1.1))
                 for _ in range(nodes - 1)]
        if nodes == 4:
            # a segment 1e-9 to 5e-7 of the arc, steeper or flatter
            short = _step_of(length * 10.0 ** rng.uniform(-9.0, -6.3),
                             m * rng.uniform(0.6, 1.6))
            steps = [short] + steps[1:] if rng.random() < 0.5 \
                else steps[:-1] + [short]
        W = _polyline(table, z, steps)
        if W is not None:
            curves.append(W)
    # drawn on their own rng, which leaves rng where the cases above left it
    tiny = np.random.default_rng(1414)
    for _ in range(12):
        z = random_phase_point(table, tiny)
        W = _polyline(table, z, [_step_of(10.0 ** tiny.uniform(-14.0, -13.0),
                                          10.0 ** tiny.uniform(-1.3, 1.3))])
        if W is not None and (table.ambient != "plane" or _one_box(
                table, W.wall_id, *(p.r for p in W.nodes),
                *(p.phi for p in W.nodes))):
            curves.append(W)
    return curves


@pytest.mark.parametrize("name", ["tri", "lens", "wedge", "torus2"])
def test_decided_children_are_one_step_children(name, request):
    """_grow's children of each parent, built straight from the three known
    images where the arc is decided, are field for field what _one_step
    builds on a fresh arc of the parent's curve, and so are the
    dropped-piece counts, which are not all 0: on tri, lens, a 1e-5 wedge
    and torus2, where every arc is declined."""
    table = _wedge() if name == "wedge" else request.getfixturevalue(name)
    rng = np.random.default_rng(2020)
    curves = _decided_cases(table, rng)
    edges, ratios = [], []
    if name != "torus2":
        edges = _strip_edge_pairs(table, rng)
        ratios = _ratio_pairs(table, rng, 2)
        assert len(edges) == 2
        for inset, below, above in edges:
            u = [_inset_u(table, W, inset) for W in (below, above)]
            assert u[0] < H0 <= u[1]
            assert min(H0 - u[0], u[1] - H0) <= EDGE_ULP
        for within, beyond in ratios:
            assert _stretch_ratio(table, within) <= U.NODE_RATIO \
                < _stretch_ratio(table, beyond)
        curves += [W for _, *pair in edges for W in pair]
        curves += [W for pair in ratios for W in pair]
    assert {2, 4, 9} <= {len(W.nodes) for W in curves}
    parents = [U.HComponent(W, (), rng.uniform(0.5, 40.0)) for W in curves]
    forest = U._Forest(U._Seeds.of(curves))
    # the roots take the parents' random floors, which their children's
    # floors multiply
    forest.layers[0].min_expansion[:] = [c.min_expansion for c in parents]
    U._grow(table, forest, 30, None)
    assert forest.stops == [None] * len(curves)
    trees = [U.EvolutionTree(forest, t) for t in range(len(curves))]
    assert sum(tree.degenerate_merged for tree in trees) > 0
    geo = _geometry_of(curves)
    for i, (parent, tree) in enumerate(zip(parents, trees)):
        # a fresh arc, which _one_step steps on its cut grid
        kids, ndeg = U._one_step(table, U._Arc(curves[i].wall_id, geo, i),
                                 parent.min_expansion, 30, None)
        assert tree.degenerate_merged == ndeg
        assert [_component_tokens(c) for c in tree.generations[1]] \
            == [_component_tokens(c) for c in kids]
    decided = [arc is None for arc in _prefetch(table, curves)]
    if name == "torus2":
        assert not any(decided)
        return
    assert 0.3 * len(curves) < sum(decided) < len(curves)
    split = dict(zip(curves, decided))
    assert {2, 4, 9} <= {len(W.nodes) for W in curves if split[W]}
    # each pair straddles the rule: decided on one side only
    assert all(split[a] and not split[b] for _, b, a in edges)
    assert all(split[a] and not split[b] for a, b in ratios)


def test_certified_floor(tri, straddle_curve, cheap_constants):
    con = cheap_constants
    tree = U.evolve_n(tri, straddle_curve, 3, constants=con)
    for g in range(1, 4):
        floor = con.lam_hyper ** g / con.c_hyper
        for c in tree.generations[g]:
            if not c.tail:
                assert c.min_expansion >= 0.5 * floor


def test_component_explosion(tri, straddle_curve, monkeypatch):
    monkeypatch.setattr(U, "LEAF_CAP", 10)
    with pytest.raises(ComponentExplosion) as exc:
        U.evolve_n(tri, straddle_curve, 2)
    assert isinstance(exc.value.partial, U.EvolutionTree)


def _tokens(gens):
    return [[_component_tokens(c) for c in gen] for gen in gens]


@pytest.mark.parametrize("name", ["tri", "lens"])
def test_a_tree_explodes_once_a_generation_passes_leaf_cap(name, request,
                                                           monkeypatch):
    """Anchor-seeded trees to depth 4, whose generations mix decided and
    stepped parents: with LEAF_CAP at a tree's largest generation the tree
    grows as without the cap; one lower, it explodes at the first
    generation that large, which it keeps whole; lower still, at the first
    generation past the cap, keeping a prefix of it with more components
    than the cap."""
    table = request.getfixturevalue(name)
    for W in _anchor_curves(table, 6):
        monkeypatch.undo()
        full = U.evolve_n(table, W, 4, 30).generations
        sizes = [len(gen) for gen in full]
        for cap in {max(sizes[1:]), max(sizes[1:]) - 1, 2, 1}:
            monkeypatch.setattr(U, "LEAF_CAP", cap)
            g = next((g for g in range(1, 5) if sizes[g] > cap), None)
            if g is None:
                assert _tokens(U.evolve_n(table, W, 4, 30).generations) \
                    == _tokens(full)
                continue
            with pytest.raises(ComponentExplosion) as exc:
                U.evolve_n(table, W, 4, 30)
            cut = exc.value.partial.generations
            assert len(cut) == g + 1 and len(cut[g]) > cap
            assert _tokens(cut) == _tokens(full[:g] + [full[g][:len(cut[g])]])


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


# fit_constants(tri, seed) as it was while the fit still walked the corner
# band centre's portraits
TRI_FITS = {
    61: U.FittedConstants(
        c_expansion=0.28032629280360616, c_hyper=6.418171734908016,
        lam_hyper=1.3530752042790595, c_length=2.7495472114392707,
        xi_complexity=2.0, k_complexity=4, seed=61),
    407: U.FittedConstants(
        c_expansion=0.2920425926120648, c_hyper=5.717550594865549,
        lam_hyper=1.4323905152387313, c_length=2.807369006804084,
        xi_complexity=2.0, k_complexity=4, seed=407),
}


def test_fit_walks_no_corner_band_centre(tri, monkeypatch):
    """tri's first multiple point is the corner itself, inside the
    EPS_CORNER band; the fit drops it without a replacement, and its
    constants stay what they were."""
    def in_band(z):
        return not (geometry.EPS_CORNER < z.r
                    < tri.wall(z.wall_id).length - geometry.EPS_CORNER)

    first, second = S.find_multiple_points(tri, resolution=200)[:2]
    assert in_band(first) and not in_band(second)
    centres = []
    walks = U.regular_complexities

    def recorded(table, z, orders, k0):
        centres.append(z)
        return walks(table, z, orders, k0)

    monkeypatch.setattr(U, "regular_complexities", recorded)
    for seed, want in TRI_FITS.items():
        assert U.fit_constants(tri, seed) == want
    assert centres == [PhasePoint(second.wall_id, second.r, second.phi)] * 2


# ---------------------------------------------------------------------------
# scans and reports

def test_sup_scan_deterministic(tri):
    a = U.sup_scan(tri, 1e-4, 20, 1, 30, seed=13)
    b = U.sup_scan(tri, 1e-4, 20, 1, 30, seed=13)
    c = U.sup_scan(tri, 1e-4, 20, 1, 30, seed=13, threads=4)
    assert json_bytes(a.to_json()) == json_bytes(b.to_json()) \
        == json_bytes(c.to_json())


def _draw_by_itself(table, rng, delta, k0):
    """(curve, tries) of the first seed_ucurve curve at a random base point
    drawn from rng, one point at a time, or None after SEED_TRIES."""
    for tries in range(1, U.SEED_TRIES + 1):
        z = random_phase_point(table, rng)
        try:
            return U.seed_ucurve(table, z, delta, rng, k0), tries
        except BilliardError:
            continue
    return None


def _scan_row_by_itself(table, i, seed, delta, n, k0, constants):
    """sup_scan's row of sample i, built from that sample alone: its curve
    from ``_draw_by_itself``, its tree from ``evolve_n``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1, i]))
    drawn = _draw_by_itself(table, rng, delta, k0)
    if drawn is None:
        return {"sample_id": i, "flag": "skipped"}
    W, tries = drawn
    z0 = W.nodes[len(W.nodes) // 2]
    row = {"sample_id": i, "base": [z0.wall_id, z0.r, z0.phi],
           "length": W.euclidean_length, "tries": tries, "flag": ""}
    try:
        tree = U.evolve_n(table, W, n, k0, constants)
    except ComponentExplosion as err:
        tree = err.partial
        row["flag"] = "explosion"
    depth = len(tree.generations) - 1
    sums, regular, _ = U.depth_columns(tree, constants)
    row["e"] = sums + [None] * (n - depth)
    row["k"] = regular + [0] * (n - depth)
    row["leaves"] = [len(tree.leaves(m)) for m in range(depth + 1)] \
        + [0] * (n - depth)
    row["grazing_sum"] = U.grazing_sum(tree.generations[1]) \
        if depth >= 1 else 0.0
    row["degenerate"] = tree.degenerate_merged
    return row


def _double_wall_2_children(monkeypatch, wall=2):
    """Make every step of a curve on wall 2 (or ``wall``) give each child
    twice: its arc goes to _one_step even where _prefetched decides it,
    which builds the same children."""
    prefetched, one_step = U._prefetched, U._one_step

    def declined(table, layer, rows, k0):
        decided, arcs = prefetched(table, layer, rows, k0)
        on_2 = layer.wall[rows[decided.at]] == wall
        for i in decided.at[on_2].tolist():
            arcs[i] = _arc(U._curve_at(layer, rows[i]))
        return U._Decided(*(a[~on_2] for a in decided)), arcs

    def doubled(table, arc, *args):
        kids, ndeg = one_step(table, arc, *args)
        return (kids + kids if arc.wall_id == wall else kids), ndeg

    monkeypatch.setattr(U, "_prefetched", declined)
    monkeypatch.setattr(U, "_one_step", doubled)


def _assert_blocks_equal_curves(table, seed, samples, n, constants, wall,
                                explode, monkeypatch):
    """A scan in blocks of 1, 5, 128 and SCAN_BLOCK curves, at 1 and 4
    threads, gives the rows of its samples evolved one by one.  Made to
    explode, the trees of curves on ``wall`` outgrow LEAF_CAP after depth 2
    while others of their block grow on."""
    if explode:
        _double_wall_2_children(monkeypatch, wall)
        monkeypatch.setattr(U, "LEAF_CAP", 2)
    rows = [_scan_row_by_itself(table, i, seed, 1e-4, n, 30, constants)
            for i in range(samples)]
    block = min(samples, U.SCAN_BLOCK)
    for size in (1, 5, 128, U.SCAN_BLOCK):
        monkeypatch.setattr(U, "SCAN_BLOCK", size)
        for threads in (1, 4):
            rep = U.sup_scan(table, 1e-4, samples, n, 30, seed=seed,
                             constants=constants, threads=threads)
            assert json_bytes(rep.rows) == json_bytes(rows)
    exploded = [r["flag"] == "explosion" for r in rows]
    assert any(exploded[:block]) == explode
    assert not all(exploded[:block])


@pytest.mark.parametrize("explode", [False, True])
def test_block_scan_equals_per_curve_evolution(tri, cheap_constants,
                                               monkeypatch, explode):
    """On tri, in blocks of 128 that end in a partial one and in one
    partial block of the default size."""
    _assert_blocks_equal_curves(tri, 17, 300, 3,
                                cheap_constants, 2, explode, monkeypatch)


@pytest.mark.parametrize("name, seed, samples, n, wall, tail", [
    ("lens", 58, 300, 3, 2, 270),
    ("torus2", 19, 36, 4, 1, 6)])
@pytest.mark.parametrize("explode", [False, True])
def test_block_scan_with_tails_equals_per_curve_evolution(
        name, seed, samples, n, wall, tail, explode, cheap_constants,
        request, monkeypatch):
    """On lens and on torus2 under its fitted constants, each scan with a
    tree that carries a tail."""
    table = request.getfixturevalue(name)
    constants = TORUS2_FIT if name == "torus2" else cheap_constants
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1, tail]))
    W, _ = _draw_by_itself(table, rng, 1e-4, 30)
    tree = U.evolve_n(table, W, n, 30, constants)
    assert any(c.tail for gen in tree.generations for c in gen)
    _assert_blocks_equal_curves(table, seed, samples, n, constants, wall,
                                explode, monkeypatch)



def test_one_block_scan_keeps_a_small_traced_peak(tri):
    """A 1,000-curve tri scan at seed 61 and N = 6 grows as one forest,
    and its traced peak read 2.34 MB when measured: the forest's layers and
    the report's rows, about 1 MB each.  The bound allows 24% more.  With
    the seeds kept as UCurves, every row padded to its layer's longest
    curve and Python lists of each layer's columns, one block peaked at
    6.0 MB."""
    U.sup_scan(tri, 1e-4, 8, 6, 30, 61)     # caches filled on first use
    tracemalloc.start()
    try:
        U.sup_scan(tri, 1e-4, 1000, 6, 30, 61)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_900_000


def test_a_layer_holds_only_its_rows_nodes(tri):
    """A layer whose rows are a 50-node stepped child and 3-node decided
    children stores exactly the sum of their node counts, each row's own
    nodes in row order: no row is padded to the longest."""
    curves = _seeded_curves(tri, 11, 6, 1e-4)
    last = _layer(curves)
    front = np.arange(len(curves))
    decided, arcs = U._prefetched(tri, last, front, 30)
    assert arcs == [None] * len(curves)
    z = curves[2].nodes[0]
    long = U.make_ucurve(z.wall_id, [PhasePoint(
        z.wall_id, z.r + k * 1e-7, z.phi + k * 2e-7) for k in range(50)])
    kids = {2: [U.HComponent(long, ((z.wall_id, "regular", 0),), 2.0)]}
    stepped = decided.at == 2
    layer = U._next_layer(last, front, front, np.ones(len(curves), dtype=int),
                          kids, [U._Decided(*(a[~stepped] for a in decided))])
    size = np.diff(layer.start)
    assert size.tolist() == [3, 3, 50, 3, 3, 3]
    assert layer.r.size == layer.phi.size == size.sum() == 65
    assert U._curve_at(layer, 2) == long
    for i in (0, 1, 3, 4, 5):
        j = decided.at.tolist().index(i)
        assert U._curve_at(layer, i) == U.make_ucurve(decided.wall[j], [
            PhasePoint(decided.wall[j], r, phi)
            for r, phi in zip(decided.r[j].tolist(), decided.phi[j].tolist())])


def _depth_2(table, curves, cap=None):
    """The forest of the curves' trees grown to depth 2, its second
    generation under LEAF_CAP = ``cap`` when given."""
    forest = U._Forest(U._Seeds.of(curves))
    U._grow(table, forest, 30, None)
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(U, "LEAF_CAP", cap)
        U._grow(table, forest, 30, None)
    return forest


def _tree_tokens(forest, trees):
    """Per tree of the forest: its depth, its stop, its dropped pieces and
    its components' tokens, generation by generation."""
    return [(forest.depth[t], repr(forest.stops[t]), forest.degenerate[t],
             [[_component_tokens(c) for c in gen]
              for gen in U.EvolutionTree(forest, t).generations])
            for t in trees]


def _second_parents(table, forest):
    """(rows, tree, decided) of the parents of generation 2, in the order
    _grow meets them: each one's row of generation 1, its tree, and
    whether _prefetched decides its arc."""
    layer = forest.layers[1]
    rows = np.flatnonzero(layer.tail_from == 0)
    tree = np.repeat(np.arange(len(forest.depth)), np.diff(layer.ends))[rows]
    decided = np.zeros(rows.size, dtype=bool)
    decided[U._prefetched(table, layer, rows, 30)[0].at] = True
    return rows, tree, decided


WINDOW = 4      # BATCH_ROWS for _grow in the window tests


@pytest.mark.parametrize("name", ["tri", "lens"])
def test_a_step_that_raises_drops_its_tree_across_windows(name, request):
    """Anchor trees grown to depth 2 with _grow's windows of WINDOW
    parents: a tree whose step raises at a parent in a later window than
    one of its decided parents stops with that error, keeps its depth and
    has no row in the new layer, and every other tree is what it is in the
    forest grown without it, as with the default windows."""
    table = request.getfixturevalue(name)
    curves = _anchor_curves(table, 8)
    full = _depth_2(table, curves)
    rows, tree, decided = _second_parents(table, full)
    q = next(q for q in np.flatnonzero(~decided).tolist()
             if any(p // WINDOW < q // WINDOW for p in np.flatnonzero(
                 decided & (tree == tree[q])).tolist()))
    t = int(tree[q])
    target = U._curve_at(full.layers[1], rows[q])
    err = BilliardError("a step that fails")
    one_step = U._one_step

    def failing(table_, arc, *args):
        if _curve_of(arc) == target:
            raise err
        return one_step(table_, arc, *args)

    got = []
    for size in (WINDOW, BATCH_ROWS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(U, "BATCH_ROWS", size)
            mp.setattr(U, "_one_step", failing)
            forest = _depth_2(table, curves)
        assert forest.stops[t] is err and forest.depth[t] == 1
        layer = forest.layers[2]
        assert layer.ends[t] == layer.ends[t + 1]
        got.append(_tree_tokens(forest, range(len(curves))))
    assert got[0] == got[1]
    without = _depth_2(table, curves[:t] + curves[t + 1:])
    assert got[0][:t] + got[0][t + 1:] \
        == _tree_tokens(without, range(len(curves) - 1))


@pytest.mark.parametrize("name", ["tri", "lens"])
@pytest.mark.parametrize("cap", [0, 256])
def test_a_decided_parent_past_leaf_cap_stops_its_tree_across_windows(
        name, cap, request):
    """Anchor trees grown to depth 2, the second generation under LEAF_CAP
    = cap, with _grow's windows of WINDOW parents: a tree whose generation
    passes the cap stops with a ComponentExplosion at the parent that
    passes it, and its ``.partial`` keeps exactly the children up to that
    parent, as with the default windows.  At cap 0 a decided first parent
    passes it before the stepped parents of later windows; at 256 a
    decided last parent does, after the stepped ones of earlier windows."""
    table = request.getfixturevalue(name)
    curves = _anchor_curves(table, 8)
    full = _depth_2(table, curves)
    rows, tree, decided = _second_parents(table, full)
    layer = full.layers[2]
    # per tree, the children up to the parent that passes the cap
    want, at_decided = [], []
    for t, tokens in enumerate(_tree_tokens(full, range(len(curves)))):
        kids = tokens[3][2]
        if len(kids) <= cap:
            want.append(None)
            continue
        parent = layer.parent[layer.ends[t]:layer.ends[t + 1]]
        q = int(np.searchsorted(rows, parent[cap]))
        want.append(kids[:int(np.searchsorted(parent, parent[cap], "right"))])
        if decided[q] and len({p // WINDOW for p in np.flatnonzero(
                tree == t).tolist()}) > 1:
            at_decided.append(t)
    assert at_decided
    got = []
    for size in (WINDOW, BATCH_ROWS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(U, "BATCH_ROWS", size)
            forest = _depth_2(table, curves, cap)
        for t, kids in enumerate(want):
            assert forest.depth[t] == 2
            if kids is None:
                assert forest.stops[t] is None
                continue
            stop = forest.stops[t]
            assert isinstance(stop, ComponentExplosion)
            assert [_component_tokens(c)
                    for c in stop.partial.generations[2]] == kids
        got.append(_tree_tokens(forest, range(len(curves))))
    assert got[0] == got[1]


def test_a_scan_walks_no_parent_itinerary(tri, monkeypatch):
    """A small tri scan that steps declined arcs reads no itinerary of a
    parent row: _one_step steps each from its arc and its floor."""
    walks, steps = [], []
    itinerary, one_step = U._Forest.itinerary, U._one_step

    def walked(self, g, i):
        walks.append((g, i))
        return itinerary(self, g, i)

    def stepped(*args):
        steps.append(args)
        return one_step(*args)

    monkeypatch.setattr(U._Forest, "itinerary", walked)
    monkeypatch.setattr(U, "_one_step", stepped)
    U.sup_scan(tri, 1e-3, 20, 2, 30, 61)
    assert steps and walks == []


def test_seed_rows_read_back_as_their_curves(tri):
    """UCurves of 2, 9 and 50 nodes, from random points by steps of random
    lengths and slopes, as the rows of one ``_Seeds``: each row reads back
    as its curve, its length is the curve's euclidean_length bit for bit,
    and evolve_n's tree of the curve has it as its root."""
    rng = np.random.default_rng(4040)
    curves = []
    for size in (2, 9, 50) * 4:
        W = None
        while W is None:
            W = _polyline(tri, random_phase_point(tri, rng), [
                _step_of(10.0 ** rng.uniform(-9.0, -5.0),
                         10.0 ** rng.uniform(-1.0, 1.0))
                for _ in range(size - 1)])
        curves.append(W)
    assert [len(W.nodes) for W in curves] == [2, 9, 50] * 4
    seeds = U._Seeds.of(curves)
    for i, W in enumerate(curves):
        assert U._curve_at(seeds, i) == W
        assert _bits(seeds.length[i]) == _bits(W.euclidean_length)
        for n in (0, 1):
            assert U.evolve_n(tri, W, n).root == W

def _substreams(seed, count):
    return [np.random.default_rng(np.random.SeedSequence([seed, 1, i]))
            for i in range(count)]


def _drawn_tokens(drawn):
    return [None if d is None
            else (_component_tokens(U.HComponent(d[0], (), 1.0)), d[1])
            for d in drawn]


@pytest.mark.parametrize("name", ["tri", "lens"])
@pytest.mark.parametrize("harsh", [False, True])
def test_block_seeding_equals_curve_by_curve(name, harsh, request,
                                             monkeypatch):
    """_draw_curves in blocks of 400 rows gives the curve, tries and skipped
    rows of seed_ucurve tried one base point at a time, on each of 2,000
    substreams.  Made harsh, with EPS_SEED = 1 (|phi| >= 0.57 is refused)
    and three tries a row, the blocks take several lockstep rounds and
    skip rows."""
    table = request.getfixturevalue(name)
    if harsh:
        monkeypatch.setattr(U, "EPS_SEED", 1.0)
        monkeypatch.setattr(U, "SEED_TRIES", 3)
    want = [_draw_by_itself(table, rng, 1e-4, 30)
            for rng in _substreams(29, 2000)]
    rngs = _substreams(29, 2000)
    got = [d for start in range(0, 2000, 400)
           for d in _drawn(table, rngs[start:start + 400], 1e-4, 30)]
    assert _drawn_tokens(got) == _drawn_tokens(want)
    tries = [d[1] for d in want if d is not None]
    if harsh:
        assert None in want and max(tries) == 3
    else:
        assert None not in want


def test_block_seeding_checks_the_last_cone(tri, monkeypatch):
    """The cone at the last node of each side sets no slope, yet a seed is
    refused where it is undefined, by the block seeding as by seed_ucurve:
    with the cones at the first curves' end nodes made undefined, every row
    takes another try."""
    first = _drawn(tri, _substreams(31, 128), 1e-4, 30)
    assert all(d[1] == 1 for d in first)
    ends = {p for W, _ in first for p in (W.nodes[0], W.nodes[-1])}
    cones = U.unstable_cones

    def cones_or_none(table, wall_ids, r, phi):
        rows, lo, hi = cones(table, wall_ids, r, phi)
        keep = [PhasePoint(*p) not in ends for p in zip(
            wall_ids[rows].tolist(), r[rows].tolist(), phi[rows].tolist())]
        return rows[keep], lo[keep], hi[keep]

    monkeypatch.setattr(U, "unstable_cones", cones_or_none)
    got = _drawn(tri, _substreams(31, 128), 1e-4, 30)
    want = [_draw_by_itself(tri, rng, 1e-4, 30)
            for rng in _substreams(31, 128)]
    assert _drawn_tokens(got) == _drawn_tokens(want)
    assert all(d[1] >= 2 for d in got)


def _interior_slope_by_itself(lo, hi, x):
    """interior_slope of one cone, as the seed walks took it one at a time."""
    if math.isinf(hi):
        hi = 10.0 * lo + 1.0
    if lo <= 0.0:
        return lo + x * (hi - lo)
    return lo * (hi / lo) ** x


def _cone_or_none(table, p, hole):
    if hole(p):
        return None
    rows, lo, hi = unstable_cones(table, [p.wall_id], [p.r], [p.phi])
    return (float(lo[0]), float(hi[0])) if rows.size else None


def _seed_walks_side_by_side(table, bases, xs, lengths, hole):
    """U._seed_walks one side and one node at a time, with every cone from
    unstable_cones one row at a time, and none at a point p where hole(p):
    the reference for the walks over arrays."""
    out = [None] * len(bases)
    sides = {}      # (row, sign) -> [nodes from z, the slope carried]

    def turn(cone, m, x):
        lo, hi = cone
        return m if lo < m < hi else _interior_slope_by_itself(lo, hi, x)

    for i, (z, x) in enumerate(zip(bases, xs)):
        cone = _cone_or_none(table, z, hole)
        if cone is None:
            out[i] = "cone undefined along the seed"
            continue
        m_z = turn(cone, -1.0, x)
        for sign in (-1.0, 1.0):
            sides[i, sign] = [[z], m_z]
    for _ in range(U.SEED_HALF):
        stepped = []
        for (i, sign), (nodes, m) in sides.items():
            if out[i] is not None:
                continue
            p = nodes[-1]
            wall = table.wall(p.wall_id)
            r_lo, r_hi = (-math.inf, math.inf) if wall.closed \
                else (0.0, wall.length)
            dr = sign * (0.5 * lengths[i] / U.SEED_HALF) / math.hypot(1.0, m)
            p = PhasePoint(p.wall_id, p.r + dr, p.phi + m * dr)
            if abs(p.phi) >= HALF_PI - U.EPS_SEED or not r_lo < p.r < r_hi:
                out[i] = "seed curve left the open chart"
                continue
            nodes.append(p)
            stepped.append((i, sign))
        stepped = [key for key in stepped if out[key[0]] is None]
        for (i, sign) in stepped:
            cone = _cone_or_none(table, sides[i, sign][0][-1], hole)
            if cone is None:
                out[i] = "cone undefined along the seed"
            elif out[i] is None:
                side = sides[i, sign]
                side[1] = turn(cone, side[1], xs[i])
    for i, z in enumerate(bases):
        if out[i] is not None:
            continue
        pts = sides[i, -1.0][0][:0:-1] + sides[i, 1.0][0]
        try:
            out[i] = U.make_ucurve(z.wall_id, pts)
        except ValueError as err:
            out[i] = f"seed curve of length {lengths[i]:g}: {err}"
    return out


def _walk_bases(table, rng, count):
    """count base points: random ones, ones within 1e-3 of a wall end or on
    it (chart exits, and corner departures without a cone), ones within 1e-3 of tangency (chart exits) and ones
    whose arriving flight passes near a corner (undefined cones)."""
    out = []
    while len(out) < count:
        kind = rng.integers(4)
        if kind == 0:
            out.append(random_phase_point(table, rng))
            continue
        w = table.walls[int(rng.integers(len(table.walls)))]
        r = float(rng.uniform(0.0, w.length))
        phi = float(rng.uniform(-1.4, 1.4))
        if kind == 1:
            r = float(rng.choice([0.0, w.length - 1e-3])
                      + rng.choice([0.0, 1e-3]) * rng.uniform(0.0, 1.0))
        elif kind == 2:
            phi = math.copysign(HALF_PI - 10.0 ** rng.uniform(-8.5, -3.0),
                                phi)
        else:
            # the involute departs toward a point just beside a corner
            c = table.corners[int(rng.integers(len(table.corners)))]
            p, n, t = w.chart_frame(r)
            dx = c.position[0] - p[0] + float(rng.uniform(-3e-4, 3e-4))
            dy = c.position[1] - p[1] + float(rng.uniform(-3e-4, 3e-4))
            phi = -math.atan2(dx * t[0] + dy * t[1], dx * n[0] + dy * n[1])
            if not abs(phi) < HALF_PI:
                continue
        out.append(PhasePoint(w.wall_id, r, phi))
    return out


def _no_hole(p):
    return False


def _hole(p):
    """About one point in 40, by the digits of its angle."""
    return int(abs(p.phi) * 1e7) % 41 == 0


@pytest.mark.parametrize("name", ["tri", "lens"])
@pytest.mark.parametrize("hole", [_no_hole, _hole])
def test_seed_walks_equal_side_by_side_walks(name, hole, request,
                                             monkeypatch):
    """The walks over arrays give the curves and failure strings of the
    walks side by side, on 1,024 bases with lengths from 1e-6 to 1e-3.
    With holes punched in the cones, walks also fail mid-way on an
    undefined cone, some in the step where the other side leaves the
    chart."""
    table = request.getfixturevalue(name)
    rng = np.random.default_rng(1024)
    bases = _walk_bases(table, rng, 1024)
    xs = [0.5 if i % 5 == 0 else float(rng.uniform(0.35, 0.65))
          for i in range(len(bases))]
    lengths = [math.exp(rng.uniform(math.log(1e-6), math.log(1e-3)))
               for _ in bases]
    want = _seed_walks_side_by_side(table, bases, xs, lengths, hole)
    cones = U.unstable_cones

    def punched(table, wall_ids, r, phi):
        rows, lo, hi = cones(table, wall_ids, r, phi)
        keep = [not hole(PhasePoint(*p)) for p in zip(
            wall_ids[rows].tolist(), r[rows].tolist(), phi[rows].tolist())]
        return rows[keep], lo[keep], hi[keep]

    monkeypatch.setattr(U, "unstable_cones", punched)
    got = _walked(*U._seed_walks(table, bases, xs, lengths))
    assert list(map(repr, got)) == list(map(repr, want))
    kinds = collections.Counter(w if isinstance(w, str) else "curve"
                                for w in want)
    assert kinds["curve"] > 500 and kinds["seed curve left the open chart"]
    assert kinds["cone undefined along the seed"] > (100 if hole is _hole
                                                     else 0)



def _bent_cones(bent):
    """unstable_cones, but (-2, -1) at the points of ``bent``: a walk from
    such a base leaves it with a falling slope."""
    original = unstable_cones

    def cones(table, wall_ids, r, phi):
        rows, lo, hi = original(table, wall_ids, r, phi)
        at = [PhasePoint(*p) in bent for p in zip(
            np.asarray(wall_ids)[rows].tolist(), np.asarray(r)[rows].tolist(),
            np.asarray(phi)[rows].tolist())]
        lo[at], hi[at] = -2.0, -1.0
        return rows, lo, hi
    return cones


@pytest.mark.parametrize("name", ["tri", "lens"])
def test_seed_rows_hold_the_nodes_make_ucurve_keeps(name, request,
                                                    monkeypatch):
    """The rows of _seed_walks, made layer 0 of a forest, hold the nodes
    that make_ucurve keeps of the walks side by side, and their lengths
    are its curves' euclidean_length bit for bit; the refusals are its
    strings.  The walks start from 256 generated bases, two of them with
    a falling cone slope, whose walks make_ucurve cuts short.  The roots
    of a forest of _draw_curves's rows on 200 substreams are the curves
    of seed_ucurve tried one base point at a time."""
    table = request.getfixturevalue(name)
    rng = np.random.default_rng(256)
    bases = _walk_bases(table, rng, 254)
    bent = [random_phase_point(table, rng) for _ in range(2)]
    bases += bent
    xs = [float(rng.uniform(0.35, 0.65)) for _ in bases]
    lengths = [1e-4] * len(bases)
    cones = _bent_cones(bent)
    monkeypatch.setattr(U, "unstable_cones", cones)
    monkeypatch.setitem(globals(), "unstable_cones", cones)
    want = _seed_walks_side_by_side(table, bases, xs, lengths, _no_hole)
    why, seeds = U._seed_walks(table, bases, xs, lengths)
    assert why == [w if isinstance(w, str) else None for w in want]
    curves = [W for W in want if not isinstance(W, str)]
    assert all(2 <= len(W.nodes) < 9 for W in want[-2:])
    assert len(curves) > 100 and len(curves) < len(want) - 50
    layer = U._Forest(seeds).layers[0]
    nodes = np.array([p for W in curves for p in W.nodes])
    assert layer.r.tolist() == nodes[:, 1].tolist()
    assert layer.phi.tolist() == nodes[:, 2].tolist()
    assert layer.start.tolist() == np.cumsum(
        [0] + [len(W.nodes) for W in curves]).tolist()
    assert layer.wall.tolist() == [W.wall_id for W in curves]
    assert [_bits(x) for x in seeds.length] \
        == [_bits(W.euclidean_length) for W in curves]

    monkeypatch.undo()
    tries, seeds = U._draw_curves(table, _substreams(37, 200), 1e-4, 30)
    forest = U._Forest(seeds)
    drawn = [_draw_by_itself(table, rng, 1e-4, 30)
             for rng in _substreams(37, 200)]
    assert tries == [d[1] for d in drawn]
    assert [U.EvolutionTree(forest, t).root for t in range(len(drawn))] \
        == [d[0] for d in drawn]
    assert [_bits(x) for x in forest.length] \
        == [_bits(d[0].euclidean_length) for d in drawn]

def _length_curves_by_itself(table, samples, seed, k0=30):
    """The curves that certify_length_constant evolves, each seeded by
    seed_ucurve in sample order, and the number of refused samples."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC2]))
    anchors = U.graze_anchors(table)
    lo, hi = math.log(1e-6), math.log(1e-3)
    curves, refused = [], 0
    for i in range(samples):
        length = math.exp(rng.uniform(lo, hi))
        z = random_phase_point(table, rng)
        if anchors and i % U.GRAZE_STRIDE == 0:
            j = i // U.GRAZE_STRIDE
            a = anchors[j % len(anchors)]
            f = U._ANCHOR_OFFSETS[j % len(U._ANCHOR_OFFSETS)]
            z = PhasePoint(a.wall_id, a.r + f * length, a.phi + f * length)
        try:
            curves.append(U.seed_ucurve(table, z, length, rng, k0))
        except BilliardError:
            refused += 1
    return curves, refused


@pytest.mark.parametrize("seed,harsh", [(61, False), (205, False),
                                        (61, True)])
def test_length_constant_seeds_as_curve_by_curve(tri, monkeypatch, seed,
                                                 harsh):
    """certify_length_constant evolves the curves that seed_ucurve grows
    sample by sample on its rng, and counts as used those whose one-step
    does not raise.  With EPS_SEED = 1 many bases are refused and draw no
    cone position."""
    if harsh:
        monkeypatch.setattr(U, "EPS_SEED", 1.0)
    want, refused = _length_curves_by_itself(tri, 300, seed)
    evolved = []
    grow = U._grow

    def recorded(table, forest, *args):
        evolved.extend(U.EvolutionTree(forest, t).root
                       for t in range(len(forest.depth)))
        return grow(table, forest, *args)

    monkeypatch.setattr(U, "_grow", recorded)
    _, used = U.certify_length_constant(tri, 300, seed)
    assert list(map(repr, evolved)) == list(map(repr, want))
    stepped = 0
    for W in want:
        try:
            U.evolve_n(tri, W, 1)
        except BilliardError:
            continue
        stepped += 1
    assert used == stepped
    assert (refused > 100) == harsh


def _length_samples_one_by_one(table, rng, samples, delta_lo, delta_hi,
                               k0):
    """``_length_samples`` as the loop it replaced: each sample draws its
    length and base point, checks its length and then its base with its
    own ``_refusals`` call, and draws its cone position once that passes."""
    anchors = U.graze_anchors(table)
    bases, xs, lengths = [], [], []
    lo, hi = math.log(delta_lo), math.log(delta_hi)
    for i in range(samples):
        length = math.exp(rng.uniform(lo, hi))
        z = random_phase_point(table, rng)
        if anchors and i % U.GRAZE_STRIDE == 0:
            j = i // U.GRAZE_STRIDE
            a = anchors[j % len(anchors)]
            f = U._ANCHOR_OFFSETS[j % len(U._ANCHOR_OFFSETS)]
            z = PhasePoint(a.wall_id, a.r + f * length, a.phi + f * length)
        U._check_length(length)
        if U._refusals(table, [z], k0) == [None]:
            bases.append(z)
            xs.append(float(rng.uniform(0.35, 0.65)))
            lengths.append(length)
    return bases, xs, lengths


@pytest.mark.parametrize("refused", [
    (), (0,), (119,), (7, 8), (50,),
    # the first refusal at 3 starts BATCH_ROWS chunks at 4, 20 and 36
    (3, 19, 20), (3, 35, 36, 37)])
def test_length_samples_in_one_pass_equal_the_loop(tri, monkeypatch,
                                                   refused):
    """With the samples in ``refused`` refused, the one-pass draws and
    checks give the loop's bases, cone positions and lengths, and the same
    (best, used); BATCH_ROWS is 16 so that 120 samples span chunks."""
    refusals = U._refusals
    monkeypatch.setattr(U, "BATCH_ROWS", 16)
    calls = []

    def by_sample(table, zs, k0):
        calls.append(zs[0])
        why = refusals(table, zs, k0)
        return ["refused here"] if len(calls) - 1 in refused else why

    monkeypatch.setattr(U, "_refusals", by_sample)
    want = _length_samples_one_by_one(tri, Stream([61, 0xC2]), 120, 1e-6,
                                      1e-3, 30)
    marked = {calls[i] for i in refused}
    assert len(want[0]) == 120 - len(refused)

    def by_base(table, zs, k0):
        calls.append(len(zs))
        return [("refused here" if z in marked else why)
                for z, why in zip(zs, refusals(table, zs, k0))]

    calls.clear()
    monkeypatch.setattr(U, "_refusals", by_base)
    got = U._length_samples(tri, Stream([61, 0xC2]), 120, 1e-6, 1e-3, 30)
    assert list(map(repr, got[0])) == list(map(repr, want[0]))
    assert got[1:] == want[1:]
    # one check covers every sample up to the first refusal
    assert calls[0] == 120
    assert (len(calls) == 1) == (refused in ((), (119,)))

    best = U.certify_length_constant(tri, 120, 61)
    monkeypatch.setattr(U, "_length_samples", _length_samples_one_by_one)
    assert U.certify_length_constant(tri, 120, 61) == best


@pytest.mark.parametrize("samples,delta_hi,raises", [
    (40, 1.0, True), (300, 0.011, True), (200, 0.011, False),
    (1, 1.0, False), (0, 1.0, False)])
def test_length_samples_refuse_long_curves_as_the_loop(tri, samples,
                                                       delta_hi, raises):
    """A delta_hi above MAX_LENGTH raises the loop's ValueError exactly
    when some sample draws a length above MAX_LENGTH."""
    def outcome(fn):
        try:
            return fn(tri, Stream([61, 0xC2]), samples, 1e-6, delta_hi, 30)
        except ValueError as err:
            return str(err)

    want = outcome(_length_samples_one_by_one)
    assert outcome(U._length_samples) == want
    assert (want == "length must lie in (0, 0.01]") == raises
    if raises:
        with pytest.raises(ValueError, match=r"length must lie in"):
            U.certify_length_constant(tri, samples, 61, delta_hi=delta_hi)


def test_sup_scan_refuses_depth_past_the_cap(tri, far_curve, monkeypatch):
    def no_growth(*args):
        raise AssertionError("grew trees past the cap")

    monkeypatch.setattr(U, "_grow", no_growth)
    with pytest.raises(ValueError, match="exceeds the cap"):
        U.sup_scan(tri, 1e-4, 4, U.N_CAP + 1, 30, seed=3)
    with pytest.raises(ValueError, match="exceeds the cap"):
        U.evolve_n(tri, far_curve, U.N_CAP + 1)
    for n in (-1, -2):
        with pytest.raises(ValueError, match="negative"):
            U.sup_scan(tri, 1e-4, 4, n, 30, seed=3)
        with pytest.raises(ValueError, match="negative"):
            U.evolve_n(tri, far_curve, n)


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


def test_choose_depth_empirical(tri, monkeypatch):
    monkeypatch.setattr(U, "PROBE_SAMPLES", 12)
    n, source = U.choose_depth(tri, 1e-4, 30, seed=3, constants=None)
    assert 1 <= n <= U.N_CAP
    assert source.startswith("empirical")


def _depth_by_rebuilding(table, seed, probes):
    """choose_depth's rule, with each probe curve drawn by
    ``_draw_by_itself`` and every probe tree evolved from scratch at each
    depth: a probe that fails at depth n is left out of depth n."""
    curves = []
    for i in range(probes):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD0, i]))
        drawn = _draw_by_itself(table, rng, 1e-4, 30)
        if drawn is not None:
            curves.append(drawn[0])
    best_n, best_sup, first_ok, alive = U.N_CAP, math.inf, None, []
    for n in range(1, U.N_CAP + 1):
        sups = []
        for W in curves:
            try:
                sups.append(U.depth_columns(U.evolve_n(table, W, n))[0][n])
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
    monkeypatch.setattr(U, "PROBE_SAMPLES", 12)
    want, _ = _depth_by_rebuilding(tri, 3, 12)
    assert U.choose_depth(tri, 1e-4, 30, seed=3, constants=None) == want

    # probe curves on tri almost never branch: double the children of every
    # curve on wall 2, so that some trees outgrow LEAF_CAP after depth 2
    _double_wall_2_children(monkeypatch)
    monkeypatch.setattr(U, "LEAF_CAP", 2)
    want, alive = _depth_by_rebuilding(tri, 3, 12)
    assert alive[0] == alive[1] > alive[-1] > 0
    assert U.choose_depth(tri, 1e-4, 30, seed=3, constants=None) == want
