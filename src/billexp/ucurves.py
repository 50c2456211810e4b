"""Evolution of unstable curves under the collision map.

A u-curve is a short polyline in one wall chart, strictly increasing in both
(r, phi), everywhere tangent to the local unstable cone.  Its image under the
map breaks at primary cuts (branch changes: different wall, corner passage,
tangency) and at secondary cuts (homogeneity strip boundaries of the image
angle).  The resulting pieces are H-components; each carries the itinerary of
(wall, branch, strip) symbols since the root curve, a certified minimum
expansion (product of per-step node minima) and a sampled one (node-wise
derivative chaining), a rank, and a regular flag.

Strips accumulate at grazing, so a curve straddling a grazing preimage splits
into infinitely many pieces.  Strips are resolved one by one while their
parameter width stays above the cut-location resolution and fixed caps;
the remainder is lumped into a single tail component per side whose
contribution to expansion sums is the closed-form bound
sum_{k >= m} 1/(C k^2) = polygamma(1, m)/C, with C a certified local
expansion-times-cos constant.  Underestimating C only inflates the sums, so
the headline verdicts stay conservative.

Monte-Carlo suprema over seeded curves are aggregated into reports with
per-sample substreams, making results independent of thread scheduling.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq
from scipy.special import polygamma

from .bmap import (HALF_PI, K0_DEFAULT, PhasePoint, expansion_factor,
                   forward, interior_slope, random_phase_point, strip_index,
                   unstable_cone_at)
from .errors import (BilliardError, ComponentExplosion, NoSuchN, SingularInput,
                     SingularSeed)
from .geometry import BilliardTable

K_CAP = 10_000         # deepest strip resolved one by one before the tail
N_CAP = 12
MAX_LENGTH = 1e-2      # longest seed curve (the CLI's --length and --delta)
CUT_TOL = 1e-12        # parameter bisection tolerance for primary cuts
DEGEN_LEN = 1e-13      # image pieces shorter than this merge into a neighbor
LEAF_CAP = 10_000_000
NODE_RATIO = 1.1       # refine nodes until adjacent expansion factors agree
LADDER_FLOOR = 1e-9    # stop resolving strips narrower than this in parameter
LADDER_MAX = 256       # hard cap on individually resolved strips per ladder
EPS_SEED = 1e-9


# ---------------------------------------------------------------------------
# curves

@dataclass(frozen=True)
class UCurve:
    wall_id: int
    nodes: tuple[PhasePoint, ...]
    slopes: tuple[float, ...]       # dphi/dr at each node
    params: tuple[float, ...]       # root-curve parameter carried by each node
    growth: tuple[float, ...]       # |DF^g v| accumulated since the root

    @property
    def euclidean_length(self) -> float:
        return sum(math.hypot(b.r - a.r, b.phi - a.phi)
                   for a, b in zip(self.nodes, self.nodes[1:]))

    @property
    def increasing(self) -> bool:
        return all(b.r > a.r and b.phi > a.phi
                   for a, b in zip(self.nodes, self.nodes[1:]))


def make_ucurve(wall_id, pts, slopes=None, params=None, growth=None):
    """Assemble a UCurve, dropping nodes that break strict monotonicity."""
    if params is None:
        params = [0.0] * len(pts)
    if growth is None:
        growth = [1.0] * len(pts)
    keep, kp, kg = [pts[0]], [params[0]], [growth[0]]
    for p, s, g in zip(pts[1:], params[1:], growth[1:]):
        if p.r > keep[-1].r and p.phi > keep[-1].phi:
            keep.append(p)
            kp.append(s)
            kg.append(g)
    if len(keep) < 2:
        raise ValueError("degenerate curve: fewer than two monotone nodes")
    if slopes is None or len(slopes) != len(pts):
        seg = [(b.phi - a.phi) / (b.r - a.r)
               for a, b in zip(keep, keep[1:])]
        slopes = [seg[0]] + [0.5 * (a + b) for a, b in zip(seg, seg[1:])] \
            + [seg[-1]]
    return UCurve(wall_id, tuple(keep), tuple(slopes), tuple(kp), tuple(kg))


def _interp(x: float, xp: list, fp: list) -> float:
    """np.interp(x, xp, fp) for one x and a nondecreasing list xp, bit for
    bit: the same bracketing search, formula, end clamps and NaN fallbacks.
    """
    if x != x:
        return x
    if x > xp[-1]:
        return fp[-1]
    if x < xp[0]:
        return fp[0]
    j = bisect_right(xp, x) - 1
    if j == len(xp) - 1 or xp[j] == x:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    y = slope * (x - xp[j]) + fp[j]
    if y != y:
        y = slope * (x - xp[j + 1]) + fp[j + 1]
        if y != y and fp[j] == fp[j + 1]:
            y = fp[j]
    return y


class _Arc:
    """Arclength-fraction view of a UCurve for cutting and sampling.

    ``memo`` maps a parameter to its ``_probe`` result; see ``_probe_at``.
    """

    def __init__(self, W: UCurve):
        self.W = W
        r = np.array([p.r for p in W.nodes])
        phi = np.array([p.phi for p in W.nodes])
        seg = np.hypot(np.diff(r), np.diff(phi))
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        self.total = float(cum[-1])
        self.frac = (cum / self.total).tolist()
        self.r, self.phi = r.tolist(), phi.tolist()
        self.params = list(W.params)
        self.growth = list(W.growth)
        self.seg_slope = (np.diff(phi) / np.diff(r)).tolist()
        self.memo = {}

    def at(self, s: float) -> PhasePoint:
        return PhasePoint(self.W.wall_id, _interp(s, self.frac, self.r),
                          _interp(s, self.frac, self.phi))

    def root_param(self, s: float) -> float:
        return _interp(s, self.frac, self.params)

    def growth_at(self, s: float) -> float:
        return _interp(s, self.frac, self.growth)

    def slope_at(self, s: float) -> float:
        i = bisect_left(self.frac, s) - 1
        return self.seg_slope[min(max(i, 0), len(self.seg_slope) - 1)]


# ---------------------------------------------------------------------------
# seeding

def _near_strip_boundary(phi: float, k0: int) -> bool:
    u = HALF_PI - abs(phi)
    if u <= 0.0:
        return True
    k = strip_index(phi, k0)
    if k == 0:
        return u - 1.0 / (k0 * k0) < EPS_SEED
    k = abs(k)
    return min(abs(u - 1.0 / (k * k)),
               abs(u - 1.0 / ((k + 1) * (k + 1)))) < EPS_SEED


def seed_ucurve(table: BilliardTable, z: PhasePoint, length: float,
                rng=None, k0: int = K0_DEFAULT) -> UCurve:
    """Grow a cone-tangent curve of the given length centered at z.

    The curve has 9 nodes and follows the mid-cone slope field by equal
    Euclidean steps, so its polyline length equals `length` to rounding.
    Raises SingularSeed when z sits within EPS_SEED of a grazing line, a
    chart edge, or a strip boundary, when either map branch at z is not
    regular, or when the curve is too short for its nodes to differ in
    floating point.
    """
    if not 0.0 < length <= MAX_LENGTH:
        raise ValueError(f"length must lie in (0, {MAX_LENGTH:g}]")
    if _near_strip_boundary(z.phi, k0):
        raise SingularSeed("base angle within tolerance of a strip boundary")
    if not forward(table, z).regular:
        raise SingularSeed("forward image at the base is not regular")
    x = 0.5 if rng is None else float(rng.uniform(0.35, 0.65))
    wall = table.wall(z.wall_id)
    r_lo, r_hi = (-math.inf, math.inf) if wall.closed else (0.0, wall.length)

    def cone_slope(p, m_prev):
        try:
            lo, hi = unstable_cone_at(table, p)
        except (SingularInput, BilliardError) as e:
            raise SingularSeed(f"cone undefined along the seed: {e}") from e
        if lo < m_prev < hi:
            return m_prev
        return interior_slope(lo, hi, x)

    half = 4                     # nodes on each side of z
    ds = 0.5 * length / half

    def grow(sign):
        out = []
        p, m = z, cone_slope(z, -1.0)
        for _ in range(half):
            dr = sign * ds / math.hypot(1.0, m)
            p = PhasePoint(z.wall_id, p.r + dr, p.phi + m * dr)
            if abs(p.phi) >= HALF_PI - EPS_SEED or not r_lo < p.r < r_hi:
                raise SingularSeed("seed curve left the open chart")
            out.append((p, m))
            m = cone_slope(p, m)
        return out

    back, fore = grow(-1.0), grow(+1.0)
    pts = [p for p, _ in reversed(back)] + [z] + [p for p, _ in fore]
    slopes = [m for _, m in reversed(back)] + [cone_slope(z, -1.0)] \
        + [m for _, m in fore]
    params = [i / (len(pts) - 1) for i in range(len(pts))]
    try:
        return make_ucurve(z.wall_id, pts, slopes, params)
    except ValueError as err:
        raise SingularSeed(
            f"seed curve of length {length:g}: {err}") from err


# ---------------------------------------------------------------------------
# one-step evolution

@dataclass(frozen=True)
class HComponent:
    curve: UCurve
    generation: int
    itinerary: tuple[tuple[int, str, int], ...]
    min_expansion: float            # certified: product of per-step node minima
    min_expansion_sampled: float    # node-wise chained derivative minimum
    source_interval: tuple[float, float]
    parent: int | None
    birth: int
    mid_phis: tuple[float, ...] = ()
    tail: bool = False
    tail_inv: float = 0.0           # sum of 1/expansion over the lumped strips
    tail_from: int = 0

    @property
    def regular(self) -> bool:
        return not self.tail and all(k == 0 for _, _, k in self.itinerary)

    @property
    def rank(self) -> int | None:
        for i, (_, _, k) in enumerate(self.itinerary):
            if k != 0:
                return i + 1
        return None

    @property
    def inv_expansion(self) -> float:
        return self.tail_inv if self.tail else 1.0 / self.min_expansion


def _probe(table, arc, s):
    """(signature, image) at parameter s, or (None, None) on a cut sample."""
    try:
        res = forward(table, arc.at(s))
    except BilliardError:
        return None, None
    if len(res.images) != 1:
        return None, None
    im = res.images[0]
    if im.grazing or im.derivative is None:
        return None, None
    return (im.point.wall_id, im.branch), im


def _probe_at(table, arc, s):
    """``_probe`` through the arc's memo, for parameters that the grid, the
    insets and the node refinement probe more than once.  Root finders call
    ``_probe`` directly: their iterates are never probed again."""
    hit = arc.memo.get(s)
    if hit is None:
        hit = arc.memo[s] = _probe(table, arc, s)
    return hit


def _bisect_sig(table, arc, s_true, s_false, sig_true):
    # direction-free: keeps sig(s_true) == sig_true, shrinks toward the cut
    while abs(s_false - s_true) > CUT_TOL:
        mid = 0.5 * (s_true + s_false)
        sig, _ = _probe(table, arc, mid)
        if sig == sig_true:
            s_true = mid
        else:
            s_false = mid
    return 0.5 * (s_true + s_false)


def _grid_for(total):
    if total >= 1e-6:
        return 17
    if total >= 1e-9:
        return 9
    return 5


def _u_of(im):
    return HALF_PI - abs(im.point.phi)


def _primary_segments(table, arc, n_s):
    ss = np.linspace(0.0, 1.0, n_s).tolist()
    probes = [_probe_at(table, arc, s) for s in ss]
    runs = []   # (first index, last index, sig)
    for i, (sig, _) in enumerate(probes):
        if runs and runs[-1][2] == sig:
            runs[-1][1] = i
        else:
            runs.append([i, i, sig])
    cuts = []
    for left, right in zip(runs, runs[1:]):
        sa, sb = ss[left[1]], ss[right[0]]
        if left[2] is not None:
            cuts.append(_bisect_sig(table, arc, sa, sb, left[2]))
        elif right[2] is not None:
            # approach the valid side from the cut sample
            c = _bisect_sig(table, arc, sb, sa, right[2])
            cuts.append(c)
        else:
            cuts.append(0.5 * (sa + sb))
    edges = [0.0] + cuts + [1.0]
    segments = []
    for lo, hi in zip(edges, edges[1:]):
        if hi - lo <= CUT_TOL:
            continue
        sig, im = _probe_at(table, arc, 0.5 * (lo + hi))
        if sig is None:
            # sliver between two cuts; sample closer to the edges
            for t in (lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)):
                sig, im = _probe_at(table, arc, t)
                if sig is not None:
                    break
        if sig is not None:
            segments.append((lo, hi, sig))
    return segments


def _ladder(table, arc, shallow_s, deep_s, u_shallow, u_deep, k0):
    """Resolve strip-boundary crossings between two parameters.

    u is monotone from u_shallow down to u_deep as the parameter moves from
    shallow_s toward deep_s.  Returns (cut params ordered shallow->deep,
    tail_from or 0).  tail_from = m means strips k >= m stay unresolved.
    """
    if u_shallow >= 1.0 / (k0 * k0):
        k = k0
    else:
        k = max(k0, int(math.floor(1.0 / math.sqrt(u_shallow))) + 1)
    cuts = []
    prev = shallow_s
    sign = 1.0 if deep_s > shallow_s else -1.0

    def f(t, level):
        _, im = _probe(table, arc, t)
        if im is None:
            return -level
        return _u_of(im) - level

    # cutting level 1/k^2 closes strip k-1; a failure at level k therefore
    # leaves strips >= k-1 unresolved
    while True:
        level = 1.0 / (k * k)
        if level <= u_deep:
            return cuts, 0
        if k > K_CAP + 1 or len(cuts) >= LADDER_MAX:
            return cuts, max(k - 1, k0)
        a, b = prev, deep_s
        try:
            fa, fb = f(a, level), f(b, level)
            if fa <= 0.0 or fb >= 0.0:
                return cuts, max(k - 1, k0)
            t = brentq(f, a, b, args=(level,), xtol=1e-13, rtol=8.9e-16)
        except (ValueError, RuntimeError):
            return cuts, max(k - 1, k0)
        if abs(t - prev) < LADDER_FLOOR and cuts:
            return cuts, max(k - 1, k0)
        cuts.append(float(t))
        prev = t + sign * 1e-15
        k += 1


def _secondary_pieces(table, arc, seg, k0):
    """Split one primary segment at strip boundaries of the image angle.

    The image angle is strictly monotone along a branch, so u = pi/2 - |phi'|
    has its minima at the segment ends; a ladder of boundary levels is walked
    toward each deep end and lumped into a tail once unresolvable.
    """
    lo, hi, sig = seg
    w = hi - lo
    inset = max(CUT_TOL, 1e-6 * w)
    _, im_lo = _probe_at(table, arc, lo + inset)
    _, im_hi = _probe_at(table, arc, hi - inset)
    if im_lo is None or im_hi is None:
        return [(lo, hi, sig, "strip")]
    u_lo, u_hi = _u_of(im_lo), _u_of(im_hi)
    h0 = 1.0 / (k0 * k0)

    pieces = []   # (s_a, s_b, sig, kind) with kind "strip" or ("tail", m)
    crossing = im_lo.point.phi * im_hi.point.phi < 0.0
    if crossing:
        def phi_at(t):
            _, im = _probe(table, arc, t)
            return im.point.phi if im is not None else 0.0

        try:
            s0 = brentq(phi_at, lo + inset, hi - inset, xtol=1e-13)
        except (ValueError, RuntimeError):
            crossing = False
    if crossing:
        arcs = [(s0, lo + inset, HALF_PI, u_lo, lo),
                (s0, hi - inset, HALF_PI, u_hi, hi)]
    else:
        if u_lo >= u_hi:
            arcs = [(lo + inset, hi - inset, u_lo, u_hi, hi)]
        else:
            arcs = [(hi - inset, lo + inset, u_hi, u_lo, lo)]

    all_cuts = []
    tails = []
    for shallow, deep, u_s, u_d, edge in arcs:
        if u_d >= h0:
            continue
        cuts, tail_from = _ladder(table, arc, shallow, deep, u_s, u_d, k0)
        all_cuts.extend(cuts)
        if tail_from:
            side = 1 if (im_lo.point.phi if edge == lo else
                         im_hi.point.phi) >= 0.0 else -1
            start = cuts[-1] if cuts else shallow
            tails.append((min(start, edge), max(start, edge),
                          side * tail_from))
    edges = sorted({lo, hi, *all_cuts, *(t[0] for t in tails),
                    *(t[1] for t in tails)})
    tail_spans = {(a, b): m for a, b, m in tails}
    for a, b in zip(edges, edges[1:]):
        if b - a <= 0.0:
            continue
        m = next((mm for (ta, tb), mm in tail_spans.items()
                  if a >= ta - CUT_TOL and b <= tb + CUT_TOL), 0)
        pieces.append((a, b, sig, ("tail", m) if m else "strip"))
    return pieces


def _refine_params(table, arc, base):
    """(s, stretch, image) at node parameters, refined until adjacent
    expansion factors agree; parameters whose probe is cut are dropped."""

    def stretch(s):
        _, im = _probe_at(table, arc, s)
        if im is None:
            return None
        return expansion_factor(im.derivative, arc.slope_at(s))

    params = sorted(set(base))
    factors = [stretch(s) for s in params]
    for _ in range(10):
        grew = False
        out, out_f = [params[0]], [factors[0]]
        for a, b, fa, fb in zip(params, params[1:], factors, factors[1:]):
            if fa and fb and max(fa, fb) / min(fa, fb) > NODE_RATIO \
                    and b - a > 1e-11 and len(params) < 512:
                mid = 0.5 * (a + b)
                out.append(mid)
                out_f.append(stretch(mid))
                grew = True
            out.append(b)
            out_f.append(fb)
        params, factors = out, out_f
        if not grew:
            break
    return [(s, f, _probe_at(table, arc, s)[1])
            for s, f in zip(params, factors) if f is not None]


def _build_component(table, arc, piece, k0, generation, itinerary_prefix,
                     lam_prefix, parent, birth, mid_prefix=()):
    s_lo, s_hi, sig, kind = piece
    w = s_hi - s_lo
    inset = max(1e-15, 1e-6 * w)
    rows = _refine_params(table, arc,
                          [s_lo + inset, 0.5 * (s_lo + s_hi), s_hi - inset])
    if len(rows) < 2:
        return None
    step_min = min(f for _, f, _ in rows)
    pts = [im.point for _, _, im in rows]
    params = [arc.root_param(s) for s, _, _ in rows]
    growth = [arc.growth_at(s) * f for s, f, _ in rows]
    # image of an increasing curve is traversed backwards
    try:
        curve = make_ucurve(pts[0].wall_id, pts[::-1], None, params[::-1],
                            growth[::-1])
    except ValueError:
        return None
    mid_im = rows[len(rows) // 2][2]
    k = strip_index(mid_im.point.phi, k0)
    wid, branch = sig
    ra, rb = arc.root_param(s_lo), arc.root_param(s_hi)
    interval = (min(ra, rb), max(ra, rb))
    return HComponent(
        curve=curve, generation=generation,
        itinerary=itinerary_prefix + ((wid, branch, k),),
        min_expansion=lam_prefix * step_min,
        min_expansion_sampled=min(growth),
        source_interval=interval, parent=parent, birth=birth,
        mid_phis=mid_prefix + (mid_im.point.phi,))


def _tail_component(table, arc, piece, c_loc, generation, itinerary_prefix,
                    lam_prefix, parent, birth, mid_prefix=()):
    s_lo, s_hi, sig, kind = piece
    m = abs(kind[1])
    side = 1 if kind[1] >= 0 else -1
    inset = max(1e-15, 1e-3 * (s_hi - s_lo))
    rows = []
    for s in (s_lo + inset, 0.5 * (s_lo + s_hi), s_hi - inset):
        _, im = _probe_at(table, arc, s)
        if im is not None:
            rows.append((s, im))
    if not rows:
        return None
    pts = [im.point for _, im in rows]
    if len(pts) == 1:
        p = pts[0]
        pts = [p, PhasePoint(p.wall_id, p.r + 1e-15, p.phi + 1e-15)]
        rows = rows + rows
    params = [arc.root_param(s) for s, _ in rows]
    try:
        curve = make_ucurve(pts[0].wall_id, pts[::-1], None, params[::-1])
    except ValueError:
        curve = make_ucurve(pts[0].wall_id,
                            [pts[0], PhasePoint(pts[0].wall_id,
                                                pts[0].r + 1e-15,
                                                pts[0].phi + 1e-15)])
    wid, branch = sig
    ra, rb = arc.root_param(s_lo), arc.root_param(s_hi)
    interval = (min(ra, rb), max(ra, rb))
    tail_inv = float(polygamma(1, m)) / c_loc
    return HComponent(
        curve=curve, generation=generation,
        itinerary=itinerary_prefix + ((wid, branch, side * m),),
        min_expansion=lam_prefix * c_loc * m * m,
        min_expansion_sampled=lam_prefix * c_loc * m * m,
        source_interval=interval, parent=parent, birth=birth,
        mid_phis=mid_prefix + (rows[len(rows) // 2][1].point.phi,),
        tail=True, tail_inv=tail_inv / lam_prefix, tail_from=side * m)


def _one_step(table, W, k0, c_expansion, generation=1,
              itinerary_prefix=(), lam_prefix=1.0, parent=None, birth0=0,
              mid_prefix=()):
    arc = _Arc(W)
    segments = _primary_segments(table, arc, _grid_for(arc.total))
    pieces = []
    for seg in segments:
        pieces.extend(_secondary_pieces(table, arc, seg, k0))
    comps, degenerate = [], 0
    birth = birth0
    pending = None    # degenerate piece interval folded into the next one
    for piece in pieces:
        if pending is not None:
            piece = (pending[0], piece[1], piece[2], piece[3])
            pending = None
        if piece[3] == "strip":
            comp = _build_component(table, arc, piece, k0, generation,
                                    itinerary_prefix, lam_prefix, parent,
                                    birth, mid_prefix)
        else:
            c_loc = _local_expansion_constant(table, arc, piece, c_expansion)
            comp = _tail_component(table, arc, piece, c_loc, generation,
                                   itinerary_prefix, lam_prefix, parent,
                                   birth, mid_prefix)
        if comp is None:
            pending = piece
            degenerate += 1
            continue
        if not comp.tail and comp.curve.euclidean_length < DEGEN_LEN:
            if comps:
                prev = comps[-1]
                comps[-1] = replace(prev, source_interval=(
                    min(prev.source_interval[0], comp.source_interval[0]),
                    max(prev.source_interval[1], comp.source_interval[1])))
            degenerate += 1
            continue
        comps.append(comp)
        birth += 1
    if pending is not None and comps:
        prev = comps[-1]
        lo = min(prev.source_interval[0], arc.root_param(pending[0]))
        hi = max(prev.source_interval[1], arc.root_param(pending[1]))
        comps[-1] = replace(prev, source_interval=(lo, hi))
    return comps, degenerate


def _local_expansion_constant(table, arc, piece, c_expansion):
    """Floor C with (expansion) >= C / cos(phi') near the lumped strips.

    In strip k the image angle satisfies cos(phi') < 1/k^2, so this floor
    certifies expansion >= C k^2 for every lumped strip.  Sampled at a few
    parameters of the tail sliver and of its shallow neighborhood; the table
    constant, when given, can only lower C and thus inflate the tail bound.
    """
    s_lo, s_hi = piece[0], piece[1]
    w = s_hi - s_lo
    cands = []
    for s in (s_lo + 1e-3 * w, 0.5 * (s_lo + s_hi), s_hi - 1e-3 * w,
              s_lo - 0.5 * w, s_hi + 0.5 * w):
        if not 0.0 <= s <= 1.0:
            continue
        _, im = _probe_at(table, arc, s)
        if im is not None:
            cands.append(expansion_factor(im.derivative, arc.slope_at(s))
                         * math.cos(im.point.phi))
    if c_expansion is not None:
        cands.append(c_expansion)
    return max(1e-12, min(cands)) if cands else 1e-3


def evolve_one_step(table: BilliardTable, W: UCurve,
                    k0: int = K0_DEFAULT) -> list[HComponent]:
    """H-components of the image of W: primary cuts, strip cuts, tails."""
    comps, _ = _one_step(table, W, k0, None)
    return comps


# ---------------------------------------------------------------------------
# multi-step evolution

@dataclass
class EvolutionTree:
    root: UCurve
    generations: list[list[HComponent]]
    degenerate_merged: int = 0

    def regular_counts(self) -> list[int]:
        out = [1]
        for gen in self.generations[1:]:
            out.append(sum(1 for c in gen if c.regular))
        return out

    def leaves(self, n: int) -> list[HComponent]:
        out = [c for c in self.generations[n] if not c.tail] \
            if n < len(self.generations) else []
        for g in range(1, min(n, len(self.generations) - 1) + 1):
            out.extend(c for c in self.generations[g] if c.tail)
        return out


def _remaining_floor(constants, m):
    if m <= 0:
        return 1.0
    if constants is None:
        return 1.0
    return max(1e-12, constants.lam_hyper ** m / constants.c_hyper)


def _grow(table, tree, k0, constants):
    """Append the next generation of H-components to tree.

    Raises ComponentExplosion once the generation holds more than LEAF_CAP
    components; its ``.partial`` is the tree with the cut-short generation.
    """
    g = len(tree.generations)
    c_exp = constants.c_expansion if constants is not None else None
    birth = sum(len(gen) for gen in tree.generations)
    nxt = []
    for comp in tree.generations[-1]:
        if comp.tail:
            continue
        kids, ndeg = _one_step(table, comp.curve, k0, c_exp,
                               generation=g, itinerary_prefix=comp.itinerary,
                               lam_prefix=comp.min_expansion,
                               parent=comp.birth, birth0=birth,
                               mid_prefix=comp.mid_phis)
        tree.degenerate_merged += ndeg
        nxt.extend(kids)
        birth += len(kids)
        if len(nxt) > LEAF_CAP:
            tree.generations.append(nxt)
            err = ComponentExplosion(
                f"component count exceeded {LEAF_CAP} at depth {g}")
            err.partial = tree
            raise err
    tree.generations.append(nxt)


def evolve_n(table: BilliardTable, W: UCurve, n: int, k0: int = K0_DEFAULT,
             constants=None) -> EvolutionTree:
    """Breadth-first component tree of F^n W.

    Tail components are terminal: their expansion-sum contribution at depth
    N uses the certified per-step floor for the remaining N - g steps when
    constants are supplied, and 1 otherwise.
    """
    if n > N_CAP:
        raise ValueError(f"depth {n} exceeds the cap {N_CAP}")
    root = HComponent(curve=W, generation=0, itinerary=(),
                      min_expansion=1.0, min_expansion_sampled=1.0,
                      source_interval=(0.0, 1.0), parent=None, birth=0)
    tree = EvolutionTree(root=W, generations=[[root]])
    for _ in range(n):
        _grow(table, tree, k0, constants)
    return tree


def expansion_total(tree: EvolutionTree, n: int, constants=None) -> float:
    """E_n: sum of inverse minimum expansions over depth-n leaves."""
    if n == 0:
        return 1.0
    total = 0.0
    for g in range(1, min(n, len(tree.generations) - 1) + 1):
        for comp in tree.generations[g]:
            if comp.tail:
                # tail_inv folds the ancestry expansion in already; the
                # remaining n - g steps contribute the certified floor
                total += comp.tail_inv / _remaining_floor(constants, n - g)
            elif g == n:
                total += 1.0 / comp.min_expansion
    return total


def grazing_sum(components) -> float:
    """Sum of 1/expansion over the nearly-grazing components: tails and
    pieces whose last step landed outside strip 0."""
    return sum((c.inv_expansion for c in components
                if c.tail or c.itinerary[-1][2] != 0), 0.0)


def one_step_grazing_sum(table: BilliardTable, W: UCurve,
                         k0: int = K0_DEFAULT) -> float:
    """Sum of 1/expansion over nearly-grazing one-step components."""
    return grazing_sum(evolve_one_step(table, W, k0))


# ---------------------------------------------------------------------------
# fitted constants

@dataclass(frozen=True)
class FittedConstants:
    """Empirical table constants backing the expansion bookkeeping.

    c_expansion: min over samples of (one-step expansion) * cos(phi').
    c_hyper, lam_hyper: n-step Euclidean floor |DF^n v| >= lam^n / c.
    c_length: max observed |W'| / |W|^(1/2) over one-step components.
    xi_complexity: fitted slope of the regular complexity counts.
    k_complexity: largest regular complexity count seen while fitting.
    """
    c_expansion: float
    c_hyper: float
    lam_hyper: float
    c_length: float
    xi_complexity: float
    k_complexity: int
    n_cap: int = N_CAP
    seed: int | None = None

    def to_json(self) -> dict:
        return {
            "c_expansion": self.c_expansion,
            "c_hyper": self.c_hyper,
            "lam_hyper": self.lam_hyper,
            "c_length": self.c_length,
            "xi_complexity": self.xi_complexity,
            "k_complexity": self.k_complexity,
            "n_cap": self.n_cap,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FittedConstants":
        return cls(**doc)


def _graze_anchors(table: BilliardTable):
    """Interior nodes of the one-step tangency preimage curves, about 8 per
    branch."""
    from .singularities import trace_singularity

    anchors = []
    for c in trace_singularity(table, -1, resolution=200):
        if c.origin != "grazing-preimage" or len(c.nodes) < 8:
            continue
        step = max(1, len(c.nodes) // 8)
        anchors.extend(c.nodes[2:-2:step])
    return anchors


# center offsets (in curve lengths) used when seeding astride an anchor;
# varied so the tangency crossing lands at different curve fractions
_ANCHOR_OFFSETS = (0.25, -0.25, 0.1, 0.0, -0.1, 0.35)
GRAZE_STRIDE = 50      # every GRAZE_STRIDE-th length sample sits on an anchor


def certify_length_constant(table: BilliardTable, samples: int, seed: int,
                            delta_lo: float = 1e-6, delta_hi: float = 1e-3,
                            k0: int = K0_DEFAULT) -> tuple[float, int]:
    """Max of |W'| / |W|^(1/2) over one-step components of sampled curves.

    Uniformly random curves almost never straddle a tangency preimage, yet
    that is where the square-root stretch law peaks, so the sampled max
    would be a high-variance rare-event statistic.  Every GRAZE_STRIDE-th
    sample is therefore centered astride a traced tangency-preimage anchor
    instead; those samples saturate the constant and the max becomes stable
    under changes of the length range.  The anchor samples still consume
    the same random draws, so the remaining samples are unaffected.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC2]))
    anchors = _graze_anchors(table)
    best, used = 0.0, 0
    lo, hi = math.log(delta_lo), math.log(delta_hi)
    for i in range(samples):
        length = math.exp(rng.uniform(lo, hi))
        z = random_phase_point(table, rng)
        if anchors and i % GRAZE_STRIDE == 0:
            j = i // GRAZE_STRIDE
            a = anchors[j % len(anchors)]
            f = _ANCHOR_OFFSETS[j % len(_ANCHOR_OFFSETS)]
            z = PhasePoint(a.wall_id, a.r + f * length, a.phi + f * length)
        try:
            W = seed_ucurve(table, z, length, rng, k0)
            comps = evolve_one_step(table, W, k0)
        except (SingularSeed, BilliardError):
            continue
        root = math.sqrt(W.euclidean_length)
        for comp in comps:
            if not comp.tail:
                best = max(best, comp.curve.euclidean_length / root)
        used += 1
    if used == 0:
        raise ValueError("no curve survived seeding; table constants suspect")
    return best, used


def fit_constants(table: BilliardTable, seed: int, *,
                  expansion_samples: int = 10_000, hyper_samples: int = 1000,
                  length_samples: int = 300, k0: int = K0_DEFAULT
                  ) -> FittedConstants:
    """Assemble every constant the expansion reports rely on.

    The growth floor is fitted over depths 1..10 and the complexity slope at
    two centers: the first two multiple points, or two random points on a
    table without corners.
    """
    from .bmap import certify_expansion_constant, certify_hyperbolicity
    from . import singularities as _sing

    c_exp, _ = certify_expansion_constant(table, expansion_samples, seed)
    c_hyp, lam, _resid, _mins = certify_hyperbolicity(
        table, hyper_samples, seed, n_max=10)
    c_len, _ = certify_length_constant(table, length_samples, seed, k0=k0)

    centers = []
    if table.corners:
        pts = _sing.find_multiple_points(table, resolution=200)
        centers = [PhasePoint(p.wall_id, p.r, p.phi) for p in pts[:2]]
    if not centers:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC3]))
        centers = [random_phase_point(table, rng) for _ in range(2)]
    records = []
    for z in centers:
        for n in (1, 2, 3):
            try:
                records.append(_sing.regular_complexity(table, z, n, k0))
            except BilliardError:
                continue
    if records:
        xi = _sing.fit_complexity_slope(records)
        k_hat = max(r.k_hat for r in records)
    else:
        xi, k_hat = 1.0, 1
    return FittedConstants(
        c_expansion=float(c_exp), c_hyper=float(c_hyp),
        lam_hyper=float(lam), c_length=float(c_len),
        xi_complexity=float(xi), k_complexity=int(k_hat), seed=seed)


def select_N(constants: FittedConstants) -> int:
    """Smallest depth with complexity growth beaten by the expansion floor.

    Solves xi * N < (1/3) * lam^N / c over integer N up to constants.n_cap;
    raises NoSuchN when the fitted constants never satisfy it at desk scale.
    """
    cap = constants.n_cap
    if constants.lam_hyper <= 1.0:
        raise NoSuchN("lam_hyper <= 1: the margin inequality cannot hold")
    for n in range(1, cap + 1):
        if constants.xi_complexity * n \
                < constants.lam_hyper ** n / (3.0 * constants.c_hyper):
            return n
    raise NoSuchN(f"no depth up to {cap} satisfies the margin inequality")


# ---------------------------------------------------------------------------
# Monte-Carlo suprema

# columns of ExpansionReport.csv_rows
CSV_HEADER = ("sample_id", "curve_length", "n", "leaf_count", "k_n", "e_n",
              "grazing_sum")


@dataclass
class ExpansionReport:
    table_id: str
    k0: int
    delta: float
    n_steps: int
    n_source: str               # "select" | "empirical" | "given"
    samples: int
    used: int
    seed: int
    constants: FittedConstants | None
    sup_e: list[float]          # per depth 0..n_steps
    k_max: list[int]
    sup_grazing: float
    verdict: str
    degenerate_total: int = 0
    partial: bool = False
    etree_margins: list[float] | None = None
    rows: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        doc = {k: getattr(self, k) for k in (
            "table_id", "k0", "delta", "n_steps", "n_source", "samples",
            "used", "seed", "sup_e", "k_max",
            "sup_grazing", "verdict", "degenerate_total", "partial",
            "etree_margins", "rows")}
        doc["k_cap"] = K_CAP
        doc["constants"] = None if self.constants is None \
            else self.constants.to_json()
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ExpansionReport":
        doc = dict(doc)
        cons = doc.pop("constants")
        doc.pop("k_cap")
        return cls(constants=None if cons is None
                   else FittedConstants.from_json(cons), **doc)

    def csv_rows(self):
        """One row per used sample and depth, in CSV_HEADER order."""
        for row in self.rows:
            if row["flag"] == "skipped":
                continue
            for n in range(self.n_steps + 1):
                yield (row["sample_id"], row["length"], n, row["leaves"][n],
                       row["k"][n], row["e"][n], row["grazing_sum"])


SEED_TRIES = 200       # random base points tried per seed curve


def _draw_curve(table, rng, delta, k0):
    for attempt in range(SEED_TRIES):
        z = random_phase_point(table, rng)
        try:
            return seed_ucurve(table, z, delta, rng, k0), attempt + 1
        except (SingularSeed, BilliardError):
            continue
    raise SingularSeed(f"no admissible seed in {SEED_TRIES} draws")


def _scan_row(table, i, seed, delta, n, k0, constants):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1, i]))
    W, tries = _draw_curve(table, rng, delta, k0)
    z0 = W.nodes[len(W.nodes) // 2]
    row = {"sample_id": i, "base": [z0.wall_id, z0.r, z0.phi],
           "length": W.euclidean_length, "tries": tries, "flag": ""}
    try:
        tree = evolve_n(table, W, n, k0, constants)
    except ComponentExplosion as err:
        tree = err.partial
        row["flag"] = "explosion"
    depth = len(tree.generations) - 1
    # depths past an explosion have no sum: null in JSON, empty in CSV
    row["e"] = [expansion_total(tree, m, constants)
                for m in range(depth + 1)] + [None] * (n - depth)
    row["k"] = tree.regular_counts() + [0] * (n - depth)
    row["leaves"] = [len(tree.leaves(m)) for m in range(depth + 1)] \
        + [0] * (n - depth)
    row["grazing_sum"] = grazing_sum(tree.generations[1]) \
        if depth >= 1 else 0.0
    row["degenerate"] = tree.degenerate_merged
    return row


def _etree_margins(sup_e, k_max, constants, n_steps):
    c, lam = constants.c_hyper, constants.lam_hyper
    margins = []
    for n in range(1, n_steps + 1):
        recursion = sum(k_max[r - 1] * sup_e[n - r] for r in range(1, n + 1))
        bound = k_max[n] * c * lam ** (-n) \
            + c / n_steps * lam ** (-2 * n_steps) * recursion
        margins.append(bound - sup_e[n])
    return margins


def sup_scan(table: BilliardTable, delta: float, samples: int,
             n_steps: int | None, k0: int, seed: int,
             constants: FittedConstants | None = None,
             threads: int = 0, table_id: str = "",
             keep_rows: bool = True) -> ExpansionReport:
    """Empirical supremum of the depth-n expansion sums over seeded curves.

    Per-sample substreams keyed by (seed, index) make the report identical
    across thread counts; reduction happens in sample order.
    """
    if seed is None:
        raise ValueError("a seed is required; suprema must be reproducible")
    n_source = "given"
    if n_steps is None:
        n_steps, n_source = choose_depth(table, delta, k0, seed, constants)
    ids = list(range(samples))

    def work(i):
        try:
            return _scan_row(table, i, seed, delta, n_steps, k0, constants)
        except SingularSeed:
            return {"sample_id": i, "flag": "skipped"}

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(work, ids))
    else:
        rows = [work(i) for i in ids]

    good = [r for r in rows if r["flag"] != "skipped"]
    sup_e = [0.0] * (n_steps + 1)
    k_max = [0] * (n_steps + 1)
    sup_grazing = 0.0
    degen = 0
    partial = False
    for r in good:
        for m in range(n_steps + 1):
            e = r["e"][m]
            if e is not None and math.isfinite(e):
                sup_e[m] = max(sup_e[m], e)
            k_max[m] = max(k_max[m], r["k"][m])
        sup_grazing = max(sup_grazing, r["grazing_sum"])
        degen += r["degenerate"]
        partial = partial or r["flag"] == "explosion"
    # an exploded row has no sum past its explosion to bound sup_e[N]
    verdict = ("expansion estimate holds (empirical)"
               if good and not partial and sup_e[n_steps] < 1.0
               else "expansion estimate fails (empirical)")
    margins = _etree_margins(sup_e, k_max, constants, n_steps) \
        if constants is not None and good else None
    return ExpansionReport(
        table_id=table_id or f"{table.ambient}:{len(table.walls)}walls",
        k0=k0, delta=delta, n_steps=n_steps, n_source=n_source,
        samples=samples, used=len(good), seed=seed,
        constants=constants, sup_e=sup_e, k_max=k_max,
        sup_grazing=sup_grazing, verdict=verdict, degenerate_total=degen,
        partial=partial, etree_margins=margins,
        rows=rows if keep_rows else [])


def choose_depth(table: BilliardTable, delta: float, k0: int,
                 seed: int, constants: FittedConstants | None,
                 probe_samples: int = 32) -> tuple[int, str]:
    """Depth from the margin inequality, else smallest empirically working.

    The probe curves are drawn once and their trees grown one generation
    per depth; a tree that explodes or fails at generation g drops out of
    every depth >= g.
    """
    if constants is not None:
        try:
            return select_N(constants), "select"
        except NoSuchN:
            pass
    trees = []
    for i in range(probe_samples):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD0, i]))
        try:
            W, _ = _draw_curve(table, rng, delta, k0)
        except SingularSeed:
            continue
        trees.append(evolve_n(table, W, 0, k0, constants))
    best_n, best_sup = N_CAP, math.inf
    first_ok = None
    for n in range(1, N_CAP + 1):
        live = []
        for tree in trees:
            try:
                _grow(table, tree, k0, constants)
            except BilliardError:     # ComponentExplosion included
                continue
            live.append(tree)
        trees = live
        sup = max([0.0] + [expansion_total(t, n, constants) for t in trees])
        if sup < best_sup:
            best_n, best_sup = n, sup
        if first_ok is None and sup < 1.0:
            first_ok = n
        # probe sets are small; demand headroom before trusting a depth
        if sup < 0.9:
            return n, "empirical"
    if first_ok is not None:
        return first_ok, "empirical"
    return best_n, "empirical-best"
