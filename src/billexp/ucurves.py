"""Evolution of unstable curves under the collision map.

A u-curve is its wall and its nodes: a short polyline in one wall chart,
strictly increasing in both (r, phi), tangent to the local unstable cones.
Its tangent is read from its segment slopes.  Its image under the
map breaks at primary cuts (branch changes: different wall, corner passage,
tangency) and at secondary cuts (homogeneity strip boundaries of the image
angle).  The resulting pieces are H-components; each carries the itinerary of
(wall, branch, strip) symbols since the root curve, a minimum expansion
sampled at the nodes (product of per-step node minima), and a regular flag.

Strips accumulate at grazing, so a curve straddling a grazing preimage splits
into infinitely many pieces.  Strips are resolved one by one while their
parameter width stays above the cut-location resolution and fixed caps;
the remainder is lumped into a single tail component per side whose
contribution to expansion sums is the closed-form bound
sum_{k >= m} 1/(C k^2) = psi'(m)/C, with psi' the trigamma function and C a
sampled local expansion-times-cos constant.  Underestimating C only inflates
the sums, so the headline verdicts stay conservative.  The length constant's
estimator resolves a ladder that must end in a tail lazily: only while a box
bound on its remaining strips could still raise the maximum.

Monte-Carlo suprema over seeded curves are aggregated into reports with
per-sample substreams, making results independent of thread scheduling.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain
from typing import NamedTuple

import numpy as np

from .bmap import (BATCH_ROWS, HALF_PI, K0_DEFAULT, PhasePoint, Stream,
                   bisect_edge, certify_expansion_constant,
                   certify_hyperbolicity, expansion_factor, expansion_factors,
                   forward, interior_slope, phase_columns, plain_rows,
                   point_columns, random_phase_point, single_branch,
                   slope_norms, strip_index, unstable_cones)
from .errors import (BilliardError, ComponentExplosion, NoSuchN,
                     NumericalAbort, SingularSeed)
from .geometry import BilliardTable
from .singularities import (find_multiple_points, fit_complexity_slope,
                            level_minus_one, regular_complexities)

K_CAP = 10_000         # deepest strip resolved one by one before the tail
N_CAP = 12
MAX_LENGTH = 1e-2      # longest seed curve (the CLI's --length and --delta)
CUT_TOL = 1e-12        # parameter bisection tolerance for primary cuts
DEGEN_LEN = 1e-13      # image pieces shorter than this are dropped
LEAF_CAP = 10_000_000
NODE_RATIO = 1.1       # refine nodes until adjacent expansion factors agree
LADDER_FLOOR = 1e-9    # stop resolving strips narrower than this in parameter
LADDER_MAX = 256       # hard cap on individually resolved strips per ladder
EPS_SEED = 1e-9
SEED_HALF = 4          # seed curve nodes on each side of the base point


# ---------------------------------------------------------------------------
# curves

@dataclass(frozen=True, slots=True)
class UCurve:
    wall_id: int
    nodes: tuple[PhasePoint, ...]

    @property
    def euclidean_length(self) -> float:
        return sum(math.hypot(b.r - a.r, b.phi - a.phi)
                   for a, b in zip(self.nodes, self.nodes[1:]))


def make_ucurve(wall_id, pts):
    """Assemble a UCurve, dropping nodes that break strict monotonicity."""
    keep = [pts[0]]
    for p in pts[1:]:
        if p.r > keep[-1].r and p.phi > keep[-1].phi:
            keep.append(p)
    if len(keep) < 2:
        raise ValueError("degenerate curve: fewer than two monotone nodes")
    return UCurve(wall_id, tuple(keep))


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


def _interp_rows(x, xp, fp):
    """``_interp(x[i, k], xp[i], fp[i])`` for every i and k, bit for bit,
    with x of shape (n, k) and xp, fp of shape (n, m): the same bracketing
    search, formula, end clamps and NaN fallbacks."""
    n, m = xp.shape
    j = (xp[:, None, :] <= x[:, :, None]).sum(axis=2) - 1
    rows = np.arange(n)[:, None]
    j0 = np.clip(j, 0, m - 1)
    j1 = np.minimum(j0 + 1, m - 1)
    x0, x1, f0, f1 = xp[rows, j0], xp[rows, j1], fp[rows, j0], fp[rows, j1]
    inner = (j >= 0) & (j < m - 1) & (x0 != x)
    slope = (f1 - f0) / np.where(inner, x1 - x0, 1.0)
    y = slope * (x - x0) + f0
    y = np.where(y != y, slope * (x - x1) + f1, y)
    y = np.where((y != y) & (f0 == f1), f0, y)
    y = np.where(inner, y, f0)
    y = np.where(x < xp[:, :1], fp[:, :1], y)
    y = np.where(x > xp[:, -1:], fp[:, -1:], y)
    return np.where(x != x, x, y)


class _Geometry(NamedTuple):
    """The arc geometry of n curves as (n, m) arrays, m the most nodes of a
    curve: a shorter curve repeats its last node, which adds 0.0 to its
    lengths."""
    r: np.ndarray
    phi: np.ndarray
    size: np.ndarray            # (n,) nodes of each curve
    total: np.ndarray           # (n,) polyline length
    frac: np.ndarray            # arclength fraction at each node
    slope: np.ndarray           # dphi/dr of each segment, 0.0 past the end


def _nodes(curves):
    """(wall ids, r, phi, node counts) of the curves, r and phi as (n, m)
    arrays, m the most nodes of a curve, in which a shorter curve repeats
    its last node."""
    size = np.array([len(W.nodes) for W in curves], dtype=int)
    m = int(size.max(initial=1))
    nodes = np.fromiter(chain.from_iterable(chain.from_iterable(
        W.nodes + W.nodes[-1:] * (m - len(W.nodes)) for W in curves)),
        float, 3 * m * len(curves)).reshape(len(curves), m, 3)
    return (np.array([W.wall_id for W in curves], dtype=int), nodes[:, :, 1],
            nodes[:, :, 2], size)


def _curve(wall_id, r, phi):
    """The UCurve of one wall id and lists of node coordinates."""
    return UCurve(wall_id, tuple(map(PhasePoint, [wall_id] * len(r), r, phi)))


def _geometry(r, phi, size) -> _Geometry:
    """The ``_Geometry`` of curves with nodes r, phi as ``_nodes`` pads
    them and ``size`` nodes each.

    The segment lengths are np.hypot's, not math.hypot's: the two may round
    differently, and the lengths fix every cut parameter.  np.cumsum adds
    them in order along each row.
    """
    m = r.shape[1]
    dr, dphi = np.diff(r), np.diff(phi)
    cum = np.zeros_like(r)
    np.cumsum(np.hypot(dr, dphi), axis=1, out=cum[:, 1:])
    total = cum[:, -1]
    slope = np.divide(dphi, dr, out=np.zeros_like(dr),
                      where=np.arange(m - 1) < size[:, None] - 1)
    return _Geometry(r, phi, size, total, cum / total[:, None], slope)


class _Arc:
    """Arclength-fraction view of a UCurve for cutting and sampling, with
    its lists taken from row ``row`` of ``geo``, a ``_geometry`` that holds
    W there.

    ``memo`` maps a parameter to its ``_probe`` result, or to the int entry
    of ``plain`` (the ``RegularRows`` that ``_prefetched`` mapped) that
    holds its plain image, not yet built; see ``_probe_at``.
    """

    def __init__(self, W: UCurve, geo: _Geometry, row: int):
        m = len(W.nodes)
        self.W = W
        self.r, self.phi, self.frac = (
            a[row, :m].tolist() for a in (geo.r, geo.phi, geo.frac))
        self.seg_slope = geo.slope[row, :m - 1].tolist()
        self.total = float(geo.total[row])
        self.memo = {}
        self.plain = None

    def at(self, s: float) -> PhasePoint:
        return PhasePoint(self.W.wall_id, _interp(s, self.frac, self.r),
                          _interp(s, self.frac, self.phi))

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
    (why,), seeds = _seeds(table, [z], [rng], length, k0)
    if why is not None:
        raise SingularSeed(why)
    return _curve_at(seeds, 0)


class _Seeds(NamedTuple):
    """Seed curves as rows: curve i lies on wall[i], its nodes are
    r[start[i]:start[i + 1]] and phi likewise, and length[i] is its
    ``UCurve.euclidean_length``, bit for bit."""
    wall: np.ndarray
    r: np.ndarray               # the nodes of every curve, in row order
    phi: np.ndarray
    start: np.ndarray           # (curves + 1,) each curve's first node
    length: np.ndarray

    def take(self, rows) -> _Seeds:
        """The seeds of the rows ``rows``, in that order."""
        size = np.diff(self.start)[rows]
        start = np.concatenate([[0], np.cumsum(size)])
        at = np.repeat(self.start[rows] - start[:-1], size) \
            + np.arange(start[-1])
        return _Seeds(self.wall[rows], self.r[at], self.phi[at], start,
                      self.length[rows])


def _curve_at(rows, i) -> UCurve:
    """The UCurve of row i of ``_Seeds`` or of a ``_Layer``."""
    lo, hi = rows.start[i], rows.start[i + 1]
    return _curve(int(rows.wall[i]), rows.r[lo:hi].tolist(),
                  rows.phi[lo:hi].tolist())


def _seeds(table, zs, rngs, length, k0):
    """``seed_ucurve`` at each base point z with its rng (or None): per z,
    None where it has a curve, else a str saying why there is none; and
    the ``_Seeds`` of the curves, in order.

    Each row checks its base (``_refusals``), and only then draws its cone
    position x from its own rng and walks (``_seed_walks``), so a row's
    result does not depend on the other rows.
    """
    _check_length(length)
    out = _refusals(table, zs, k0)
    rows = [i for i, why in enumerate(out) if why is None]
    xs = [0.5 if rngs[i] is None else float(rngs[i].uniform(0.35, 0.65))
          for i in rows]
    why, seeds = _seed_walks(table, [zs[i] for i in rows], xs,
                             [length] * len(rows))
    for i, w in zip(rows, why):
        out[i] = w
    return out, seeds


def _check_length(length):
    if not 0.0 < length <= MAX_LENGTH:
        raise ValueError(f"length must lie in (0, {MAX_LENGTH:g}]")


def _refusals(table, zs, k0):
    """Why no seed curve may grow from each base point z, or None: z lies
    within EPS_SEED of a strip boundary, or else ``forward`` does not map
    it by one plain regular step (one ``plain_rows`` call)."""
    out = ["base angle within tolerance of a strip boundary"
           if _near_strip_boundary(z.phi, k0) else None for z in zs]
    far = [i for i, why in enumerate(out) if why is None]
    mapped = set(plain_rows(table, *point_columns(
        [zs[i] for i in far])).rows.tolist())
    for j, i in enumerate(far):
        if j not in mapped:
            out[i] = "forward image at the base is not regular"
    return out


def _turn(m, lo, hi, x):
    """The slope m where it lies inside the cone (lo, hi), else the cone's
    interior slope at x, element by element."""
    m = np.array(m, dtype=float)
    x = np.broadcast_to(x, m.shape)
    away = ~((lo < m) & (m < hi))
    m[away] = interior_slope(lo[away], hi[away], x[away])
    return m


def _seed_walks(table, bases, xs, lengths):
    """``seed_ucurve``'s curve through each base point z, with x its
    position in the cone and its length from ``lengths``: per z, None where
    it has one, else a str saying why there is none; and the ``_Seeds`` of
    the curves, in order.

    From z each walk takes SEED_HALF equal steps to each side, along the
    slope it carries; after a step the slope is kept if it lies inside the
    unstable cone at the new node, else replaced by the cone's interior
    slope at x.  The walks go as arrays: one ``unstable_cones`` call at the
    base points, then per step one for both sides of every walk still
    alive.  A walk fails at its first failing step, and there a chart exit
    on either side wins over an undefined cone.  The cone at a side's last
    node sets no slope, but a walk fails where it is undefined, as at every
    other node.  The nodes of a curve are those that ``make_ucurve`` keeps
    of the walk's, from the back end to the fore end: each one above the
    last kept in both r and phi.  Its length adds their math.hypot steps
    in order.
    """
    out = [None] * len(bases)
    wid, r0, phi0 = point_columns(bases)
    xs = np.asarray(xs, dtype=float)
    ds = 0.5 * np.asarray(lengths, dtype=float) / SEED_HALF
    closed, span = np.array([(w.closed, w.length) for w in table.walls],
                            dtype=float)[wid].T
    r_lo = np.where(closed > 0.0, -math.inf, 0.0)
    r_hi = np.where(closed > 0.0, math.inf, span)
    sign = np.array([[-1.0], [1.0]])
    # r and phi of each side (back, fore), row and node from z, and the
    # slope each side carries
    R, P = np.zeros((2, 2, len(bases), SEED_HALF + 1))
    R[:, :, 0], P[:, :, 0] = r0, phi0
    M = np.zeros((2, len(bases)))

    def fail(rows, why):
        for i in rows.tolist():
            out[i] = why

    live, lo, hi = unstable_cones(table, wid, r0, phi0)
    coneless = np.ones(len(bases), dtype=bool)
    coneless[live] = False
    fail(np.flatnonzero(coneless), "cone undefined along the seed")
    M[:, live] = _turn(np.full(live.size, -1.0), lo, hi, xs[live])
    for k in range(SEED_HALF):
        m = M[:, live]
        dr = sign * ds[live] / slope_norms(m)
        r, phi = R[:, live, k] + dr, P[:, live, k] + m * dr
        out_of_chart = ((np.abs(phi) >= HALF_PI - EPS_SEED)
                        | ~((r_lo[live] < r) & (r < r_hi[live]))).any(axis=0)
        fail(live[out_of_chart], "seed curve left the open chart")
        stays = ~out_of_chart
        live, m, r, phi = live[stays], m[:, stays], r[:, stays], phi[:, stays]
        R[:, live, k + 1], P[:, live, k + 1] = r, phi
        got, lo, hi = unstable_cones(table, np.tile(wid[live], 2),
                                     r.ravel(), phi.ravel())
        cone = np.zeros((3, 2 * live.size))
        cone[:, got] = np.ones(got.size), lo, hi
        has, lo, hi = cone.reshape(3, 2, live.size)
        defined = (has > 0.0).all(axis=0)
        fail(live[~defined], "cone undefined along the seed")
        live = live[defined]
        if k + 1 < SEED_HALF:
            M[:, live] = _turn(m[:, defined], lo[:, defined],
                               hi[:, defined], xs[live])
    r, phi = (np.concatenate([A[0, live, ::-1], A[1, live, 1:]], axis=1)
              for A in (R, P))
    keep = np.ones(r.shape, dtype=bool)
    top_r, top_phi = r[:, 0], phi[:, 0]
    length = np.zeros(live.size)
    for j in range(1, r.shape[1]):
        keep[:, j] = up = (r[:, j] > top_r) & (phi[:, j] > top_phi)
        step = map(math.hypot, (r[:, j] - top_r).tolist(),
                   (phi[:, j] - top_phi).tolist())
        length += np.where(up, np.fromiter(step, float, live.size), 0.0)
        top_r, top_phi = np.where(up, r[:, j], top_r), \
            np.where(up, phi[:, j], top_phi)
    size = keep.sum(axis=1)
    for i in live[size < 2].tolist():
        # make_ucurve's refusal
        out[i] = (f"seed curve of length {lengths[i]:g}: degenerate curve: "
                  "fewer than two monotone nodes")
    good = size >= 2
    keep &= good[:, None]
    return out, _Seeds(wid[live[good]], r[keep], phi[keep],
                       np.concatenate([[0], np.cumsum(size[good])]),
                       length[good])


# ---------------------------------------------------------------------------
# scalar root and trigamma, ported from scipy
#
# A cut fixes every node of the children on both sides of it, so the reports
# and digests rest on the exact bits of each root and tail bound.  These are
# operation-for-operation ports of the C code that scipy runs; the tests
# compare them with scipy, which the package itself does not import.

BRENT_ITER = 100        # brentq's default maxiter


def _brent_root(f, a, b, xtol, rtol):
    """scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol), bit for bit.

    A port of scipy's C ``brentq`` (scipy/optimize/Zeros/brentq.c) and the
    checks of its Python wrapper.  f(a) is evaluated first, then f(b), and an
    endpoint where f is exactly 0 is the root.  Signs are compared by their
    sign bits, never by products, which can underflow.  Raises ValueError
    when f(a) and f(b) have the same sign or a value of f is NaN, and
    RuntimeError when BRENT_ITER iterations do not converge.  Where the C
    code divides by zero, its quotient (+-inf or NaN) fails the short-step
    test, so here a zero denominator takes the bisection branch.
    """
    def at(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    fpre = at(xpre)
    fcur = at(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENT_ITER):
        if fpre != 0.0 and fcur != 0.0 \
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.nan     # a NaN step fails the test below: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:               # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        bound = 3 * abs(sbis) - delta
        if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
            spre, scur = scur, stry     # good short step
        else:
            spre = scur = sbis          # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = at(xcur)
    raise RuntimeError(f"brent root: no convergence in {BRENT_ITER} "
                       "iterations")


# cephes zeta's Euler-Maclaurin coefficients: (2j)! / B_2j
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
           -1.8924375803183791606e9, 7.47242496e10,
           -2.950130727918164224e12, 1.1646782814350067249e14,
           -4.5979787224074726105e15, 1.8152105401943546773e17,
           -7.1661652561756670113e18)
MACHEP = 1.11022302462515654042e-16


def _trigamma(q):
    """The trigamma function psi'(q) for q > 0, bit for bit as
    scipy.special.polygamma(1, q) computes it: gamma(2) zeta(2, q) = zeta(2, q)
    by cephes' Hurwitz zeta(x, q) at x = 2, with its asymptotic branch
    above q = 1e8, its direct sum until nine terms are in and the argument
    passes 9, then its Euler-Maclaurin tail; C's pow is math.pow.
    """
    x, q = 2.0, float(q)
    if q > 1e8:
        return (1 / (x - 1) + 1 / (2 * q)) * math.pow(q, 1 - x)
    s = math.pow(q, -x)
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for c in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / c
        s = s + t
        if abs(t / s) < MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


# ---------------------------------------------------------------------------
# one-step evolution

@dataclass(frozen=True, slots=True)
class HComponent:
    curve: UCurve
    itinerary: tuple[tuple[int, str, int], ...]
    min_expansion: float            # sampled: product of per-step node minima
    tail_inv: float = 0.0           # sum of 1/expansion over the lumped strips
    tail_from: int = 0              # signed first lumped strip; 0 if no tail

    @property
    def tail(self) -> bool:
        return self.tail_from != 0

    @property
    def regular(self) -> bool:
        return not self.tail and all(k == 0 for _, _, k in self.itinerary)

    @property
    def inv_expansion(self) -> float:
        return self.tail_inv if self.tail else 1.0 / self.min_expansion


def _probe(table, arc, s):
    """(signature, image) at parameter s, or (None, None) on a cut sample."""
    try:
        im = forward(table, arc.at(s)).smooth
    except BilliardError:
        return None, None
    return _signed(im)


def _signed(im):
    """``_probe``'s result for the smooth image im, or for None."""
    if im is None:
        return None, None
    return (im.point.wall_id, im.branch), im


def _probe_at(table, arc, s, keep=True):
    """``_probe`` through the arc's memo, for parameters that the grid, the
    insets, the root finders' end points and the node refinement probe more
    than once.  With ``keep`` false a missed parameter is not stored: a
    root finder's iterates are never probed again, and a deep strip ladder
    makes thousands of them.  A prefetched row is built into its image
    when first read here, and the image is stored in its place."""
    hit = arc.memo.get(s)
    if hit is None:
        hit = _probe(table, arc, s)
        if keep:
            arc.memo[s] = hit
    elif type(hit) is int:
        hit = arc.memo[s] = _signed(arc.plain.images([hit])[0])
    return hit


def _signature_at(table, arc, s):
    """The signature of ``_probe_at`` at s; a prefetched row gives it from
    its wall id without building its image."""
    hit = arc.memo.get(s)
    if type(hit) is int:
        return int(arc.plain.wall_id[hit]), "regular"
    return _probe_at(table, arc, s)[0]


def _grid_for(total):
    if total >= 1e-6:
        return 17
    if total >= 1e-9:
        return 9
    return 5


def _grid(n_s):
    """np.linspace(0.0, 1.0, n_s) bit for bit: i * step, then the end."""
    step = 1.0 / (n_s - 1)
    return [i * step for i in range(n_s - 1)] + [1.0]


def _u_of(im):
    return HALF_PI - abs(im.point.phi)


def _primary_segments(table, arc, n_s):
    """(lo, hi, signature) of the arc's pieces between branch changes."""
    ss = _grid(n_s)
    runs = []   # (first index, last index, sig)
    for i, sig in enumerate([_signature_at(table, arc, s) for s in ss]):
        if runs and runs[-1][2] == sig:
            runs[-1][1] = i
        else:
            runs.append([i, i, sig])
    cuts = []
    for left, right in zip(runs, runs[1:]):
        sa, sb = ss[left[1]], ss[right[0]]
        sig = left[2]
        if sig is None:
            # approach the valid side from the cut sample
            sa, sb, sig = sb, sa, right[2]
        if sig is not None:
            sa, sb = bisect_edge(
                lambda s: _probe(table, arc, s)[0] == sig, sa, sb, CUT_TOL)
        cuts.append(0.5 * (sa + sb))
    edges = [0.0] + cuts + [1.0]
    segments = []
    for lo, hi in zip(edges, edges[1:]):
        if hi - lo <= CUT_TOL:
            continue
        sig = _signature_at(table, arc, 0.5 * (lo + hi))
        if sig is None:
            # sliver between two cuts; sample closer to the edges
            for t in (lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)):
                sig = _signature_at(table, arc, t)
                if sig is not None:
                    break
        if sig is not None:
            segments.append((lo, hi, sig))
    return segments


def _first_level(u_shallow, k0):
    """The k of the first boundary level 1/k^2 that a ladder cuts."""
    if u_shallow >= 1.0 / (k0 * k0):
        return k0
    return max(k0, int(math.floor(1.0 / math.sqrt(u_shallow))) + 1)


def _ladder_tails(u_shallow, u_deep, k0):
    """Whether the ladder from u_shallow to u_deep always ends in a tail:
    LADDER_MAX cuts cannot reach a level at or below u_deep."""
    k = _first_level(u_shallow, k0) + LADDER_MAX
    return 1.0 / (k * k) > u_deep


def _ladder(table, arc, shallow_s, deep_s, u_shallow, u_deep, k0):
    """Resolve the crossings of strip boundaries between two parameters.

    u is monotone from u_shallow down to u_deep as the parameter moves from
    shallow_s toward deep_s.  Yields the cut params one at a time, ordered
    shallow->deep, and returns tail_from or 0 (see ``_drain``).
    tail_from = m means strips k >= m stay unresolved.
    """
    k = _first_level(u_shallow, k0)
    n = 0           # cuts made
    prev = shallow_s
    sign = 1.0 if deep_s > shallow_s else -1.0

    def f(t, level, keep=False):
        _, im = _probe_at(table, arc, t, keep)
        if im is None:
            return -level
        return _u_of(im) - level

    # cutting level 1/k^2 closes strip k-1; a failure at level k therefore
    # leaves strips >= k-1 unresolved
    while True:
        level = 1.0 / (k * k)
        if level <= u_deep:
            return 0
        if k > K_CAP + 1 or n >= LADDER_MAX:
            return max(k - 1, k0)
        a, b = prev, deep_s
        try:
            fa, fb = f(a, level, True), f(b, level, True)
            if fa <= 0.0 or fb >= 0.0:
                return max(k - 1, k0)
            t = _brent_root(partial(f, level=level), a, b, 1e-13, 8.9e-16)
        except (ValueError, RuntimeError):
            return max(k - 1, k0)
        if abs(t - prev) < LADDER_FLOOR and n:
            return max(k - 1, k0)
        yield float(t)
        n += 1
        prev = t + sign * 1e-15
        k += 1


def _drain(ladder, stop_after=None):
    """(cuts, tail_from) of a ladder run to its end, or (cuts, None) once
    ``stop_after`` cuts are in."""
    cuts = []
    while len(cuts) != stop_after:
        try:
            cuts.append(next(ladder))
        except StopIteration as end:
            return cuts, end.value
    return cuts, None


class _Stopped(NamedTuple):
    """A ladder stopped after its first cut, with what resuming it needs:
    the segment edge past its deep end, and ``far``, a parameter that no
    node of its unresolved strips lies beyond (see ``_secondary_pieces``)."""
    arc: _Arc
    ladder: Iterator[float]
    sig: tuple
    cut0: float
    edge: float
    far: float


def _secondary_pieces(table, arc, seg, k0, stopped=None):
    """Split one primary segment at strip boundaries of the image angle.

    The image angle is strictly monotone along a branch, so u = pi/2 - |phi'|
    has its minima at the segment ends; a ladder of boundary levels is walked
    toward each deep end and lumped into a tail once unresolvable.

    With a list ``stopped``, every ladder stops after its first cut and is
    appended to it as a ``_Stopped``; the pieces beyond that cut (its
    strips and its tail) are left out.  Its cuts lie between the shallow
    and the deep end, so its strips between cuts end at the deep end at
    the latest.  A ladder that always ends in a tail (``_ladder_tails``)
    has no other strip, and its ``far`` is the deep end.  Any other ladder
    may end in a last strip from its last cut to the segment edge, at least
    |edge - deep| wide, whose nodes ``_child`` insets from the edge by at
    least ins = max(1e-15, 1e-6 |edge - deep|); rounding is monotone, so
    none lies beyond its ``far`` = edge -/+ ins.
    """
    lo, hi, sig = seg
    w = hi - lo
    inset = max(CUT_TOL, 1e-6 * w)
    _, im_lo = _probe_at(table, arc, lo + inset)
    _, im_hi = _probe_at(table, arc, hi - inset)
    if im_lo is None or im_hi is None:
        return [(lo, hi, sig, 0)]
    u_lo, u_hi = _u_of(im_lo), _u_of(im_hi)
    h0 = 1.0 / (k0 * k0)

    pieces = []   # (s_a, s_b, sig, tail_from), tail_from 0 on a strip piece
    # where both insets lie in strip 0 neither side ladders, and the zero
    # crossing of phi' would go unused
    crossing = im_lo.point.phi * im_hi.point.phi < 0.0 \
        and min(u_lo, u_hi) < h0
    if crossing:
        def phi_at(t):
            _, im = _probe_at(table, arc, t, False)
            return im.point.phi if im is not None else 0.0

        try:
            s0 = _brent_root(phi_at, lo + inset, hi - inset, 1e-13,
                             4 * math.ulp(1.0))
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
    left_out = set()
    for shallow, deep, u_s, u_d, edge in arcs:
        if u_d >= h0:
            continue
        ladder = _ladder(table, arc, shallow, deep, u_s, u_d, k0)
        cuts, tail_from = _drain(ladder, None if stopped is None else 1)
        all_cuts.extend(cuts)
        if tail_from is None:
            far = deep
            if not _ladder_tails(u_s, u_d, k0):
                ins = max(1e-15, 1e-6 * abs(edge - deep))
                far = edge - ins if edge > deep else edge + ins
            stopped.append(_Stopped(arc, ladder, sig, cuts[0], edge, far))
            left_out.add((min(cuts[0], edge), max(cuts[0], edge)))
        elif tail_from:
            side = 1 if (im_lo.point.phi if edge == lo else
                         im_hi.point.phi) >= 0.0 else -1
            start = cuts[-1] if cuts else shallow
            tails.append((min(start, edge), max(start, edge),
                          side * tail_from))
    edges = sorted({lo, hi, *all_cuts, *(t[0] for t in tails),
                    *(t[1] for t in tails)})
    tail_spans = {(a, b): m for a, b, m in tails}
    for a, b in zip(edges, edges[1:]):
        if b - a <= 0.0 or (a, b) in left_out:
            continue
        m = next((mm for (ta, tb), mm in tail_spans.items()
                  if a >= ta - CUT_TOL and b <= tb + CUT_TOL), 0)
        pieces.append((a, b, sig, m))
    return pieces


def _refine_params(table, arc, base, sig):
    """(stretch, image) at node parameters, refined until adjacent
    expansion factors agree; parameters whose probe is cut, or has another
    signature than the piece's ``sig``, are dropped."""

    def stretch(s):
        got, im = _probe_at(table, arc, s)
        if got != sig:
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
    return [(f, _probe_at(table, arc, s)[1])
            for s, f in zip(params, factors) if f is not None]


def _root(W):
    """The depth-0 H-component: W itself, with no itinerary and expansion 1."""
    return HComponent(curve=W, itinerary=(), min_expansion=1.0)


def _child(table, arc, piece, parent, k0, c_expansion):
    """The H-component of parent's image over one piece, or None when the
    piece's valid probes cannot carry a curve.

    A strip's sampled expansion floor is the parent's times the step's node
    minimum.  A tail lumps the strips k >= |tail_from| that the ladder left
    unresolved into a curve through three raw probes; their 1/expansion sum
    is at most the trigamma psi'(m) / C, C the local expansion constant.
    Only probes with the piece's signature (wall, branch) give nodes.
    """
    s_lo, s_hi, sig, tail_from = piece
    lam = parent.min_expansion
    if tail_from:
        c_loc = _local_expansion_constant(table, arc, piece, c_expansion)
        m = abs(tail_from)
        inset = max(1e-15, 1e-3 * (s_hi - s_lo))
        pts = []
        for s in (s_lo + inset, 0.5 * (s_lo + s_hi), s_hi - inset):
            got, im = _probe_at(table, arc, s)
            if got == sig:
                pts.append(im.point)
        if not pts:
            return None
        try:
            curve = make_ucurve(pts[0].wall_id, pts[::-1])
        except ValueError:
            # fewer than two monotone probes: a stub at the first one
            p = pts[0]
            curve = make_ucurve(p.wall_id, [p, PhasePoint(
                p.wall_id, p.r + 1e-15, p.phi + 1e-15)])
        lam_min = lam * c_loc * m * m
        tail_inv = _trigamma(m) / c_loc / lam
    else:
        inset = max(1e-15, 1e-6 * (s_hi - s_lo))
        rows = _refine_params(
            table, arc, [s_lo + inset, 0.5 * (s_lo + s_hi), s_hi - inset],
            sig)
        if len(rows) < 2:
            return None
        pts = [im.point for _, im in rows]
        # image of an increasing curve is traversed backwards
        try:
            curve = make_ucurve(pts[0].wall_id, pts[::-1])
        except ValueError:
            return None
        lam_min = lam * min(f for f, _ in rows)
        tail_inv = 0.0
    mid = pts[len(pts) // 2]
    return HComponent(
        curve=curve,
        itinerary=parent.itinerary
        + ((*sig, tail_from or strip_index(mid.phi, k0)),),
        min_expansion=lam_min, tail_inv=tail_inv, tail_from=tail_from)


def _kept(comp):
    """Whether a child is kept as a component: built, and a tail or at least
    DEGEN_LEN long."""
    return comp is not None and (
        comp.tail or comp.curve.euclidean_length >= DEGEN_LEN)


def _one_step(table, parent, arc, k0, c_expansion, stopped=None):
    """(children, pieces dropped) of parent's one-step image.  ``arc`` is
    parent's curve as an ``_Arc`` from ``_prefetched``.

    Each child is built from its own piece alone.  A piece that gives no
    child, or one shorter than DEGEN_LEN, is dropped and counted.
    ``stopped`` is passed on to ``_secondary_pieces``.
    """
    segments = _primary_segments(table, arc, _grid_for(arc.total))
    pieces = []
    for seg in segments:
        pieces.extend(_secondary_pieces(table, arc, seg, k0, stopped))
    children = [_child(table, arc, piece, parent, k0, c_expansion)
                for piece in pieces]
    comps = [c for c in children if _kept(c)]
    return comps, len(children) - len(comps)


def _local_expansion_constant(table, arc, piece, c_expansion):
    """Sampled floor C with (expansion) >= C / cos(phi') near the lumped
    strips.

    In strip k the image angle satisfies cos(phi') < 1/k^2, so where this
    floor holds it gives expansion >= C k^2 for every lumped strip.  Sampled
    at a few parameters of the tail sliver and of its shallow neighborhood;
    the table constant, when given, can only lower C and thus inflate the
    tail bound.
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


# ---------------------------------------------------------------------------
# multi-step evolution

class _Columns(NamedTuple):
    """What ``depth_columns`` reads of one generation of a tree."""
    inv: list               # each component's inv_expansion, in order
    tail_inv: list          # each tail's tail_inv, in order
    regular: int            # how many components are regular


class EvolutionTree:
    """The H-components of F^g W for g = 0..depth: ``generations[g]`` lists
    generation g in order, and ``degenerate_merged`` counts the pieces
    dropped on the way.  The trees that ``evolve_n`` and the other growers
    hand out are ``_View``s of ``_Forest`` trees."""

    def __init__(self, root: UCurve, generations: list[list[HComponent]],
                 degenerate_merged: int = 0):
        self.root = root
        self.generations = generations
        self.degenerate_merged = degenerate_merged

    def leaves(self, n: int) -> list[HComponent]:
        """The depth-n leaves: generation n's pieces, then the tails of
        generations 1..n in order."""
        return [c for c in self.generations[n] if not c.tail] + [
            c for gen in self.generations[1:n + 1] for c in gen if c.tail]

    def _columns(self) -> list[_Columns]:
        return [_Columns([c.inv_expansion for c in gen],
                         [c.tail_inv for c in gen if c.tail],
                         sum(1 for c in gen if c.regular))
                for gen in self.generations]


class _View(EvolutionTree):
    """Tree t of a ``_Forest`` as an EvolutionTree.  Its generations are
    built from the forest's rows when first read at a depth; its columns
    are read from the forest's without building any."""

    def __init__(self, forest, t):
        self._forest, self._t, self._built = forest, t, None

    @property
    def root(self) -> UCurve:
        return self._forest.curve(0, self._t)

    @property
    def degenerate_merged(self) -> int:
        return self._forest.degenerate[self._t]

    @property
    def generations(self) -> list[list[HComponent]]:
        forest, t = self._forest, self._t
        if self._built is None or len(self._built) != forest.depth[t] + 1:
            self._built = forest.generations(t)
        return self._built

    def _columns(self) -> list[_Columns]:
        return self._forest.columns(self._t)

    def _grazing_sum(self) -> float:
        """``grazing_sum`` of generation 1."""
        return self._forest.grazing_sum(self._t)


class _Layer(NamedTuple):
    """One generation of a forest's trees as columns over its rows: tree
    t's rows are ends[t]:ends[t + 1], its components in order.  A row is
    its component: the curve, its floor and tail fields, whether it is
    regular, and its itinerary's last symbol (wall, branch, strip) with
    the row of its parent, whose itinerary comes before.  The curve of
    row i has the nodes r[start[i]:start[i + 1]] and phi likewise."""
    wall: np.ndarray            # the curve's wall, and the symbol's
    r: np.ndarray               # the nodes of every row, in row order
    phi: np.ndarray
    start: np.ndarray           # (rows + 1,) each row's first node
    min_expansion: np.ndarray
    tail_inv: np.ndarray
    tail_from: np.ndarray
    regular: np.ndarray         # HComponent.regular
    strip: np.ndarray           # the symbol's strip: tail_from on a tail
    branch: np.ndarray          # the symbol's branch (str objects)
    parent: np.ndarray          # the parent's row in the generation before
    ends: np.ndarray            # (trees + 1,)


class _LayerSums(NamedTuple):
    """What trees read of a layer one by one."""
    inv: np.ndarray             # HComponent.inv_expansion of each row
    tails: list                 # the rows with a tail
    regular: list               # how many rows of each tree are regular


class _Forest:
    """Component trees grown together, one ``_Layer`` per generation: a
    scan block's trees, choose_depth's probe trees, or the length
    constant's samples.

    Tree t grows from row t of layer 0, the curve of row t of ``seeds``:
    a root component, or ``base[t]`` when base, a list of HComponents, is
    given.  ``length[t]`` is that curve's length.  The tree has the
    generations 0..depth[t].  ``stops[t]`` is None while it grows, else
    what stopped it (see ``_grow``), and ``degenerate[t]`` counts its
    dropped pieces.  ``tree(t)`` hands it out as an EvolutionTree.
    """

    def __init__(self, seeds, base=None):
        n = seeds.wall.size
        self.length = seeds.length
        self.layers, self._sums = [], []
        self.depth, self.stops, self.degenerate = [0] * n, [None] * n, [0] * n
        if base is None:
            self._itineraries = None
            columns = (np.ones(n), np.zeros(n), np.zeros(n, dtype=int),
                       np.ones(n, dtype=bool))
        else:
            self._itineraries = [c.itinerary for c in base]
            columns = (np.array([getattr(c, f) for c in base]) for f in (
                "min_expansion", "tail_inv", "tail_from", "regular"))
        # no symbol of generation 0 is read: its itineraries are base's
        self._append(_Layer(
            seeds.wall, seeds.r, seeds.phi, seeds.start, *columns,
            np.zeros(n, dtype=int), np.full(n, "", dtype=object),
            np.full(n, -1), np.arange(n + 1)))

    @classmethod
    def of(cls, base) -> _Forest:
        """The forest whose trees grow from the HComponents ``base``."""
        base = list(base)
        curves = [c.curve for c in base]
        wall, r, phi, size = _nodes(curves)
        keep = np.arange(r.shape[1]) < size[:, None]
        return cls(_Seeds(wall, r[keep], phi[keep],
                          np.concatenate([[0], np.cumsum(size)]),
                          np.array([W.euclidean_length for W in curves])),
                   base)

    def _append(self, layer):
        tail = layer.tail_from != 0
        regular = np.concatenate([[0], np.cumsum(layer.regular)])
        self.layers.append(layer)
        self._sums.append(_LayerSums(
            np.where(tail, layer.tail_inv, 1.0 / layer.min_expansion),
            np.flatnonzero(tail).tolist(),
            np.diff(regular[layer.ends]).tolist()))

    def tree(self, t) -> EvolutionTree:
        return _View(self, t)

    def curve(self, g, i) -> UCurve:
        return _curve_at(self.layers[g], i)

    def itinerary(self, g, i) -> tuple:
        """The itinerary of row i of generation g."""
        symbols = []
        for layer in self.layers[g:0:-1]:
            symbols.append((int(layer.wall[i]), layer.branch[i],
                            int(layer.strip[i])))
            i = layer.parent[i]
        base = () if self._itineraries is None else self._itineraries[i]
        return base + tuple(reversed(symbols))

    def generations(self, t) -> list[list[HComponent]]:
        """Tree t's generations, its HComponents built from the rows."""
        gens = []
        for layer in self.layers[:self.depth[t] + 1]:
            g = len(gens)
            gens.append([HComponent(
                self.curve(g, i), self.itinerary(g, i),
                float(layer.min_expansion[i]), float(layer.tail_inv[i]),
                int(layer.tail_from[i]))
                for i in range(layer.ends[t], layer.ends[t + 1])])
        return gens

    def columns(self, t) -> list[_Columns]:
        """``EvolutionTree._columns`` of tree t, from the layers' sums."""
        out = []
        for layer, sums in zip(self.layers[:self.depth[t] + 1], self._sums):
            lo, hi = layer.ends[t], layer.ends[t + 1]
            inv, tails = sums.inv[lo:hi].tolist(), sums.tails
            if tails:
                tails = [inv[i - lo] for i in tails[
                    bisect_left(tails, lo):bisect_left(tails, hi)]]
            out.append(_Columns(inv, tails, sums.regular[t]))
        return out

    def grazing_sum(self, t) -> float:
        """``grazing_sum`` of tree t's generation 1."""
        layer = self.layers[1]
        lo, hi = layer.ends[t], layer.ends[t + 1]
        return _grazing_total(self._sums[1].inv[lo:hi].tolist(),
                              (layer.strip[lo:hi] != 0).tolist())


def _remaining_floor(constants, m):
    if m <= 0 or constants is None:
        return 1.0
    return max(1e-12, constants.lam_hyper ** m / constants.c_hyper)


# the parameters at which _decided reads a certified arc: the midpoint,
# where _primary_segments probes the arc's one segment (0, 1), and that
# segment's insets max(CUT_TOL, 1e-6 * 1.0), which _secondary_pieces and
# _child both take
_KNOWN = (0.5, 1e-6, 1.0 - 1e-6)


class _Decided(NamedTuple):
    """The one-step images of the decided arcs of a batch: per arc, its
    one child, whatever the parent."""
    at: np.ndarray          # the arc's position in the batch
    wall: np.ndarray        # the child's wall
    r: np.ndarray           # (n, 3): the child's nodes (hi, mid, lo)
    phi: np.ndarray
    factor: np.ndarray      # the step's smallest stretch factor


def _decided(geo, rows, got, at, k0):
    """The ``_Decided`` of the certified rows ``rows`` of ``geo`` that
    ``_one_step`` need not step, placed as rows of ``geo``.  ``at`` holds,
    per row, the entries of ``got`` (a ``RegularRows``) that are its images
    at _KNOWN, in that order, -1 where a probe has no plain image.

    A row is decided when its three probes have plain "regular" images
    that rise as (hi, mid, lo), both insets have u = pi/2 - |phi'| >=
    1/k0^2, the three stretch factors are finite, positive and within
    NODE_RATIO of their neighbours, and the child is at least DEGEN_LEN
    long.  Then ``_primary_segments`` gives the one segment (0, 1),
    ``_secondary_pieces`` cuts nothing (with or without a sign change of
    phi'), ``_refine_params`` adds no node, ``_child`` builds its child
    from these three images with ``make_ucurve``, which keeps all three,
    and ``_kept`` keeps it: the tests and the stretch factors below are
    theirs, operation for operation.  single_branch certified that the
    images lie on one wall.  The child's strip is 0: phi' of the mid image
    lies strictly between the insets', so its u is at least one of
    theirs, and so at least 1/k0^2.
    """
    cand = np.flatnonzero((at >= 0).all(axis=1))
    # per candidate, its images at the insets and the midpoint in the
    # order _refine_params takes them (lo, mid, hi), and each one's segment
    # as _Arc.slope_at picks it
    j, i = at[cand][:, [1, 0, 2]], rows[cand]
    r, phi = got.r[j], got.phi[j]
    s = np.array(_KNOWN)[[1, 0, 2], None]
    seg = (geo.frac[i][:, None, :] < s).sum(axis=2) - 1
    seg = np.clip(seg, 0, geo.size[i][:, None] - 2)
    f = expansion_factors(got.derivative[j], geo.slope[i[:, None], seg])
    u = HALF_PI - np.abs(phi[:, [0, 2]])
    ok = (u >= 1.0 / (k0 * k0)).all(axis=1)
    ok &= (np.isfinite(f) & (f > 0.0)).all(axis=1)
    for a, b in ((f[:, 0], f[:, 1]), (f[:, 1], f[:, 2])):
        ok &= ~(np.where(b > a, b, a) / np.where(b < a, b, a) > NODE_RATIO)
    # make_ucurve's monotone test over the nodes (hi, mid, lo)
    dr, dphi = np.diff(r[:, ::-1]), np.diff(phi[:, ::-1])
    ok &= ((dr > 0.0) & (dphi > 0.0)).all(axis=1)
    keep = np.flatnonzero(ok)
    # UCurve.euclidean_length
    keep = keep[[math.hypot(dr0, dphi0) + math.hypot(dr1, dphi1) >= DEGEN_LEN
                 for (dr0, dr1), (dphi0, dphi1) in zip(dr[keep].tolist(),
                                                       dphi[keep].tolist())]]
    return _Decided(i[keep], got.wall_id[j[keep, 1]], r[keep, ::-1],
                    phi[keep, ::-1], f[keep].min(axis=1))


def _prefetched(table, layer, rows, k0):
    """(``_decided``'s ``_Decided`` of the rows ``rows`` of a forest layer,
    per row an ``_Arc`` of its curve, None where it is decided).

    The arcs' geometry is one ``_geometry``, and one ``single_branch`` call
    certifies every arc.  One ``plain_rows`` call then maps the _KNOWN
    parameters of each certified arc (placed by ``_interp_rows``) and the
    cut grid of each other arc.  An uncertified arc gets in its memo, for
    each of its grid probes that has a plain image, that image's entry of
    the call's ``RegularRows``, which the arc keeps as ``plain``: the
    signature read from it, and the image ``_probe_at`` builds from it when
    first asked, are what ``_probe`` gives there.  Most are never built, as
    ``_primary_segments`` reads signatures only.  ``_probe_at`` maps the
    other probes with ``forward`` when ``_one_step`` first needs them.  A
    certified arc that ``_decided`` declines is a fresh ``_Arc``, which
    ``_one_step`` steps on its cut grid.
    """
    first = layer.start[rows]
    size = layer.start[rows + 1] - first
    # each row's nodes, padded as _nodes pads them
    at = first[:, None] + np.minimum(np.arange(size.max()), size[:, None] - 1)
    geo = _geometry(layer.r[at], layer.phi[at], size)
    wid = layer.wall[rows]

    def arc_of(i):
        n = size[i]
        return _Arc(_curve(int(wid[i]), geo.r[i, :n].tolist(),
                           geo.phi[i, :n].tolist()), geo, i)

    held = single_branch(table, wid, geo.r[:, 0], geo.r[:, -1],
                         geo.phi[:, 0], geo.phi[:, -1])
    certified = np.flatnonzero(held)
    arcs = [None if h else arc_of(i) for i, h in enumerate(held.tolist())]
    s = np.broadcast_to(np.array(_KNOWN), (certified.size, len(_KNOWN)))
    grid = [(arc, t) for arc in arcs if arc is not None
            for t in _grid(_grid_for(arc.total))]
    pts = [arc.at(t) for arc, t in grid]
    got = plain_rows(
        table,
        np.concatenate([np.repeat(wid[certified], len(_KNOWN)),
                        [p.wall_id for p in pts]]),
        np.concatenate([
            _interp_rows(s, geo.frac[certified], geo.r[certified]).ravel(),
            [p.r for p in pts]]),
        np.concatenate([
            _interp_rows(s, geo.frac[certified], geo.phi[certified]).ravel(),
            [p.phi for p in pts]]))
    # the entry of got for each probe, -1 where it has no plain image
    at = np.full(s.size + len(pts), -1)
    at[got.rows] = np.arange(got.rows.size)
    for (arc, t), j in zip(grid, at[s.size:].tolist()):
        if j >= 0:
            arc.memo[t] = j
            arc.plain = got
    decided = _decided(geo, certified, got, at[:s.size].reshape(s.shape), k0)
    declined = np.ones(len(arcs), dtype=bool)
    declined[decided.at] = False
    for i in certified[declined[certified]].tolist():
        arcs[i] = arc_of(i)
    return decided, arcs


def _grow(table, forest, k0, constants, stopped=None):
    """Grow each tree of the forest whose ``stops`` entry is None by one
    generation, all of them in one new layer.

    A tree that stops gets in ``stops`` a ComponentExplosion once its
    generation holds more than LEAF_CAP components, whose ``.partial`` is
    the tree with the cut-short generation, or an error of ``_one_step``,
    after which it gains no generation.  The parents are the non-tail rows
    of the growing trees, tree after tree, and ``_prefetched`` maps them
    BATCH_ROWS at a time, so that no more than BATCH_ROWS arcs are alive at
    once.  A decided parent's child is written straight from the
    ``_Decided`` columns.  ``_one_step`` steps each other parent, given as
    an HComponent, and its children become rows in its place; its arc,
    whose memo holds the images of its probes, is dropped then.  A tree
    takes its parents in order and none once it stops.  With a list
    ``stopped``, ``_one_step`` stops the lazy ladders of each parent, and
    they are appended to ``stopped`` once its step succeeds.
    """
    last, g, stops = forest.layers[-1], len(forest.layers), forest.stops
    growing = np.array([stop is None for stop in stops], dtype=bool)
    if not growing.any():
        return
    c_exp = constants.c_expansion if constants is not None else None
    owner = np.repeat(np.arange(growing.size), np.diff(last.ends))
    front = np.flatnonzero(growing[owner] & (last.tail_from == 0))
    tree = owner[front]
    trees = np.arange(growing.size)
    first = np.searchsorted(tree, trees)
    # per tree: children so far, its next parent not yet counted, and the
    # end of the parents whose children join the generation
    count = [0] * growing.size
    nxt = first.tolist()
    end = np.searchsorted(tree, trees, side="right").tolist()
    kids, parts, failed = {}, [], set()

    def explode(t, stop_at):
        end[t] = stop_at
        stops[t] = ComponentExplosion(
            f"component count exceeded {LEAF_CAP} at depth {g}")
        stops[t].partial = forest.tree(t)

    def take(t, q):
        """Count tree t's decided parents up to parent q; False once one
        of them overflows LEAF_CAP, which stops the tree."""
        room = LEAF_CAP - count[t]
        if q - nxt[t] > room:
            explode(t, nxt[t] + room + 1)
            return False
        count[t] += q - nxt[t]
        nxt[t] = q
        return True

    for start in range(0, front.size, BATCH_ROWS):
        rows = front[start:start + BATCH_ROWS]
        decided, arcs = _prefetched(table, last, rows, k0)
        parts.append(decided._replace(at=decided.at + start))
        for i in [i for i, arc in enumerate(arcs) if arc is not None]:
            q = start + i
            t = int(tree[q])
            if stops[t] is not None or not take(t, q):
                continue
            parent = HComponent(arcs[i].W, forest.itinerary(g - 1, rows[i]),
                                float(last.min_expansion[rows[i]]))
            ladders = None if stopped is None else []
            try:
                kids[q], ndeg = _one_step(table, parent, arcs[i], k0, c_exp,
                                          ladders)
            except BilliardError as err:
                stops[t], end[t] = err, first[t]
                failed.add(t)
                continue
            finally:
                arcs[i] = None      # its memo serves this step only
            if ladders:
                stopped.extend(ladders)
            forest.degenerate[t] += ndeg
            count[t] += len(kids[q])
            nxt[t] = q + 1
            if count[t] > LEAF_CAP:
                explode(t, q + 1)
    for t in np.flatnonzero(growing).tolist():
        if stops[t] is None:
            take(t, end[t])
    forest._append(_next_layer(last, front, tree, np.array(end), kids,
                               parts))
    for t in np.flatnonzero(growing).tolist():
        if t not in failed:
            forest.depth[t] += 1


def _next_layer(last, front, tree, end, kids, parts):
    """The layer of ``_grow``'s generation: in order, the children of each
    parent in ``front`` before its tree's ``end``.  ``tree`` holds each
    parent's tree, ``kids`` the children of each stepped parent by its
    position in ``front``, and ``parts`` the ``_Decided`` of each batch,
    placed in ``front``."""
    joins = np.arange(front.size) < end[tree]
    n = np.ones(front.size, dtype=int)
    for q, comps in kids.items():
        n[q] = len(comps)
    n[~joins] = 0
    at = np.cumsum(n) - n               # each parent's first child
    stepped = [(int(at[q]) + k, c) for q, comps in kids.items() if joins[q]
               for k, c in enumerate(comps)]
    rows = int(n.sum())
    i = np.array([row for row, _ in stepped], dtype=int)
    comps = [c for _, c in stepped]
    size = np.full(rows, 3)             # a decided child's nodes
    size[i] = [len(c.curve.nodes) for c in comps]
    start = np.concatenate([[0], np.cumsum(size)])
    r, phi = np.zeros((2, start[-1]))
    wall, tail_from, strip = np.zeros((3, rows), dtype=int)
    min_expansion, tail_inv = np.zeros((2, rows))
    branch = np.empty(rows, dtype=object)
    branch[:] = "regular"               # one str for every row
    if parts:
        decided = _Decided(*map(np.concatenate, zip(*parts)))
        keep = joins[decided.at]
        q = decided.at[keep]
        nodes = start[at[q]][:, None] + np.arange(3)
        r[nodes], phi[nodes] = decided.r[keep], decided.phi[keep]
        wall[at[q]] = decided.wall[keep]
        min_expansion[at[q]] = last.min_expansion[front[q]] \
            * decided.factor[keep]
    if stepped:
        k = size[i]
        nodes = np.repeat(start[i] - (np.cumsum(k) - k), k) \
            + np.arange(k.sum())
        _, r[nodes], phi[nodes] = np.array(
            [p for c in comps for p in c.curve.nodes], dtype=float).T
        wall[i] = [c.curve.wall_id for c in comps]
        min_expansion[i] = [c.min_expansion for c in comps]
        tail_inv[i] = [c.tail_inv for c in comps]
        tail_from[i] = [c.tail_from for c in comps]
        strip[i] = [c.itinerary[-1][2] for c in comps]
        branch[i] = [c.itinerary[-1][1] for c in comps]
    parent = np.repeat(front, n)
    per_tree = np.bincount(tree, weights=n, minlength=last.ends.size - 1)
    return _Layer(wall, r, phi, start, min_expansion, tail_inv, tail_from,
                  last.regular[parent] & (strip == 0), strip, branch, parent,
                  np.concatenate([[0], np.cumsum(per_tree)]).astype(int))


def _check_depth(n):
    if n < 0:
        raise ValueError(f"depth {n} is negative")
    if n > N_CAP:
        raise ValueError(f"depth {n} exceeds the cap {N_CAP}")


def evolve_n(table: BilliardTable, W: UCurve, n: int, k0: int = K0_DEFAULT,
             constants=None) -> EvolutionTree:
    """Breadth-first component tree of F^n W.

    Tail components are terminal; ``depth_columns`` counts them at every
    later depth.  Raises what ``_grow`` stops the tree with.
    """
    _check_depth(n)
    forest = _Forest.of([_root(W)])
    for _ in range(n):
        _grow(table, forest, k0, constants)
        if forest.stops[0] is not None:
            raise forest.stops[0]
    return forest.tree(0)


def depth_columns(tree: EvolutionTree, constants=None
                  ) -> tuple[list[float], list[int], list[int]]:
    """The expansion sums E_m, regular counts and leaf counts
    (``len(tree.leaves(m))``) at the depths m = 0..depth of the tree.

    The one home of the tail rule: a tail of generation g is a leaf at every
    depth m >= g, where it adds its tail_inv (the ancestry's expansion
    folded in) over ``_remaining_floor`` of the m - g steps left.  E_m adds
    the earlier tails in generation order, then generation m in list order.
    """
    sums, regular, leaves = [], [], []
    tails = []      # (generation, tail_inv) of the tails so far
    for m, gen in enumerate(tree._columns()):
        total = 0.0
        for g, inv in tails:
            total += inv / _remaining_floor(constants, m - g)
        for inv in gen.inv:
            total += inv
        sums.append(total)
        regular.append(gen.regular)
        leaves.append(len(tails) + len(gen.inv))
        tails.extend((m, inv) for inv in gen.tail_inv)
    return sums, regular, leaves


def _grazing_total(inv, grazing) -> float:
    """The sum, in order, of the inv entries whose grazing flag is set."""
    total = 0.0
    for x, flag in zip(inv, grazing):
        if flag:
            total += x
    return total


def grazing_sum(components) -> float:
    """Sum of 1/expansion over the nearly-grazing components: tails and
    pieces whose last step landed outside strip 0."""
    return _grazing_total([c.inv_expansion for c in components],
                          [c.tail or c.itinerary[-1][2] != 0
                           for c in components])


# ---------------------------------------------------------------------------
# fitted constants

@dataclass(frozen=True)
class FittedConstants:
    """Empirical table constants backing the expansion bookkeeping.

    c_expansion: min over samples of (one-step expansion) * cos(phi').
    c_hyper, lam_hyper: n-step Euclidean floor |DF^n v| >= lam^n / c.
    c_length: max observed |W'| / |W|^(1/2) over non-tail one-step
        components.
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
        return asdict(self)


def graze_anchors(table: BilliardTable):
    """Interior nodes of the one-step tangency preimage curves, about 8 per
    branch."""
    anchors = []
    for c in level_minus_one(table, 200):
        if c.origin != "grazing-preimage" or len(c.nodes) < 8:
            continue
        step = max(1, len(c.nodes) // 8)
        anchors.extend(c.nodes[2:-2:step])
    return anchors


# center offsets (in curve lengths) used when seeding astride an anchor;
# varied so the tangency crossing lands at different curve fractions
_ANCHOR_OFFSETS = (0.25, -0.25, 0.1, 0.0, -0.1, 0.35)
GRAZE_STRIDE = 50      # every GRAZE_STRIDE-th length sample sits on an anchor


BOX_SLACK = 1e-9       # relative allowance for rounding in the strip bound


def _image_box(table, arc, sig, s_a, s_b):
    """|dr| + |dphi| between the images at parameters s_a and s_b of one
    primary segment of signature sig, or inf when either probe is cut or
    has another signature.

    The segment's image is one increasing curve (unstable-cone invariance),
    so every image point between the two lies in their (r, phi) box, and a
    child curve over a piece between them, whose nodes make_ucurve keeps
    strictly increasing, is at most this long.  On a closed wall r is
    lifted: it moves the way phi does, by less than one turn.
    """
    got_a, im_a = _probe_at(table, arc, s_a)
    got_b, im_b = _probe_at(table, arc, s_b)
    if got_a != sig or got_b != sig:
        return math.inf
    a, b = im_a.point, im_b.point
    dphi, dr = b.phi - a.phi, b.r - a.r
    wall = table.wall(a.wall_id)
    if wall.closed:
        dr = math.copysign(dr, dphi) % wall.length
    return abs(dr) + abs(dphi)


def _strip_children(table, stop, k0):
    """(cut, child or None) of each strip of a stopped ladder, resuming the
    ladder one cut at a time; a strip runs from the previous cut to this
    one, as in ``_secondary_pieces``.  A ladder that ends without a tail
    has one more strip, from its last cut to the segment edge, which comes
    with cut None: nothing of the ladder is left."""
    parent = _root(stop.arc.W)
    prev = stop.cut0
    while prev is not None:
        try:
            cut = next(stop.ladder)
        except StopIteration as end:
            if end.value:
                return
            cut = None
        to = stop.edge if cut is None else cut
        piece = (min(prev, to), max(prev, to), stop.sig, 0)
        yield cut, _child(table, stop.arc, piece, parent, k0, None)
        prev = cut


def _length_samples(table, rng, samples, delta_lo, delta_hi, k0):
    """(bases, xs, lengths) of the samples of ``certify_length_constant``
    that ``_refusals`` passes: per sample, in order on rng, its length and
    its base point, GRAZE_STRIDE-th bases moved astride an anchor, and,
    when its base passes, its cone position x, as ``seed_ucurve`` would
    draw them.  Raises ValueError when a sample's length is not one that
    ``seed_ucurve`` takes.

    One ``rng.random`` call draws 4 uniforms per sample, as if every base
    passed, and one ``_refusals`` call checks the bases.  A refused base
    draws no x, so every later sample's draws sit one earlier: from there
    its length and base are taken again and checked again, BATCH_ROWS
    samples at a time.
    """
    anchors = graze_anchors(table)
    lo, hi = math.log(delta_lo), math.log(delta_hi)
    u = rng.random(4 * samples)
    bases, xs, lengths = [], [], []
    i = at = 0          # the next sample to check, and its first draw
    n = samples
    while i < samples:
        n = min(n, samples - i)
        draws = u[at:at + 4 * n].reshape(n, 4)
        ls = [math.exp(v) for v in (lo + (hi - lo) * draws[:, 0]).tolist()]
        wid, r, phi = phase_columns(table, draws[:, 1:3].ravel())
        zs = list(map(PhasePoint, wid.tolist(), r.tolist(), phi.tolist()))
        # the anchor samples among i, ..., i + n - 1
        for j in range(-i % GRAZE_STRIDE, n if anchors else 0,
                       GRAZE_STRIDE):
            k = (i + j) // GRAZE_STRIDE
            a = anchors[k % len(anchors)]
            f = _ANCHOR_OFFSETS[k % len(_ANCHOR_OFFSETS)]
            zs[j] = PhasePoint(a.wall_id, a.r + f * ls[j], a.phi + f * ls[j])
        why = _refusals(table, zs, k0)
        ok = next((j for j, w in enumerate(why) if w is not None), n)
        refused = ok < n
        for length in ls[:ok + refused]:
            _check_length(length)
        bases += zs[:ok]
        xs += (0.35 + (0.65 - 0.35) * draws[:ok, 3]).tolist()
        lengths += ls[:ok]
        i, at, n = i + ok + refused, at + 4 * ok + 3 * refused, BATCH_ROWS
    return bases, xs, lengths


def certify_length_constant(table: BilliardTable, samples: int, seed: int,
                            delta_lo: float = 1e-6, delta_hi: float = 1e-3,
                            k0: int = K0_DEFAULT) -> tuple[float, int]:
    """Max of |W'| / |W|^(1/2) over the non-tail one-step components of
    sampled curves.

    Uniformly random curves almost never straddle a tangency preimage, yet
    that is where the square-root stretch law peaks, so the sampled max
    would be a high-variance rare-event statistic.  Every GRAZE_STRIDE-th
    sample is therefore centered astride a traced tangency-preimage anchor
    instead; those samples saturate the constant and the max becomes stable
    under changes of the length range.  The anchor samples still consume
    the same random draws, so the remaining samples are unaffected.  The
    samples' lengths, bases and cone positions come from
    ``_length_samples``; one ``_seed_walks`` call then seeds every sample,
    and one ``_grow`` call steps them all as depth-0 trees.  A sample whose
    step raises is not used, and its stopped ladders are dropped.

    The result is the max over the components of ``evolve_n(table, W, 1)``,
    bit for bit, but strips that cannot set it are not resolved.  Every
    strip ladder is stopped after its first cut cut0, which fixes every
    other piece exactly; children depend on their own piece only.  Its
    unresolved strips lie between cut0 and the ladder's far end (see
    ``_secondary_pieces``), so each strip child is at most B long, B the
    ``_image_box`` of those two parameters.  Pass 1 scores every sample
    with its ladders stopped.  Pass 2 resumes each stopped ladder whose
    B * (1 + BOX_SLACK) reaches best * |W|^(1/2), scoring strip by strip,
    until the box from its latest cut to the far end falls below that or
    the ladder ends.  Tails never score, so a stopped ladder's tail is
    never built.

    Raises NumericalAbort when no curve could be seeded.
    """
    bases, xs, lengths = _length_samples(
        table, Stream([seed, 0xC2]), samples, delta_lo, delta_hi, k0)
    forest = _Forest(_seed_walks(table, bases, xs, lengths)[1])
    stopped = []
    _grow(table, forest, k0, None, stopped)
    # a tree whose step raised gained no generation
    used = [t for t, depth in enumerate(forest.depth) if depth == 1]
    if not used:
        raise NumericalAbort(
            "no curve survived seeding; table constants suspect")
    gen = forest.layers[1]
    best = max([0.0] + [
        forest.curve(1, i).euclidean_length
        / math.sqrt(forest.length[t]) for t in used
        for i in range(gen.ends[t], gen.ends[t + 1]) if not gen.tail_from[i]])
    for stop in stopped:
        root = math.sqrt(stop.arc.W.euclidean_length)
        strips = _strip_children(table, stop, k0)
        cut = stop.cut0
        while cut is not None and _image_box(
                table, stop.arc, stop.sig, cut, stop.far) \
                * (1.0 + BOX_SLACK) >= best * root:
            cut, comp = next(strips, (None, None))
            if _kept(comp):
                best = max(best, comp.curve.euclidean_length / root)
    return best, len(used)


def fit_constants(table: BilliardTable, seed: int, *, k0: int = K0_DEFAULT
                  ) -> FittedConstants:
    """Assemble every constant the expansion reports rely on.

    The expansion, hyperbolicity and length constants are certified on
    10,000, 1,000 and 300 samples.  The growth floor is fitted over depths
    1..10 and the complexity slope at the first two multiple points, or at
    two random points on a table without them.  A multiple point in a
    corner's band (``corner_in_band``) is the corner itself: every probe of
    its portraits would depart from the corner, so it is dropped, and not
    replaced.
    """
    c_exp, _ = certify_expansion_constant(table, 10_000, seed)
    c_hyp, lam, _resid, _mins = certify_hyperbolicity(table, 1000, seed,
                                                      n_max=10)
    c_len, _ = certify_length_constant(table, 300, seed, k0=k0)

    pts = find_multiple_points(table, resolution=200)[:2] \
        if table.corners else []
    centers = [PhasePoint(p.wall_id, p.r, p.phi) for p in pts
               if table.corner_in_band(p.wall_id, p.r) is None]
    if not pts:
        rng = Stream([seed, 0xC3])
        centers = [random_phase_point(table, rng) for _ in range(2)]
    records = []
    for z in centers:
        for got in regular_complexities(table, z, (1, 2, 3), k0):
            if isinstance(got, BilliardError):
                continue
            records.append(got)
    if records:
        xi = fit_complexity_slope(records)
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
    n_source: str   # "select" | "empirical" | "empirical-best" | "given"
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

    def csv_rows(self):
        """One row per used sample and depth, in CSV_HEADER order."""
        for row in self.rows:
            if row["flag"] == "skipped":
                continue
            for n in range(self.n_steps + 1):
                yield (row["sample_id"], row["length"], n, row["leaves"][n],
                       row["k"][n], row["e"][n], row["grazing_sum"])


SEED_TRIES = 200       # random base points tried per seed curve
SCAN_BLOCK = 1024      # curves that sup_scan grows in lockstep
PROBE_SAMPLES = 32     # curves choose_depth grows to pick a depth


def _draw_curves(table, rngs, delta, k0):
    """(tries, seeds): per rng, how many random base points it drew up to
    the first at which ``seed_ucurve`` admits a curve, or None after
    SEED_TRIES refused points; and the ``_Seeds`` of those curves, in rng
    order.

    The rows still without a curve try a base point each in lockstep
    through ``_seeds``.  Each row draws from its own rng in a fixed order,
    so its result does not depend on the other rows.
    """
    tries = [None] * len(rngs)
    rows = list(range(len(rngs)))
    got, parts = [], []
    for k in range(1, SEED_TRIES + 1):
        zs = [random_phase_point(table, rngs[i]) for i in rows]
        why, seeds = _seeds(table, zs, [rngs[i] for i in rows], delta, k0)
        parts.append(seeds)
        for i, w in zip(rows, why):
            if w is None:
                tries[i] = k
                got.append(i)
        rows = [i for i in rows if tries[i] is None]
        if not rows:
            break
    wall, r, phi, _, length = map(np.concatenate, zip(*parts))
    size = np.concatenate([np.diff(p.start) for p in parts])
    seeds = _Seeds(wall, r, phi, np.concatenate([[0], np.cumsum(size)]),
                   length)
    return tries, seeds.take(np.argsort(got))


def _scan_block(table, ids, seed, delta, n, k0, constants):
    """sup_scan's rows of the samples ``ids``, their curves seeded by
    ``_draw_curves`` as the rows of one forest and their trees grown a
    generation at a time by ``_grow``.  Raises the first error other than
    a ComponentExplosion that stopped a tree, in sample order."""
    tries, seeds = _draw_curves(
        table, Stream.each([seed, 1, i] for i in ids), delta, k0)
    forest = _Forest(seeds)
    for _ in range(n):
        _grow(table, forest, k0, constants)
    for stop in forest.stops:
        if stop is not None and not isinstance(stop, ComponentExplosion):
            raise stop
    # each curve's middle node, as [wall, r, phi], and its length
    mid = seeds.start[:-1] + np.diff(seeds.start) // 2
    heads = zip(zip(seeds.wall.tolist(), seeds.r[mid].tolist(),
                    seeds.phi[mid].tolist()), seeds.length.tolist())
    rows, t = [], 0
    for i, k in zip(ids, tries):
        if k is None:
            rows.append({"sample_id": i, "flag": "skipped"})
            continue
        base, length = next(heads)
        rows.append(_row({"sample_id": i, "base": list(base),
                          "length": length, "tries": k}, forest.tree(t),
                         forest.stops[t], n, constants))
        t += 1
    return rows


def _row(row, tree, stop, n, constants):
    """sup_scan's row of a sample, whose fields up to "tries" are in
    ``row``, and whose tree stopped at ``stop``; read from a ``_View``'s
    columns, it builds no component."""
    row["flag"] = "" if stop is None else "explosion"
    sums, regular, leaves = depth_columns(tree, constants)
    depth = len(sums) - 1
    # depths past an explosion have no sum: null in JSON, empty in CSV
    row["e"] = sums + [None] * (n - depth)
    row["k"] = regular + [0] * (n - depth)
    row["leaves"] = leaves + [0] * (n - depth)
    row["grazing_sum"] = tree._grazing_sum() if depth >= 1 else 0.0
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
             threads: int = 0, table_id: str = "") -> ExpansionReport:
    """Empirical supremum of the depth-n expansion sums over seeded curves.

    Sample i draws its curve from its own substream, keyed by (seed, 1, i).
    The samples are grown in blocks of SCAN_BLOCK curves, in lockstep one
    generation at a time, and the blocks are mapped over ``threads``
    workers.  A row is a function of its substream alone, bit for bit
    however many rows each batched map call held, so the report's
    bytes do not depend on ``threads`` or on the blocks; reduction happens
    in sample order.
    """
    if seed is None:
        raise ValueError("a seed is required; suprema must be reproducible")
    n_source = "given"
    if n_steps is None:
        n_steps, n_source = choose_depth(table, delta, k0, seed, constants)
    _check_depth(n_steps)
    blocks = [range(start, min(start + SCAN_BLOCK, samples))
              for start in range(0, samples, SCAN_BLOCK)]

    def work(ids):
        return _scan_block(table, ids, seed, delta, n_steps, k0, constants)

    if threads and threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = [row for block in pool.map(work, blocks) for row in block]
    else:
        rows = [row for ids in blocks for row in work(ids)]

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
        partial=partial, etree_margins=margins, rows=rows)


def choose_depth(table: BilliardTable, delta: float, k0: int,
                 seed: int, constants: FittedConstants | None
                 ) -> tuple[int, str]:
    """Depth from the margin inequality, else smallest empirically working.

    The PROBE_SAMPLES probe curves, probe i drawn from the substream keyed
    by (seed, 0xD0, i), are drawn once and their trees grown together, one
    generation per depth; a tree that explodes or fails at generation g
    drops out of every depth >= g.
    """
    if constants is not None:
        try:
            return select_N(constants), "select"
        except NoSuchN:
            pass
    _, seeds = _draw_curves(table, Stream.each(
        [seed, 0xD0, i] for i in range(PROBE_SAMPLES)), delta, k0)
    # started by evolve_n, whose calls perfbench counts as the probe trees
    roots = (evolve_n(table, _curve_at(seeds, t), 0, k0).root
             for t in range(seeds.wall.size))
    forest = _Forest.of(map(_root, roots))
    best_n, best_sup = N_CAP, math.inf
    first_ok = None
    for n in range(1, N_CAP + 1):
        _grow(table, forest, k0, constants)
        sup = max([0.0] + [
            depth_columns(forest.tree(t), constants)[0][n]
            for t, stop in enumerate(forest.stops) if stop is None])
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
