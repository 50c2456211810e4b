"""Collision-to-collision map on boundary coordinates (r, phi).

Phase points live on the outgoing side of a collision: r is arclength along a
wall, phi in (-pi/2, pi/2) the angle from the inward normal to the outgoing
velocity, positive toward the wall tangent.  Where the map is discontinuous
(corner hits, tangential hits) ``forward`` returns every one-sided limit as a
separate image; regular points return exactly one.

Derivative of one step in (r, phi), with kappa the signed curvature at
departure, kappa' at arrival, tau the full flight length:

    D = -1/cos(phi') * [[tau*kappa + cos(phi),            tau                ],
                        [tau*kappa*kappa' + kappa*cos(phi')
                           + kappa'*cos(phi),             tau*kappa' + cos(phi')]]

so det D = cos(phi)/cos(phi'), and the map preserves cos(phi) dr dphi.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    BilliardError,
    NumericalAbort,
    SectorBoundary,
    SequenceOverflow,
    SingularInput,
    ValidationError,
)
from .flow import EPS_TAN, TAU_FLOOR, Ray, classify_collision, first_collision
from .geometry import (
    EPS_CORNER,
    TWO_PI,
    BilliardTable,
    Corner,
    TableConstants,
)

HALF_PI = math.pi / 2.0
K0_DEFAULT = 30
K_INF = 10 ** 9      # sentinel strip index for phi = +-pi/2 exactly

Matrix2 = tuple[tuple[float, float], tuple[float, float]]


class PhasePoint(NamedTuple):
    wall_id: int
    r: float
    phi: float


class MapImage(NamedTuple):
    point: PhasePoint
    tau: float                    # total free path, through any fly-bys
    label: str                    # regular | left-wall | right-wall | graze | corner-step
    derivative: Matrix2 | None    # None on grazing images (blow-up)
    trail: tuple[str, ...] = ()   # pass:c<id> and graze:w<id> events en route
    grazing: bool = False

    @property
    def branch(self) -> str:
        """The label, followed by ``|`` and the trail when there is one."""
        if not self.trail:
            return self.label
        return self.label + "|" + ",".join(self.trail)


class MapResult(NamedTuple):
    images: tuple[MapImage, ...]

    @property
    def regular(self) -> bool:
        """Whether the map is one plain "regular" step: a smooth image with
        no trail."""
        im = self.smooth
        return im is not None and im.label == "regular" and not im.trail

    @property
    def smooth(self) -> MapImage | None:
        """The image when it is the only one and not grazing, else None."""
        if len(self.images) != 1 or self.images[0].grazing:
            return None
        return self.images[0]


def bisect_edge(keep, good: float, bad: float,
                tol: float) -> tuple[float, float]:
    """Bisect toward the edge where ``keep`` stops holding.

    ``keep(good)`` holds and ``keep(bad)`` does not; either may be the larger
    end.  Halves the gap until it is at most ``tol`` and returns the final
    (good, bad) pair.
    """
    while abs(bad - good) > tol:
        mid = 0.5 * (good + bad)
        if keep(mid):
            good = mid
        else:
            bad = mid
    return good, bad


def involute(p: PhasePoint) -> PhasePoint:
    """Time reversal: flip the outgoing ray back across the normal."""
    return PhasePoint(p.wall_id, p.r, -p.phi)


def flight_derivative(tau: float, kappa0: float, phi0: float,
                      kappa1: float, phi1: float) -> Matrix2:
    c0 = math.cos(phi0)
    c1 = math.cos(phi1)
    f = -1.0 / c1
    if c1 < 1e-6:
        # near grazing the 1/cos blow-up amplifies rounding; keep the sums exact
        m10 = math.fsum((tau * kappa0 * kappa1, kappa0 * c1, kappa1 * c0))
    else:
        m10 = tau * kappa0 * kappa1 + kappa0 * c1 + kappa1 * c0
    return ((f * (tau * kappa0 + c0), f * tau),
            (f * m10, f * (tau * kappa1 + c1)))


def outgoing_ray(table: BilliardTable, p: PhasePoint) -> Ray:
    point, n, t = table.walls[p.wall_id].chart_frame(p.r)
    c, s = math.cos(p.phi), math.sin(p.phi)
    return Ray(point, (c * n[0] + s * t[0], c * n[1] + s * t[1]))


# ---------------------------------------------------------------------------
# forward map

def _reflection_image(wall, r_img, v_in, tau, kappa0, phi0, label, trail):
    # the frame wall.frame_at(r_img), the mirror image v_in - 2 (v_in . n) n
    # and the angle of v_out from n toward t, inline
    o = wall.orientation
    th = wall.theta_start + o * r_img / wall.radius
    ct, st = math.cos(th), math.sin(th)
    tx, ty = -o * st, o * ct
    nx, ny = -ty, tx
    dx, dy = v_in
    dn = dx * nx + dy * ny
    vx, vy = dx - 2.0 * dn * nx, dy - 2.0 * dn * ny
    phi1 = math.atan2(vx * tx + vy * ty, vx * nx + vy * ny)
    if abs(phi1) >= HALF_PI - EPS_TAN:
        phi1 = math.copysign(HALF_PI, phi1)
        return MapImage(point=PhasePoint(wall.wall_id, r_img, phi1), tau=tau,
                        label="graze", derivative=None, trail=trail,
                        grazing=True)
    deriv = flight_derivative(tau, kappa0, phi0, wall.kappa, phi1)
    return MapImage(point=PhasePoint(wall.wall_id, r_img, phi1), tau=tau,
                    label=label, derivative=deriv, trail=trail)


def _graze_image(wall, r_img, v_in, tau, trail) -> MapImage:
    _, n, t = wall.frame_at(r_img)
    phi1 = math.copysign(HALF_PI, v_in[0] * t[0] + v_in[1] * t[1])
    return MapImage(point=PhasePoint(wall.wall_id, r_img, phi1), tau=tau,
                    label="graze", derivative=None, trail=trail, grazing=True)


def _corner_wall_frames(table: BilliardTable, corner: Corner):
    """Tangent/normal limits of both walls at the corner point.

    Returns {wall_id: (tangent_extent, normal)} where tangent_extent points
    from the corner along the wall body.
    """
    wl = table.walls[corner.left_wall_id]
    wr = table.walls[corner.right_wall_id]
    _, n_l, t_l = wl.frame_at(wl.length)
    _, n_r, t_r = wr.frame_at(0.0)
    return {
        corner.left_wall_id: ((-t_l[0], -t_l[1]), n_l),
        corner.right_wall_id: (t_r, n_r),
    }


def _fly(table, ray, kappa0, phi0, tau_acc, trail, depth) -> list[MapImage]:
    if depth > table.sequence_cap + 8:
        raise SequenceOverflow("too many fly-by/grazing events in one flight")
    oc = first_collision(table, ray)
    tau = tau_acc + oc.tau
    v = ray.direction

    if oc.kind == "regular":
        w = table.walls[oc.wall_id]
        return [_reflection_image(w, oc.r, v, tau, kappa0, phi0, "regular",
                                  trail)]

    if oc.kind == "grazing":
        w = table.walls[oc.wall_id]
        images = [_graze_image(w, oc.r, v, tau, trail)]
        cont = Ray(oc.point, v)
        images += _fly(table, cont, kappa0, phi0, tau,
                       trail + (f"graze:w{oc.wall_id}",), depth + 1)
        return images

    # corner hit: one image per wall the velocity presses into, a clamped
    # grazing image for a tangent wall, and for improper hits the fly-by
    corner = table.corners[oc.corner_id]
    frames = _corner_wall_frames(table, corner)
    images = []
    for wall_id, (ext, n) in frames.items():
        press = v[0] * n[0] + v[1] * n[1]
        w = table.walls[wall_id]
        r_img = w.length if wall_id == corner.left_wall_id else 0.0
        label = ("left-wall" if wall_id == corner.left_wall_id
                 else "right-wall")
        if press < -EPS_TAN:
            images.append(_reflection_image(w, r_img, v, tau, kappa0,
                                            phi0, label, trail))
        elif abs(press) <= EPS_TAN and v[0] * ext[0] + v[1] * ext[1] > 0.0:
            images.append(_graze_image(w, r_img, v, tau, trail))
    if oc.properness == "improper":
        cont = Ray(oc.point, v)
        images += _fly(table, cont, kappa0, phi0, tau,
                       trail + (f"pass:c{oc.corner_id}",), depth + 1)
    if not images:
        raise SingularInput(
            f"corner arrival at corner {oc.corner_id} admits no continuation")
    return images


def forward(table: BilliardTable, p: PhasePoint) -> MapResult:
    """All one-sided limits of the next collision from phase point p.

    Raises SingularInput for |phi| = pi/2 and for corner-endpoint departures
    aimed within EPS_TAN of the wedge boundary; departures pressing into the
    adjacent wall resolve as an immediate zero-length collision, so corner
    reflection chains can be stepped through image by image.
    """
    if abs(p.phi) >= HALF_PI:
        raise SingularInput("departure tangent to the wall")
    wall = table.walls[p.wall_id]
    ray = outgoing_ray(table, p)
    v = ray.direction

    cid = table.corner_in_band(p.wall_id, p.r)
    if cid is not None:
        corner = table.corners[cid]
        try:
            # a velocity in the external sector presses into the other wall
            into_wall = classify_collision(corner, v) == "proper"
        except SectorBoundary:
            raise SingularInput(
                f"corner departure aimed along the wedge boundary at corner "
                f"{cid}") from None
        if into_wall:
            # immediate collision with the other wall of the corner
            other_id = table.other_wall_at(cid, wall.wall_id)
            other = table.walls[other_id]
            r_img = other.length if other_id == corner.left_wall_id else 0.0
            img = _reflection_image(other, r_img, v, 0.0, wall.kappa, p.phi,
                                    "corner-step", ())
            return MapResult((img,))
        ray = Ray(corner.position, v)

    images = _fly(table, ray, wall.kappa, p.phi, 0.0, (), 0)
    return MapResult(tuple(images))


def inverse(table: BilliardTable, p: PhasePoint) -> MapResult:
    """Backward map via time reversal; derivatives are conjugated to match."""
    res = forward(table, involute(p))
    out = []
    for im in res.images:
        d = im.derivative
        if d is not None:
            d = ((d[0][0], -d[0][1]), (-d[1][0], d[1][1]))
        out.append(im._replace(point=involute(im.point), derivative=d))
    return MapResult(tuple(out))


# ---------------------------------------------------------------------------
# batched regular step

# most points that plain_rows maps in one block
BATCH_ROWS = 512
# fewest points in a block for which plain_rows calls its kernel
# _regular_block: on random tri points the kernel costs 465 us at 1 row,
# 26-32 us per row at 16, 10-18 us per row at 32, 9-11 us per row at 64 and
# 2.1-3.1 us per row at 512, against 12-16 us per forward call (2-core
# x86-64 host, Python 3.11.7), so the two break even near 32 rows
BATCH_MIN = 32


def _each(fn, *cols) -> np.ndarray:
    """``fn`` (from ``math``, or ``pow``) applied element by element, as a
    float array."""
    return np.fromiter(map(fn, *(c.tolist() for c in cols)), float,
                       cols[0].size)


class RegularRows(NamedTuple):
    """Plain "regular" images as arrays over the points mapped, in point
    order (``plain_rows``)."""
    rows: np.ndarray        # index of each mapped point
    wall_id: np.ndarray
    r: np.ndarray
    phi: np.ndarray
    tau: np.ndarray
    derivative: np.ndarray  # shape (len(rows), 2, 2)

    def images(self, picks) -> list[MapImage]:
        """The MapImage of each entry ``picks`` selects from the arrays."""
        (a, b), (c, d) = self.derivative[picks].transpose(1, 2, 0)
        return [MapImage(PhasePoint(w, r, phi), tau, "regular",
                         ((a, b), (c, d)))
                for w, r, phi, tau, a, b, c, d in zip(*(x.tolist() for x in (
                    self.wall_id[picks], self.r[picks], self.phi[picks],
                    self.tau[picks], a, b, c, d)))]


def _wall_columns(table) -> np.ndarray:
    """Per wall, (theta_start, orientation, radius, kappa, length, closed,
    span, centre x, centre y) as one float array."""
    return np.array([(w.theta_start, w.orientation, w.radius, w.kappa,
                      w.length, w.closed, w.span, *w.center)
                     for w in table.walls], dtype=float)


def _departures(cols, r, phi):
    """``outgoing_ray`` over arrays, in its operation order: per row, the
    origin (ox, oy) and the unit direction (dx, dy) of the ray at angle phi
    from r, and cos(phi).  Each row of cols is the ``_wall_columns`` row of
    its departure wall, and r is wrapped or clamped as ``chart_frame``
    does."""
    ts, o, R, _, L, closed, _, cx, cy = cols.T
    r = np.where(closed > 0.0, np.remainder(r, L),
                 np.minimum(np.maximum(r, 0.0), L))
    th = ts + o * r / R
    ct, st = _each(math.cos, th), _each(math.sin, th)
    tx, ty = -o * st, o * ct
    c, s = _each(math.cos, phi), _each(math.sin, phi)
    return cx + R * ct, cy + R * st, c * -ty + s * tx, c * tx + s * ty, c


def point_columns(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The wall ids, r and phi of a list of phase points, as three arrays."""
    a = np.array(points, dtype=float).reshape(-1, 3)
    return a[:, 0].astype(int), a[:, 1], a[:, 2]


def _regular_block(table, rows, wall_ids, r, phi) -> RegularRows:
    """``plain_rows`` of the points ``rows`` of a plane table, as far as
    the regular path of ``forward`` maps them; the kernel that ``plain_rows``
    runs on each block of BATCH_MIN points or more.

    The points go through that path all at once: numpy does the + - * /,
    sqrt, comparisons and remainders in the scalar code's order, so every
    image given is bit-identical to ``forward``'s, and each transcendental
    goes through ``math`` one element at a time, since numpy's arctan2 and
    hypot differ from math's in the last bit.  Declined, for ``plain_rows``
    to resolve with ``forward``: |phi| >= pi/2, departures and arrivals
    within EPS_CORNER of a wall end, grazing hits and images, cos(phi') <
    1e-6 (where ``flight_derivative`` sums exactly), and rays that meet no
    wall.  The torus, whose flights cross lattice cells, has no such path.
    """
    walls = table.walls
    wid, r, phi = wall_ids[rows], r[rows], phi[rows]
    cols = _wall_columns(table)

    # departure: outgoing_ray, where corner_in_band is None
    L, closed = cols[wid, 4], cols[wid, 5] > 0.0
    keep = np.abs(phi) < HALF_PI
    keep &= np.where(closed, np.isfinite(r),
                     (r > EPS_CORNER) & (r < L - EPS_CORNER))
    rows, wid, r, phi = (a[keep] for a in (rows, wid, r, phi))
    kap = cols[wid, 3]
    ox, oy, dx, dy, c = _departures(cols[wid], r, phi)

    # first_collision: the nearest admissible root over the walls in order
    best_t = np.full(rows.size, np.inf)
    best_w = np.zeros(rows.size, dtype=int)
    best_ddn = np.zeros(rows.size)
    best_th = np.zeros(rows.size)
    for w in walls:
        # the (0, 0) cell offset of first_collision, signed zeros included
        wx, wy, wr = w.center[0] + 0, w.center[1] + 0, w.radius
        ux, uy = ox - wx, oy - wy
        b = dx * ux + dy * uy
        cc = ux * ux + uy * uy - wr * wr
        disc = b * b - cc
        meets = disc >= 0.0
        sq = np.sqrt(np.where(meets, disc, 0.0))
        q = np.where(b >= 0.0, -(b + sq), -(b - sq))
        meets &= q != 0.0
        for t in (q, cc / np.where(meets, q, 1.0)):
            ddn = -w.orientation * (b + t) / wr
            idx = np.flatnonzero(meets & (t > TAU_FLOOR) & (ddn <= EPS_TAN)
                                 & (t < best_t))
            if not idx.size:
                continue
            theta = _each(math.atan2, oy[idx] + t[idx] * dy[idx] - wy,
                          ox[idx] + t[idx] * dx[idx] - wx)
            if not w.closed:
                u = np.remainder(w.orientation * (theta - w.theta_start),
                                 TWO_PI)
                slack = EPS_CORNER / wr
                on = (u <= w.span + slack) | (u >= TWO_PI - slack)
                idx, theta = idx[on], theta[on]
            best_t[idx] = t[idx]
            best_w[idx] = w.wall_id
            best_ddn[idx] = ddn[idx]
            best_th[idx] = theta
    keep = np.isfinite(best_t) & (np.abs(best_ddn) > EPS_TAN)
    # arrival: r_from_angle, where corner_in_band is None
    ts, o, R, kap1, L, closed, span = cols[best_w].T[:7]
    u = np.remainder(o * (best_th - ts), TWO_PI)
    u = np.where(u > span, np.where(TWO_PI - u < u - span, 0.0, span), u)
    r1 = u * R
    r1 = np.where(0.0 > r1, 0.0, r1)
    r1 = np.where(L < r1, L, r1)
    keep &= (closed > 0.0) | ((r1 > EPS_CORNER) & (r1 < L - EPS_CORNER))
    rows, wid1, r1, tau, c0, kap, kap1, ts, o, R, dx, dy = (
        a[keep] for a in (rows, best_w, r1, 0.0 + best_t, c, kap, kap1, ts,
                          o, R, dx, dy))

    # _reflection_image and flight_derivative (cos(phi0) is the c above)
    th = ts + o * r1 / R
    ct, st = _each(math.cos, th), _each(math.sin, th)
    tx, ty = -o * st, o * ct
    nx, ny = -ty, tx
    dn = dx * nx + dy * ny
    vx, vy = dx - 2.0 * dn * nx, dy - 2.0 * dn * ny
    phi1 = _each(math.atan2, vx * tx + vy * ty, vx * nx + vy * ny)
    c1 = _each(math.cos, phi1)
    keep = (np.abs(phi1) < HALF_PI - EPS_TAN) & (c1 >= 1e-6)
    f = -1.0 / np.where(keep, c1, 1.0)
    m10 = tau * kap * kap1 + kap * c1 + kap1 * c0
    deriv = np.stack([f * (tau * kap + c0), f * tau, f * m10,
                      f * (tau * kap1 + c1)], axis=1).reshape(-1, 2, 2)
    return RegularRows(rows[keep], wid1[keep], r1[keep], phi1[keep],
                       tau[keep], deriv[keep])


def plain_rows(table: BilliardTable, wall_ids, r, phi) -> RegularRows:
    """``forward``'s image at each point (wall_ids[i], r[i], phi[i]) that it
    maps by one plain regular step (no trail, not grazing), as arrays over
    those points in point order; a point where ``forward`` raises has none.

    The one choice between the batched and the scalar map.  It works
    BATCH_ROWS points at a time: on a plane table a block of BATCH_MIN
    points or more goes through the kernel ``_regular_block`` first, and
    ``forward`` maps the points it declines, in point order; a smaller
    block, and every block on the torus, goes to ``forward`` alone.  The
    two agree bit for bit wherever the kernel answers, so the choice moves
    no number.  Both write into one buffer over all the points, whose rows
    with an answer are the result.
    """
    wid = np.asarray(wall_ids, dtype=int)
    r, phi = np.asarray(r, dtype=float), np.asarray(phi, dtype=float)
    batched = table.ambient == "plane"
    # per point: image wall id, r, phi, tau and the derivative's entries
    out = np.zeros((wid.size, 8))
    have = np.zeros(wid.size, dtype=bool)
    for start in range(0, wid.size, BATCH_ROWS):
        rows = np.arange(start, min(start + BATCH_ROWS, wid.size))
        if batched and rows.size >= BATCH_MIN:
            got = _regular_block(table, rows, wid, r, phi)
            out[got.rows] = np.column_stack(
                (got.wall_id, got.r, got.phi, got.tau,
                 got.derivative.reshape(-1, 4)))
            have[got.rows] = True
            rows = rows[~have[rows]]
        for i, p in zip(rows.tolist(), map(
                PhasePoint, wid[rows].tolist(), r[rows].tolist(),
                phi[rows].tolist())):
            try:
                res = forward(table, p)
            except BilliardError:
                continue
            if res.regular:
                im = res.images[0]
                out[i] = (*im.point, im.tau, *im.derivative[0],
                          *im.derivative[1])
                have[i] = True
    rows = np.flatnonzero(have)
    out = out[rows]
    return RegularRows(rows, out[:, 0].astype(int), out[:, 1], out[:, 2],
                       out[:, 3], out[:, 4:].reshape(-1, 2, 2))


# ---------------------------------------------------------------------------
# single-branch certificate

# margin of single_branch, in length units (see its docstring)
SINGLE_BRANCH_MU = 1e-8


def single_branch(table: BilliardTable, wall_ids, r_lo, r_hi, phi_lo,
                  phi_hi) -> np.ndarray:
    """Per row i, True only if every phase point of the box [r_lo[i],
    r_hi[i]] x [phi_lo[i], phi_hi[i]] on wall ``wall_ids[i]`` maps by one
    regular, non-grazing branch to one wall; a bool array.

    A sound certificate: True proves it, False proves nothing.  Plane tables
    only; on the torus the answer is always False.  Each row is decided
    alone: numpy does the + - * / and comparisons in the order of the
    one-box arithmetic below, and cos, sin and hypot go through ``math``
    one element at a time, as in ``plain_rows``' kernel ``_regular_block``.

    Proof.  Over the box the departure point O(r) and the unit velocity
    u(r, phi), at angle phi from the wall normal, stay near their values
    O_c, u_c at the box centre: with half-widths dr, dphi and the departure
    wall's curvature kappa, |O - O_c| <= dr (a chord is no longer than its
    arc) and |u - u_c| <= |kappa| dr + dphi (the normal turns at rate
    |kappa|).  So for any point X, the offset cross(u, X - O) of X from the
    ray's line and its position dot(u, X - O) along the ray both stay within

        E_X = |X - O_c| (|kappa| dr + dphi) + dr

    of their values at the centre.  ``flow.first_collision`` takes the
    nearest root t > TAU_FLOOR of the ray with a wall circle that arrives
    against the wall normal (d.n <= EPS_TAN) within EPS_CORNER of the arc.
    The box is connected and the roots move continuously with the point, so
    the wall hit first, and the kind of the hit, can change only where

    1. a ray line becomes tangent to a wall circle: a root appears or
       vanishes, or its d.n reaches 0 (a grazing hit);
    2. a ray line passes through a corner: a hit leaves its arc, since every
       arc end lies within EPS_JOIN / 2 of a corner;
    3. a ray line passes through a point on two arcs, where two admissible
       hits meet: a corner, or a crossing of walls (``table.crossings``);
    4. the departure point reaches another wall's circle, where a root
       crosses TAU_FLOOR (the departure wall's own root at t = 0 arrives
       with d.n = cos(phi) > 0 and is never admissible);
    5. the departure point reaches a wall end (``forward`` then departs from
       the corner), or |phi| reaches pi/2.

    With MU = SINGLE_BRANCH_MU, the certificate excludes each of them over
    the whole box by requiring at the centre

    - for every wall circle (centre C, radius R): | |g| - R | > E_C + MU,
      where g = cross(u_c, C - O_c) is the signed distance from C to the line;
    - for every corner and crossing X: |cross(u_c, X - O_c)| > E_X + MU, or
      X lies behind the origin, dot(u_c, X - O_c) < -(E_X + MU);
    - for every other wall: | |C - O_c| - R | > dr + MU;
    - r more than MU from the ends of an open departure wall, and
      |phi| < pi/2 - MU.

    Then every image has the centre's wall, and it is regular: a corner hit
    lies within EPS_CORNER + EPS_JOIN / 2 < MU of a corner on the line, and
    a line at least MU clear of tangency crosses a circle with
    |d.n| = sqrt(R^2 - g^2) / R >= sqrt(MU / R) >= 1e-7 > EPS_TAN, since
    R <= SPEC_LIMIT.  MU dominates the tolerances it must: EPS_CORNER and
    EPS_JOIN (above), EPS_TAN (above, and cos(phi) >= sin(MU) at departure),
    TAU_FLOOR (roots of other circles have |t| > MU), and the rounding of
    the collision kernel, which stays below EPS_JOIN for coordinates at
    SPEC_LIMIT scale (as does a node interpolated an ulp outside the box).
    """
    wid = np.asarray(wall_ids, dtype=int)
    r_lo, r_hi, phi_lo, phi_hi = (np.asarray(a, dtype=float)
                                  for a in (r_lo, r_hi, phi_lo, phi_hi))
    if table.ambient != "plane" or not wid.size:
        return np.zeros(wid.size, dtype=bool)
    mu = SINGLE_BRANCH_MU
    cols = _wall_columns(table)[wid]
    kap, L, closed = cols[:, 3], cols[:, 4], cols[:, 5] > 0.0
    # each test below negates the one-box refusal, so that NaN refuses
    # nothing here either
    a_lo, a_hi = np.abs(phi_lo), np.abs(phi_hi)
    held = ~(np.where(a_hi > a_lo, a_hi, a_lo) >= HALF_PI - mu)
    held &= closed | ~((r_lo <= mu) | (r_hi >= L - mu))
    dr = 0.5 * (r_hi - r_lo)
    turn = np.abs(kap) * dr + 0.5 * (phi_hi - phi_lo)
    # outgoing_ray at the box centre
    ox, oy, ux, uy, _ = _departures(cols, 0.5 * (r_lo + r_hi),
                                    0.5 * (phi_lo + phi_hi))
    for i, w in enumerate(table.walls):
        vx, vy = w.center[0] - ox, w.center[1] - oy
        dist = _each(math.hypot, vx, vy)
        e = dist * turn + dr + mu
        held &= ~(np.abs(np.abs(ux * vy - uy * vx) - w.radius) <= e)
        held &= (wid == i) | ~(np.abs(dist - w.radius) <= dr + mu)
    for x, y in (*(k.position for k in table.corners), *table.crossings):
        vx, vy = x - ox, y - oy
        e = _each(math.hypot, vx, vy) * turn + dr + mu
        held &= ~((np.abs(ux * vy - uy * vx) <= e) & (ux * vx + uy * vy >= -e))
    return held


# ---------------------------------------------------------------------------
# orbits

@dataclass(frozen=True)
class OrbitResult:
    start: PhasePoint
    images: tuple[MapImage, ...]  # the image taken at each completed step
    status: str                   # ok | branched | grazed | singular
    error: str = ""               # BilliardError type that made it singular
    split: tuple[MapImage, ...] = ()  # the images of the step that branched


def orbit(table: BilliardTable, p: PhasePoint, n: int) -> OrbitResult:
    """Iterate while the evolution stays single-valued and non-grazing.

    The one walk of n map steps along an orbit.  A branched step keeps its
    images in ``split`` only; a grazing image is kept and ends the walk.
    """
    images = []
    cur = p
    for _ in range(n):
        try:
            res = forward(table, cur)
        except BilliardError as err:
            return OrbitResult(p, tuple(images), "singular", type(err).__name__)
        if len(res.images) > 1:
            return OrbitResult(p, tuple(images), "branched",
                               split=res.images)
        im = res.images[0]
        images.append(im)
        if im.grazing:
            return OrbitResult(p, tuple(images), "grazed")
        cur = im.point
    return OrbitResult(p, tuple(images), "ok")


def regular_steps(table: BilliardTable, wall_ids, r, phi, n: int):
    """Walk the points (wall_ids[i], r[i], phi[i]) n steps in lockstep, and
    yield per step the ``plain_rows`` of the rows whose steps so far were
    all one plain "regular" image (``MapResult.regular``), as ``orbit``
    walks them, with ``rows`` indexing the points given.

    Each step is one ``plain_rows`` call over the rows still walking; a
    row that is not regular leaves the walk.
    """
    rows = np.arange(len(wall_ids))
    for _ in range(n):
        got = plain_rows(table, wall_ids, r, phi)
        rows = rows[got.rows]
        yield got._replace(rows=rows)
        wall_ids, r, phi = got.wall_id, got.r, got.phi


# ---------------------------------------------------------------------------
# homogeneity strips

# recovering u = pi/2 - |phi| from a phi that was itself built by subtracting
# from pi/2 loses ~1 ulp of pi/2; snap that dust onto the closed boundary side
_EDGE_SNAP = 1e-14


def strip_index(phi: float, k0: int = K0_DEFAULT) -> int:
    """Signed strip index: 0 away from tangency, else k with
    pi/2 - |phi| in [1/(k+1)^2, 1/k^2), sign following phi."""
    u = HALF_PI - abs(phi)
    if u <= 0.0:
        return K_INF if phi > 0 else -K_INF
    if u + _EDGE_SNAP >= 1.0 / (k0 * k0):
        return 0
    x = 1.0 / math.sqrt(u)
    k = math.ceil(x) - 1
    # float guard: enforce membership exactly
    while u < 1.0 / ((k + 1) * (k + 1)):
        k += 1
    while k > k0 and u >= 1.0 / (k * k):
        k -= 1
    if k > k0 and u + _EDGE_SNAP >= 1.0 / (k * k):
        k -= 1
    if k < k0:
        k = k0
    return k if phi > 0 else -k


# ---------------------------------------------------------------------------
# expansion helpers

def expansion_factor(deriv: Matrix2, slope: float) -> float:
    """Euclidean stretch of a unit vector of given dphi/dr slope."""
    if math.isinf(slope):
        vx, vy = 0.0, 1.0
    else:
        h = math.hypot(1.0, slope)
        vx, vy = 1.0 / h, slope / h
    (a, b), (c, d) = deriv
    return math.hypot(a * vx + b * vy, c * vx + d * vy)


def slope_norms(m: np.ndarray) -> np.ndarray:
    """math.hypot(1.0, m) for each slope in the array m, in m's shape: the
    length of the vector (1, m)."""
    return _each(math.hypot, np.ones(m.size), m.ravel()).reshape(m.shape)


def expansion_factors(derivs: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """``expansion_factor(derivs[i], slopes[i])`` for every i, bit for bit:
    derivs has shape slopes.shape + (2, 2), and hypot goes through ``math``
    one element at a time."""
    shape, slopes = slopes.shape, slopes.ravel()
    up = np.isinf(slopes)
    m = np.where(up, 0.0, slopes)
    h = slope_norms(m)
    vx, vy = np.where(up, 0.0, 1.0 / h), np.where(up, 1.0, m / h)
    a, b, c, d = derivs.reshape(-1, 4).T
    return _each(math.hypot, a * vx + b * vy,
                 c * vx + d * vy).reshape(shape)


# ---------------------------------------------------------------------------
# sampling

# numpy's SeedSequence (bit_generator.pyx) feeding its PCG64 with XSL-RR
# output (O'Neill 2014; pcg64.h), ported draw for draw
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _words(key) -> list[int]:
    """The ints of the key, each as its little-endian 32-bit words; 0 is
    one word."""
    words = []
    for n in map(operator.index, key):
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & _M32)
        while n := n >> 32:
            words.append(n & _M32)
    return words


def _seed_words(keys_words) -> list[list[int]]:
    """Per key, given as its ``_words``, SeedSequence's
    ``generate_state(4, uint64)``: the words (s0, s1, q0, q1).

    mix_entropy hashes the words into a pool of 4 (words past the fourth
    are mixed into every pool word), and generate_state hashes the pool
    into 8 32-bit words, joined in little-endian pairs.  The keys of one
    word count go together, one uint64 array row each: every product is of
    two 32-bit values, so it is exact, and every result is masked to 32
    bits.  The hash constants that hashmix steps through depend only on
    how many words a key has, not on their values.
    """
    m32, shift = np.uint64(_M32), np.uint64(16)
    out = [None] * len(keys_words)
    groups = {}
    for i, words in enumerate(keys_words):
        groups.setdefault(len(words), []).append(i)
    for n, rows in groups.items():
        w = np.zeros((len(rows), max(n, _POOL)), dtype=np.uint64)
        w[:, :n] = [keys_words[i] for i in rows]
        h = _INIT_A

        def hashmix(value):
            nonlocal h
            value = value ^ np.uint64(h)
            h = h * _MULT_A & _M32
            value = value * np.uint64(h) & m32
            return value ^ value >> shift

        def mix(x, y):
            x = (np.uint64(_MIX_L) * x - np.uint64(_MIX_R) * y) & m32
            return x ^ x >> shift

        pool = [hashmix(w[:, i]) for i in range(_POOL)]
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for i in range(_POOL, n):
            for dst in range(_POOL):
                pool[dst] = mix(pool[dst], hashmix(w[:, i]))
        h, half = _INIT_B, []
        for i in range(2 * _POOL):
            v = pool[i % _POOL] ^ np.uint64(h)
            h = h * _MULT_B & _M32
            v = v * np.uint64(h) & m32
            half.append(v ^ v >> shift)
        state = np.stack([half[i] | half[i + 1] << np.uint64(32)
                          for i in range(0, 8, 2)], axis=1)
        for i, words in zip(rows, state.tolist()):
            out[i] = words
    return out


class Stream:
    """The draws of numpy's ``default_rng(SeedSequence(key))``, bit for
    bit, for the three calls that billexp makes; key is a sequence of
    non-negative ints.

    Seeding is SeedSequence's (``_seed_words``).  Its four 64-bit words
    are PCG64's initial state (high, low) and its stream (high, low), set
    as ``pcg_setseq_128_srandom_r`` does.  Each draw steps the 128-bit LCG
    and outputs the xor of the state's halves rotated right by its top 6
    bits; a float is the top 53 bits of that times 2^-53.
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, key):
        self._seed(*_seed_words([_words(key)])[0])

    def _seed(self, s0, s1, q0, q1):
        """Set PCG64's state and stream from the four 64-bit words."""
        self._inc = (q0 << 64 | q1) << 1 & _M128 | 1
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT
                       + self._inc) & _M128

    @classmethod
    def each(cls, keys) -> list:
        """``[cls(key) for key in keys]``, the keys seeded together by
        ``_seed_words``."""
        out = []
        for words in _seed_words([_words(key) for key in keys]):
            stream = cls.__new__(cls)
            stream._seed(*words)
            out.append(stream)
        return out

    def _next53(self) -> int:
        """The top 53 bits of the next output."""
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        rot = s >> 122
        return ((x >> rot | x << (64 - rot)) & _M64) >> 11

    def random(self, size: int | None = None):
        """A float in [0, 1), or an array of ``size`` of them in draw
        order."""
        if size is None:
            return self._next53() * 2.0 ** -53
        # ints below 2^53 convert exactly, and 2^-53 scales exactly
        return np.array([self._next53() for _ in range(size)],
                        dtype=float) * 2.0 ** -53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()


def random_phase_point(table: BilliardTable, rng) -> PhasePoint:
    """Draw from the invariant collision measure cos(phi) dr dphi: one
    uniform picks the arclength over all walls, the next sin(phi)."""
    lengths = [w.length for w in table.walls]
    x = rng.random() * sum(lengths)
    for w, L in zip(table.walls, lengths):
        if x <= L or w is table.walls[-1]:
            r = min(x, L)
            break
        x -= L
    return PhasePoint(w.wall_id, r, math.asin(2.0 * rng.random() - 1.0))


def random_phase_points(table: BilliardTable, rng, count: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` draws of random_phase_point as columns (wall ids, r, phi),
    from one call of rng.random, bit for bit."""
    return phase_columns(table, rng.random(2 * count))


def phase_columns(table: BilliardTable, u
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns (wall ids, r, phi) of the points that random_phase_point
    draws from the uniforms u, two per point in draw order, bit for bit."""
    count = u.size // 2
    lengths = [w.length for w in table.walls]
    x = u[::2] * sum(lengths)
    wid = np.zeros(count, dtype=int)
    r = np.zeros(count)
    left = np.ones(count, dtype=bool)
    for w, L in zip(table.walls, lengths):
        here = left & ((x <= L) | (w is table.walls[-1]))
        wid[here], r[here] = w.wall_id, np.minimum(x[here], L)
        left &= ~here
        x = x - L
    return wid, r, _each(math.asin, 2.0 * u[1::2] - 1.0)


# ---------------------------------------------------------------------------
# operative cones

def unstable_cones(table: BilliardTable, wall_ids, r, phi):
    """The operative unstable cone at each point (wall_ids[i], r[i], phi[i])
    that has one, as (rows, lo, hi): the indices of those points in order,
    and the lower and upper edge slopes of their cones.

    A point z has a cone when ``forward`` maps involute(z) by one plain
    regular step (``plain_rows``), of flight tau from angle phi0 on a wall
    of curvature kappa0 to z's angle phi1 on a wall of curvature kappa1:
    the image under that step's derivative of the upward cone
    0 <= dphi/dr <= inf, with the edges

        kappa1 + kappa0 cos(phi1) / (tau kappa0 + cos(phi0)),
        kappa1 + cos(phi1) / tau    (inf when tau = 0),

    in that operation order, with cos through ``math``.  Both stay positive
    on dispersing walls, so the cone family is forward invariant.  The rare
    z where the flat direction maps to a vertical one (tau * kappa0 +
    cos(phi0) == 0) has none either; so every lo is finite, and so is
    every hi but the inf of a zero-length flight.
    """
    wid = np.asarray(wall_ids, dtype=int)
    r, phi = np.asarray(r, dtype=float), np.asarray(phi, dtype=float)
    back = plain_rows(table, wid, r, -phi)
    kappa = np.array([w.kappa for w in table.walls])
    tau, kappa0, kappa1 = back.tau, kappa[back.wall_id], kappa[wid[back.rows]]
    c0 = _each(math.cos, -back.phi)
    c1 = _each(math.cos, phi[back.rows])
    den = tau * kappa0 + c0
    has = den != 0.0
    lo = kappa1[has] + kappa0[has] * c1[has] / den[has]
    tau, kappa1, c1 = tau[has], kappa1[has], c1[has]
    flies = tau > 0.0
    hi = np.where(flies, kappa1 + c1 / np.where(flies, tau, 1.0), math.inf)
    swap = ~(lo <= hi)
    return (back.rows[has], np.where(swap, hi, lo), np.where(swap, lo, hi))


def interior_slope(lo, hi, x=0.5) -> np.ndarray:
    """A slope strictly inside (lo[i], hi[i]) for each i, for arrays lo and
    hi; x in (0,1), one number or one per row, picks the position.  numpy
    in the one-row operation order, with ** through Python per element."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    x = np.broadcast_to(np.asarray(x, dtype=float), lo.shape)
    hi = np.where(np.isinf(hi), 10.0 * lo + 1.0, hi)
    out = lo + x * (hi - lo)
    up = ~(lo <= 0.0)
    out[up] = lo[up] * _each(pow, hi[up] / lo[up], x[up])
    return out


# ---------------------------------------------------------------------------
# sampled constants: empirical floors, not certified bounds

def estimate_constants(table: BilliardTable, samples: int = 20_000,
                       seed: int | None = None) -> TableConstants:
    """Monte-Carlo refinement of the table constants.

    Samples random phase points, runs 8-step orbits, and records the maximal
    free path and the minimal free path between consecutive near-improper
    collisions (|phi| within 0.05 of grazing, or a hit near a non-acute
    corner).  Falls back to the minimal sampled flight when no consecutive
    pair occurs.  Seed is required for reproducibility; a table whose
    orbits keep failing raises ValidationError.
    """
    if seed is None:
        raise ValueError("estimate_constants requires an explicit seed")
    rng = Stream([seed, 0x7ab1e])
    tau_hi = 0.0
    tau_lo = math.inf
    gap_min = math.inf
    count = 0
    attempts = 0
    while count < samples:
        attempts += 1
        if attempts > 4 * samples + 100:
            raise ValidationError(
                "orbit sampling kept failing; table unusable")
        z = random_phase_point(table, rng)
        prev_improper_depth = None
        depth = 0.0
        for img in orbit(table, z, 8).images:
            tau_hi = max(tau_hi, img.tau)
            if img.tau > 1e-9:
                tau_lo = min(tau_lo, img.tau)
            depth += img.tau
            near_improper = (
                abs(img.point.phi) > math.pi / 2 - 0.05
                or any(ev.startswith(("pass:", "graze:")) for ev in img.trail))
            if near_improper:
                if prev_improper_depth is not None:
                    gap = depth - prev_improper_depth
                    if gap > 1e-9:
                        gap_min = min(gap_min, gap)
                prev_improper_depth = depth
            count += 1
            if count >= samples:
                break
    tau_star = gap_min if math.isfinite(gap_min) else tau_lo
    return replace(table.constants, tau_max_sampled=tau_hi,
                   tau_star=float(tau_star), samples=samples, seed=seed)


def certify_expansion_constant(table: BilliardTable, samples: int,
                               seed: int) -> tuple[float, int]:
    """Empirical floor C with expansion >= C / cos(phi') on operative cones.

    The test vector sits on the lower cone boundary (push-forward of the
    flat dphi=0 direction).  The cone's upper boundary is excluded on
    purpose: after a short corner hop it steepens without bound, and along
    near-vertical vectors the product expansion * cos(phi') can be driven
    arbitrarily close to zero, so no sampled minimum over the full cone
    would ever stabilize.  On the lower boundary the product vanishes only
    at the common-tangent corner configuration, a codimension-2 event, and
    the minimum settles at desk-scale sample counts.

    Returns (C, used) where used counts samples whose arriving and
    departing branches were both regular; raises NumericalAbort when none
    were.  Samples are drawn and mapped in plain_rows' BATCH_ROWS blocks.
    """
    rng = Stream([seed, 0xC0])
    best, used = math.inf, 0
    for start in range(0, samples, BATCH_ROWS):
        cols = random_phase_points(table, rng,
                                   min(BATCH_ROWS, samples - start))
        rows, lo, _ = unstable_cones(table, *cols)
        step = plain_rows(table, *cols)
        both = np.isin(step.rows, rows)
        slope = lo[np.searchsorted(rows, step.rows[both])]
        # no NaN: every lo is finite (unstable_cones), and a plain image has
        # a finite derivative and |phi'| < pi/2
        floor = expansion_factors(step.derivative[both], slope) \
            * _each(math.cos, step.phi[both])
        best = min(best, float(floor.min(initial=math.inf)))
        used += floor.size
    if not used:
        raise NumericalAbort("no regular samples; table or sampler is broken")
    return best, used


def certify_hyperbolicity(table: BilliardTable, samples: int, seed: int,
                          n_max: int = 12):
    """Fit growth floors: min over samples of |DF^n v| >= (1/c) Lambda^n.

    v starts inside the operative cone.  Returns (c, Lambda, residuals, mins);
    c is inflated after the least-squares fit so the floor holds at every n.
    Raises NumericalAbort when no orbit stays regular for all n_max steps.
    """
    rng = Stream([seed, 0xC1])
    mins = [math.inf] * n_max
    used = 0
    attempts = 0
    cap = 20 * samples
    while used < samples and attempts < cap:
        cols = random_phase_points(table, rng,
                                   min(BATCH_ROWS, cap - attempts))
        rows, lo, hi = unstable_cones(table, *cols)
        # |DF^k v| at k = 1, 2, ... along each orbit, v inside the cone
        s = interior_slope(lo, hi)
        h = slope_norms(s)
        vx, vy = 1.0 / h, s / h
        norms = np.zeros((rows.size, n_max))
        full = np.arange(rows.size)
        for k, step in enumerate(regular_steps(
                table, *(col[rows] for col in cols), n_max)):
            full = step.rows
            (a, b), (c, d) = step.derivative.transpose(1, 2, 0)
            x, y = vx[full], vy[full]
            vx[full], vy[full] = a * x + b * y, c * x + d * y
            norms[full, k] = _each(math.hypot, vx[full], vy[full])
        # the points of the block in order until used reaches samples: each
        # is an attempt, and one with a full-length orbit is used
        ok = np.zeros(cols[0].size, dtype=bool)
        ok[rows[full]] = True
        total = np.cumsum(ok)
        take = ok.size
        if total[-1] >= samples - used:
            take = int(np.searchsorted(total, samples - used)) + 1
        attempts += take
        used += int(total[take - 1])
        # no NaN: finite derivatives push a finite unit vector
        grown = norms[full[rows[full] < take]]
        if grown.size:
            mins = [min(m, float(g)) for m, g in zip(mins, grown.min(axis=0))]
    if used == 0:
        raise NumericalAbort("no full-length regular orbits sampled")
    ns = np.arange(1, n_max + 1, dtype=float)
    logs = np.log(np.asarray(mins))
    slope, intercept = np.polyfit(ns, logs, 1)
    lam = math.exp(slope)
    # inflate c until the floor really is a floor
    c_hyp = max(math.exp(-intercept),
                max(lam ** n / m for n, m in zip(range(1, n_max + 1), mins)))
    residuals = tuple(float(logs[i] - (intercept + slope * ns[i]))
                      for i in range(n_max))
    return c_hyp, lam, residuals, tuple(float(m) for m in mins)
