"""Singularity curves, sector portraits, and complexity counts.

Phase space on each wall is the (r, phi) rectangle [0, L] x [-pi/2, pi/2].
The level-0 singular set consists of the grazing lines phi = +-pi/2 and the
corner verticals r = const; level l carries it through l applications of the
collision map.  Negative levels are traced directly by shooting (aim a ray
from each boundary sample at a corner, or tangentially at a wall) because
that is exact; positive levels come from time reversal.

A sector portrait probes a small circle of phase points around a center,
groups probe directions by their n-step itineraries, and refines the group
boundaries by bisection.  The probe radius is halved until the sector
combinatorics stop changing; that stabilized decomposition is the portrait.
"""

import math
from dataclasses import dataclass, field

from .bmap import (HALF_PI, K0_DEFAULT, PhasePoint, inverse, orbit,
                   outgoing_ray, strip_index)
# singularities does not call forward; the name stays bound because
# perfbench/test_perfbench.py checks that the tracer wraps it here too
from .bmap import forward  # noqa: F401
from .errors import BilliardError, UnstablePortrait
from .flow import Ray, first_collision
from .geometry import BilliardTable, boundary_point

TWO_PI = 2.0 * math.pi

THETA_TOL = 1e-10        # sector boundary refinement, radians
FRAGMENT_LEN = 1e-10     # shorter traced pieces collapse to flagged points
MAX_HALVINGS = 40
LEVEL_CAP = 6
PROBES = 256             # probe directions per sector-portrait radius
JUNCTION_TOL = 1e-3      # multiple points: abutting gap and merge distance

QUADRANTS = {"NE": (0.0, HALF_PI),
             "NW": (HALF_PI, math.pi),
             "SW": (math.pi, 3.0 * HALF_PI),
             "SE": (3.0 * HALF_PI, TWO_PI)}
# increasing (unstable-cone) quadrants cannot be cut by later singularities
INACTIVE_QUADRANTS = ("NE", "SW")
ACTIVE_QUADRANTS = ("NW", "SE")


# ---------------------------------------------------------------------------
# traced curves

@dataclass(frozen=True)
class SingularityCurve:
    level: int
    nodes: tuple                 # PhasePoints, all on one wall chart
    origin: str                  # grazing-preimage | corner-preimage | strip-boundary
    fragment: bool = False

    @property
    def wall_id(self) -> int:
        return self.nodes[0].wall_id

    def length(self) -> float:
        return sum(math.hypot(b.r - a.r, b.phi - a.phi)
                   for a, b in zip(self.nodes, self.nodes[1:]))

    def monotone_ok(self) -> bool:
        """Negative levels run strictly decreasing, positive strictly increasing."""
        if self.level == 0 or len(self.nodes) < 2:
            return True
        want = -1.0 if self.level < 0 else 1.0
        return all((b.r - a.r) * (b.phi - a.phi) * want > 0.0
                   for a, b in zip(self.nodes, self.nodes[1:]))


def _involution_of(curve: SingularityCurve) -> SingularityCurve:
    nodes = tuple(PhasePoint(p.wall_id, p.r, -p.phi) for p in curve.nodes)
    return SingularityCurve(-curve.level, nodes, curve.origin, curve.fragment)


def _linspace(a: float, b: float, m: int):
    step = (b - a) / (m - 1)
    return [a + i * step for i in range(m)]


def _s0_curves(table: BilliardTable, resolution: int, strips):
    out = []
    for w in table.walls:
        rs = _linspace(0.0, w.length, resolution)
        for sign in (1.0, -1.0):
            nodes = tuple(PhasePoint(w.wall_id, r, sign * HALF_PI) for r in rs)
            out.append(SingularityCurve(0, nodes, "grazing-preimage"))
        for k in strips:
            phi = HALF_PI - 1.0 / (k * k)
            for sign in (1.0, -1.0):
                nodes = tuple(PhasePoint(w.wall_id, r, sign * phi) for r in rs)
                out.append(SingularityCurve(0, nodes, "strip-boundary"))
    phis = _linspace(-HALF_PI, HALF_PI, resolution)
    for c in table.corners:
        left = table.wall(c.left_wall_id)
        for wall_id, r_c in ((c.left_wall_id, left.length), (c.right_wall_id, 0.0)):
            nodes = tuple(PhasePoint(wall_id, r_c, p) for p in phis)
            out.append(SingularityCurve(0, nodes, "corner-preimage"))
    return out


def _shifts(table: BilliardTable, horizon: float):
    if table.ambient == "plane":
        return [(0.0, 0.0)]
    n = int(math.ceil(horizon)) + 1
    return [(float(i), float(j))
            for i in range(-n, n + 1) for j in range(-n, n + 1)]


AIM_DEPTH = 1e-9      # fractional penetration of tangential aims; keeps the
                      # target encounter off the discriminant knife edge
GHOST_DEPTH = 1e-2    # en-route clips of non-target walls shallower than this
                      # are stepped over: traced curves continue analytically
                      # across their crossings instead of stopping there


def _aim_at_point(table, wall, r, target):
    """phi of the ray from arclength r toward a fixed point, or None."""
    x, n, t = wall.frame_at(r)
    dx, dy = target[0] - x[0], target[1] - x[1]
    d = math.hypot(dx, dy)
    if d < 1e-12:
        return None
    dn = (dx * n[0] + dy * n[1]) / d
    dt = (dx * t[0] + dy * t[1]) / d
    if dn <= 1e-12:
        return None
    phi = math.atan2(dt, dn)
    if abs(phi) >= HALF_PI - 1e-12:
        return None
    return phi


def _tangent_aims(table, wall, r, center, radius):
    """phi values of the rays from arclength r tangent to a circle.

    Yields (phi, reach) pairs; reach is the distance to the tangency point.
    """
    x, n, t = wall.frame_at(r)
    cx, cy = center[0] - x[0], center[1] - x[1]
    d = math.hypot(cx, cy)
    r_eff = radius * (1.0 - AIM_DEPTH)
    if d <= radius + 1e-12:
        return
    reach = math.sqrt(d * d - r_eff * r_eff)
    beta = math.asin(r_eff / d)
    base = math.atan2(cy, cx)
    for s in (1.0, -1.0):
        ang = base + s * beta
        vx, vy = math.cos(ang), math.sin(ang)
        dn = vx * n[0] + vy * n[1]
        if dn <= 1e-12:
            continue
        phi = math.atan2(vx * t[0] + vy * t[1], dn)
        if abs(phi) >= HALF_PI - 1e-12:
            continue
        yield phi, reach


def _arrival_depth(oc) -> float:
    # u = pi/2 - |phi'| at the arrival point, from the normal velocity
    nc = min(1.0, abs(oc.normal_component))
    return math.asin(nc)


def _march(table, wall, r, phi, target_wall):
    """(outcome, total tau) of the aimed flight, ghosting shallow clips.

    Clips of non-target walls with incidence depth below GHOST_DEPTH are
    jumped across (the ray resumes at the chord's exit point), so an aimed
    family keeps tracing through the locus where one singularity curve
    crosses another.
    """
    x, n, t = wall.frame_at(r)
    c, s = math.cos(phi), math.sin(phi)
    ray = Ray(x, (c * n[0] + s * t[0], c * n[1] + s * t[1]))
    tau = 0.0
    for _ in range(12):
        try:
            oc = first_collision(table, ray)
        except BilliardError:
            return None, 0.0
        if (oc.kind in ("regular", "grazing") and oc.wall_id != target_wall
                and _arrival_depth(oc) < GHOST_DEPTH):
            w = table.wall(oc.wall_id)
            chord = 2.0 * w.radius * min(1.0, abs(oc.normal_component))
            adv = oc.tau + chord + 1e-12
            tau += adv
            ray = Ray((ray.origin[0] + adv * ray.direction[0],
                       ray.origin[1] + adv * ray.direction[1]), ray.direction)
            continue
        return oc, tau + oc.tau
    return None, 0.0


def _corner_phi(table, wall, shift, corner):
    target = (corner.position[0] + shift[0], corner.position[1] + shift[1])

    def probe(r):
        phi = _aim_at_point(table, wall, r, target)
        if phi is None:
            return None
        x, _, _ = wall.frame_at(r)
        dist = math.hypot(target[0] - x[0], target[1] - x[1])
        oc, tau = _march(table, wall, r, phi, target_wall=None)
        if (oc is not None and oc.kind == "corner"
                and oc.corner_id == corner.corner_id
                and abs(tau - dist) <= 1e-3 * (1.0 + dist)):
            return phi
        return None

    return probe


def _graze_phi(table, wall, shift, other, side):
    center = (other.center[0] + shift[0], other.center[1] + shift[1])

    def probe(r):
        for phi, reach in _tangent_aims(table, wall, r, center, other.radius):
            if (phi > 0.0) != (side > 0):
                continue
            oc, tau = _march(table, wall, r, phi, target_wall=other.wall_id)
            if (oc is not None and oc.kind in ("regular", "grazing")
                    and oc.wall_id == other.wall_id
                    and abs(tau - reach) <= 1e-3 * (1.0 + reach)):
                return phi
        return None

    return probe


def _strip_phi(table, wall, shift, other, side, k):
    """Aim so the arrival on `other` sits exactly on the strip-k boundary."""
    graze = _graze_phi(table, wall, shift, other, side)
    u_target = 1.0 / (k * k)

    def on_other(r, phi):
        oc, _tau = _march(table, wall, r, phi, target_wall=other.wall_id)
        if oc is not None and oc.kind == "regular" and oc.wall_id == other.wall_id:
            return _arrival_depth(oc)
        return None

    def probe(r):
        phi0 = graze(r)
        if phi0 is None:
            return None
        step = None
        for sgn in (1.0, -1.0):
            if on_other(r, phi0 + sgn * 1e-7) is not None:
                step = sgn
                break
        if step is None:
            return None
        lo, eps = 0.0, 1e-12
        while eps < 0.5:
            u = on_other(r, phi0 + step * eps)
            if u is None:
                return None
            if u >= u_target:
                break
            lo, eps = eps, eps * 4.0
        else:
            return None
        for _ in range(60):
            mid = 0.5 * (lo + eps)
            u = on_other(r, phi0 + step * mid)
            if u is None or u >= u_target:
                eps = mid
            else:
                lo = mid
        phi = phi0 + step * 0.5 * (lo + eps)
        return phi if abs(phi) < HALF_PI - 1e-12 else None

    return probe


def _refine_edge(probe, r_good, r_bad, tol):
    """Bisect the acceptance boundary of a shooting probe along r."""
    for _ in range(60):
        mid = 0.5 * (r_good + r_bad)
        if probe(mid) is not None:
            r_good = mid
        else:
            r_bad = mid
        if abs(r_bad - r_good) <= tol:
            break
    return r_good


def _split_monotone(nodes, want: float):
    runs, cur = [], [nodes[0]]
    for a, b in zip(nodes, nodes[1:]):
        if (b.r - a.r) * (b.phi - a.phi) * want > 0.0:
            cur.append(b)
        else:
            runs.append(cur)
            cur = [b]
    runs.append(cur)
    return runs


def _emit_run(level, nodes, origin, out):
    """Emit a traced run as level-``level`` curves, split where not monotone;
    a piece too short to be a curve is kept as a one-node fragment."""
    for chunk in _split_monotone(nodes, -1.0):
        curve = SingularityCurve(level, tuple(chunk), origin)
        if len(chunk) < 2 or curve.length() < FRAGMENT_LEN:
            curve = SingularityCurve(level, (chunk[0],), origin, fragment=True)
        out.append(curve)


def _trace_probe(table, wall, probe, resolution, origin, out):
    rs = _linspace(0.0, wall.length, resolution)
    tol = max(wall.length, 1.0) * 1e-10
    run = []                     # list of PhasePoint on this wall
    prev_bad = None
    for r in rs:
        phi = probe(r)
        if phi is not None:
            if not run and prev_bad is not None:
                r_edge = _refine_edge(probe, r, prev_bad, tol)
                p_edge = probe(r_edge)
                if p_edge is not None and abs(r_edge - r) > tol:
                    run.append(PhasePoint(wall.wall_id, r_edge, p_edge))
            run.append(PhasePoint(wall.wall_id, r, phi))
            prev_bad = None
        else:
            if run:
                r_edge = _refine_edge(probe, run[-1].r, r, tol)
                p_edge = probe(r_edge)
                if p_edge is not None and abs(r_edge - run[-1].r) > tol:
                    run.append(PhasePoint(wall.wall_id, r_edge, p_edge))
                _emit_run(-1, run, origin, out)
                run = []
            prev_bad = r
    if run:
        _emit_run(-1, run, origin, out)


def _trace_level_minus_one(table, resolution, strips, horizon):
    out = []
    shifts = _shifts(table, horizon)
    for wall in table.walls:
        for shift in shifts:
            for corner in table.corners:
                probe = _corner_phi(table, wall, shift, corner)
                _trace_probe(table, wall, probe, resolution,
                             "corner-preimage", out)
            for other in table.walls:
                for side in (1, -1):
                    probe = _graze_phi(table, wall, shift, other, side)
                    _trace_probe(table, wall, probe, resolution,
                                 "grazing-preimage", out)
                    for k in strips:
                        sprobe = _strip_phi(table, wall, shift, other, side, k)
                        _trace_probe(table, wall, sprobe, resolution,
                                     "strip-boundary", out)
    return out


def _pull_back(table, curve):
    """Map one traced polyline through the inverse map, splitting on branch
    changes and monotonicity violations."""
    out = []
    level = curve.level - 1
    run, sig = [], None

    def close():
        nonlocal run
        if run:
            _emit_run(level, run, curve.origin, out)
        run = []

    def image_of(z):
        try:
            res = inverse(table, z)
        except BilliardError:
            return None
        if len(res.images) != 1 or res.images[0].grazing:
            return None
        im = res.images[0]
        return (im.point.wall_id, im.branch), im.point

    prev = None
    for z in curve.nodes:
        got = image_of(z)
        if got is None:
            close()
            sig, prev = None, z
            continue
        new_sig, pt = got
        if sig is not None and new_sig != sig and prev is not None:
            lo, hi = 0.0, 1.0

            def lerp(t):
                return PhasePoint(z.wall_id, prev.r + t * (z.r - prev.r),
                                  prev.phi + t * (z.phi - prev.phi))

            for _ in range(48):
                g = image_of(lerp(0.5 * (lo + hi)))
                if g is not None and g[0] == sig:
                    lo = 0.5 * (lo + hi)
                else:
                    hi = 0.5 * (lo + hi)
            edge = image_of(lerp(lo))
            if edge is not None:
                run.append(edge[1])
            close()
            edge = image_of(lerp(hi))
            if edge is not None:
                run.append(edge[1])
        run.append(pt)
        sig, prev = new_sig, z
    close()
    return out


def trace_singularity(table: BilliardTable, level: int, resolution: int = 400,
                      strips=()):
    """Trace the level-l singularity curves as per-wall polylines.

    `strips` adds the listed homogeneity-strip boundaries to the level-0 set.
    On the torus the periodic copies are enumerated up to the table's
    certified free-path bound, capped at 8.
    """
    if abs(level) > LEVEL_CAP:
        raise ValueError(f"|level| capped at {LEVEL_CAP}, got {level}")
    if level == 0:
        return _s0_curves(table, resolution, strips)
    if level > 0:
        return [_involution_of(c)
                for c in trace_singularity(table, -level, resolution, strips)]
    horizon = 8.0
    if table.constants is not None and table.constants.tau_max:
        horizon = min(horizon, table.constants.tau_max)
    curves = _trace_level_minus_one(table, resolution, strips, horizon)
    for _ in range(-level - 1):
        nxt = []
        for c in curves:
            if c.fragment:
                continue
            nxt.extend(_pull_back(table, c))
        curves = nxt
    return curves


# ---------------------------------------------------------------------------
# itineraries

def _strip_class(k: int, k0: int) -> str:
    if abs(k) <= k0:
        return "0"
    return "+" if k > 0 else "-"


def _segment_crosses_ray(p0, p1, q, u):
    # p0 + s (p1 - p0) = q + t u with s in (0,1), t > 0
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    den = dx * (-u[1]) - dy * (-u[0])
    if abs(den) < 1e-15:
        return False
    qx, qy = q[0] - p0[0], q[1] - p0[1]
    s = (qx * (-u[1]) - qy * (-u[0])) / den
    t = (dx * qy - dy * qx) / den
    return 1e-12 < s < 1.0 - 1e-12 and t > 1e-12


def _front_back_bit(table, z, im) -> str:
    """'b' when the flight crossed a wall extension past a corner of the hit
    wall before landing; the artificial front/back split."""
    ray = outgoing_ray(table, z)
    p1 = ray.at(im.tau)
    p_chart, _, _ = boundary_point(table, im.point.wall_id, im.point.r)
    sx, sy = p_chart[0] - p1[0], p_chart[1] - p1[1]
    wall = table.wall(im.point.wall_id)
    for cid, flip in ((table.corner_at_start[wall.wall_id], False),
                      (table.corner_at_end[wall.wall_id], True)):
        if cid is None:
            continue
        c = table.corners[cid]
        q = (c.position[0] - sx, c.position[1] - sy)
        u = c.w_plus if flip else c.w_minus
        if flip:
            u = (-u[0], -u[1])
        if _segment_crosses_ray(ray.origin, p1, q, u):
            return "b"
    return "f"


def itinerary(table, z, n: int, k0: int, front_back: bool = False):
    """One symbol per step of z's n-step orbit; where the orbit stops being
    smooth (graze, split, singular departure) a last "!" symbol says why."""
    walk = orbit(table, z, n)
    syms = []
    prev = z
    for im in walk.images:
        if im.grazing:
            syms.append(("!", "graze", ""))
            break
        sym = ("w%d" % im.point.wall_id, im.branch,
               _strip_class(strip_index(im.point.phi, k0), k0))
        if front_back:
            sym += (_front_back_bit(table, prev, im),)
        syms.append(sym)
        prev = im.point
    if walk.status == "singular":
        syms.append(("!", walk.error, ""))
    elif walk.status == "branched":
        syms.append(("!", "+".join(sorted(im.label for im in walk.split)), ""))
    return tuple(syms)


# ---------------------------------------------------------------------------
# sector portraits

@dataclass
class Sector:
    theta_lo: float
    theta_hi: float
    itinerary: tuple
    regular: bool | None = None
    active: bool | None = None
    wall_type: str = "none"          # A | B | none
    quadrants: tuple = ()
    image_lo: float | None = None
    image_hi: float | None = None

    @property
    def width(self) -> float:
        return self.theta_hi - self.theta_lo

    def to_json(self) -> dict:
        return {"theta_lo": self.theta_lo, "theta_hi": self.theta_hi,
                "itinerary": [":".join(map(str, s)) for s in self.itinerary],
                "regular": self.regular, "active": self.active,
                "type": self.wall_type}


@dataclass
class SectorPortrait:
    table: BilliardTable = field(repr=False)
    center: PhasePoint
    rho_hat: float
    order: int
    k0: int
    sectors: list
    full_circle: bool

    def to_json(self) -> dict:
        c = self.center
        return {"center": {"wall_id": c.wall_id, "r": c.r, "phi": c.phi},
                "rho_hat": self.rho_hat,
                "order": self.order,
                "k0": self.k0,
                "sectors": [s.to_json() for s in self.sectors]}


def _allowed_arc(table, z):
    """(lo, hi, full) of probe directions keeping the probe inside the chart."""
    wall = table.wall(z.wall_id)
    tol = 1e-12 * max(1.0, wall.length)
    arcs = []
    if not wall.closed:
        if z.r <= tol:
            arcs.append(0.0)                 # need cos(theta) >= 0
        elif wall.length - z.r <= tol:
            arcs.append(math.pi)
    if HALF_PI - z.phi <= 1e-12:
        arcs.append(-HALF_PI)                # need sin(theta) <= 0
    elif HALF_PI + z.phi <= 1e-12:
        arcs.append(HALF_PI)
    if not arcs:
        return 0.0, TWO_PI, True
    lo, hi = arcs[0] - HALF_PI, arcs[0] + HALF_PI
    for c in arcs[1:]:
        for k in (-1, 0, 1):
            nlo = max(lo, c - HALF_PI + k * TWO_PI)
            nhi = min(hi, c + HALF_PI + k * TWO_PI)
            if nhi - nlo > 1e-9:
                lo, hi = nlo, nhi
                break
    return lo, hi, False


def _seed_rho(table, z, rho0):
    if rho0 is not None:
        return rho0
    wall = table.wall(z.wall_id)
    tol = 1e-12 * max(1.0, wall.length)
    dists = [HALF_PI - z.phi, HALF_PI + z.phi]
    if not wall.closed:
        dists += [z.r, wall.length - z.r]
    clear = [d for d in dists if d > tol]
    rho = 1e-3
    if clear:
        rho = min(rho, min(clear) / 4.0)
    return rho


def _probe_point(z, rho, theta):
    return PhasePoint(z.wall_id, z.r + rho * math.cos(theta),
                      z.phi + rho * math.sin(theta))


def _transitions(itin_of, ta, ita, tb, itb, depth=0):
    """Refined cut angles in (ta, tb]; returns [(cut, itinerary_after), ...]."""
    if tb - ta <= THETA_TOL or depth > 52:
        return [(0.5 * (ta + tb), itb)]
    tm = 0.5 * (ta + tb)
    itm = itin_of(tm)
    if itm == ita:
        return _transitions(itin_of, tm, ita, tb, itb, depth + 1)
    if itm == itb:
        return _transitions(itin_of, ta, ita, tm, itb, depth + 1)
    return (_transitions(itin_of, ta, ita, tm, itm, depth + 1)
            + _transitions(itin_of, tm, itm, tb, itb, depth + 1))


def _sectors_at(table, z, n, k0, rho, arc, front_back):
    lo, hi, full = arc

    def itin_of(theta):
        return itinerary(table, _probe_point(z, rho, theta), n, k0, front_back)

    if full:
        thetas = [lo + TWO_PI * i / PROBES for i in range(PROBES)]
    else:
        thetas = [lo + (hi - lo) * (i + 0.5) / PROBES for i in range(PROBES)]
    itins = [itin_of(t) for t in thetas]

    runs = []                    # [first_theta, last_theta, itinerary]
    for t, it in zip(thetas, itins):
        if runs and runs[-1][2] == it:
            runs[-1][1] = t
        else:
            runs.append([t, t, it])
    if full and len(runs) > 1 and runs[0][2] == runs[-1][2]:
        first = runs.pop(0)
        runs[-1][1] = first[1] + TWO_PI

    if len(runs) == 1:
        return [Sector(lo, lo + TWO_PI if full else hi, runs[0][2])]

    pairs = list(zip(runs, runs[1:]))
    if full:
        pairs.append((runs[-1], [runs[0][0] + TWO_PI, 0.0, runs[0][2]]))
    cuts = []                    # (cut_theta, itinerary_after), ascending
    for a, b in pairs:
        cuts.extend(_transitions(itin_of, a[1], a[2], b[0], b[2]))

    sectors = []
    if full:
        prev_cut, prev_it = cuts[-1][0] - TWO_PI, cuts[-1][1]
    else:
        prev_cut, prev_it = lo, runs[0][2]
    for cut, it_after in cuts:
        sectors.append(Sector(prev_cut, cut, prev_it))
        prev_cut, prev_it = cut, it_after
    if not full:
        sectors.append(Sector(prev_cut, hi, prev_it))
    return [s for s in sectors if s.width > 1e-12]


def _portrait_key(sectors, full):
    its = tuple(s.itinerary for s in sectors)
    if not full or len(its) <= 1:
        return its
    rots = [its[i:] + its[:i] for i in range(len(its))]
    return min(rots)


def sector_portrait(table: BilliardTable, z: PhasePoint, n: int,
                    k0: int = K0_DEFAULT, rho0: float | None = None,
                    front_back: bool = False) -> SectorPortrait:
    """Stabilized decomposition of the directions around z by n-step itinerary.

    The probe radius is halved until two consecutive halvings leave the
    sector combinatorics unchanged; UnstablePortrait after MAX_HALVINGS
    halvings, its ``decompositions`` the portraits at the last two radii.
    """
    if n < 1:
        raise ValueError("portrait order must be >= 1")
    arc = _allowed_arc(table, z)
    rho = _seed_rho(table, z, rho0)
    prev_key, stable = None, 0
    history = []
    for _ in range(MAX_HALVINGS + 1):
        sectors = _sectors_at(table, z, n, k0, rho, arc, front_back)
        key = _portrait_key(sectors, arc[2])
        history.append((rho, sectors))
        if key == prev_key:
            stable += 1
        else:
            stable = 0
        prev_key = key
        if stable >= 2:
            return SectorPortrait(table=table, center=z, rho_hat=rho,
                                  order=n, k0=k0, sectors=sectors,
                                  full_circle=arc[2])
        rho *= 0.5
    err = UnstablePortrait("sector combinatorics did not stabilize "
                           f"after {MAX_HALVINGS} halvings")
    err.decompositions = tuple(
        SectorPortrait(table=table, center=z, rho_hat=r, order=n, k0=k0,
                       sectors=secs, full_circle=arc[2])
        for r, secs in history[-2:])
    raise err


# ---------------------------------------------------------------------------
# classification

def _arc_overlap(a0, wa, b0, wb) -> float:
    """Length of the overlap of two circular arcs given as (start, width)."""
    best = 0.0
    a0 %= TWO_PI
    b0 %= TWO_PI
    for k in (-TWO_PI, 0.0, TWO_PI):
        lo = max(a0, b0 + k)
        hi = min(a0 + wa, b0 + k + wb)
        best = max(best, hi - lo)
    return best


def _inside_open_arc(a0, w, q) -> bool:
    off = (a0 - q[0]) % TWO_PI
    return off > 1e-12 and off + w < (q[1] - q[0]) - 1e-12


def _contains_arc(a0, w, q) -> bool:
    off = (q[0] - a0) % TWO_PI
    return off + (q[1] - q[0]) <= w + 1e-12


def _quadrants_met(lo, hi):
    met = []
    for name, q in QUADRANTS.items():
        if _arc_overlap(lo, hi - lo, q[0], q[1] - q[0]) > 1e-9:
            met.append(name)
    return tuple(met)


def _push_mid(table, z, rho, sector, n):
    """Accumulated derivative and first-step data along the probe at the
    sector's angular midpoint; None unless its n-step orbit is smooth."""
    w = _probe_point(z, rho, 0.5 * (sector.theta_lo + sector.theta_hi))
    walk = orbit(table, w, n)
    if walk.status != "ok":
        return None
    dtot = ((1.0, 0.0), (0.0, 1.0))
    for im in walk.images:
        (a, b), (c, d) = im.derivative
        (p, q), (r_, s) = dtot
        dtot = ((a * p + b * r_, a * q + b * s),
                (c * p + d * r_, c * q + d * s))
    return dtot, outgoing_ray(table, w).at(walk.images[0].tau)


def classify_sectors(portrait: SectorPortrait) -> SectorPortrait:
    """Fill the regular / active / type flags of every sector in place."""
    table = portrait.table
    z = portrait.center
    ray = outgoing_ray(table, z)
    for s in portrait.sectors:
        s.quadrants = _quadrants_met(s.theta_lo, s.theta_hi)
        s.regular = (len(s.itinerary) == portrait.order
                     and all(sym[0] != "!" and sym[2] == "0"
                             for sym in s.itinerary))
        if s.width >= TWO_PI - 1e-9:
            s.active = True
            continue
        pushed = _push_mid(table, z, portrait.rho_hat, s, portrait.order)
        if pushed is None:
            s.active = True
            continue
        dtot, hit = pushed
        ux, uy = math.cos(s.theta_lo), math.sin(s.theta_lo)
        vx, vy = math.cos(s.theta_hi), math.sin(s.theta_hi)
        a_lo = math.atan2(dtot[1][0] * ux + dtot[1][1] * uy,
                          dtot[0][0] * ux + dtot[0][1] * uy) % TWO_PI
        a_hi = math.atan2(dtot[1][0] * vx + dtot[1][1] * vy,
                          dtot[0][0] * vx + dtot[0][1] * vy) % TWO_PI
        w_im = (a_hi - a_lo) % TWO_PI
        s.image_lo, s.image_hi = a_lo, a_lo + w_im
        s.active = not any(_inside_open_arc(a_lo, w_im, QUADRANTS[q])
                           for q in INACTIVE_QUADRANTS)
        side = ((hit[0] - ray.origin[0]) * ray.direction[1]
                - (hit[1] - ray.origin[1]) * ray.direction[0])
        scale = 1e-12 * (1.0 + math.hypot(hit[0] - ray.origin[0],
                                          hit[1] - ray.origin[1]))
        if side > scale:
            s.wall_type = "B"
        elif side < -scale:
            s.wall_type = "A"
    return portrait


# ---------------------------------------------------------------------------
# complexity counts

@dataclass
class ComplexityRecord:
    center: PhasePoint
    order: int
    k_hat: int
    quadrant_counts: dict


def regular_complexity(table: BilliardTable, z: PhasePoint, n: int,
                       k0: int = K0_DEFAULT) -> ComplexityRecord:
    portrait = classify_sectors(sector_portrait(table, z, n, k0))
    regular = [s for s in portrait.sectors if s.regular]
    counts = {q: sum(1 for s in regular if q in s.quadrants) for q in QUADRANTS}
    return ComplexityRecord(center=z, order=n, k_hat=len(regular),
                            quadrant_counts=counts)


@dataclass
class ConservationVerdict:
    passed: bool
    counts: dict
    portrait: SectorPortrait


def active_sector_conservation(table: BilliardTable, z: PhasePoint,
                               k0: int = K0_DEFAULT) -> ConservationVerdict:
    """Among the regular order-1 sectors entering each active quadrant, count
    those whose image covers a whole active quadrant; pass iff <= 1 each."""
    portrait = classify_sectors(sector_portrait(table, z, 1, k0))
    counts = {}
    for qname in ACTIVE_QUADRANTS:
        n_exp = 0
        for s in portrait.sectors:
            if not s.regular or qname not in s.quadrants:
                continue
            if s.image_lo is None:
                continue
            w_im = s.image_hi - s.image_lo
            if any(_contains_arc(s.image_lo, w_im, QUADRANTS[q])
                   for q in ACTIVE_QUADRANTS):
                n_exp += 1
        counts[qname] = n_exp
    return ConservationVerdict(passed=all(v <= 1 for v in counts.values()),
                               counts=counts, portrait=portrait)


def fit_complexity_slope(records) -> float:
    """Smallest slope xi with K_n <= xi * n over every supplied record."""
    best = {}
    for rec in records:
        best[rec.order] = max(best.get(rec.order, 0), rec.k_hat)
    if not best:
        raise ValueError("no records")
    num = sum(n * k for n, k in best.items())
    den = sum(n * n for n in best)
    slope = num / den
    return max(slope, max(k / n for n, k in best.items()))


# ---------------------------------------------------------------------------
# multiple points

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


def _point_seg_foot(p, a, b):
    ax, ay = a
    dx, dy = b[0] - ax, b[1] - ay
    norm2 = dx * dx + dy * dy
    t = 0.0
    if norm2 > 0.0:
        t = max(0.0, min(1.0, ((p[0] - ax) * dx + (p[1] - ay) * dy) / norm2))
    fx, fy = ax + t * dx, ay + t * dy
    return math.hypot(p[0] - fx, p[1] - fy), (fx, fy)


def find_multiple_points(table: BilliardTable, resolution: int = 300):
    """Junctions of the level -1 curves and corner verticals, per wall chart.

    Transversal polyline crossings are intersected directly; a curve endpoint
    within JUNCTION_TOL of another curve counts as an abutting junction (the
    traced families truncate against each other there, leaving a small gap).
    Points closer than JUNCTION_TOL are merged, which also bounds the
    reported accuracy.
    """
    curves = [c for c in trace_singularity(table, -1, resolution)
              if not c.fragment]
    curves += [c for c in _s0_curves(table, 16, ())
               if c.origin == "corner-preimage"]
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
            # abutting junction: an endpoint of a resting on another curve
            for e in (a.nodes[0], a.nodes[-1]):
                best = None
                for b in lst:
                    if b is a:
                        continue
                    for b0, b1 in zip(b.nodes, b.nodes[1:]):
                        d, foot = _point_seg_foot((e.r, e.phi),
                                                  (b0.r, b0.phi),
                                                  (b1.r, b1.phi))
                        if d <= JUNCTION_TOL and (
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
               and math.hypot(q.r - p.r, q.phi - p.phi) <= JUNCTION_TOL
               for q in kept):
            continue
        kept.append(p)
    return kept
