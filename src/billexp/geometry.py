"""Tables built from circular arc walls.

A wall is an arc of a circle, parameterized by arclength r in [0, L].  The
traversal direction is fixed by ``orientation``: +1 walks the circle
counterclockwise, -1 clockwise.  Walking a wall positively must keep the table
interior on the left, which for a dispersing wall (table outside the disk)
means orientation -1; orientation +1 walls are rejected by validation.

Conventions used everywhere downstream:
    theta(r)  = theta_start + orientation * r / radius
    tangent T = orientation * (-sin theta, cos theta)
    normal  n = rot90(T)              (points into the table)
    kappa     = -orientation / radius (signed curvature, > 0 dispersing)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import gcd

import numpy as np

from .errors import (
    CuspDetected,
    NonDispersing,
    NonSimpleCorner,
    OpenBoundary,
    OutOfRange,
    UnboundedHorizon,
    ValidationError,
)

TWO_PI = 2.0 * math.pi

EPS_JOIN = 1e-9      # endpoint coincidence tolerance
GAMMA_TOL = 1e-6     # rad; corner angles within this of 0 or 2*pi are cusps
FLAT_TOL = 1e-9      # rad; |gamma - pi| below this counts as flat
EPS_CORNER = 1e-9    # arclength tolerance for corner membership
EPS_CROSS = 1e-8     # arclength slack for a meeting of circles to be on an arc
MAX_RATIONAL = 20    # corridor scan checks all coprime (p, q) up to this
N_SCAN_DIRECTIONS = 10_000
FREE_SEGMENT_LEN = 30.0
# bound on |spec number|: keeps the rounding of coordinates below EPS_JOIN
SPEC_LIMIT = 1e6
WALL_KEYS = ("center", "radius", "theta_start", "theta_end", "orientation")


@dataclass(frozen=True)
class ArcWall:
    wall_id: int
    center: tuple[float, float]
    radius: float
    theta_start: float
    theta_end: float
    orientation: int
    span: float = field(init=False)
    length: float = field(init=False)
    closed: bool = field(init=False)
    kappa: float = field(init=False)

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValidationError(f"wall {self.wall_id}: radius must be positive")
        if self.orientation not in (-1, 1):
            raise ValidationError(f"wall {self.wall_id}: orientation must be +1 or -1")
        span = (self.orientation * (self.theta_end - self.theta_start)) % TWO_PI
        if span < 1e-12:
            span = TWO_PI
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "length", span * self.radius)
        object.__setattr__(self, "closed", abs(span - TWO_PI) < 1e-12)
        object.__setattr__(self, "kappa", -self.orientation / self.radius)

    def theta_at(self, r: float) -> float:
        return self.theta_start + self.orientation * r / self.radius

    def frame_at(self, r: float):
        """Return (point, inward normal, tangent) at arclength r, as float
        pairs."""
        th = self.theta_at(r)
        ct, st = math.cos(th), math.sin(th)
        tx, ty = -self.orientation * st, self.orientation * ct
        return ((self.center[0] + self.radius * ct,
                 self.center[1] + self.radius * st), (-ty, tx), (tx, ty))

    def chart_frame(self, r: float):
        """frame_at for a chart coordinate r.

        Closed walls wrap r modulo the circumference; open walls clamp r
        into [0, L] and raise OutOfRange beyond it by more than EPS_CORNER.
        """
        if self.closed:
            r = r % self.length
        elif r < -EPS_CORNER or r > self.length + EPS_CORNER:
            raise OutOfRange(
                f"r = {r} outside [0, {self.length}] on wall {self.wall_id}")
        else:
            r = min(max(r, 0.0), self.length)
        return self.frame_at(r)

    def arc_offset(self, theta: float) -> float:
        """Traversal fraction of angle theta from theta_start, in [0, 2*pi)."""
        return (self.orientation * (theta - self.theta_start)) % TWO_PI

    def contains_angle(self, theta: float, slack: float = 0.0) -> bool:
        if self.closed:
            return True
        u = self.arc_offset(theta)
        return u <= self.span + slack or u >= TWO_PI - slack

    def r_from_angle(self, theta: float) -> float:
        u = self.arc_offset(theta)
        if u > self.span:
            # attribute near-endpoint overshoot to the closer end
            u = 0.0 if TWO_PI - u < u - self.span else self.span
        r = u * self.radius
        return min(max(r, 0.0), self.length)


@dataclass(frozen=True)
class Corner:
    corner_id: int
    position: tuple[float, float]
    left_wall_id: int      # wall that ends here (arrives along w_minus)
    right_wall_id: int     # wall that starts here (departs along w_plus)
    gamma: float
    kind: str              # acute | flat | obtuse
    w_minus: tuple[float, float]
    w_plus: tuple[float, float]


@dataclass(frozen=True)
class TableConstants:
    kappa_min: float
    kappa_max: float
    tau_max: float | None = None          # certified upper bound (plane: exact diameter)
    tau_max_sampled: float | None = None
    tau_star: float | None = None
    samples: int = 0
    seed: int | None = None

    def sector_bound(self) -> float:
        """Order-1 sector count bound 2 (tau_max / tau_star + 1)."""
        tmax = self.tau_max if self.tau_max is not None else self.tau_max_sampled
        if tmax is None or not self.tau_star:
            raise ValueError("tau_max and tau_star must be estimated first")
        return 2.0 * (tmax / self.tau_star + 1.0)


@dataclass(frozen=True)
class BilliardTable:
    ambient: str
    walls: tuple[ArcWall, ...]
    corners: tuple[Corner, ...]
    constants: TableConstants
    # wall endpoint -> corner id lookups (None for closed walls)
    corner_at_end: tuple[int | None, ...]
    corner_at_start: tuple[int | None, ...]
    gamma_min: float = field(init=False)
    sequence_cap: int = field(init=False)
    max_radius: float = field(init=False)

    def __post_init__(self):
        gamma_min = min((c.gamma for c in self.corners), default=math.pi)
        object.__setattr__(self, "gamma_min", gamma_min)
        object.__setattr__(self, "sequence_cap",
                           int(math.ceil(TWO_PI / gamma_min)) + 2)
        object.__setattr__(self, "max_radius",
                           max(w.radius for w in self.walls))

    @cached_property
    def crossings(self) -> tuple[tuple[float, float], ...]:
        """Plane tables: the points where the circles of two walls meet
        within EPS_CROSS of both arcs, i.e. every corner (to rounding) and
        any crossing of two walls, which only a strict=False build keeps."""
        return _crossings(self.walls) if self.ambient == "plane" else ()

    @cached_property
    def memo(self) -> dict:
        """Data that other layers derive from this table once and share,
        by key; it lives exactly as long as this table object."""
        return {}

    def wall(self, wall_id: int) -> ArcWall:
        return self.walls[wall_id]

    def corner_in_band(self, wall_id: int, r: float) -> int | None:
        """The corner whose EPS_CORNER band on an open wall holds chart
        coordinate r, or None; always None on a closed wall.  Every open
        wall end has a corner (``_build_corners`` refuses an unjoined one)."""
        w = self.walls[wall_id]
        if w.closed:
            return None
        if r <= EPS_CORNER:
            return self.corner_at_start[wall_id]
        if r >= w.length - EPS_CORNER:
            return self.corner_at_end[wall_id]
        return None

    def other_wall_at(self, corner_id: int, wall_id: int) -> int:
        c = self.corners[corner_id]
        return c.right_wall_id if wall_id == c.left_wall_id else c.left_wall_id

    def with_constants(self, constants: TableConstants) -> "BilliardTable":
        return replace(self, constants=constants)


def _crossings(walls) -> tuple[tuple[float, float], ...]:
    out = []
    for i, a in enumerate(walls):
        for b in walls[i + 1:]:
            dx, dy = b.center[0] - a.center[0], b.center[1] - a.center[1]
            d = math.hypot(dx, dy)
            if d == 0.0 or d > a.radius + b.radius + EPS_CROSS \
                    or d < abs(a.radius - b.radius) - EPS_CROSS:
                continue
            # foot of the common chord along the centre line, half its length
            x = (d * d + a.radius * a.radius - b.radius * b.radius) / (2 * d)
            h = math.sqrt(max(a.radius * a.radius - x * x, 0.0))
            for sign in (1.0, -1.0):
                px = a.center[0] + (x * dx - sign * h * dy) / d
                py = a.center[1] + (x * dy + sign * h * dx) / d
                if all(w.contains_angle(
                        math.atan2(py - w.center[1], px - w.center[0]),
                        slack=EPS_CROSS / w.radius) for w in (a, b)):
                    out.append((px, py))
    return tuple(out)


def _angle(v) -> float:
    return math.atan2(v[1], v[0])


def _cw_angle(a, b) -> float:
    """Clockwise rotation taking direction a to direction b, in [0, 2*pi)."""
    return (_angle(a) - _angle(b)) % TWO_PI


def corner_angle(w_minus, w_plus) -> float:
    """Interior angle of the sector bounded clockwise by -w_minus and w_plus."""
    return _cw_angle((-w_minus[0], -w_minus[1]), w_plus)


def _classify_gamma(gamma: float) -> str:
    if abs(gamma - math.pi) <= FLAT_TOL:
        return "flat"
    return "acute" if gamma < math.pi else "obtuse"


def _hypots(dx, dy) -> list[float]:
    """np.hypot(dx[i], dy[i]) for each i, in one call: the one distance of
    corners and the diameter.  Not math.hypot, which differs from it in the
    last bit on some pairs: the diameter is the tau_max validate reports."""
    return np.hypot(np.array(dx, dtype=float),
                    np.array(dy, dtype=float)).tolist()


def _build_corners(walls: tuple[ArcWall, ...], strict: bool):
    open_walls = [w for w in walls if not w.closed]
    starts = {w.wall_id: w.frame_at(0.0)[0] for w in open_walls}
    ends = {w.wall_id: w.frame_at(w.length)[0] for w in open_walls}

    corners: list[Corner] = []
    corner_at_end: list[int | None] = [None] * len(walls)
    corner_at_start: list[int | None] = [None] * len(walls)

    ids, others = list(starts), [*starts.values(), *ends.values()]
    for i, e in ends.items():
        d = _hypots([e[0] - q[0] for q in others],
                    [e[1] - q[1] for q in others])
        matches = [j for j, dj in zip(ids, d) if dj <= EPS_JOIN]
        end_matches = [j for j, dj in zip(ids, d[len(ids):])
                       if j != i and dj <= EPS_JOIN]
        if end_matches:
            raise OpenBoundary(
                f"wall {i} end meets wall {end_matches[0]} end; traversal "
                "directions are inconsistent")
        if not matches:
            raise OpenBoundary(f"wall {i} end point is not joined to any wall start")
        if len(matches) > 1:
            raise NonSimpleCorner(f"{len(matches) + 1} walls meet at wall {i} end")
        j = matches[0]
        wi, wj = walls[i], walls[j]
        _, _, w_minus = wi.frame_at(wi.length)
        _, _, w_plus = wj.frame_at(0.0)
        gamma = corner_angle(w_minus, w_plus)
        if strict and (gamma <= GAMMA_TOL or gamma >= TWO_PI - GAMMA_TOL):
            raise CuspDetected(
                f"corner between walls {i} and {j}: gamma = {gamma:.3e}")
        s = starts[j]
        cid = len(corners)
        corners.append(Corner(
            corner_id=cid,
            position=(0.5 * (e[0] + s[0]), 0.5 * (e[1] + s[1])),
            left_wall_id=i,
            right_wall_id=j,
            gamma=float(gamma),
            kind=_classify_gamma(gamma),
            w_minus=(float(w_minus[0]), float(w_minus[1])),
            w_plus=(float(w_plus[0]), float(w_plus[1])),
        ))
        corner_at_end[i] = cid
        corner_at_start[j] = cid

    for j in starts:
        if corner_at_start[j] is None:
            raise OpenBoundary(f"wall {j} start point is not joined to any wall end")
    return tuple(corners), tuple(corner_at_end), tuple(corner_at_start)


def _spec_number(val, what: str) -> float:
    # bool is an int subclass; NaN fails the comparison
    if isinstance(val, bool) or not isinstance(val, (int, float)) \
            or not abs(val) <= SPEC_LIMIT:
        raise ValidationError(
            f"{what} must be a number within +-{SPEC_LIMIT:g}, got {val!r}")
    return float(val)


def _spec_wall(k: int, ws) -> ArcWall:
    """Wall k from its spec dict, refusing a malformed one."""
    if not isinstance(ws, dict):
        raise ValidationError(f"wall {k}: expected an object, got {ws!r}")
    missing = [key for key in WALL_KEYS if key not in ws]
    if missing:
        raise ValidationError(f"wall {k}: missing {', '.join(missing)}")
    center = ws["center"]
    if not isinstance(center, (list, tuple)) or len(center) != 2:
        raise ValidationError(f"wall {k}: center must be [x, y]")
    orientation = ws["orientation"]
    if isinstance(orientation, bool) or orientation not in (-1, 1):
        raise ValidationError(f"wall {k}: orientation must be +1 or -1, "
                              f"got {orientation!r}")
    return ArcWall(
        wall_id=k,
        center=(_spec_number(center[0], f"wall {k} center x"),
                _spec_number(center[1], f"wall {k} center y")),
        radius=_spec_number(ws["radius"], f"wall {k} radius"),
        theta_start=_spec_number(ws["theta_start"], f"wall {k} theta_start"),
        theta_end=_spec_number(ws["theta_end"], f"wall {k} theta_end"),
        orientation=int(orientation),
    )


def build_table(spec: dict, *, strict: bool = True) -> BilliardTable:
    """Build and validate a table from its canonical dict form.

    Parameters
    ----------
    spec : dict with keys "ambient" ("plane" | "torus") and "walls", each wall
        {"center": [x, y], "radius": R, "theta_start": a, "theta_end": b,
         "orientation": +1 | -1}; every number lies within +-SPEC_LIMIT.
        A spec of another shape raises ValidationError.
    strict : when True (default), enforce the dispersing-table assumptions:
        every wall outward convex (orientation -1), no cusps, in the plane a
        boundary loop enclosing the table, and on the torus a bounded
        horizon.  ``strict=False`` skips the dispersing and horizon
        checks so that focusing reference tables can be built for comparisons.
        A strict plane build also refuses two walls that cross away from a
        corner: a ray through the crossing switches wall there.

    Raises NonDispersing, CuspDetected, NonSimpleCorner, OpenBoundary,
    UnboundedHorizon or ValidationError accordingly.
    """
    if not isinstance(spec, dict):
        raise ValidationError("table spec must be an object")
    ambient = spec.get("ambient", "plane")
    if ambient not in ("plane", "torus"):
        raise ValidationError(f"unknown ambient {ambient!r}")
    wall_specs = spec.get("walls", [])
    if not isinstance(wall_specs, (list, tuple)) or not wall_specs:
        raise ValidationError("table needs a non-empty list of walls")

    walls = []
    for k, ws in enumerate(wall_specs):
        w = _spec_wall(k, ws)
        if strict and w.orientation != -1:
            raise NonDispersing(
                f"wall {k}: orientation +1 puts the table inside the disk")
        walls.append(w)
    walls = tuple(walls)

    corners, at_end, at_start = _build_corners(walls, strict)
    if strict:
        _check_closed_wall_contacts(walls, ambient)
        if ambient == "plane":
            _check_enclosed(walls, corners, at_end)

    kappas = [abs(w.kappa) for w in walls]
    tau_max = _exact_diameter(walls, corners) if ambient == "plane" else None
    constants = TableConstants(kappa_min=min(kappas), kappa_max=max(kappas),
                               tau_max=tau_max)
    table = BilliardTable(ambient=ambient, walls=walls, corners=corners,
                          constants=constants, corner_at_end=at_end,
                          corner_at_start=at_start)
    if strict and ambient == "plane":
        for x, y in table.crossings:
            if all(math.hypot(x - c.position[0], y - c.position[1])
                   > EPS_CROSS for c in corners):
                raise ValidationError(
                    f"walls cross at ({x:.6g}, {y:.6g}), away from every "
                    "corner")
    if strict and ambient == "torus":
        corridor = find_corridor(table)
        if corridor is not None:
            raise UnboundedHorizon(f"free corridor in direction {corridor}")
        # the scan certifies the absence of length-30 straight corridors
        table = table.with_constants(
            replace(constants, tau_max=FREE_SEGMENT_LEN + 2.0))
    return table


def _check_enclosed(walls, corners, corner_at_end) -> None:
    """Refuse a plane table unless some boundary loop (a closed wall, or
    walls joined end to start at corners) turns by +2*pi, adding
    orientation * span per arc and pi - gamma per corner: that loop
    encloses the table, while a scatterer's loop turns by -2*pi."""
    seen = set()
    for start in walls:
        turn = 0.0
        wall_id = start.wall_id
        while wall_id not in seen:
            seen.add(wall_id)
            wall = walls[wall_id]
            turn += wall.orientation * wall.span
            cid = corner_at_end[wall_id]
            if cid is None:
                break
            turn += math.pi - corners[cid].gamma
            wall_id = corners[cid].right_wall_id
        if round(turn / TWO_PI) == 1:
            return
    raise OpenBoundary("no boundary loop encloses the table")


def _check_closed_wall_contacts(walls, ambient: str) -> None:
    """Closed scatterers must be pairwise disjoint: tangency is a cusp.

    On the torus each pair is checked over lattice translates, and every
    scatterer against its own images.
    """
    closed = [w for w in walls if w.closed]
    offsets = [(0.0, 0.0)]
    if ambient == "torus":
        offsets = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    for a in range(len(closed)):
        for b in range(a, len(closed)):
            wa, wb = closed[a], closed[b]
            for ox, oy in offsets:
                if wa is wb and ox == 0.0 and oy == 0.0:
                    continue
                d = math.hypot(wb.center[0] + ox - wa.center[0],
                               wb.center[1] + oy - wa.center[1])
                rsum = wa.radius + wb.radius
                if abs(d - rsum) <= EPS_JOIN:
                    raise CuspDetected(
                        f"walls {wa.wall_id} and {wb.wall_id} are tangent")
                if d < rsum:
                    raise ValidationError(
                        f"walls {wa.wall_id} and {wb.wall_id} overlap")


# ---------------------------------------------------------------------------
# diameter (plane tables)

def _exact_diameter(walls, corners) -> float:
    """Max distance between boundary points, from a finite candidate set.

    Candidates: corner pairs, arc-vs-point far points, and center-line far
    pairs between circle pairs, each filtered by arc membership.
    """
    pts = [c.position for c in corners] + [
        w.frame_at(s)[0] for w in walls if not w.closed
        for s in (0.0, w.length)]
    best = max(_hypots([p[0] - q[0] for p in pts for q in pts],
                       [p[1] - q[1] for p in pts for q in pts]), default=0.0)
    # far points, as (q, p): the point q of a wall's circle farthest from a
    # candidate point p, then the points of walls a < b farthest apart on
    # the line through their centers, where their arcs hold them
    far = []
    pairs = [(w, w.center, p) for w in walls for p in pts]
    for (w, c, p), nd in zip(pairs, _hypots(
            [c[0] - p[0] for _, c, p in pairs],
            [c[1] - p[1] for _, c, p in pairs])):
        dx, dy = c[0] - p[0], c[1] - p[1]
        if nd >= 1e-15 and w.contains_angle(math.atan2(dy, dx)):
            far.append(((c[0] + w.radius * dx / nd,
                         c[1] + w.radius * dy / nd), p))
    pairs = [(wa, wb) for k, wa in enumerate(walls) for wb in walls[k + 1:]]
    for (wa, wb), nd in zip(pairs, _hypots(
            [wb.center[0] - wa.center[0] for wa, wb in pairs],
            [wb.center[1] - wa.center[1] for wa, wb in pairs])):
        (ax, ay), (bx, by) = wa.center, wb.center
        if nd < 1e-15:
            continue
        ux, uy = (bx - ax) / nd, (by - ay) / nd
        if wa.contains_angle(math.atan2(-uy, -ux)) and \
           wb.contains_angle(math.atan2(uy, ux)):
            far.append(((bx + wb.radius * ux, by + wb.radius * uy),
                        (ax - wa.radius * ux, ay - wa.radius * uy)))
    # a circle's own diameter, where its arc spans half the circle
    return max([best] + [2.0 * w.radius for w in walls if w.span >= math.pi]
               + _hypots([q[0] - p[0] for q, p in far],
                         [q[1] - p[1] for q, p in far]))


# ---------------------------------------------------------------------------
# torus corridor scan

def _circle_shadows(table):
    # each wall shadows with its full circle; exact for closed scatterers,
    # which is what torus tables are built from
    return [(w.center[0] % 1.0, w.center[1] % 1.0, w.radius)
            for w in table.walls]


def _rational_blocked(disks, p: int, q: int) -> bool:
    """True when every line of direction (p, q) on the unit torus crosses a disk."""
    L = math.hypot(p, q)
    spacing = 1.0 / L
    nx, ny = -q / L, p / L
    ivs = []
    for cx, cy, R in disks:
        if 2.0 * R >= spacing - 1e-12:
            return True
        s = (cx * nx + cy * ny - R) % spacing
        ivs.append((s, s + 2.0 * R))
    ivs.sort()
    s0, reach = ivs[0][0], ivs[0][1]
    for s, e in ivs[1:]:
        if s > reach + 1e-12:
            return False                       # gap on the offset circle
        reach = max(reach, e)
    return reach >= s0 + spacing - 1e-12


def find_corridor(table: BilliardTable):
    """Return a free-flight direction on the torus, or None when blocked.

    Checks every coprime rational direction up to |p|, |q| <= 20 analytically,
    then scans 10^4 angles for straight free segments of length 30: in each
    direction the translated disks are projected onto the transverse axis and
    a unit band of offsets is tested for an uncovered line.
    """
    disks = _circle_shadows(table)
    for p in range(0, MAX_RATIONAL + 1):
        for q in range(-MAX_RATIONAL, MAX_RATIONAL + 1):
            if p == 0 and q <= 0:
                continue
            if gcd(p, abs(q)) != 1:
                continue
            if not _rational_blocked(disks, p, q):
                return (p, q)

    win = int(math.ceil(FREE_SEGMENT_LEN)) + 2
    pts, rad = [], []
    for cx, cy, R in disks:
        for ix in range(-2, win + 1):
            for iy in range(-2, win + 1):
                pts.append((cx + ix, cy + iy))
                rad.append(R)
    P = np.asarray(pts)
    Rv = np.asarray(rad)
    for k in range(N_SCAN_DIRECTIONS):
        ang = math.pi * (k + 0.5) / N_SCAN_DIRECTIONS
        ux, uy = math.cos(ang), math.sin(ang)
        along = P[:, 0] * ux + P[:, 1] * uy
        m = (along >= -1.0) & (along <= FREE_SEGMENT_LEN + 1.0)
        if not m.any():
            return (ux, uy)
        off = -P[m, 0] * uy + P[m, 1] * ux
        lo = off - Rv[m]
        hi = off + Rv[m]
        order = np.argsort(lo, kind="stable")
        lo, hi = lo[order], hi[order]
        reach = np.maximum.accumulate(hi)
        # uncovered offset within the unit band [0, 1]?
        if lo[0] > 1e-12 or reach[-1] < 1.0 - 1e-12:
            return (ux, uy)
        gap = lo[1:] > reach[:-1] + 1e-12
        if gap.any() and np.any((reach[:-1][gap] < 1.0) & (lo[1:][gap] > 0.0)):
            return (ux, uy)
    return None
