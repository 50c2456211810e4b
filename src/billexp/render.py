"""Deterministic SVG output for tables, phase-space artifacts, and portraits.

Each view draws a record the library returns, as it is returned:

* ``table``    -- the billiard domain: walls, corner markers, and an orbit
  walk (``bmap.orbit``): its start and each image's point, and the
  flight that leaves each point for the next image's ``tau``.  On the
  torus, flights are wrapped back into the unit cell instead of drawn as
  chords.
* ``phase``    -- collision space with r horizontal and phi vertical, one
  panel per wall chart.  Each curve is an integer tag (singularity level or
  homogeneity strip index), which picks the stroke color, and its nodes:
  one polyline per curve, or a dot for a one-node curve.
* ``portrait`` -- the fan of unstable sectors at a boundary point; active
  sectors are shaded solid, inactive ones pale and dashed.

All coordinates are emitted with a fixed 6-decimal format and every
collection is iterated in a fixed order, so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import math

from .bmap import HALF_PI, OrbitResult, outgoing_ray
from .geometry import BilliardTable

# tab-style cycle; index 0 is reserved for "untagged" gray
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#e377c2", "#17becf")
NEUTRAL = "#555555"

WALL_STROKE = "#000000"
CORNER_FILL = "#d62728"
ORBIT_STROKE = "#1f77b4"
FRAME_STROKE = "#888888"

_WRAP_EPS = 1e-12


def _f(x: float) -> str:
    # -0.0 and 0.0 must not produce different bytes
    return "%.6f" % (x + 0.0,)


def tag_color(k: int) -> str:
    """Stroke color for an integer tag (level or strip index)."""
    if k == 0:
        return NEUTRAL
    return PALETTE[(abs(k) - 1) % len(PALETTE)]


class _Canvas:
    """Accumulates SVG elements; renders to a single deterministic string."""

    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self.parts: list[str] = []

    def add(self, element: str) -> None:
        self.parts.append(element)

    def line(self, x1, y1, x2, y2, stroke, width=1.0, dash=None) -> None:
        d = ' stroke-dasharray="%s"' % dash if dash else ""
        self.add('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" '
                 'stroke-width="%s"%s/>' % (_f(x1), _f(y1), _f(x2), _f(y2),
                                            stroke, _f(width), d))

    def polyline(self, pts, stroke, width=1.0, dash=None) -> None:
        d = ' stroke-dasharray="%s"' % dash if dash else ""
        coords = " ".join("%s,%s" % (_f(x), _f(y)) for x, y in pts)
        self.add('<polyline points="%s" fill="none" stroke="%s" '
                 'stroke-width="%s"%s/>' % (coords, stroke, _f(width), d))

    def circle(self, cx, cy, r, fill) -> None:
        self.add('<circle cx="%s" cy="%s" r="%s" fill="%s"/>'
                 % (_f(cx), _f(cy), _f(r), fill))

    def rect(self, x, y, w, h, stroke) -> None:
        self.add('<rect x="%s" y="%s" width="%s" height="%s" fill="none" '
                 'stroke="%s"/>' % (_f(x), _f(y), _f(w), _f(h), stroke))

    def text(self, x, y, s, size=12, fill="#333333") -> None:
        s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        self.add('<text x="%s" y="%s" font-family="monospace" '
                 'font-size="%s" fill="%s">%s</text>'
                 % (_f(x), _f(y), _f(size), fill, s))

    def path(self, d, fill, stroke, opacity=1.0, dash=None) -> None:
        dd = ' stroke-dasharray="%s"' % dash if dash else ""
        self.add('<path d="%s" fill="%s" fill-opacity="%s" stroke="%s"%s/>'
                 % (d, fill, _f(opacity), stroke, dd))

    def render(self) -> str:
        head = ('<svg xmlns="http://www.w3.org/2000/svg" width="%s" '
                'height="%s" viewBox="0 0 %s %s">'
                % (_f(self.width), _f(self.height),
                   _f(self.width), _f(self.height)))
        bg = ('<rect x="0" y="0" width="%s" height="%s" fill="#ffffff"/>'
              % (_f(self.width), _f(self.height)))
        return "\n".join([head, bg] + self.parts + ["</svg>"]) + "\n"


# ---------------------------------------------------------------------------
# table view

def _torus_segments(origin, direction, tau):
    """Split a torus flight into unit-cell pieces, each wrapped to [0,1)^2."""
    segs = []
    t = 0.0
    x, y = origin
    dx, dy = direction
    while t < tau - _WRAP_EPS:
        cx, cy = math.floor(x), math.floor(y)
        step = tau - t
        for pos, d, lo in ((x - cx, dx, 0.0), (y - cy, dy, 0.0)):
            if d > _WRAP_EPS:
                step = min(step, (1.0 - pos) / d)
            elif d < -_WRAP_EPS:
                step = min(step, (lo - pos) / d)
        step = max(step, _WRAP_EPS)
        step = min(step, tau - t)
        segs.append(((x - cx, y - cy),
                     (x + step * dx - cx, y + step * dy - cy)))
        x += step * dx
        y += step * dy
        # nudge off the cell edge so the next floor() lands in the new cell
        x += _WRAP_EPS * dx
        y += _WRAP_EPS * dy
        t += step + _WRAP_EPS
    return segs


TABLE_SIZE = 640.0     # the longer side of the drawn domain


def table_svg(table: BilliardTable, walk: OrbitResult) -> str:
    """Draw walls, corner markers and an orbit walk: a dot at ``walk.start``
    and at each image's point, and from point k the flight of length
    ``walk.images[k].tau`` that reaches point k + 1.
    """
    xs, ys = [], []
    wall_pts = []
    for w in table.walls:
        pts = [w.frame_at(w.length * i / 256)[0] for i in range(257)]
        wall_pts.append(pts)
        xs.extend(p[0] for p in pts)
        ys.extend(p[1] for p in pts)
    if table.ambient == "torus":
        xs.extend((0.0, 1.0))
        ys.extend((0.0, 1.0))
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    pad = 0.06 * span
    scale = TABLE_SIZE / (span + 2 * pad)

    def to_svg(p):
        return ((p[0] - lo_x + pad) * scale,
                (hi_y - p[1] + pad) * scale)

    cv = _Canvas((hi_x - lo_x + 2 * pad) * scale,
                 (hi_y - lo_y + 2 * pad) * scale)

    if table.ambient == "torus":
        cell = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]
        cv.polyline([to_svg(p) for p in cell], FRAME_STROKE, 1.0, dash="4,3")

    for pts in wall_pts:
        cv.polyline([to_svg(p) for p in pts], WALL_STROKE, 1.5)

    points = [walk.start] + [im.point for im in walk.images]
    for i, z in enumerate(points):
        ray = outgoing_ray(table, z)
        p = to_svg(ray.origin)
        if i < len(walk.images):
            tau = walk.images[i].tau
            if table.ambient == "torus":
                for a, b in _torus_segments(ray.origin, ray.direction, tau):
                    cv.polyline([to_svg(a), to_svg(b)], ORBIT_STROKE, 0.8)
            else:
                cv.polyline([p, to_svg(ray.at(tau))], ORBIT_STROKE, 0.8)
        cv.circle(p[0], p[1], 2.4 if i == 0 else 1.4,
                  "#2ca02c" if i == 0 else ORBIT_STROKE)

    for corner in table.corners:
        q = to_svg(corner.position)
        cv.circle(q[0], q[1], 3.0, CORNER_FILL)

    return cv.render()


# ---------------------------------------------------------------------------
# phase view

CHART_H = 300.0
PHASE_WIDTH = 960.0
CHART_GAP = 28.0
MARGIN = 34.0


def phase_svg(curves, table: BilliardTable, k0: int) -> str:
    """Plot tagged curves, one panel per wall of ``table``, r horizontal.

    ``curves`` is a sequence of (tag, nodes) pairs, the nodes PhasePoints of
    one curve in order: a polyline through two or more nodes, a dot for
    one.  Dotted lines mark the first homogeneity strip's edges, pi/2 - |phi|
    = 1/k0^2.
    """
    lengths = {w.wall_id: w.length for w in table.walls}
    wall_ids = sorted(lengths)

    usable = PHASE_WIDTH - 2 * MARGIN - CHART_GAP * (len(wall_ids) - 1)
    total_len = sum(lengths[w] for w in wall_ids)
    x_scale = usable / total_len
    y_scale = CHART_H / math.pi

    x_off = {}
    x = MARGIN
    for w in wall_ids:
        x_off[w] = x
        x += lengths[w] * x_scale + CHART_GAP

    def to_svg(p):
        return (x_off[p.wall_id] + p.r * x_scale,
                MARGIN + (HALF_PI - p.phi) * y_scale)

    cv = _Canvas(PHASE_WIDTH, CHART_H + 2 * MARGIN)
    u0 = 1.0 / (k0 * k0)
    for w in wall_ids:
        width = lengths[w] * x_scale
        cv.rect(x_off[w], MARGIN, width, CHART_H, FRAME_STROKE)
        cv.line(x_off[w], MARGIN + CHART_H / 2,
                x_off[w] + width, MARGIN + CHART_H / 2,
                FRAME_STROKE, 0.5, dash="2,4")
        for phi in (HALF_PI - u0, -HALF_PI + u0):
            y = MARGIN + (HALF_PI - phi) * y_scale
            cv.line(x_off[w], y, x_off[w] + width, y,
                    "#bbbbbb", 0.5, dash="1,3")
        cv.text(x_off[w] + 2, MARGIN - 6, "wall %d" % w, 11)

    for tag, nodes in curves:
        color = tag_color(tag)
        pts = [to_svg(p) for p in nodes]
        if len(pts) == 1:
            cv.circle(pts[0][0], pts[0][1], 1.2, color)
        else:
            cv.polyline(pts, color, 1.0)

    cv.text(MARGIN, CHART_H + MARGIN + 16,
            "r horizontal, phi vertical (+pi/2 top)", 11)
    return cv.render()


# ---------------------------------------------------------------------------
# portrait view

SECTOR_R = 200.0
LABEL_MIN_WIDTH = 0.12


def _wedge(cx, cy, radius, a_lo, a_hi):
    x0 = cx + radius * math.cos(a_lo)
    y0 = cy - radius * math.sin(a_lo)
    x1 = cx + radius * math.cos(a_hi)
    y1 = cy - radius * math.sin(a_hi)
    large = 1 if (a_hi - a_lo) % (2 * math.pi) > math.pi else 0
    # y is flipped, so mathematically increasing angle is sweep 0
    return ("M %s %s L %s %s A %s %s 0 %d 0 %s %s Z"
            % (_f(cx), _f(cy), _f(x0), _f(y0),
               _f(radius), _f(radius), large, _f(x1), _f(y1)))


def portrait_svg(doc: dict) -> str:
    """Fan diagram of a sector portrait (the JSON form).

    Active sectors get a solid type-keyed fill; inactive ones are pale with
    a dashed outline.  Itineraries label sectors wide enough to hold text.
    """
    size = 2 * SECTOR_R + 120.0
    cx = cy = size / 2
    cv = _Canvas(size, size)
    cv.circle(cx, cy, 2.5, "#000000")

    for sec in doc["sectors"]:
        lo, hi = sec["theta_lo"], sec["theta_hi"]
        if hi < lo:
            hi += 2 * math.pi
        if hi - lo >= 2 * math.pi - 1e-9:
            # a full ball: two half-disc wedges, since an arc from a point
            # to itself renders as nothing
            path = (_wedge(cx, cy, SECTOR_R, lo, lo + math.pi) + " "
                    + _wedge(cx, cy, SECTOR_R, lo + math.pi, hi))
        else:
            path = _wedge(cx, cy, SECTOR_R, lo, hi)
        if sec["active"]:
            fill = {"A": PALETTE[0], "B": PALETTE[1]}.get(sec["type"],
                                                          "#999999")
            cv.path(path, fill, "#333333", opacity=0.55)
        else:
            cv.path(path, "#cccccc", FRAME_STROKE, opacity=0.25, dash="3,3")
        if hi - lo >= LABEL_MIN_WIDTH and sec["itinerary"]:
            label = ";".join(sec["itinerary"])
            if len(label) > 14:
                label = label[:13] + "~"
            mid = 0.5 * (lo + hi)
            tx = cx + 0.62 * SECTOR_R * math.cos(mid)
            ty = cy - 0.62 * SECTOR_R * math.sin(mid)
            cv.text(tx, ty, label, 10)

    center = doc["center"]
    where = "wall %d r=%s phi=%s" % (center["wall_id"], _f(center["r"]),
                                     _f(center["phi"]))
    cv.text(12, size - 14,
            "center %s  rho_hat %s  sectors %d"
            % (where, _f(doc["rho_hat"]), len(doc["sectors"])), 11)
    return cv.render()
