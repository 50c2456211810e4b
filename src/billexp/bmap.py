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
from dataclasses import dataclass, replace

from .errors import (
    BilliardError,
    SectorBoundary,
    SequenceOverflow,
    SingularInput,
)
from .flow import EPS_TAN, Ray, classify_collision, first_collision, reflect
from .geometry import EPS_CORNER, BilliardTable, Corner

HALF_PI = math.pi / 2.0
K0_DEFAULT = 30
K_INF = 10 ** 9      # sentinel strip index for phi = +-pi/2 exactly

Matrix2 = tuple[tuple[float, float], tuple[float, float]]


@dataclass(frozen=True)
class PhasePoint:
    wall_id: int
    r: float
    phi: float


@dataclass(frozen=True)
class MapImage:
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


@dataclass(frozen=True)
class MapResult:
    images: tuple[MapImage, ...]

    @property
    def regular(self) -> bool:
        return (len(self.images) == 1
                and self.images[0].label == "regular"
                and not self.images[0].grazing
                and not self.images[0].trail)


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

def _phi_from(v_out, n, t) -> float:
    return math.atan2(v_out[0] * t[0] + v_out[1] * t[1],
                      v_out[0] * n[0] + v_out[1] * n[1])


def _reflection_image(table, wall, r_img, v_in, tau, kappa0, phi0, label, trail):
    _, n, t = wall.frame_at(r_img)
    v_out = reflect(v_in, n)
    phi1 = _phi_from(v_out, n, t)
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
        w = table.wall(oc.wall_id)
        return [_reflection_image(table, w, oc.r, v, tau, kappa0, phi0,
                                  "regular", trail)]

    if oc.kind == "grazing":
        w = table.wall(oc.wall_id)
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
        w = table.wall(wall_id)
        r_img = w.length if wall_id == corner.left_wall_id else 0.0
        label = ("left-wall" if wall_id == corner.left_wall_id
                 else "right-wall")
        if press < -EPS_TAN:
            images.append(_reflection_image(table, w, r_img, v, tau,
                                            kappa0, phi0, label, trail))
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


def _corner_of_departure(table, wall, r):
    if wall.closed:
        return None
    if r <= EPS_CORNER:
        return table.corner_at_start[wall.wall_id]
    if r >= wall.length - EPS_CORNER:
        return table.corner_at_end[wall.wall_id]
    return None


def forward(table: BilliardTable, p: PhasePoint) -> MapResult:
    """All one-sided limits of the next collision from phase point p.

    Raises SingularInput for |phi| = pi/2 and for corner-endpoint departures
    aimed within EPS_TAN of the wedge boundary; departures pressing into the
    adjacent wall resolve as an immediate zero-length collision, so corner
    reflection chains can be stepped through image by image.
    """
    if abs(p.phi) >= HALF_PI:
        raise SingularInput("departure tangent to the wall")
    wall = table.wall(p.wall_id)
    ray = outgoing_ray(table, p)
    v = ray.direction

    cid = _corner_of_departure(table, wall, p.r)
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
            other = table.wall(other_id)
            r_img = other.length if other_id == corner.left_wall_id else 0.0
            img = _reflection_image(table, other, r_img, v, 0.0, wall.kappa,
                                    p.phi, "corner-step", ())
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
        out.append(replace(im, point=involute(im.point), derivative=d))
    return MapResult(tuple(out))


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

def cone_slopes(tau: float, kappa0: float, phi0: float, kappa1: float,
                phi1: float) -> tuple[float, float]:
    """Image under the step derivative of the full upward cone dphi/dr >= 0.

    Both edges stay positive on dispersing walls, so the cone family
    {0 <= slope <= inf} is forward invariant.
    """
    c0 = math.cos(phi0)
    c1 = math.cos(phi1)
    lo = kappa1 + kappa0 * c1 / (tau * kappa0 + c0)
    hi = kappa1 + c1 / tau if tau > 0.0 else math.inf
    return (lo, hi) if lo <= hi else (hi, lo)


def expansion_factor(deriv: Matrix2, slope: float) -> float:
    """Euclidean stretch of a unit vector of given dphi/dr slope."""
    if math.isinf(slope):
        vx, vy = 0.0, 1.0
    else:
        h = math.hypot(1.0, slope)
        vx, vy = 1.0 / h, slope / h
    (a, b), (c, d) = deriv
    return math.hypot(a * vx + b * vy, c * vx + d * vy)


# ---------------------------------------------------------------------------
# sampling

def random_phase_point(table: BilliardTable, rng) -> PhasePoint:
    """Draw from the invariant collision measure cos(phi) dr dphi."""
    lengths = [w.length for w in table.walls]
    total = sum(lengths)
    x = rng.random() * total
    for w, L in zip(table.walls, lengths):
        if x <= L or w is table.walls[-1]:
            r = min(x, L)
            break
        x -= L
    phi = math.asin(2.0 * rng.random() - 1.0)
    return PhasePoint(w.wall_id, r, phi)


# ---------------------------------------------------------------------------
# operative cones

def unstable_cone_at(table: BilliardTable, z: PhasePoint):
    """Operative unstable cone at z: the push-forward along the arriving step.

    Needs a unique non-grazing arriving branch; otherwise SingularInput.
    """
    res = inverse(table, z)
    if not res.regular:
        raise SingularInput("no single smooth branch arrives at this point")
    pre = res.images[0]
    k0 = table.wall(pre.point.wall_id).kappa
    k1 = table.wall(z.wall_id).kappa
    return cone_slopes(pre.tau, k0, pre.point.phi, k1, z.phi)


def interior_slope(lo: float, hi: float, x: float = 0.5) -> float:
    """A slope strictly inside (lo, hi); x in (0,1) picks the position."""
    if math.isinf(hi):
        hi = 10.0 * lo + 1.0
    if lo <= 0.0:
        return lo + x * (hi - lo)
    return lo * (hi / lo) ** x


# ---------------------------------------------------------------------------
# certified empirical constants

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
    departing branches were both regular.
    """
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0]))
    best = math.inf
    used = 0
    for _ in range(samples):
        z = random_phase_point(table, rng)
        try:
            lo, _hi = unstable_cone_at(table, z)
            res = forward(table, z)
        except BilliardError:
            continue
        if not res.regular:
            continue
        im = res.images[0]
        m = expansion_factor(im.derivative, lo)
        best = min(best, m * math.cos(im.point.phi))
        used += 1
    if used == 0:
        raise ValueError("no regular samples; table or sampler is broken")
    return best, used


def certify_hyperbolicity(table: BilliardTable, samples: int, seed: int,
                          n_max: int = 12):
    """Fit growth floors: min over samples of |DF^n v| >= (1/c) Lambda^n.

    v starts inside the operative cone.  Returns (c, Lambda, residuals, mins);
    c is inflated after the least-squares fit so the floor holds at every n.
    """
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC1]))
    mins = [math.inf] * n_max
    used = 0
    attempts = 0
    while used < samples and attempts < 20 * samples:
        attempts += 1
        z = random_phase_point(table, rng)
        try:
            lo, hi = unstable_cone_at(table, z)
        except BilliardError:
            continue
        walk = orbit(table, z, n_max)
        if walk.status != "ok" or any(im.label != "regular" or im.trail
                                      for im in walk.images):
            continue
        s = interior_slope(lo, hi)
        h = math.hypot(1.0, s)
        vx, vy = 1.0 / h, s / h
        used += 1
        for i, im in enumerate(walk.images):
            (a, b), (c, d) = im.derivative
            vx, vy = a * vx + b * vy, c * vx + d * vy
            mins[i] = min(mins[i], math.hypot(vx, vy))
    if used == 0:
        raise ValueError("no full-length regular orbits sampled")
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
