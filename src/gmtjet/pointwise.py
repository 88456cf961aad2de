"""Distance-function tangent cones and pointwise differentiability tests.

Everything here works with the distance function of the set rather than with
mass queries: cone membership probes delta(a + r v) / r along a scale
schedule, the order-1 test reconstructs a plane from a fixed direction net,
and the carving construction extracts the full-density subset on which the
distance-based and measure-based notions agree.
"""
from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOL
from .density import (
    VANISHING_CLIP,
    ScaleSchedule,
    Verdict,
    decide_verdict,
    trace_status,
    vanishing_density_trace,
)
from .geometry import (
    Complement,
    Jet,
    Plane,
    Region,
    apply_differential,
    jet_to_full_differential,
)
from .measure import BALL, MeasureOracle


# ---------------------------------------------------------------------------
# distance functions


def _nearest_samples(oracle: MeasureOracle, x: np.ndarray):
    """Samples of the oracle near x, found by doubling the search radius."""
    r = 0.05
    while r <= 64.0:
        pts, w = oracle.samples_in_ball(x, r)
        if len(pts) > 0:
            # widen once so the nearest sample's own neighborhood is present
            d = float(np.linalg.norm(pts - x, axis=1).min())
            pts, w = oracle.samples_in_ball(x, max(r, 2 * d + 1e-12))
            return pts
        r *= 2.0
    return np.zeros((0, oracle.n))


def _oracle_distance(oracle: MeasureOracle, x: np.ndarray) -> float:
    """Nearest-neighbor distance with the sampling-gap floor zeroed out.

    Distances up to half the local inter-sample spacing are indistinguishable
    from zero for a discretized set, so they are reported as zero; otherwise
    a point between two quadrature nodes of a curve would appear to sit off
    the set.
    """
    x = np.asarray(x, dtype=float)
    pts = _nearest_samples(oracle, x)
    if len(pts) == 0:
        return float("inf")
    dists = np.linalg.norm(pts - x, axis=1)
    order = np.argsort(dists)
    delta = float(dists[order[0]])
    if len(pts) >= 2:
        nearest = pts[order[0]]
        spacing = float(np.linalg.norm(pts[order[1:]] - nearest, axis=1).min())
        # a probe midway between nodes of a curved set sits a hair beyond
        # exactly half the spacing, so leave some slack above 1/2
        if delta <= 0.6 * spacing:
            return 0.0
    return delta


def distance_fn(target):
    """A callable x -> delta(x) for a fixture, oracle, or plain callable."""
    if hasattr(target, "distance") and callable(target.distance):
        return lambda x: float(target.distance(np.asarray(x, dtype=float)))
    if isinstance(target, MeasureOracle):
        return lambda x: _oracle_distance(target, x)
    if callable(target):
        return lambda x: float(target(np.asarray(x, dtype=float)))
    raise TypeError(f"no distance function for {type(target).__name__}")


def distance_to_set(target, x) -> float:
    return distance_fn(target)(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# pointwise tangent cones


def _cone_trace(target, a, v, schedule: ScaleSchedule):
    dist = distance_fn(target)
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    vn = float(np.linalg.norm(v))
    scale = vn if vn > 0 else 1.0
    vals = np.array([dist(a + r * v) / (r * scale) for r in schedule.radii])
    return vals


def _cone_verdict(target, a, v, schedule, window_fn) -> Verdict:
    vals = _cone_trace(target, a, v, schedule)
    verdict, est = decide_verdict(vals, np.zeros_like(vals), window_fn)
    return Verdict(trace_status(verdict, vanishing=True),
                   {"trace_verdict": verdict, "estimate": est,
                    "radii": [float(r) for r in schedule.radii],
                    "ratios": [float(t) for t in vals]})


def in_pt_upper_cone(target, a, v, schedule: ScaleSchedule = ScaleSchedule()) -> Verdict:
    """liminf of delta(a + r v) / r over the schedule vanishes."""
    return _cone_verdict(target, a, v, schedule, np.min)


def in_pt_lower_cone(target, a, v, schedule: ScaleSchedule = ScaleSchedule()) -> Verdict:
    """limsup of delta(a + r v) / r over the schedule vanishes."""
    return _cone_verdict(target, a, v, schedule, np.max)


def direction_net(n: int) -> list[np.ndarray]:
    """Signed basis directions plus all normalized two-axis diagonals."""
    net = []
    for i in range(n):
        for s in (1.0, -1.0):
            e = np.zeros(n)
            e[i] = s
            net.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    e = np.zeros(n)
                    e[i], e[j] = si, sj
                    net.append(e / np.sqrt(2.0))
    return net


def _tangent_probe_net(T: Plane) -> list[np.ndarray]:
    """Ambient unit vectors spanning the plane, basis rows and diagonals."""
    probes = []
    for row in T.basis:
        probes.append(row)
        probes.append(-row)
    for i in range(T.m):
        for j in range(i + 1, T.m):
            probes.append((T.basis[i] + T.basis[j]) / np.sqrt(2.0))
            probes.append((T.basis[i] - T.basis[j]) / np.sqrt(2.0))
    return probes


def pt_diff_order1_test(target, a, schedule: ScaleSchedule = ScaleSchedule(),
                        oracle: MeasureOracle | None = None) -> Plane | None:
    """First-order pointwise differentiability: a validated tangent plane.

    Probes the direction net for upper/lower cone membership; the two must
    agree on every direction and the accepted directions must fill out a
    linear subspace exactly (rejected directions may not lie in it).  Then
    the two uniform closeness conditions between the set and the plane are
    checked on the schedule: sup of the plane-distance over set points in
    B(a, r) is o(r), and sup of the set-distance over plane points in
    B(a, r) is o(r).  Returns the plane, or None.
    """
    a = np.asarray(a, dtype=float)
    if oracle is None:
        oracle = getattr(target, "oracle", None)
        if oracle is None and isinstance(target, MeasureOracle):
            oracle = target
    if oracle is None:
        raise TypeError("need an oracle for the uniform closeness checks")
    n = oracle.n

    accepted, rejected = [], []
    for v in direction_net(n):
        up = in_pt_upper_cone(target, a, v, schedule)
        lo = in_pt_lower_cone(target, a, v, schedule)
        if "inconclusive" in (up.status, lo.status):
            return None
        if up.status != lo.status:
            return None
        (accepted if up.status == "holds" else rejected).append(v)
    if not accepted:
        return None

    D = np.stack(accepted)
    _, svals, vecs = np.linalg.svd(D, full_matrices=False)
    m = int(np.sum(svals > 1e-3 * svals[0]))
    if m >= n:
        # either genuinely full-dimensional or a non-planar cone; a plane
        # answer is only meaningful for a proper subspace
        if rejected:
            return None
        T = Plane.axis(n, list(range(n)))
    else:
        T = Plane.from_spanning(vecs[:m])
    for v in accepted:
        if np.linalg.norm(v @ T.normal_projector) > DEFAULT_TOL.angle_tol:
            return None
    for v in rejected:
        if np.linalg.norm(v @ T.normal_projector) <= DEFAULT_TOL.angle_tol:
            return None

    # set stays uniformly close to the plane; only scales the oracle can
    # resolve are queried, or empty balls would fake a vanishing trace
    try:
        clipped = schedule.clip_for(oracle, factor=VANISHING_CLIP)
    except ValueError:
        return None
    # the trace must spend about two windows below the zero threshold while
    # still halving window over window, which takes many schedule steps in
    # the oracle's resolvable range; re-grade it at the slowest ratio the
    # halving test tolerates
    q = 0.85
    min_len = 3 * DEFAULT_TOL.trailing_window - 1
    J = int(np.log(float(clipped.radii[-1]) / schedule.r0) / np.log(q))
    if J < min_len:
        return None
    sampled = ScaleSchedule(schedule.r0, q, J)
    vals = []
    for r in sampled.radii:
        pts, _ = oracle.samples_in_ball(a, float(r))
        if len(pts) == 0:
            vals.append(0.0)
            continue
        normal = (pts - a) @ T.normal_projector
        vals.append(float(np.linalg.norm(normal, axis=1).max()) / float(r))
    verdict, _ = decide_verdict(np.array(vals), np.zeros(len(vals)), np.max)
    if verdict != "limit_zero":
        return None

    # plane stays uniformly close to the set
    dist = distance_fn(target)
    probes = _tangent_probe_net(T)
    fracs = (0.25, 0.5, 0.75, 1.0)
    vals = []
    for r in schedule.radii:
        worst = 0.0
        for u in probes:
            for f in fracs:
                worst = max(worst, dist(a + f * float(r) * u))
        vals.append(worst / float(r))
    verdict, _ = decide_verdict(np.array(vals), np.zeros(len(vals)), np.max)
    if verdict != "limit_zero":
        return None
    return T


# ---------------------------------------------------------------------------
# carving the full-density subset


class CarvedRegion(Region):
    """Shell-wise intersection with the cone and jet-graph neighborhoods.

    Shell j (counted from the coarsest schedule radius) keeps the points of
    the double cone X(a, T, 1) whose vertical deviation from the jet graph
    is at most (2j)^-1 |chi|^k for alpha = 0, or lambda |chi|^(k+alpha) with
    the jet's Hoelder constant for alpha > 0.
    """

    def __init__(self, a: np.ndarray, jet: Jet, radii):
        self.a = np.asarray(a, dtype=float)
        self.jet = jet
        self.radii = np.asarray(radii, dtype=float)
        if jet.alpha > 0 and not jet.hoelder_constant > 0:
            raise ValueError("alpha > 0 carving needs the Hoelder constant")

    def contains_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        jet, T = self.jet, self.jet.plane
        d = X - self.a
        rad = np.linalg.norm(d, axis=1)
        chi = T.tangent_coords(d)
        normal = d @ T.normal_projector
        horiz = np.linalg.norm(chi, axis=1)
        vert = np.linalg.norm(normal, axis=1)
        cone_ok = vert <= horiz + 1e-15

        graph = jet.eval_coords(chi) @ T.normal_projector
        dev = np.linalg.norm(normal - graph, axis=1)
        # shell index, 1-based from the coarsest radius; points beyond the
        # schedule count as shell 1
        j = np.searchsorted(-self.radii, -rad, side="right")
        j = np.maximum(j, 1)
        if jet.alpha > 0:
            thresh = jet.hoelder_constant * horiz ** (jet.degree + jet.alpha)
        else:
            thresh = horiz ** jet.degree / (2.0 * j)
        return cone_ok & (dev <= thresh + 1e-15)


def carve_full_density_subset(oracle: MeasureOracle, a, jet: Jet,
                              schedule: ScaleSchedule = ScaleSchedule()):
    """The subset B of the set on which the jet controls every point.

    Returns (sub_oracle, verdict).  The verdict holds when the removed mass
    has vanishing density at a, i.e. B has full density and inherits the
    differentiability of the jet.
    """
    a = np.asarray(a, dtype=float)
    region = CarvedRegion(a, jet, schedule.radii)
    carved = oracle.restrict(region)
    removed = oracle.restrict(Complement(region))
    status, trace = vanishing_density_trace(removed, a, jet.plane.m, schedule, BALL)
    return carved, Verdict(status, {"removed_trace": trace})


# ---------------------------------------------------------------------------
# touching balls


def touching_ball_check(target, a, nu, r: float, jet_or_sff) -> Verdict:
    """Empty open ball of radius r on the nu side, and the curvature bound.

    The ball U(a + r nu, r) must miss the set (otherwise the verdict is
    precondition_failed); granted that, the second-order form evaluated on
    tangent directions must satisfy b(v, v) . nu <= |v|^2 / r.
    """
    a = np.asarray(a, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if abs(np.linalg.norm(nu) - 1.0) > 1e-9:
        raise ValueError("nu must be a unit vector")
    if r <= 0:
        raise ValueError("r must be positive")

    delta = distance_to_set(target, a + r * nu)
    diag: dict = {"ball_distance": delta, "r": r}
    if delta < r - DEFAULT_TOL.touching_tol:
        return Verdict("precondition_failed", diag)

    if isinstance(jet_or_sff, Jet):
        tensor = jet_to_full_differential(jet_or_sff, 2)
        b = lambda u, v: apply_differential(tensor, [u, v])
        T = jet_or_sff.plane
    else:
        b, T = jet_or_sff
    worst = -np.inf
    for v in _tangent_probe_net(T):
        val = float(np.dot(b(v, v), nu))
        worst = max(worst, val - float(np.dot(v, v)) / r)
    diag["max_violation"] = worst
    return Verdict("holds" if worst <= DEFAULT_TOL.touching_tol else "fails", diag)
