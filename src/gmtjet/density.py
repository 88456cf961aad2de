"""Density ratios over geometric scale schedules and approximate tangent cones.

The limits "r -> 0" become traces over a geometric schedule of radii; a
deterministic rule turns each trace into a verdict (limit_zero,
limit_positive, diverges, inconclusive).  Upper quantities track a running
window maximum, lower quantities a running window minimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import DEFAULT_GRIDS, DEFAULT_TOL
from .geometry import (
    ClosedBall,
    Complement,
    Cone,
    Intersection,
    OpenBall,
    Plane,
    PlaneCone,
    Region,
    split_squares,
    vertical_excess,
)
from .measure import BALL, Family, MeasureOracle, SharedField, unit_ball_volume


@dataclass(frozen=True)
class ScaleSchedule:
    """Geometric radii r_j = r0 * q^j for j = 0..J-1."""

    r0: float = 0.5
    q: float = 2 ** -0.5
    J: int = 24

    def __post_init__(self):
        if not (0 < self.r0 < math.inf) or not (0 < self.q < 1) or self.J < 8:
            raise ValueError("need finite r0 > 0, q in (0,1), J >= 8")
        if not self.r0 * self.q ** (self.J - 1) > 0:
            raise ValueError("smallest radius r0 q^(J-1) underflows to 0")

    @property
    def radii(self) -> np.ndarray:
        return self.r0 * self.q ** np.arange(self.J)

    def clip_for(self, oracle: MeasureOracle, factor: float | None = None) -> "ScaleSchedule":
        """Drop scales where a single sample weight dominates the ball mass.

        `factor` overrides the default granularity factor; vanishing-density
        checks tolerate a much smaller one because their deep-scale masses
        are exact zeros rather than noisy positives.
        """
        J = self._reliable(oracle, factor)
        if J == self.J:
            return self
        if J < 8:
            raise ValueError("schedule has fewer than 8 reliable scales for this oracle")
        return ScaleSchedule(self.r0, self.q, J)

    def _reliable(self, oracle: MeasureOracle, factor: float | None = None) -> int:
        """How many radii clear the granularity rule."""
        return int(resolved(oracle, self.radii, oracle.m, factor).sum())

    def decisive_for(self, oracle: MeasureOracle) -> "ScaleSchedule":
        """This schedule, or the same r0 and J with q raised just enough
        that `clip_for` keeps the 3w - 1 radii `decide_verdict` needs.

        A coarse cloud can leave the default schedule one radius short, and
        then every trace is inconclusive for its length alone.  Returns self
        when it already keeps enough radii, or when no q < 1 would.
        """
        need = 3 * DEFAULT_TOL.trailing_window - 1
        if need > self.J or self._reliable(oracle) >= need:
            return self
        # the smallest q with r0 q^(need - 1) >= floor^(1/m), raised by far
        # more than the rounding of the radii
        floor = _granularity_floor(oracle)
        q = (1 + 1e-12) * (floor ** (1 / oracle.m) / self.r0) ** (1 / (need - 1))
        wider = ScaleSchedule(self.r0, q, self.J) if q < 1 else self
        return wider if wider._reliable(oracle) >= need else self

    def to_dict(self) -> dict:
        return {"r0": self.r0, "q": self.q, "J": self.J}


DYADIC_SCHEDULE = ScaleSchedule(r0=0.5, q=0.5, J=24)
# radii 0.75 * 2^-j land in the gaps of the dyadic annuli at every other step
DYADIC_GAP_SCHEDULE = ScaleSchedule(r0=0.75, q=0.5, J=24)


def _granularity_floor(oracle: MeasureOracle, factor: float | None = None) -> float:
    """factor * g, g the oracle's granularity (its largest sample weight)."""
    return (DEFAULT_TOL.granularity_factor if factor is None else factor) * oracle.granularity()


def resolved(oracle: MeasureOracle, length, m: int, factor: float | None = None):
    """The granularity rule: no single sample dominates a mass at scale
    `length` (an array or a number) when g <= 0 or length^m >= factor * g."""
    floor = _granularity_floor(oracle, factor)
    return np.logical_or(floor <= 0, length ** m >= floor)


@dataclass
class Verdict:
    status: str                      # holds / fails / inconclusive / precondition_failed
    diagnostics: dict = field(default_factory=dict)

    def __bool__(self):
        return self.status == "holds"


@dataclass
class DensityTrace:
    point: np.ndarray
    m: int
    schedule: ScaleSchedule
    entries: list                    # [(r, ratio, err), ...]
    verdict: str = "inconclusive"
    estimate: float | None = None

    def ratios(self) -> np.ndarray:
        return np.array([e[1] for e in self.entries])

    def to_dict(self) -> dict:
        obj = {
            "point": [float(c) for c in np.atleast_1d(self.point)],
            "m": self.m,
            "schedule": self.schedule.to_dict(),
            "entries": [[float(r), float(v), float(e)] for r, v, e in self.entries],
            "verdict": self.verdict,
        }
        if self.estimate is not None:
            obj["estimate"] = float(self.estimate)
        return obj


# ---------------------------------------------------------------------------
# verdict rule


def _running_window(values: np.ndarray, errs: np.ndarray, w: int, fn):
    out_v = np.array([fn(values[j - w + 1:j + 1]) for j in range(w - 1, len(values))])
    out_e = np.array([errs[j - w + 1:j + 1].max() for j in range(w - 1, len(values))])
    return out_v, out_e


def _trailing_window(ratios, errs, window_fn):
    """(trail, trail_e, prev): the last w running-window values, their errors
    and the w values before them; None for a trace shorter than 3w - 1."""
    w = DEFAULT_TOL.trailing_window
    if len(ratios) < 3 * w - 1:
        return None
    der, der_e = _running_window(np.asarray(ratios, dtype=float),
                                 np.asarray(errs, dtype=float), w, window_fn)
    return der[-w:], der_e[-w:], der[-2 * w:-w]


def decide_verdict(ratios: np.ndarray, errs: np.ndarray, window_fn) -> tuple[str, float | None]:
    """Deterministic verdict from a ratio trace.

    The trace is first reduced to a running-window statistic (max for upper
    limits, min for lower limits), then classified from its trailing window.
    """
    window = _trailing_window(ratios, errs, window_fn)
    if window is None:
        return "inconclusive", None
    trail, trail_e, prev = window
    if np.all(trail + trail_e < DEFAULT_TOL.tol_zero) \
            and trail.max() <= 0.5 * prev.max() + 1e-300:
        return "limit_zero", 0.0
    if np.all(np.diff(trail) > 0) \
            and trail[-1] - trail_e[-1] > DEFAULT_TOL.diverge_threshold:
        return "diverges", None
    est = float(trail.mean())
    spread = (trail.max() - trail.min()) / max(est, 1e-300)
    if est > DEFAULT_TOL.tol_zero and spread < DEFAULT_TOL.positive_spread \
            and trail_e.max() <= DEFAULT_TOL.positive_spread * max(est, 1e-300):
        return "limit_positive", est
    return "inconclusive", None


# ---------------------------------------------------------------------------
# densities


def density_ratio(oracle: MeasureOracle, a: np.ndarray, m: int, r: float) -> tuple[float, float]:
    """mass(B(a,r)) normalized by alpha(m) r^m."""
    if r <= 0:
        raise ValueError("r must be positive")
    val, err = oracle.mass(ClosedBall(np.asarray(a, dtype=float), r))
    norm = unit_ball_volume(m) * r ** m
    return val / norm, err / norm


def _trace(oracle: MeasureOracle, a, m: int, schedule: ScaleSchedule, window_fn,
           family: Family = BALL, clip_factor: float | None = None) -> DensityTrace:
    """Ratios mass(B(a, r) ^ family.region(r)) / alpha(m) r^m over the
    clipped schedule, from one oracle trace, with their verdict."""
    a = np.asarray(a, dtype=float)
    schedule = schedule.clip_for(oracle, factor=clip_factor)
    radii = [float(r) for r in schedule.radii]
    entries = []
    for r, (val, err) in zip(radii, oracle.trace(a, radii, family)):
        norm = unit_ball_volume(m) * r ** m
        entries.append((r, val / norm, err / norm))
    ratios = np.array([e[1] for e in entries])
    errs = np.array([e[2] for e in entries])
    verdict, est = decide_verdict(ratios, errs, window_fn)
    return DensityTrace(a, m, schedule, entries, verdict, est)


def upper_density(oracle: MeasureOracle, a, m: int, schedule: ScaleSchedule) -> DensityTrace:
    return _trace(oracle, a, m, schedule, np.max)


def lower_density(oracle: MeasureOracle, a, m: int, schedule: ScaleSchedule) -> DensityTrace:
    return _trace(oracle, a, m, schedule, np.min)


# ---------------------------------------------------------------------------
# tangent cone membership


# whether a trace verdict shows a positive limit; undecided ones are absent
_POSITIVE_LIMIT = {"limit_positive": True, "diverges": True, "limit_zero": False}


def trace_status(verdict: str, vanishing: bool = False) -> str:
    """holds / fails / inconclusive for a trace verdict expected to show a
    positive limit, or with `vanishing` a zero one."""
    positive = _POSITIVE_LIMIT.get(verdict)
    if positive is None:
        return "inconclusive"
    return "holds" if positive != vanishing else "fails"


def combine_statuses(statuses) -> str:
    """One verdict from per-aperture statuses.

    "untested" entries are ignored; any failure fails, holds needs every
    tested aperture to hold, and nothing tested is inconclusive.
    """
    tested = [s for s in statuses if s != "untested"]
    if "fails" in tested:
        return "fails"
    if tested and all(s == "holds" for s in tested):
        return "holds"
    return "inconclusive"


def over_apertures(test: Callable[[float], tuple[str, object]]) -> Verdict:
    """The quantifier "for every aperture eps > 0" over the aperture grid.

    `test(eps)` gives each aperture's status and details, in grid order.  The
    verdict combines the statuses; its diagnostics key both by eps, under
    "per_eps" and "details"."""
    per_eps, details = {}, {}
    for eps in DEFAULT_GRIDS.eps_grid:
        per_eps[eps], details[eps] = test(eps)
    return Verdict(combine_statuses(per_eps.values()),
                   {"per_eps": per_eps, "details": details})


def _normalized(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0:
        return v
    if not (0.5 <= norm <= 2.0):
        v = v / norm
    return v


def in_upper_tangent_cone(oracle: MeasureOracle, a, m: int, v,
                          schedule: ScaleSchedule = ScaleSchedule()) -> Verdict:
    """v in Tan*^m(phi, a): positive upper density along every cone E(a,v,eps)."""
    a = np.asarray(a, dtype=float)
    v = _normalized(v)
    if np.linalg.norm(v) == 0:
        trace = upper_density(oracle, a, m, schedule)
        return Verdict(trace_status(trace.verdict), {"v": v.tolist(), "trace": trace})

    def test(eps):
        trace = upper_density(oracle.restrict(Cone(a, v, eps)), a, m, schedule)
        return trace_status(trace.verdict), trace

    verdict = over_apertures(test)
    verdict.diagnostics["v"] = v.tolist()
    return verdict


def eta_uniform_condition(oracle: MeasureOracle, m: int, schedule: ScaleSchedule,
                          eps: float, mass_fn: Callable[[float], tuple[float, float]],
                          norm: float = 1.0) -> tuple[str, dict]:
    """Grid test of "exists eta > 0 with mass_fn(r) >= eta norm r^m at small r".

    A scale r is eligible when the lateral resolution eps*r clears the
    granularity rule and r <= eps * r0: the aperture sets how deep the
    schedule must reach before it says anything about that eps.  The finest
    few eligible scales stand in for "all small r".  Returns "untested" when
    fewer than three scales are eligible.
    """
    radii = [float(r) for r in schedule.radii
             if resolved(oracle, eps * r, m) and r <= eps * schedule.r0]
    radii = radii[-max(3, DEFAULT_TOL.trailing_window):]
    if len(radii) < 3:
        return "untested", {"eps": eps, "radii": radii}
    rows = [(r,) + tuple(mass_fn(r)) for r in radii]
    diag = {"eps": eps, "rows": rows}
    for eta in DEFAULT_GRIDS.eta_grid:
        if all(val - err >= eta * norm * r ** m for r, val, err in rows):
            diag["eta"] = eta
            return "holds", diag
    eta_min = min(DEFAULT_GRIDS.eta_grid)
    if any(val + err < eta_min * norm * r ** m for r, val, err in rows):
        return "fails", diag
    return "inconclusive", diag


def in_lower_tangent_cone(oracle: MeasureOracle, a, m: int, v,
                          schedule: ScaleSchedule = ScaleSchedule(),
                          base: DensityTrace | None = None) -> Verdict:
    """v in Tan_*^m(phi, a): positive lower density plus the eta-uniform
    ball-mass condition mass(U(a + r v, eps r)) >= eta r^m on the finest
    eligible scales of each aperture.  `base` is the lower-density trace at
    a when the caller has it, so that the candidates of one plane share it.
    """
    a = np.asarray(a, dtype=float)
    if base is None:
        base = lower_density(oracle, a, m, schedule)
    v = _normalized(v)
    density = trace_status(base.verdict)
    diag = {"v": v.tolist(), "lower_density": base}
    vn = float(np.linalg.norm(v))
    if density == "fails" or vn == 0:
        return Verdict(density, diag)

    def test(eps):
        def mass_fn(r):
            # the hull contains the open ball, so the region is the ball, and
            # Intersection.bounding_ball culls about the ball's center, which
            # moves with r.  The hull stays because the two touch at their
            # far end, which the clip engine places at (vn + eps) r for the
            # hull and at vn r + eps r for the ball: dropping the hull can
            # move last bits.
            hull = ClosedBall(a, (vn + eps) * r)
            return oracle.mass(Intersection(hull, OpenBall(a + r * v, eps * r)))

        return eta_uniform_condition(oracle, m, schedule, eps, mass_fn)

    verdict = over_apertures(test)
    verdict.diagnostics.update(diag)
    # an undecided density keeps the cone undecided; it is no aperture
    # status, so all-untested apertures stay inconclusive when it holds
    if verdict.status == "holds" and density == "inconclusive":
        verdict.status = "inconclusive"
    return verdict


# ---------------------------------------------------------------------------
# vanishing-density conditions

# when a vanishing condition holds the deep-scale masses are exact zeros, so
# a much smaller granularity clip is safe and buys the decisive tail; when it
# fails the tail is a noisy positive, for which only the conservative prefix
# is trustworthy.  Traces are taken with this clip first, then settled
# against the factor-clipped prefix of the same entries.
VANISHING_CLIP = 4.0


def settle_vanishing(oracle: MeasureOracle, trace: DensityTrace, m: int) -> str:
    """holds / fails / inconclusive for an upper trace expected to vanish."""
    status = trace_status(trace.verdict, vanishing=True)
    if status != "inconclusive":
        return status
    keep = [e for e in trace.entries if resolved(oracle, e[0], m)]
    ratios = np.array([e[1] for e in keep])
    errs = np.array([e[2] for e in keep])
    verdict, est = decide_verdict(ratios, errs, np.max)
    if verdict != "inconclusive":
        trace.verdict, trace.estimate = verdict, est
        return trace_status(verdict, vanishing=True)
    # failing the vanishing condition does not require a clean limit: a
    # trailing window bounded away from zero beyond its error bars is
    # decisive, provided the trace has stopped decreasing (a steady
    # decay means the transition scale just is not resolved yet)
    window = _trailing_window(ratios, errs, np.min)
    if window is not None:
        trail, trail_e, prev = window
        slack = trail_e.max() + DEFAULT_TOL.positive_spread * prev.min()
        if np.all(trail - trail_e > DEFAULT_TOL.tol_zero) \
                and trail.min() >= prev.min() - slack:
            return "fails"
    return "inconclusive"


def vanishing_density_trace(oracle: MeasureOracle, a, m: int, schedule: ScaleSchedule,
                            family: Family) -> tuple[str, DensityTrace]:
    """Upper-density trace of mass(B(a,r) ^ family.region(r)), settled."""
    trace = _trace(oracle, a, m, schedule, np.max, family=family,
                   clip_factor=VANISHING_CLIP)
    return settle_vanishing(oracle, trace, m), trace


# ---------------------------------------------------------------------------
# cone condition equivalence


class ConeOutside(Family):
    """B(a, r) minus the plane cone X(a, T, eps), free of scale.

    The field is `split_squares` of T at a, shared with VerticalExcess."""

    def __init__(self, split: SharedField, T: Plane, a: np.ndarray, eps: float):
        self.field, self.T, self.a, self.eps = split, T, a, eps

    def region(self, r):
        return Complement(PlaneCone(self.T, self.a, self.eps))

    def keep(self, values, r):
        tang2, norm2 = values
        return ~(norm2 <= self.eps**2 * tang2)


class VerticalExcess(Family):
    """B(a, r) ^ {z : |T_perp_nat(z - a)| > eps r}, as `vertical_excess`."""

    def __init__(self, split: SharedField, T: Plane, a: np.ndarray, eps: float):
        self.field, self.T, self.a, self.eps = split, T, a, eps

    def region(self, r):
        return vertical_excess(self.T, self.a, self.eps * r)

    def keep(self, values, r):
        t = self.eps * r
        return ~(values[1] < t**2) if t > 0 else None


def cone_condition_check(oracle: MeasureOracle, a, T: Plane,
                         schedule: ScaleSchedule = ScaleSchedule()) -> tuple[Verdict, Verdict]:
    """Conditions (ii) and (iii) of the tangent-cone equivalence.

    (ii): density of the set outside every cone X(a, T, eps) vanishes.
    (iii): the fraction of B(a,r) lying at vertical distance > eps r from
    a + T vanishes as r -> 0.
    Both read one tangential/normal split of the points about a.
    """
    a = np.asarray(a, dtype=float)
    m = T.m
    split = SharedField(lambda X: np.stack(split_squares(T, a, X)))

    def condition(family):
        return over_apertures(lambda eps: vanishing_density_trace(
            oracle, a, m, schedule, family(split, T, a, eps)))

    return condition(ConeOutside), condition(VerticalExcess)


# ---------------------------------------------------------------------------
# density transfer


class FnPositive(Region):
    """{x : g(x) > 0} for a vectorized scalar field g."""

    def __init__(self, g: Callable[[np.ndarray], np.ndarray]):
        self.g = g

    def contains_many(self, X):
        return np.asarray(self.g(np.atleast_2d(X))) > 0


class Exceeds(Family):
    """B(a, r) ^ {x : field(x) > scale * r^exponent}.

    The field is a SharedField, so the traces of one condition (several
    apertures or lambdas) read it once; `region(r)` is the FnPositive that
    oracles without a trace engine measure.
    """

    def __init__(self, field: SharedField, scale: float, exponent: float):
        self.field, self.scale, self.exponent = field, scale, exponent

    def region(self, r):
        thresh = self.scale * r**self.exponent
        return FnPositive(lambda X: self.field.fn(X) - thresh)

    def keep(self, values, r):
        return values - self.scale * r**self.exponent > 0


def _transfer_families(f, a: np.ndarray, gamma: float, lam: float) -> tuple[Exceeds, Exceeds]:
    """The hypothesis family B(a, r) ^ {|f| > lam r^gamma}, and the
    conclusion family B(a, r) ^ {|f(x)| > 2^gamma lam |x - a|^gamma}, whose
    threshold moves with x, not with r."""
    size = SharedField(lambda X: np.abs(f(X)))
    excess = SharedField(lambda X: np.abs(f(X))
                         - 2 ** gamma * lam * np.linalg.norm(np.atleast_2d(X) - a, axis=1) ** gamma)
    return Exceeds(size, lam, gamma), Exceeds(excess, 0.0, 0.0)


def density_transfer_check(domain_oracle: MeasureOracle,
                           f: Callable[[np.ndarray], np.ndarray],
                           a, gamma: float, lam: float, M: float,
                           schedule: ScaleSchedule = ScaleSchedule()) -> Verdict:
    """Hypothesis: the sublevel failure set {|f| > lam r^gamma} has density < M
    in B(a,r) at every scale.  Conclusion checked: the density of
    {|f(x)| > 2^gamma lam |x - a|^gamma} stays below M (1 - 2^-m)^-1.

    Each is one density trace.  `f` maps (N, n) points to (N,) values and
    must treat every row alone: a trace evaluates it once on the rows of
    its largest ball and reads each radius from those values.  The
    diagnostics carry both traces; precondition_failed names the first
    scale at which the hypothesis fails.
    """
    a = np.asarray(a, dtype=float)
    m = domain_oracle.m
    bound = M / (1 - 2.0 ** -m)
    hyp_family, con_family = _transfer_families(f, a, gamma, lam)
    hyp = _trace(domain_oracle, a, m, schedule, np.max, family=hyp_family)
    for r, ratio, err in hyp.entries:
        if ratio - err >= M:
            return Verdict("precondition_failed",
                           {"scale": r, "hypothesis_ratio": ratio, "M": M, "hypothesis": hyp})
    con = _trace(domain_oracle, a, m, schedule, np.max, family=con_family)
    diag = {"hypothesis": hyp, "conclusion": con, "bound": bound}
    if all(v + e < bound for _, v, e in con.entries):
        return Verdict("holds", diag)
    if any(v - e >= bound for _, v, e in con.entries):
        return Verdict("fails", diag)
    return Verdict("inconclusive", diag)


# ---------------------------------------------------------------------------
# local second moments


def local_moments(oracle: MeasureOracle, a, radii) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenvalues and eigenvectors (as columns), largest first, of the
    weighted second-moment matrix of (x - a) / r, averaged over the radii
    whose balls hold mass; None when none does."""
    a = np.asarray(a, dtype=float)
    cov = np.zeros((oracle.n, oracle.n))
    used = 0
    for r in radii:
        pts, w = oracle.samples_in_ball(a, float(r))
        if len(pts) == 0 or w.sum() <= 0:
            continue
        d = (pts - a) / float(r)
        cov += (d * w[:, None]).T @ d / w.sum()
        used += 1
    if used == 0:
        return None
    vals, vecs = np.linalg.eigh(cov / used)
    return vals[::-1], vecs[:, ::-1]


# ---------------------------------------------------------------------------
# blow-up tangent plane (functional convergence)


def _bump_family(n: int, rho: float = 0.5):
    """Tensor bumps max(0, 1 - |x - c|/rho)^2 at 2n+1 fixed centers."""
    centers = [np.zeros(n)]
    for i in range(n):
        for sign in (1.0, -1.0):
            c = np.zeros(n)
            c[i] = sign * 0.5
            centers.append(c)

    def make(c):
        def f(X):
            d = np.linalg.norm(np.atleast_2d(X) - c, axis=1)
            return np.maximum(0.0, 1.0 - d / rho) ** 2
        return f

    return [(c, make(c)) for c in centers], rho


def _plane_integral(plane: Plane, fn, c: np.ndarray, rho: float) -> float:
    """Integral of fn over the plane through 0, supported in B(c, rho), by
    the midpoint rule on 256 cells per axis."""
    c_t = plane.tangential(c)
    offset2 = float(np.dot(c - c_t, c - c_t))
    if offset2 >= rho ** 2:
        return 0.0
    rad = math.sqrt(rho ** 2 - offset2)
    m = plane.m
    cells = 256
    axes = [np.linspace(-rad, rad, cells, endpoint=False) + rad / cells
            for _ in range(m)]
    grids = np.meshgrid(*axes, indexing="ij")
    chi = np.stack([g.ravel() for g in grids], axis=1)
    pts = plane.from_coords(chi + plane.tangent_coords(c_t[None, :]))
    cell = (2 * rad / cells) ** m
    return float(fn(pts).sum() * cell)


def blow_up_tangent(oracle: MeasureOracle, a, m: int,
                    schedule: ScaleSchedule = ScaleSchedule()):
    """Rescaled-integral tangent plane in the functional sense.

    The r^-m integrals of the probe bumps against the measure rescaled about
    a must stabilize over the trailing scales.  The plane scored is the
    tangent stage's: the top m eigenvectors of `local_moments` at the three
    finest clipped radii.  Returns (plane, theta_hat) when the probe limits
    match theta times the plane integrals for one theta > 0 (zero limits
    where the plane misses a probe); returns None otherwise.
    """
    a = np.asarray(a, dtype=float)
    n = oracle.n
    schedule = schedule.clip_for(oracle)
    radii = schedule.radii
    probe_fns, rho = _bump_family(n)
    support = 0.5 + rho  # centers at distance <= 1/2

    def rescaled_integral(fn, r):
        """r^-m times the integral of fn((x - a) / r) over the set; the
        samples are freed on return, before the next radius fetches its own."""
        pts, wts = oracle.samples_in_ball(a, support * r)
        integ = float(np.dot(wts, fn((pts - a) / r))) if len(pts) else 0.0
        return integ / r ** m

    # empirical traces per probe, the first unstable one deciding
    w = DEFAULT_TOL.trailing_window
    limits = []
    for c, fn in probe_fns:
        vals = [rescaled_integral(fn, float(r)) for r in radii]
        trail = np.array(vals[-w:])
        spread = trail.max() - trail.min()
        level = max(abs(trail).max(), 1e-300)
        stable_zero = abs(trail).max() < DEFAULT_TOL.tol_zero
        stable_pos = spread <= DEFAULT_TOL.positive_spread * level
        if not (stable_zero or stable_pos):
            return None
        limits.append(float(trail.mean()))

    moments = local_moments(oracle, a, radii[-3:])
    if moments is None:
        return None
    plane = Plane.from_spanning(moments[1][:, :m].T)
    thetas = []
    for (c, fn), lim in zip(probe_fns, limits):
        pint = _plane_integral(plane, fn, c, rho)
        if pint < DEFAULT_TOL.tol_zero:
            if abs(lim) > DEFAULT_TOL.tol_zero:
                return None
            continue
        thetas.append(lim / pint)
    if not thetas or min(thetas) <= 0:
        return None
    thetas = np.array(thetas)
    if (thetas.max() - thetas.min()) / thetas.mean() < 2 * DEFAULT_TOL.positive_spread:
        return plane, float(thetas.mean())
    return None
