"""Higher-order jet estimation by the iterated homogeneous scheme.

The pipeline at a point a: estimate the tangent plane (second-moment
eigen-gap plus the cone-condition and lower-cone validations), then fit one
homogeneous form per degree 2..k, checking at each stage that the set keeps
uniform mass in thin cylinders around the lifted probes and that the
vertical residual above the fitted graph has vanishing density.  Between
stages the fitted form is sheared away so the next degree sees a flattened
set.  For alpha > 0 a Hoelder constant is searched on a dyadic grid.
"""
from __future__ import annotations

import numpy as np

from .config import DEFAULT_GRIDS, DEFAULT_TOL
from .density import (
    DensityTrace,
    Exceeds,
    ScaleSchedule,
    Verdict,
    combine_statuses,
    cone_condition_check,
    eta_uniform_condition,
    in_lower_tangent_cone,
    local_moments,
    lower_density,
    over_apertures,
    vanishing_density_trace,
)
from .geometry import (
    ClosedBall,
    Cylinder,
    HomogeneousForm,
    Intersection,
    Jet,
    Plane,
    ShearMap,
    monomials,
    multi_indices,
)
from .measure import MappedOracle, MeasureOracle, SharedField, unit_ball_volume


# ---------------------------------------------------------------------------
# tangent plane


def _estimate_tangent(oracle: MeasureOracle, a, schedule: ScaleSchedule):
    a = np.asarray(a, dtype=float)
    n = oracle.n
    diag: dict = {}
    try:
        sched = schedule.clip_for(oracle)
    except ValueError:
        diag["reason"] = "schedule_too_coarse"
        return None, diag

    moments = local_moments(oracle, a, sched.radii[-3:])
    if moments is None:
        diag["reason"] = "no_local_mass"
        return None, diag
    vals, vecs = moments
    diag["eigenvalues"] = [float(v) for v in vals]

    # a curved m-set opens a second spectral gap at scale r (curvature
    # contributes r^2 along the normal eigenvectors), so several gap
    # positions can coexist; try them from the largest m down and let the
    # density and cone validations arbitrate
    gaps = [j for j in range(1, n)
            if vals[j - 1] >= DEFAULT_TOL.eigen_gap * max(vals[j], 1e-300)]
    if not gaps:
        diag["reason"] = "rank_ambiguous"
        return None, diag

    attempts = []
    any_open = False
    for m in sorted(gaps, reverse=True):
        cdiag: dict = {"m": m}
        T = Plane.from_spanning(vecs[:, :m].T)
        if m < n:
            T = refine_tangent_plane(oracle, a, T, sched.radii[-DEFAULT_TOL.fit_scales:])
        cdiag["plane"] = T
        diag.setdefault("candidate_plane", T)
        diag["candidate_m"] = m

        lo = lower_density(oracle, a, m, sched)
        cdiag["lower_density"] = lo
        if lo.verdict == "limit_zero":
            cdiag["reason"] = "theta_zero"
            attempts.append(cdiag)
            continue

        vii, viii = cone_condition_check(oracle, a, T, schedule)
        cdiag["cone_ii"], cdiag["cone_iii"] = vii, viii
        statuses = [vii.status, viii.status]
        if combine_statuses(statuses) != "fails":
            cone_members = []
            for v in (sign * row for row in T.basis for sign in (1.0, -1.0)):
                member = in_lower_tangent_cone(oracle, a, m, v, schedule, base=lo)
                cone_members.append(member)
                statuses.append(member.status)
                if member.status == "fails":
                    break
            cdiag["lower_cone"] = cone_members
        status = combine_statuses(statuses)
        if status == "holds":
            diag["attempts"] = attempts
            diag["validation"] = cdiag
            return (m, T), diag
        any_open |= status == "inconclusive"
        attempts.append(cdiag)
    diag["attempts"] = attempts
    if attempts and all(a.get("reason") == "theta_zero" for a in attempts):
        diag["reason"] = "theta_zero"
    else:
        diag["reason"] = ("validation_inconclusive" if any_open
                          else "validation_failed")
    return None, diag


def estimate_tangent_plane(oracle: MeasureOracle, a,
                           schedule: ScaleSchedule = ScaleSchedule()):
    """Validated approximate tangent plane at a, or None.

    Returns (m, Plane).  The dimension comes from the eigen-gap rule on the
    local second-moment matrix (each split with ratio >= eigen_gap, largest
    m first), and the density and cone validations decide among them.
    """
    result, _ = _estimate_tangent(oracle, a, schedule)
    return result


# ---------------------------------------------------------------------------
# homogeneous form fitting


REFINE_ROUNDS = 3


def refine_tangent_plane(oracle: MeasureOracle, a, T: Plane, fit_scales) -> Plane:
    """Rotate T to kill the linear term of the local graph regression.

    The second-moment plane is only accurate to roughly 1e-6 in angle.  That
    is plenty for order <= 2, but a tilt theta contributes theta * r to the
    vertical residual, which crosses the order-3 thresholds eps * r^3 well
    inside the tested scales.  REFINE_ROUNDS rounds of low-degree regression
    drive the tilt to roundoff on graph-like sets and are a no-op on sets
    with no local graph structure (the linear term comes back empty or zero).
    """
    a = np.asarray(a, dtype=float)
    if T.m >= T.n:
        return T
    for _ in range(REFINE_ROUNDS):
        _, med = _scale_regression(oracle, a, T, fit_scales, (1, 2), (3, 4), 1)
        if med is None:
            return T
        b = med[:T.m] @ T.normal_projector
        tilt = float(np.abs(b).max())
        T = Plane.from_spanning(T.basis + b)
        if tilt < 1e-13:
            break
    return T


def fit_homogeneous_form(oracle: MeasureOracle, a, T: Plane, i: int,
                         fit_scales) -> HomogeneousForm:
    """Weighted least-squares degree-i form over the given fit scales.

    Per scale the samples within trim_factor * r of the plane are fitted and
    the coefficient-wise median across scales is returned.  Columns of
    degree i + 2 are included as nuisance when the sample count allows: they
    absorb the leading truncation bias of the local graph, which otherwise
    leaks into the degree-i coefficients at the square of the fit scale.
    """
    a = np.asarray(a, dtype=float)
    if T.m >= T.n:
        raise ValueError("plane has no normal directions to fit")
    terms, med = _scale_regression(oracle, a, T, fit_scales, (i,), (i + 2,), i)
    if med is None:
        raise ValueError(
            f"degree-{i} fit underdetermined: need {len(terms)} in-band samples")
    coeffs = {beta: med[j] @ T.normal_projector for j, (_, beta) in enumerate(terms)}
    return HomogeneousForm(i, T, coeffs)


def _scale_regression(oracle: MeasureOracle, a: np.ndarray, T: Plane, fit_scales,
                      degrees, nuisance_degrees, base: int):
    """Per-scale weighted fits of the local graph over T, median over scales.

    At each scale r the samples within trim_factor * r of the plane are
    fitted: target N(x - a) / r^base against columns chi^beta r^(deg - base),
    chi = T(x - a) / r, for the terms (deg, beta) of `degrees`, plus those of
    `nuisance_degrees` when the sample count allows.  Returns the terms and
    the coefficient-wise median of their rows, (len(terms), n), or None for
    the median when no scale has len(terms) in-band samples.
    """
    terms = [(d, beta) for d in degrees for beta in multi_indices(T.m, d)]
    nuisance = [(d, beta) for d in nuisance_degrees for beta in multi_indices(T.m, d)]
    per_scale = []
    for r in fit_scales:
        r = float(r)
        pts, w = oracle.samples_in_ball(a, r)
        if len(pts) == 0:
            continue
        d = pts - a
        normal = d @ T.normal_projector
        keep = (np.linalg.norm(normal, axis=1) <= DEFAULT_TOL.trim_factor * r) & (w > 0)
        if keep.sum() < len(terms):
            continue
        chi = T.tangent_coords(d[keep]) / r
        cols = terms + nuisance if keep.sum() >= len(terms) + len(nuisance) else terms
        A = np.hstack([monomials(chi, [beta]) * r**(deg - base) for deg, beta in cols])
        sol = _ridge_solve(A, normal[keep] / r**base, w[keep], DEFAULT_TOL.ridge)
        per_scale.append(sol[:len(terms)])
    if not per_scale:
        return terms, None
    return terms, np.median(np.stack(per_scale), axis=0)


# ---------------------------------------------------------------------------
# residual regions and shears


def _ridge_solve(A, B, w, ridge):
    """Weighted least squares with a scale-invariant ridge.

    Columns are normalized to unit weighted norm before the ridge is added,
    otherwise columns with small natural scale (high-degree monomials times
    powers of r, times sample weights) fall below the ridge and get shrunk
    to zero, which leaks their signal into the surviving coefficients.
    """
    sw = np.sqrt(w)[:, None]
    Aw = A * sw
    norms = np.linalg.norm(Aw, axis=0)
    norms[norms == 0] = 1.0
    Aw = Aw / norms
    gram = Aw.T @ Aw + ridge * np.eye(A.shape[1])
    sol = np.linalg.solve(gram, Aw.T @ (B * sw))
    return sol / norms[:, None]


def _vertical_residual(T: Plane, a: np.ndarray, eval_fn):
    """x -> |vertical part of (x - a) minus the graph value|, row by row.

    `eval_fn` is the fitted polynomial in tangent coordinates relative to a:
    it gets T(x - a), (N, m), and returns normal vectors (N, n), so a form's
    or a jet's `eval_coords` is passed as is.
    """

    def residual(X):
        d = np.atleast_2d(X) - a
        vert = d @ T.normal_projector - eval_fn(T.tangent_coords(d))
        return np.linalg.norm(vert, axis=1)

    return residual


def shear_displacement_bound(T: Plane, a, forms):
    """Bound on the vertical shift of the reduction shear over B(center, radius)."""
    a = np.asarray(a, dtype=float)
    chi_a = T.tangent_coords(a[None, :])[0]
    forms = list(forms)

    def bound(center, radius):
        chi_c = T.tangent_coords(np.asarray(center, dtype=float)[None, :])[0]
        R = float(np.linalg.norm(chi_c - chi_a)) + float(radius)
        total = 0.0
        for form in forms:
            csum = sum(float(np.linalg.norm(c)) for c in form.coefficients.values())
            total += csum * R**form.degree
        return total

    return bound


def _reduction_shear(T: Plane, a: np.ndarray, poly) -> ShearMap:
    """x -> x - poly(T(x) - T(a)): flattens the graph of poly over T at a.

    `poly` takes tangent coordinates relative to a, like the residual
    regions; the shear itself acts on absolute coordinates T(x), so T(a) is
    subtracted here, once.
    """
    chi_a = T.tangent_coords(a[None, :])[0]
    return ShearMap(T, lambda chi: poly(np.atleast_2d(chi) - chi_a))


# ---------------------------------------------------------------------------
# stage conditions


def _cylinder_condition(cur: MeasureOracle, a: np.ndarray, T: Plane,
                        form: HomogeneousForm, i: int,
                        schedule: ScaleSchedule) -> Verdict:
    """Uniform mass in thin cylinders around probes lifted through the form."""
    m = T.m
    probes = [np.zeros(m)]
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        probes.extend([e, -e])
    norm = unit_ball_volume(m)

    def test(eps):
        def mass_fn(r):
            hull = ClosedBall(a, 2 * r)
            los, his = [], []
            for p in probes:
                chi = (r / 2) * p
                z = a + T.from_coords(chi[None, :])[0] + form.eval_coords(chi[None, :])[0]
                cyl = Cylinder(T, z, eps * r, eps * r**i)
                val, err = cur.mass(Intersection(hull, cyl))
                los.append(val - err)
                his.append(val + err)
            lo, hi = min(los), min(his)
            return (lo + hi) / 2, (hi - lo) / 2

        return eta_uniform_condition(cur, m, schedule, eps, mass_fn, norm=norm)

    return over_apertures(test)


def _residual_condition(cur: MeasureOracle, a: np.ndarray, T: Plane,
                        eval_fn, exponent: float,
                        schedule: ScaleSchedule) -> Verdict:
    """Vanishing density of {vertical residual > eps r^exponent} per aperture."""
    residual = SharedField(_vertical_residual(T, a, eval_fn))
    return over_apertures(lambda eps: vanishing_density_trace(
        cur, a, T.m, schedule, Exceeds(residual, eps, exponent)))


def _hoelder_search(cur: MeasureOracle, a: np.ndarray, T: Plane, eval_fn,
                    exponent: float, schedule: ScaleSchedule):
    """Smallest dyadic lambda whose residual set has vanishing density."""
    residual = SharedField(_vertical_residual(T, a, eval_fn))
    last = ("inconclusive", None)
    for j in sorted(DEFAULT_GRIDS.lambda_exponents):
        lam = 2.0**j
        status, trace = vanishing_density_trace(
            cur, a, T.m, schedule, Exceeds(residual, lam, exponent))
        if status == "holds":
            return lam, "holds", trace
        last = (status, trace)
    return None, last[0], last[1]


# ---------------------------------------------------------------------------
# the iterated scheme


def iterated_jet_fit(oracle: MeasureOracle, a, k: int, alpha: float,
                     schedule: ScaleSchedule = ScaleSchedule(),
                     tangent: tuple[int, Plane] | None = None) -> tuple[Jet, Verdict]:
    """Order-(k, alpha) jet of the set at a, with a holds/fails verdict.

    `tangent` short-circuits the tangent-plane stage with a known (m, T).
    """
    a = np.asarray(a, dtype=float)
    if k < 1:
        raise ValueError("jet order k must be >= 1")
    diag: dict = {"k": k, "alpha": alpha}
    if tangent is None:
        est, tdiag = _estimate_tangent(oracle, a, schedule)
        diag["tangent"] = tdiag
        if est is None:
            reason = tdiag.get("reason", "")
            status = "fails" if reason in ("validation_failed", "theta_zero",
                                           "no_local_mass") \
                else "inconclusive"
            plane = tdiag.get("candidate_plane")
            if plane is None:
                plane = Plane.axis(oracle.n, list(range(max(1, min(oracle.m, oracle.n - 1)))))
            diag["stage"] = "tangent_plane"
            return Jet.zero(a, plane, k, alpha), Verdict(status, diag)
        m, T = est
    else:
        m, T = tangent
        if k >= 2:
            try:
                sched = schedule.clip_for(oracle)
                T = refine_tangent_plane(oracle, a, T, sched.radii[-DEFAULT_TOL.fit_scales:])
            except ValueError:
                pass
    diag["m"] = m

    forms: dict[int, HomogeneousForm] = {}
    cur: MeasureOracle = oracle
    status = "holds"
    stages = []
    lam = 0.0
    for i in range(2, k + 1):
        stage: dict = {"degree": i}
        try:
            fit_sched = schedule.clip_for(cur)
        except ValueError:
            stage["error"] = "no reliable fit scales"
            stages.append(stage)
            status, diag["stage"] = "inconclusive", f"fit_{i}"
            break
        try:
            form = fit_homogeneous_form(cur, a, T, i,
                                        fit_sched.radii[-DEFAULT_TOL.fit_scales:])
        except ValueError as exc:
            stage["error"] = str(exc)
            stages.append(stage)
            status, diag["stage"] = "inconclusive", f"fit_{i}"
            break
        stage["coefficients"] = {beta: c for beta, c in form.coefficients.items()}

        cylinder = _cylinder_condition(cur, a, T, form, i, schedule)
        stage["cylinder"] = cylinder
        if cylinder.status != "holds":
            stages.append(stage)
            status, diag["stage"] = cylinder.status, f"cylinder_{i}"
            break
        residual = _residual_condition(cur, a, T, form.eval_coords, float(i), schedule)
        stage["residual"] = residual
        stages.append(stage)
        if residual.status != "holds":
            status, diag["stage"] = residual.status, f"residual_{i}"
            break
        forms[i] = form
        if i < k and form.coefficient_norm() > 1e-12:
            # a zero form shears by the identity; skip the wrapper so exact
            # backends keep their analytic region handling
            shear = _reduction_shear(T, a, form.eval_coords)
            cur = MappedOracle(cur, shear.apply, shear_displacement_bound(T, a, [form]))
    diag["stages"] = stages

    if status == "holds" and alpha > 0:
        eval_fn = forms[k].eval_coords if k in forms else Jet.zero(a, T, k).eval_coords
        lam_found, lam_status, trace = _hoelder_search(cur, a, T, eval_fn,
                                                       k + alpha, schedule)
        diag["hoelder"] = {"lambda": lam_found, "status": lam_status,
                           "trace": trace}
        if lam_found is None:
            status, diag["stage"] = lam_status, "hoelder"
        else:
            lam = lam_found

    jet = Jet(a, T, k, alpha, forms, lam)
    return jet, Verdict(status, diag)


# ---------------------------------------------------------------------------
# cross-checks


def jet_uniqueness_crosscheck(oracle: MeasureOracle, a, T: Plane, k: int,
                              schedule: ScaleSchedule = ScaleSchedule()) -> Verdict:
    """Direct all-degrees fit vs the iterated scheme; coefficients must agree."""
    a = np.asarray(a, dtype=float)
    m = T.m
    fit_scales = schedule.clip_for(oracle).radii[-DEFAULT_TOL.fit_scales:]
    T = refine_tangent_plane(oracle, a, T, fit_scales)
    terms, med = _scale_regression(oracle, a, T, fit_scales,
                                   range(2, k + 1), (k + 1, k + 2), 2)
    if med is None:
        return Verdict("inconclusive", {"error": "direct fit underdetermined"})
    coeffs: dict[int, dict] = {i: {} for i in range(2, k + 1)}
    for j, (deg, beta) in enumerate(terms):
        coeffs[deg][beta] = med[j] @ T.normal_projector
    direct = Jet(a, T, k, 0.0, {i: HomogeneousForm(i, T, c) for i, c in coeffs.items()})

    iterated, verdict = iterated_jet_fit(oracle, a, k, 0.0, schedule, tangent=(m, T))
    gap = direct.max_coefficient_gap(iterated)
    diag = {"gap": gap, "direct": direct, "iterated": iterated,
            "iterated_verdict": verdict}
    if verdict.status != "holds":
        return Verdict(verdict.status, diag)
    return Verdict("holds" if gap <= DEFAULT_TOL.tol_unique else "fails", diag)


def shear_invariance_check(oracle: MeasureOracle, a, jet: Jet,
                           schedule: ScaleSchedule = ScaleSchedule()) -> Verdict:
    """Residual verdicts must survive shearing the jet graph flat."""
    a = np.asarray(a, dtype=float)
    T = jet.plane
    k = jet.degree
    pre = _residual_condition(oracle, a, T, jet.eval_coords, float(k), schedule)

    shear = _reduction_shear(T, a, jet.eval_coords)
    flat = MappedOracle(oracle, shear.apply,
                        shear_displacement_bound(T, a, jet.forms.values()))
    post = _residual_condition(flat, a, T, Jet.zero(a, T, k).eval_coords,
                               float(k), schedule)
    diag = {"before": pre, "after": post, "before_status": pre.status,
            "after_status": post.status}
    if "inconclusive" in (pre.status, post.status):
        return Verdict("inconclusive", diag)
    return Verdict("holds" if pre.status == post.status else "fails", diag)


# ---------------------------------------------------------------------------
# serialization


def _jet_dict(jet: Jet) -> dict:
    return {
        "base": [float(c) for c in jet.base],
        "plane_basis": jet.plane.basis.tolist(),
        "k": jet.degree,
        "alpha": float(jet.alpha),
        "lambda": float(jet.hoelder_constant),
        "forms": {
            str(i): [[list(beta), np.asarray(c, dtype=float).tolist()]
                     for beta, c in sorted(form.coefficients.items())]
            for i, form in sorted(jet.forms.items())
        },
    }


def jsonable(obj):
    """Recursively convert verdicts, traces and arrays to plain JSON values."""
    if isinstance(obj, Verdict):
        return {"status": obj.status, "diagnostics": jsonable(obj.diagnostics)}
    if isinstance(obj, DensityTrace):
        return obj.to_dict()
    if isinstance(obj, Jet):
        return _jet_dict(obj)
    if isinstance(obj, HomogeneousForm):
        return {"degree": obj.degree,
                "coefficients": [[list(b), np.asarray(c).tolist()]
                                 for b, c in sorted(obj.coefficients.items())]}
    if isinstance(obj, Plane):
        return obj.basis.tolist()
    if isinstance(obj, ScaleSchedule):
        return obj.to_dict()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj
