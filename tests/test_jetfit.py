import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmtjet import density
from gmtjet.config import DEFAULT_GRIDS
from gmtjet.density import (
    ScaleSchedule,
    combine_statuses,
    cone_condition_check,
    in_lower_tangent_cone,
    in_upper_tangent_cone,
    trace_status,
)
from gmtjet.fixtures import make_fixture
from gmtjet.geometry import HomogeneousForm, Jet, Plane
from gmtjet.jetfit import (
    _cylinder_condition,
    _residual_condition,
    estimate_tangent_plane,
    fit_homogeneous_form,
    iterated_jet_fit,
    jet_uniqueness_crosscheck,
    refine_tangent_plane,
    shear_invariance_check,
)
from gmtjet.measure import (
    ChartOracle,
    ChartSpec,
    CloudOracle,
    UnionOracle,
    WeightedCloud,
)


@pytest.fixture(scope="module")
def line():
    return make_fixture("line")


@pytest.fixture(scope="module")
def cubic():
    # y = 0.25 x^2 + x^3 / 3
    return make_fixture("graph_poly", coeffs=(0.5, 2.0))


@pytest.fixture(scope="module")
def cubic_jet(cubic):
    jet, verdict = iterated_jet_fit(cubic.oracle, np.zeros(2), 3, 0.0,
                                    cubic.schedule)
    return jet, verdict


X_AXIS = Plane.axis(2, [0])


def coeff_norms(jet):
    return {i: {b: float(np.linalg.norm(c)) for b, c in f.coefficients.items()}
            for i, f in jet.forms.items()}


# ---------------------------------------------------------------------------
# tangent plane estimation


def test_line_tangent(line):
    out = estimate_tangent_plane(line.oracle, np.zeros(2), line.schedule)
    assert out is not None
    m, T = out
    assert m == 1
    assert T.distance_to(X_AXIS) <= 1e-6


def test_parabola_tangent():
    fx = make_fixture("graph_poly", coeffs=(1.0, 0.0))
    out = estimate_tangent_plane(fx.oracle, np.zeros(2), fx.schedule)
    assert out is not None
    m, T = out
    assert m == 1
    assert T.distance_to(X_AXIS) <= 1e-6


def test_comb_has_no_tangent():
    comb = make_fixture("comb")
    a = comb.marked_points[0]
    assert estimate_tangent_plane(comb.oracle, a, comb.schedule) is None


def test_forced_wrong_dimension_rejected(line):
    # the full plane passes the density screens on a line, but the lower
    # cone test in the normal direction kills it
    e2 = np.array([0.0, 1.0])
    verdict = in_lower_tangent_cone(line.oracle, np.zeros(2), 2, e2,
                                    schedule=line.schedule)
    assert verdict.status == "fails"


@pytest.mark.parametrize("name", ["line", "graph_poly"])
def test_tangent_candidate_traces_lower_density_once(monkeypatch, name):
    # the lower-cone checks of a candidate plane reuse the candidate's own
    # lower-density trace instead of tracing it again
    fx = make_fixture(name)
    real, windows = density._trace, []

    def counting(oracle, a, m, schedule, window_fn, *args, **kwargs):
        windows.append(window_fn)
        return real(oracle, a, m, schedule, window_fn, *args, **kwargs)

    monkeypatch.setattr(density, "_trace", counting)
    _, verdict = iterated_jet_fit(fx.oracle, np.zeros(2), 1, 0.0, fx.schedule)
    assert verdict.status == "holds"
    diag = verdict.diagnostics["tangent"]
    assert len(diag["validation"]["lower_cone"]) == 2 * verdict.diagnostics["m"]
    candidates = len(diag["attempts"]) + 1
    assert sum(fn is np.min for fn in windows) == candidates


def test_refine_kills_artificial_tilt(cubic):
    th = 5e-6
    tilted = Plane.from_spanning(np.array([[math.cos(th), math.sin(th)]]))
    sched = cubic.schedule.clip_for(cubic.oracle)
    T = refine_tangent_plane(cubic.oracle, np.zeros(2), tilted,
                             sched.radii[-6:])
    assert abs(T.basis[0, 1]) <= 1e-12


# ---------------------------------------------------------------------------
# the aperture quantifier


# each condition quantified over the apertures, at the origin of the exact
# line, where every one of them holds
E1 = np.array([1.0, 0.0])
ZERO_FORM = HomogeneousForm(2, X_AXIS, {(2,): np.zeros(2)})
APERTURE_CONDITIONS = {
    "upper_cone": lambda fx: in_upper_tangent_cone(fx.oracle, np.zeros(2), 1, E1, fx.schedule),
    "lower_cone": lambda fx: in_lower_tangent_cone(fx.oracle, np.zeros(2), 1, E1, fx.schedule),
    "cone_ii": lambda fx: cone_condition_check(fx.oracle, np.zeros(2), X_AXIS, fx.schedule)[0],
    "cone_iii": lambda fx: cone_condition_check(fx.oracle, np.zeros(2), X_AXIS, fx.schedule)[1],
    "cylinder": lambda fx: _cylinder_condition(
        fx.oracle, np.zeros(2), X_AXIS, ZERO_FORM, 2, fx.schedule),
    "residual": lambda fx: _residual_condition(
        fx.oracle, np.zeros(2), X_AXIS, ZERO_FORM.eval_coords, 2.0, fx.schedule),
}


@pytest.mark.parametrize("name", sorted(APERTURE_CONDITIONS))
def test_aperture_conditions_combine_every_aperture(line, name):
    verdict = APERTURE_CONDITIONS[name](line)
    diag = verdict.diagnostics
    assert list(diag["per_eps"]) == list(DEFAULT_GRIDS.eps_grid)
    assert list(diag["details"]) == list(DEFAULT_GRIDS.eps_grid)
    combined = combine_statuses(diag["per_eps"].values())
    if name == "lower_cone" and combined == "holds" \
            and trace_status(diag["lower_density"].verdict) == "inconclusive":
        combined = "inconclusive"
    assert verdict.status == combined == "holds"


def test_lower_cone_with_every_aperture_untested_is_inconclusive(monkeypatch, line):
    # a holding lower density is not an aperture status: it cannot turn
    # apertures that all went untested into "holds"
    monkeypatch.setattr(density, "eta_uniform_condition",
                        lambda oracle, m, schedule, eps, mass_fn, norm=1.0:
                        ("untested", {"eps": eps, "radii": []}))
    verdict = in_lower_tangent_cone(line.oracle, np.zeros(2), 1, E1, line.schedule)
    assert trace_status(verdict.diagnostics["lower_density"].verdict) == "holds"
    assert set(verdict.diagnostics["per_eps"].values()) == {"untested"}
    assert verdict.status == "inconclusive"


# ---------------------------------------------------------------------------
# jets on the smooth catalog


def test_line_flat_jet(line):
    jet, verdict = iterated_jet_fit(line.oracle, np.zeros(2), 3, 0.0,
                                    line.schedule)
    assert verdict.status == "holds"
    for form in jet.forms.values():
        assert form.coefficient_norm() <= 1e-10


def test_parabola_second_order():
    fx = make_fixture("graph_poly", coeffs=(1.0, 0.0))
    jet, verdict = iterated_jet_fit(fx.oracle, np.zeros(2), 2, 0.0,
                                    fx.schedule)
    assert verdict.status == "holds"
    assert abs(coeff_norms(jet)[2][(2,)] - 0.5) <= 1e-6


def test_cubic_graph_third_order(cubic_jet):
    jet, verdict = cubic_jet
    assert verdict.status == "holds"
    norms = coeff_norms(jet)
    assert abs(norms[2][(2,)] - 0.25) <= 1e-6
    assert abs(norms[3][(3,)] - 1 / 3) <= 1e-6


def test_pure_cubic_third_order():
    fx = make_fixture("graph_poly", coeffs=(0.0, 1.0))
    jet, verdict = iterated_jet_fit(fx.oracle, np.zeros(2), 3, 0.0,
                                    fx.schedule)
    assert verdict.status == "holds"
    norms = coeff_norms(jet)
    assert norms[2][(2,)] <= 1e-8
    assert abs(norms[3][(3,)] - 1 / 6) <= 1e-6


def test_parabola_one_one_hoelder():
    fx = make_fixture("graph_poly", coeffs=(1.0, 0.0))
    jet, verdict = iterated_jet_fit(fx.oracle, np.zeros(2), 1, 1.0,
                                    fx.schedule)
    assert verdict.status == "holds"
    assert jet.hoelder_constant == 0.5


def test_hairy_segment_first_order():
    aag = make_fixture("a_alpha_gamma", gamma=2.0, alpha=0.75)
    jet, verdict = iterated_jet_fit(aag.oracle, np.zeros(2), 1, 0.0,
                                    aag.schedule)
    assert verdict.status == "holds"
    assert jet.plane.distance_to(X_AXIS) <= 1e-2


def test_comb_fails_first_order():
    comb = make_fixture("comb")
    a = comb.marked_points[0]
    jet, verdict = iterated_jet_fit(comb.oracle, a, 1, 0.0, comb.schedule)
    assert verdict.status == "fails"
    assert verdict.diagnostics["stage"] == "tangent_plane"


def test_sphere_second_order():
    fx = make_fixture("sphere", R=1.0)
    a = fx.marked_points[0]
    tangent = estimate_tangent_plane(fx.oracle, a, fx.schedule)
    assert tangent is not None and tangent[0] == 2
    jet, verdict = iterated_jet_fit(fx.oracle, a, 2, 0.0, fx.schedule,
                                    tangent=tangent)
    assert verdict.status == "holds"
    norms = coeff_norms(jet)[2]
    assert abs(norms[(2, 0)] - 0.5) <= 1e-2
    assert abs(norms[(0, 2)] - 0.5) <= 1e-2
    assert norms[(1, 1)] <= 1e-2


@pytest.mark.parametrize("k", [2, 3])
def test_off_origin_parabola_jet(k):
    # y = x^2/2 at a = (0.3, 0.045), where T(a) != 0: the residual regions
    # must evaluate the fitted forms at T(x - a), not at T(x - a) - T(a)
    fx = make_fixture("graph_poly")
    x0 = 0.3
    a = np.array([x0, x0**2 / 2])
    jet, verdict = iterated_jet_fit(fx.oracle, a, k, 0.0, fx.schedule)
    assert verdict.status == "holds", verdict.diagnostics.get("stage")
    kappa = (1 + x0**2) ** -1.5
    nu = np.array([-x0, 1.0]) / math.sqrt(1 + x0**2)
    # chi^2 is even in chi, so the degree-2 coefficient does not depend on
    # the sign of the fitted plane's basis
    assert np.abs(jet.forms[2].coefficients[(2,)] - kappa / 2 * nu).max() <= 1e-4


def test_helix_curve_third_order():
    spec = ChartSpec(domain=[(-1.2, 1.2)],
                     mapping=lambda p: np.stack(
                         [p[:, 0], p[:, 0]**2 / 2, p[:, 0]**3 / 6], axis=1),
                     quad_resolution=32768)
    oracle = ChartOracle([spec], m=1)
    jet, verdict = iterated_jet_fit(oracle, np.zeros(3), 3, 0.0)
    assert verdict.status == "holds"
    c2 = jet.forms[2].coefficients[(2,)]
    c3 = jet.forms[3].coefficients[(3,)]
    assert abs(np.linalg.norm(c2) - 0.5) <= 1e-6
    assert abs(np.linalg.norm(c3) - 1 / 6) <= 1e-6
    # curvature sits in the e2 direction, torsion in e3
    assert abs(abs(c2[1]) - 0.5) <= 1e-6
    assert abs(abs(c3[2]) - 1 / 6) <= 1e-6


# ---------------------------------------------------------------------------
# invariances


def test_rigid_motion_equivariance(cubic_jet):
    th = 0.37
    R = np.array([[math.cos(th), -math.sin(th)],
                  [math.sin(th), math.cos(th)]])

    def mapping(p):
        t = p[:, 0]
        return np.stack([t, 0.25 * t**2 + t**3 / 3], axis=1) @ R.T

    spec = ChartSpec(domain=[(-1.2, 1.2)], mapping=mapping,
                     quad_resolution=32768)
    rotated = ChartOracle([spec], m=1)
    jet, verdict = iterated_jet_fit(rotated, np.zeros(2), 3, 0.0)
    assert verdict.status == "holds"
    base, _ = cubic_jet
    assert jet.plane.distance_to(
        Plane.from_spanning((X_AXIS.basis @ R.T))) <= 1e-6
    for i in (2, 3):
        got = np.linalg.norm(jet.forms[i].coefficients[(i,)])
        want = np.linalg.norm(base.forms[i].coefficients[(i,)])
        assert abs(got - want) <= 1e-6, i


def test_negligible_perturbation_ignored(cubic, cubic_jet):
    speck = CloudOracle(WeightedCloud(np.array([[0.25, 0.25]]),
                                      np.array([1e-9])), m=1)
    bumped = UnionOracle([cubic.oracle, speck])
    jet, verdict = iterated_jet_fit(bumped, np.zeros(2), 3, 0.0,
                                    cubic.schedule)
    base, base_verdict = cubic_jet
    assert verdict.status == base_verdict.status == "holds"
    assert base.max_coefficient_gap(jet) <= 1e-6


# ---------------------------------------------------------------------------
# cross-checks


def test_uniqueness_crosscheck(cubic, cubic_jet):
    jet, _ = cubic_jet
    verdict = jet_uniqueness_crosscheck(cubic.oracle, np.zeros(2), jet.plane,
                                        3, cubic.schedule)
    assert verdict.status == "holds"
    assert verdict.diagnostics["gap"] <= 1e-6


def test_graph_residual_verification(cubic, cubic_jet):
    jet, _ = cubic_jet
    verdict = _residual_condition(cubic.oracle, np.zeros(2), jet.plane,
                                  jet.eval_coords, 3.0, cubic.schedule)
    assert verdict.status == "holds"


def test_graph_residual_rejects_wrong_jet(cubic, cubic_jet):
    jet, _ = cubic_jet
    wrong = Jet(jet.base, jet.plane, 2, 0.0,
                {2: HomogeneousForm(2, jet.plane,
                                    {(2,): np.array([0.0, 0.9])})})
    verdict = _residual_condition(cubic.oracle, np.zeros(2), jet.plane,
                                  wrong.eval_coords, 2.0, cubic.schedule)
    assert verdict.status == "fails"


def test_shear_invariance(cubic, cubic_jet):
    jet, _ = cubic_jet
    verdict = shear_invariance_check(cubic.oracle, np.zeros(2), jet,
                                     cubic.schedule)
    assert verdict.status == "holds"


def test_order_monotonicity(cubic, cubic_jet):
    # the order-(3, 0) jet holds, so every lower order must hold too
    jet, top = cubic_jet
    assert top.status == "holds"
    for k, alpha in ((1, 0.0), (1, 1.0), (2, 0.0), (2, 1.0)):
        _, sub = iterated_jet_fit(cubic.oracle, np.zeros(2), k, alpha,
                                  cubic.schedule, tangent=(1, jet.plane))
        assert sub.status == "holds", (k, alpha)


# ---------------------------------------------------------------------------
# direct form fitting


def test_fit_underdetermined_raises():
    # the only sample sits outside the trim band around the plane
    oracle = CloudOracle(WeightedCloud(np.array([[0.0, 0.4]]),
                                       np.array([1.0])), m=1)
    with pytest.raises(ValueError):
        fit_homogeneous_form(oracle, np.zeros(2), X_AXIS, 2, [0.5])


@settings(max_examples=25, deadline=None)
@given(c2=st.floats(min_value=-0.5, max_value=0.5),
       c3=st.floats(min_value=-0.5, max_value=0.5))
def test_fit_recovers_polynomial_cloud(c2, c3):
    # fit balls contain the whole symmetric cloud and the trim band keeps
    # every sample, so the odd cubic stays exactly orthogonal to the even
    # columns and the quadratic coefficient comes back to machine precision
    x = np.linspace(-0.1, 0.1, 961)
    pts = np.stack([x, c2 * x**2 + c3 * x**3], axis=1)
    w = np.full(len(x), x[1] - x[0])
    oracle = CloudOracle(WeightedCloud(pts, w), m=1)
    form = fit_homogeneous_form(oracle, np.zeros(2), X_AXIS, 2,
                                [0.2, 0.18, 0.15])
    got = form.coefficients[(2,)][1]
    assert abs(got - c2) <= 1e-7
