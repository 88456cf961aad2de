"""The scale-family trace engine against the radius-by-radius mass loop.

`oracle.trace(center, radii, family)` must return, bit for bit, what
`[oracle.mass(family.query(center, r)) for r in radii]` returns, on every
backend, through restrictions and maps, for every family the conditions use.
"""
import numpy as np
import pytest

from gmtjet.density import ConeOutside, Exceeds, VerticalExcess, _transfer_families
from gmtjet.fixtures import make_fixture, point_key
from gmtjet.geometry import (
    Complement,
    Cone,
    HomogeneousForm,
    Jet,
    Plane,
    PlaneCone,
    multi_indices,
    split_squares,
)
from gmtjet.jetfit import (
    _reduction_shear,
    _vertical_residual,
    shear_displacement_bound,
)
from gmtjet.measure import BALL, CloudOracle, MappedOracle, SharedField, WeightedCloud

EPS = (0.3, 0.1, 0.03)
# nested radii as the schedules give them, then one whose ball holds at most
# one quadrature node
RADII = [0.5 * 0.8 ** j for j in range(12)] + [1e-6]


def _cloud(name, **params):
    fx = make_fixture(name, **params)
    pts, w = fx.oracle.samples_in_ball(np.zeros(fx.oracle.n), fx.bound_radius)
    fx.oracle = CloudOracle(WeightedCloud(pts, w), fx.m)
    return fx


CASES = {
    "line": lambda: make_fixture("line"),
    "dyadic_annuli": lambda: make_fixture("dyadic_annuli", depth=12),
    "a_alpha_gamma": lambda: make_fixture("a_alpha_gamma", n_max=20),
    "comb": lambda: make_fixture("comb", n_teeth=40),
    "graph_poly": lambda: make_fixture("graph_poly", coeffs=(0.5, 2.0)),
    "parabola_touch": lambda: make_fixture("parabola_touch"),
    "circle": lambda: make_fixture("circle", resolution=1024),
    "sphere": lambda: make_fixture("sphere", resolution=48),
    "torus": lambda: make_fixture("torus", resolution=32),
    "noisy_parabola": lambda: make_fixture("noisy_parabola", k=2),
    "circle_cloud": lambda: _cloud("circle", resolution=2048),
    "sphere_cloud": lambda: _cloud("sphere", resolution=48),
}
# segment backends answer a trace radius by radius, through the bisection
# scan for most families; a few radii cover them
SEGMENT_CASES = {"line", "dyadic_annuli", "a_alpha_gamma", "comb"}


def _plane(fx, a):
    basis = fx.ground_truth.get(point_key(a), {}).get("plane_basis")
    return Plane.from_spanning(np.array(basis)) if basis else Plane.axis(fx.oracle.n, [0])


def _form(T):
    """A degree-2 form with distinct coefficients along T's first normal."""
    nvec = Plane.from_spanning(T.normal_projector).basis[0]
    return HomogeneousForm(2, T, {beta: (0.4 + 0.3 * j) * nvec
                                  for j, beta in enumerate(multi_indices(T.m, 2))})


def _transfer_f(X):
    """Row by row, like the verify suite's oscillating transfer trials.  With
    gamma = 1.5 and lam = 0.3 both transfer regions keep part of the balls
    about the origin and drop the rest."""
    x0 = np.atleast_2d(X)[:, 0]
    return 0.9 * np.abs(x0) ** 1.5 * (1.0 + 0.2 * np.cos(20.0 * x0))


def _families(T, a, eval_fn):
    split = SharedField(lambda X: np.stack(split_squares(T, a, X)))
    residual = SharedField(_vertical_residual(T, a, eval_fn))
    hypothesis, conclusion = _transfer_families(_transfer_f, a, 1.5, 0.3)
    return ([("ball", BALL)]
            + [(f"cone_outside_{eps}", ConeOutside(split, T, a, eps)) for eps in EPS]
            + [(f"vertical_excess_{eps}", VerticalExcess(split, T, a, eps)) for eps in EPS]
            + [(f"residual_{eps}", Exceeds(residual, eps, 2.0)) for eps in EPS]
            + [("hoelder", Exceeds(residual, 2.0 ** -3, 2.5))]
            + [("transfer_hypothesis", hypothesis), ("transfer_conclusion", conclusion)])


def _oracles(fx, T, a):
    base = fx.oracle
    out = [("plain", base),
           ("cone", base.restrict(Cone(a, T.basis[0], 0.3))),
           ("outside_plane_cone", base.restrict(Complement(PlaneCone(T, a, 0.1))))]
    if T.m < T.n:
        form = _form(T)
        shear = _reduction_shear(T, a, form.eval_coords)
        out.append(("mapped", MappedOracle(base, shear.apply,
                                           shear_displacement_bound(T, a, [form]))))
    return out


def _outcome(fn):
    try:
        return fn()
    except NotImplementedError as exc:
        # the bisection scan's budget, which the hairs exceed
        return ("raised", str(exc))


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_mass_loop_bitwise(case):
    fx = CASES[case]()
    a = np.asarray(fx.marked_points[0], dtype=float)
    T = _plane(fx, a)
    jet = fx.jets.get(point_key(a)) or Jet.zero(a, T, 2)
    radii = RADII[::4] if case in SEGMENT_CASES else RADII
    mismatches = []
    for oname, oracle in _oracles(fx, T, a):
        for fname, family in _families(T, a, jet.eval_coords):
            got = _outcome(lambda: oracle.trace(a, radii, family))
            want = _outcome(lambda: [oracle.mass(family.query(a, r)) for r in radii])
            if got != want:
                mismatches.append((oname, fname))
    assert not mismatches


def test_trace_evaluates_each_field_once_per_grid():
    fx = make_fixture("sphere", resolution=48)
    a = np.asarray(fx.marked_points[0], dtype=float)
    T = _plane(fx, a)
    calls = []
    residual = _vertical_residual(T, a, _form(T).eval_coords)
    field = SharedField(lambda X: calls.append(len(X)) or residual(X))
    for eps in EPS:
        fx.oracle.trace(a, RADII, Exceeds(field, eps, 2.0))
    # fine and coarse grid, each read once for all three apertures
    assert len(calls) == 2


@pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 33, 64, 65, 1000, 4097])
@pytest.mark.parametrize("offset", [0, 1, 3])
def test_row_results_do_not_depend_on_row_count(n, offset):
    # the engines evaluate a field once on the rows of the largest ball and
    # slice it; the mass loop evaluates it on each radius's own rows.  Matrix
    # products with two or more rows must round each row the same way for
    # both (a one-row product becomes a matrix-vector product, which may
    # not, so the engines send radii with fewer than two rows to mass)
    rng = np.random.default_rng(7)
    for m, dim in ((1, 2), (2, 3)):
        T = Plane.from_spanning(rng.standard_normal((m, dim)))
        a = rng.standard_normal(dim) * 0.1
        form = _form(T)
        nvec = Plane.from_spanning(T.normal_projector).basis[0]
        cubic = HomogeneousForm(3, T, {beta: (0.2 + j) * nvec
                                       for j, beta in enumerate(multi_indices(m, 3))})
        shear = _reduction_shear(T, a, form.eval_coords)
        fields = [
            lambda X: np.stack(split_squares(T, a, X)).T,
            _vertical_residual(T, a, Jet(a, T, 3, 0.0, {2: form, 3: cubic}).eval_coords),
            shear.apply,
            Cone(a, T.basis[0], 0.3).contains_many,
        ]
        X = a + rng.standard_normal((5000, dim)) * 0.3
        for fn in fields:
            assert np.array_equal(fn(X)[offset:offset + n], fn(X[offset:offset + n]))
