import numpy as np
import pytest

from gmtjet.geometry import (
    ClosedBall,
    Complement,
    Cone,
    Cylinder,
    HomogeneousForm,
    Intersection,
    Jet,
    Plane,
    apply_differential,
    jet_to_full_differential,
    multi_indices,
    vertical_excess,
)
from gmtjet.jetfit import _reduction_shear

RNG = np.random.default_rng(20240817)


def random_plane(n, m, rng):
    vecs = rng.standard_normal((m, n))
    return Plane.from_spanning(vecs)


def parabola_jet(half=0.5):
    """Graph y = half * x^2 in R^2 as a degree-2 jet over the x-axis."""
    plane = Plane.axis(2, [0])
    form = HomogeneousForm(2, plane, {(2,): np.array([0.0, half])})
    return Jet(np.zeros(2), plane, 2, 0.0, {2: form})


# ---------------------------------------------------------------------------
# planes and projections


def test_projector_properties():
    for n, m in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)]:
        for _ in range(20):
            plane = random_plane(n, m, RNG)
            P = plane.projector
            assert np.allclose(P, P.T, atol=1e-10)
            assert np.linalg.norm(P @ P - P) <= 1e-10
            assert abs(np.trace(P) - m) <= 1e-10
            assert np.allclose(plane.normal_projector, np.eye(n) - P)


def test_project_coordinate_plane():
    plane = Plane.axis(2, [0])
    x = np.array([3.0, 4.0])
    t, nrm = plane.tangential(x), plane.normal(x)
    assert np.allclose(t, [3.0, 0.0])
    assert np.allclose(nrm, [0.0, 4.0])


def test_project_full_space():
    plane = Plane.axis(3, [0, 1, 2])
    x = np.array([1.0, -2.0, 0.5])
    t, nrm = plane.tangential(x), plane.normal(x)
    assert np.allclose(t, x)
    assert np.allclose(nrm, 0.0)


def test_project_splits_exactly():
    for _ in range(1000):
        n = int(RNG.integers(2, 6))
        m = int(RNG.integers(1, n))
        plane = random_plane(n, m, RNG)
        x = RNG.standard_normal(n)
        t, nrm = plane.tangential(x), plane.normal(x)
        assert np.linalg.norm(t + nrm - x) <= 1e-12
        assert plane.contains(t)
        assert np.linalg.norm(plane.tangential(nrm)) <= 1e-10


def test_project_dimension_mismatch():
    plane = Plane.axis(3, [0])
    with pytest.raises(ValueError):
        plane.tangential(np.array([1.0, 2.0]))


def test_plane_equality_via_projector_distance():
    b1 = Plane.from_spanning([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b2 = Plane.from_spanning([[2.0, 2.0, 0.0], [1.0, 2.0, 1.0]])
    assert b1.distance_to(b2) <= 1e-12


# ---------------------------------------------------------------------------
# regions


def test_cone_membership_closed_form():
    cone = Cone(np.zeros(2), np.array([1.0, 0.0]), 0.5)
    assert cone.contains(np.array([1.0, 0.4]))
    assert not cone.contains(np.array([1.0, 0.6]))
    assert not cone.contains(np.array([-1.0, 0.0]))


def test_cone_scale_invariance():
    cone = Cone(np.zeros(3), np.array([0.0, 1.0, 0.0]), 0.3)
    for _ in range(200):
        z = RNG.standard_normal(3)
        inside = cone.contains(z)
        for t in (0.5, 2.0, 10.0):
            assert cone.contains(t * z) == inside


def test_cylinder_membership():
    cyl = Cylinder(Plane.axis(2, [0]), np.zeros(2), 1.0, 1.0)
    assert cyl.contains(np.array([0.5, 0.5]))
    assert not cyl.contains(np.array([1.5, 0.0]))


def test_region_combinators():
    ball = ClosedBall(np.zeros(2), 1.0)
    right = Cone(np.zeros(2), np.array([1.0, 0.0]), 0.99)
    combined = Intersection(ball, Complement(right))
    assert combined.contains(np.array([-0.5, 0.0]))
    assert not combined.contains(np.array([0.5, 0.0]))
    assert not combined.contains(np.array([-1.5, 0.0]))


def test_vertical_excess():
    plane = Plane.axis(2, [0])
    reg = vertical_excess(plane, np.zeros(2), 0.1)
    assert reg.contains(np.array([5.0, 0.2]))
    assert not reg.contains(np.array([5.0, 0.05]))


# ---------------------------------------------------------------------------
# jets


def test_zero_jet_evaluates_to_zero():
    plane = Plane.axis(3, [0, 1])
    jet = Jet.zero(np.zeros(3), plane, 3)
    assert np.allclose(jet(np.array([0.3, -0.2, 0.0])), 0.0)


def test_parabola_jet_eval():
    jet = parabola_jet()
    val = jet(np.array([0.4, 0.0]))
    assert np.allclose(val, [0.0, 0.08])


def test_jet_eval_rejects_off_plane_points():
    jet = parabola_jet()
    with pytest.raises(ValueError):
        jet(np.array([0.4, 0.3]))


def test_degree3_homogeneity():
    plane = Plane.axis(2, [0])
    form = HomogeneousForm(3, plane, {(3,): np.array([0.0, 1 / 6])})
    jet = Jet(np.zeros(2), plane, 3, 0.0, {3: form})
    chi = np.array([0.3, 0.0])
    assert np.allclose(jet(2 * chi), 8 * jet(chi))


def test_full_differential_parabola():
    jet = parabola_jet()
    d2 = jet_to_full_differential(jet, 2)
    e1, e2 = np.eye(2)
    assert np.allclose(apply_differential(d2, [e1, e1]), e2)
    assert np.allclose(apply_differential(d2, [e2, e2]), 0.0)
    assert np.allclose(apply_differential(d2, [e1, e2]), 0.0)


def test_full_differential_zero_jet():
    plane = Plane.axis(3, [0, 1])
    jet = Jet.zero(np.zeros(3), plane, 3)
    for i in (2, 3):
        assert np.allclose(jet_to_full_differential(jet, i), 0.0)


def test_full_differential_symmetry():
    plane = Plane.from_spanning(RNG.standard_normal((2, 4)))
    coeffs = {}
    for beta in multi_indices(2, 2):
        c = RNG.standard_normal(4)
        coeffs[beta] = plane.normal(c)
    jet = Jet(np.zeros(4), plane, 2, 0.0, {2: HomogeneousForm(2, plane, coeffs)})
    d2 = jet_to_full_differential(jet, 2)
    for _ in range(50):
        u, v = RNG.standard_normal(4), RNG.standard_normal(4)
        assert np.allclose(apply_differential(d2, [u, v]),
                           apply_differential(d2, [v, u]), atol=1e-10)


def test_differential_out_of_range():
    jet = parabola_jet()
    with pytest.raises(ValueError):
        jet_to_full_differential(jet, 3)


# ---------------------------------------------------------------------------
# shear maps


def test_shear_flattens_parabola():
    plane = Plane.axis(2, [0])
    f = _reduction_shear(plane, np.zeros(2), parabola_jet().eval_coords)
    x = np.array([0.4, 0.08])      # on the parabola
    assert np.allclose(f.apply(x), [0.4, 0.0], atol=1e-14)
    y = np.array([1.0, 2.0])
    assert np.allclose(f.apply(y), [1.0, 1.5])


def test_shear_round_trip():
    plane = Plane.from_spanning(RNG.standard_normal((1, 3)))
    coeffs2 = {(2,): plane.normal(RNG.standard_normal(3))}
    jet = Jet(np.zeros(3), plane, 2, 0.0, {2: HomogeneousForm(2, plane, coeffs2)})
    f = _reduction_shear(plane, RNG.standard_normal(3), jet.eval_coords)
    X = RNG.standard_normal((1000, 3))
    err = np.abs(f.invert(f.apply(X)) - X).max()
    assert err <= 1e-12


def test_shear_maps_graph_to_graph():
    # off the origin, T(a) != 0: the graph a + chi + Q(chi) over T at a goes
    # to the flat a + chi, so T(a) is subtracted exactly once
    plane = Plane.axis(2, [0])
    lower = parabola_jet()
    a = np.array([0.3, 0.7])
    f = _reduction_shear(plane, a, lower.eval_coords)
    chi = np.linspace(-1, 1, 41)[:, None]
    on_q = a + chi @ plane.basis + lower.eval_coords(chi)
    mapped = f.apply(on_q)
    expected = a + chi @ plane.basis
    assert np.abs(mapped - expected).max() <= 1e-12
