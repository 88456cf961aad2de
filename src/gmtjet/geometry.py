"""Planes, homogeneous forms, jets and region predicates.

All operations are pure functions of immutable values.  Points are plain
numpy arrays of shape (n,); batches are arrays of shape (N, n).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT_TOL


# ---------------------------------------------------------------------------
# planes


def _pivoted_orthonormalize(vectors: np.ndarray) -> np.ndarray:
    """Deterministic Gram-Schmidt with a largest-residual-norm pivot rule.

    Ties break on the lowest row index, so the basis only depends on the
    input vectors, not on floating-point library details.
    """
    work = np.array(vectors, dtype=float)
    basis: list[np.ndarray] = []
    remaining = list(range(work.shape[0]))
    while remaining:
        norms = [float(np.linalg.norm(work[i])) for i in remaining]
        best = max(range(len(remaining)), key=lambda j: (norms[j], -remaining[j]))
        if norms[best] <= DEFAULT_TOL.orthonormal:
            break
        v = work[remaining[best]] / norms[best]
        basis.append(v)
        remaining.pop(best)
        for i in remaining:
            work[i] = work[i] - np.dot(work[i], v) * v
    return np.array(basis)


@dataclass(frozen=True)
class Plane:
    """An m-dimensional linear subspace of R^n with its orthogonal projector."""

    basis: np.ndarray  # (m, n), orthonormal rows

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        object.__setattr__(self, "basis", b)
        gram = b @ b.T
        if not np.allclose(gram, np.eye(b.shape[0]), atol=DEFAULT_TOL.orthonormal * 10):
            raise ValueError("basis rows are not orthonormal")

    @property
    def n(self) -> int:
        return self.basis.shape[1]

    @property
    def m(self) -> int:
        return self.basis.shape[0]

    @property
    def projector(self) -> np.ndarray:
        return self.basis.T @ self.basis

    @property
    def normal_projector(self) -> np.ndarray:
        return np.eye(self.n) - self.projector

    @staticmethod
    def from_spanning(vectors: Sequence[Sequence[float]]) -> "Plane":
        basis = _pivoted_orthonormalize(np.atleast_2d(np.asarray(vectors, dtype=float)))
        if basis.size == 0:
            raise ValueError("spanning set has rank zero")
        return Plane(basis)

    @staticmethod
    def axis(n: int, axes: Sequence[int]) -> "Plane":
        basis = np.zeros((len(axes), n))
        for row, ax in enumerate(axes):
            basis[row, ax] = 1.0
        return Plane(basis)

    def tangent_coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of T_nat(x) in the plane basis; works on batches."""
        return np.asarray(x, dtype=float) @ self.basis.T

    def from_coords(self, chi: np.ndarray) -> np.ndarray:
        return np.asarray(chi, dtype=float) @ self.basis

    def tangential(self, x: np.ndarray) -> np.ndarray:
        return self.tangent_coords(x) @ self.basis

    def normal(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) - self.tangential(x)

    def distance_to(self, other: "Plane") -> float:
        """Operator-norm distance between the projectors.

        Equals sin of the largest principal angle when dimensions agree, so
        "angle <= tol" checks are phrased as projector distance.
        """
        return float(np.linalg.norm(self.projector - other.projector, 2))

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        scale = max(1.0, float(np.linalg.norm(x)))
        return float(np.linalg.norm(self.normal(x))) <= DEFAULT_TOL.plane_membership * scale


# ---------------------------------------------------------------------------
# multi-indices and homogeneous forms


def multi_indices(m: int, degree: int) -> list[tuple[int, ...]]:
    """All m-tuples of nonnegative integers summing to `degree`, sorted."""
    if m == 1:
        return [(degree,)]
    out = []
    for combo in itertools.combinations_with_replacement(range(m), degree):
        beta = [0] * m
        for j in combo:
            beta[j] += 1
        out.append(tuple(beta))
    return sorted(set(out))


def _beta_factorial(beta: tuple[int, ...]) -> int:
    out = 1
    for b in beta:
        out *= math.factorial(b)
    return out


def monomials(chi: np.ndarray, betas: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Evaluate chi^beta for each multi-index; chi is (N, m), result (N, len(betas))."""
    chi = np.atleast_2d(np.asarray(chi, dtype=float))
    cols = []
    for beta in betas:
        col = np.ones(chi.shape[0])
        for j, b in enumerate(beta):
            if b:
                col = col * chi[:, j] ** b
        cols.append(col)
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class HomogeneousForm:
    """A degree-i homogeneous polynomial T -> T^perp stored by multi-index.

    Coefficient vectors live in ambient coordinates and lie in T^perp; the
    value at a tangent point chi (given in plane coordinates) is
    sum_beta c_beta * chi^beta.
    """

    degree: int
    plane: Plane
    coefficients: dict  # multi-index tuple -> ndarray (n,)

    def __post_init__(self):
        if self.degree < 2:
            raise ValueError("homogeneous jet forms start at degree 2")
        for beta, c in self.coefficients.items():
            if sum(beta) != self.degree or len(beta) != self.plane.m:
                raise ValueError(f"bad multi-index {beta} for degree {self.degree}")
            c = np.asarray(c, dtype=float)
            if float(np.linalg.norm(self.plane.tangential(c))) > 1e-9 * max(1.0, float(np.linalg.norm(c))):
                raise ValueError("coefficient vector is not normal to the plane")

    @staticmethod
    def zero(degree: int, plane: Plane) -> "HomogeneousForm":
        return HomogeneousForm(degree, plane, {})

    def eval_coords(self, chi: np.ndarray) -> np.ndarray:
        """Value at tangent coordinates chi; (N, m) -> (N, n)."""
        chi = np.atleast_2d(np.asarray(chi, dtype=float))
        out = np.zeros((chi.shape[0], self.plane.n))
        if self.coefficients:
            betas = sorted(self.coefficients)
            mono = monomials(chi, betas)
            coeff = np.stack([np.asarray(self.coefficients[b], dtype=float) for b in betas])
            out = mono @ coeff
        return out

    def __call__(self, chi_ambient: np.ndarray) -> np.ndarray:
        """Value at a tangential ambient point (single point)."""
        chi = self.plane.tangent_coords(np.asarray(chi_ambient, dtype=float))
        return self.eval_coords(chi[None, :])[0]

    def coefficient_norm(self) -> float:
        if not self.coefficients:
            return 0.0
        return float(max(np.linalg.norm(c) for c in self.coefficients.values()))


@dataclass(frozen=True)
class Jet:
    """Order-(k, alpha) jet of a set at a base point.

    The polynomial P = sum of the stored homogeneous forms satisfies
    P(0) = 0 and DP(0) = 0 by construction.
    """

    base: np.ndarray
    plane: Plane
    degree: int
    alpha: float = 0.0
    forms: dict = field(default_factory=dict)  # degree i -> HomogeneousForm
    hoelder_constant: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        for i, form in self.forms.items():
            if form.degree != i or i < 2 or i > self.degree:
                raise ValueError(f"form of degree {form.degree} stored under key {i}")
            if form.plane is not self.plane and form.plane.distance_to(self.plane) > 1e-12:
                raise ValueError("form plane differs from jet plane")

    @staticmethod
    def zero(base, plane: Plane, degree: int, alpha: float = 0.0) -> "Jet":
        return Jet(np.asarray(base, dtype=float), plane, degree, alpha, {})

    def eval_coords(self, chi: np.ndarray) -> np.ndarray:
        """P(chi) for tangent coordinates chi; (N, m) -> (N, n)."""
        chi = np.atleast_2d(np.asarray(chi, dtype=float))
        out = np.zeros((chi.shape[0], self.plane.n))
        for form in self.forms.values():
            out = out + form.eval_coords(chi)
        return out

    def __call__(self, chi_ambient: np.ndarray) -> np.ndarray:
        chi_ambient = np.asarray(chi_ambient, dtype=float)
        if not self.plane.contains(chi_ambient):
            raise ValueError("evaluation point is not in the jet plane")
        return self.eval_coords(self.plane.tangent_coords(chi_ambient)[None, :])[0]

    def max_coefficient_gap(self, other: "Jet") -> float:
        """Largest coefficient-wise distance between two jets on the same plane."""
        gap = 0.0
        for i in range(2, max(self.degree, other.degree) + 1):
            betas = set()
            fa = self.forms.get(i)
            fb = other.forms.get(i)
            if fa:
                betas |= set(fa.coefficients)
            if fb:
                betas |= set(fb.coefficients)
            for beta in betas:
                ca = np.asarray(fa.coefficients.get(beta, np.zeros(self.plane.n))) if fa else np.zeros(self.plane.n)
                cb = np.asarray(fb.coefficients.get(beta, np.zeros(self.plane.n))) if fb else np.zeros(self.plane.n)
                gap = max(gap, float(np.linalg.norm(ca - cb)))
        return gap


def jet_to_full_differential(jet: Jet, i: int) -> np.ndarray:
    """The symmetric i-linear differential D^i(P o T_nat)(0) as a dense tensor.

    Returns an array of shape (n,) * i + (n,): the first i axes contract with
    ambient direction vectors, the last axis carries the normal value.  The
    map vanishes whenever any argument lies in T^perp.
    """
    if not 2 <= i <= jet.degree:
        raise ValueError(f"differential order {i} outside 2..{jet.degree}")
    plane = jet.plane
    m, n = plane.m, plane.n
    coeff_tensor = np.zeros((m,) * i + (n,))
    form = jet.forms.get(i)
    if form is not None:
        for idx in itertools.product(range(m), repeat=i):
            beta = [0] * m
            for j in idx:
                beta[j] += 1
            c = form.coefficients.get(tuple(beta))
            if c is not None:
                coeff_tensor[idx] = _beta_factorial(tuple(beta)) * np.asarray(c)
    # contract each argument slot with the plane basis to act on ambient vectors
    out = coeff_tensor
    for axis in range(i):
        out = np.tensordot(plane.basis, out, axes=([0], [axis]))
        out = np.moveaxis(out, 0, axis)
    return out


def apply_differential(tensor: np.ndarray, vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Contract a differential tensor with ambient direction vectors."""
    out = tensor
    for v in vectors:
        out = np.tensordot(np.asarray(v, dtype=float), out, axes=([0], [0]))
    return out


# ---------------------------------------------------------------------------
# regions


class Region:
    """Base class for the tagged union of regions; membership is exact."""

    def contains(self, x: np.ndarray) -> bool:
        return bool(self.contains_many(np.asarray(x, dtype=float)[None, :])[0])

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def margin(self, X: np.ndarray):
        """Signed distance to the boundary (positive inside), or None.

        Used for fractional-cell quadrature.  Only regions whose boundary
        is a true distance level set (balls) supply one: for cones and
        graph neighborhoods a surface can run nearly parallel to the
        boundary, and smearing by a margin there badly biases the mass,
        while exact-sign membership stays correct."""
        return None

    def bounding_ball(self):
        """(center, radius) of a ball containing the region, or None.

        Lets oracles with large sample sets cull to a neighborhood before
        evaluating membership."""
        return None

    def __and__(self, other: "Region") -> "Region":
        return Intersection(self, other)

    def __invert__(self) -> "Region":
        return Complement(self)


@dataclass(frozen=True)
class FullSpace(Region):
    def contains_many(self, X):
        return np.ones(np.atleast_2d(X).shape[0], dtype=bool)

    def margin(self, X):
        return np.full(np.atleast_2d(X).shape[0], np.inf)


@dataclass(frozen=True)
class OpenBall(Region):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def contains_many(self, X):
        d = np.atleast_2d(X) - self.center
        return np.einsum("ij,ij->i", d, d) < self.radius**2

    def margin(self, X):
        d = np.atleast_2d(X) - self.center
        return self.radius - np.sqrt(np.einsum("ij,ij->i", d, d))

    def bounding_ball(self):
        return self.center, self.radius


@dataclass(frozen=True)
class ClosedBall(Region):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def contains_many(self, X):
        d = np.atleast_2d(X) - self.center
        return np.einsum("ij,ij->i", d, d) <= self.radius**2

    def margin(self, X):
        d = np.atleast_2d(X) - self.center
        return self.radius - np.sqrt(np.einsum("ij,ij->i", d, d))

    def bounding_ball(self):
        return self.center, self.radius


def split_squares(plane: Plane, center: np.ndarray, X: np.ndarray):
    """|T_nat(x - center)|^2 and |T_perp_nat(x - center)|^2 for each row x."""
    d = np.atleast_2d(X) - center
    tang = d @ plane.projector
    norm = d - tang
    return np.einsum("ij,ij->i", tang, tang), np.einsum("ij,ij->i", norm, norm)


@dataclass(frozen=True)
class Cylinder(Region):
    """C(T, a, s, t): horizontal radius s, vertical radius t; either may be inf."""

    plane: Plane
    center: np.ndarray
    s: float
    t: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.s <= 0 or self.t <= 0:
            raise ValueError("cylinder radii must be positive")

    def contains_many(self, X):
        tang2, norm2 = split_squares(self.plane, self.center, X)
        ok = np.ones(tang2.shape[0], dtype=bool)
        if np.isfinite(self.s):
            ok &= tang2 < self.s**2
        if np.isfinite(self.t):
            ok &= norm2 < self.t**2
        return ok


@dataclass(frozen=True)
class Cone(Region):
    """E(a, v, eps): points x with |r(x-a) - v| < eps for some r > 0.

    The existential over r is resolved in closed form (a 1-D quadratic).
    """

    apex: np.ndarray
    v: np.ndarray
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "apex", np.asarray(self.apex, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.eps <= 0:
            raise ValueError("cone aperture must be positive")

    def contains_many(self, X):
        d = np.atleast_2d(X) - self.apex
        vnorm2 = float(np.dot(self.v, self.v))
        dd = np.einsum("ij,ij->i", d, d)
        dv = d @ self.v
        # infimum over r > 0 of |r d - v|^2: attained at r = dv/dd when dv > 0,
        # otherwise approached as r -> 0+ with value |v|^2
        inf2 = np.full(d.shape[0], vnorm2)
        pos = (dv > 0) & (dd > 0)
        inf2[pos] = vnorm2 - dv[pos] ** 2 / dd[pos]
        return inf2 < self.eps**2


@dataclass(frozen=True)
class Complement(Region):
    inner: Region

    def contains_many(self, X):
        return ~self.inner.contains_many(X)

    def margin(self, X):
        inner = self.inner.margin(X)
        return None if inner is None else -inner


class Intersection(Region):
    def __init__(self, *parts: Region):
        self.parts = tuple(parts)

    def contains_many(self, X):
        X = np.atleast_2d(X)
        ok = np.ones(X.shape[0], dtype=bool)
        for p in self.parts:
            ok &= p.contains_many(X)
        return ok

    def margin(self, X):
        out = None
        for p in self.parts:
            m = p.margin(X)
            if m is None:
                return None
            out = m if out is None else np.minimum(out, m)
        return out

    def bounding_ball(self):
        best = None
        for p in self.parts:
            bb = p.bounding_ball()
            if bb is not None and (best is None or bb[1] < best[1]):
                best = bb
        return best


@dataclass(frozen=True)
class PlaneCone(Region):
    """X(a, T, eps): points z with |T_perp_nat(z - a)| <= eps * |T_nat(z - a)|."""

    plane: Plane
    apex: np.ndarray
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "apex", np.asarray(self.apex, dtype=float))
        if self.eps <= 0:
            raise ValueError("aperture must be positive")

    def contains_many(self, X):
        tang2, norm2 = split_squares(self.plane, self.apex, X)
        return norm2 <= self.eps**2 * tang2


def vertical_excess(plane: Plane, center: np.ndarray, threshold: float) -> Region:
    """{z : |T_perp_nat(z - center)| > threshold} as a region."""
    return Complement(Cylinder(plane, center, math.inf, threshold)) if threshold > 0 else FullSpace()


# ---------------------------------------------------------------------------
# shear maps


@dataclass(frozen=True)
class ShearMap:
    """x -> x - Q(T_nat x) with Q a polynomial map T -> T^perp.

    q_poly takes tangent coordinates (N, m) and returns ambient normal
    vectors (N, n).  The inverse is exact because T_nat f(x) = T_nat x.
    """

    plane: Plane
    q_poly: Callable[[np.ndarray], np.ndarray]

    def _shift(self, X: np.ndarray) -> np.ndarray:
        return np.atleast_2d(self.q_poly(self.plane.tangent_coords(X)))

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X - self._shift(X)

    def invert(self, Y: np.ndarray) -> np.ndarray:
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        return Y + self._shift(Y)
