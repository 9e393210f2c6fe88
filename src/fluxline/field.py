"""Vector potential of a closed flux line, circulations, counted fluxes.

`_clears_guard` is the one decision of whether a path clears a line's guard.
"""
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .curves import ClosedCurve, distance_to_curve, min_distance
from .errors import GeometryError
from .quadrature import _check_size, _factored_sum, _finite, _pair_sums, linking_integral
from .topology import Surface, crossing_linking, grad_solid_angle

GUARD_FACTOR = 1e-6
DEFAULT_FD_STEP = 1e-3


@dataclass(frozen=True)
class FluxLine:
    """A closed curve carrying magnetic flux, in units where hbar = c = 1."""

    curve: ClosedCurve
    flux: float

    def __post_init__(self):
        if not isinstance(self.curve, ClosedCurve):
            raise GeometryError("FluxLine.curve must be a ClosedCurve")
        if not math.isfinite(self.flux):
            raise GeometryError("flux must be finite")


def _guard_bound(curve: ClosedCurve) -> float:
    """The guard of a line on curve, GUARD_FACTOR times its diameter."""
    return GUARD_FACTOR * curve.diameter()


def _clears_guard(curve: ClosedCurve, distance: float) -> bool:
    """Whether distance lies past the guard of a line on curve.

    The diameter is at most 4 sqrt(3) (n - 1) / n times the largest
    coordinate, so a distance past GUARD_FACTOR * 4 sqrt(3) times it clears
    the guard, by a margin of 1 / n, far above rounding, with no diameter
    computed. Where that bound is not a normal number, or the distance lies
    within it, the diameter decides.
    """
    bound = GUARD_FACTOR * 4.0 * math.sqrt(3.0) * curve._size
    return (bound >= sys.float_info.min and distance > bound) or distance > _guard_bound(curve)


def potential_at(f: FluxLine, xs):
    """Vector potential at many points, (m, 3); callers enforce the guard.

    A(x) = (flux/4pi) integral of dx' x (x - x') / |x - x'|^3 over the line,
    evaluated at the line's spectral parameter midpoints (`ClosedCurve.nodes`).
    """
    return _factored_sum(f.curve.kernel_factor, xs) * (f.flux / (4.0 * np.pi))


def vector_potential(f: FluxLine, x, threads=None):
    """Vector potential at one point; errors inside the singular guard zone."""
    return _guarded_potential(f, np.asarray(x, dtype=float))[0]


def _guarded_potential(f: FluxLine, xs):
    """`potential_at`, or GeometryError if a point lies within the guard of the
    line or the line's coordinates pass `quadrature.MAX_COORDINATE`, where the
    pair sum's squared distances overflow.

    The pair sum runs first and leaves each point's least squared distance
    r^2 to a node. The polyline lies within rho (`ClosedCurve._node_reach`)
    of the nodes, so a point with r - rho above the guard, less a slack of
    1e-12 times the coordinates for rounding, clears it with no segment
    evaluated; r^2 must be normal and finite, so no underflowed distance
    passes a point. Every other point takes the exact `distance_to_curve`.
    The decisions and the order of the refusals are those of the exact
    check alone: the size, the guard, then a sum that is not finite. A sum
    that raises under np.errstate(all="raise") is run again after the guard.
    """
    c = f.curve
    _check_size(c)
    guard = _guard_bound(c)
    xs = np.atleast_2d(xs)
    r2 = np.empty(xs.shape[0])
    try:
        out = _pair_sums(c.kernel_factor, xs, r2)
    except FloatingPointError:
        out, r2[:] = None, np.nan
    clear = ((c._node_reach + guard + 1e-12 * c._size) * (1.0 + 1e-11)) ** 2
    near = ~((r2 > max(clear, sys.float_info.min)) & (r2 < np.inf))
    if near.any() and np.any(distance_to_curve(xs[near], c, cutoff=guard) <= guard):
        raise GeometryError("evaluation point is too close to the flux line")
    if out is None:
        return potential_at(f, xs)
    return _finite(out, c.kernel_factor) * (f.flux / (4.0 * np.pi))


def circulation(f: FluxLine, path: ClosedCurve, threads=None) -> float:
    """Closed line integral of A along path; equals flux times linking number."""
    guard = _guard_bound(f.curve)
    return _circulate(f, path, min_distance(path, f.curve, cutoff=guard))


def _circulate(f: FluxLine, path: ClosedCurve, distance: float) -> float:
    """`circulation`, given the path's `min_distance` to the line, exact at
    least up to the guard."""
    if not _clears_guard(f.curve, distance):
        raise GeometryError("path touches or nearly touches the flux line")
    return f.flux * linking_integral(path, f.curve)


def flux_through(f: FluxLine, surf: Surface) -> float:
    """Flux carried through an oriented surface: a counted quantity.

    The field is confined to the line, so the flux is the line's signed
    crossing count through the surface times the flux it carries.
    """
    return f.flux * crossing_linking(f.curve, surf)


def _warn_if_coarse(f: FluxLine, x, h: float):
    dist = distance_to_curve(np.asarray(x, dtype=float), f.curve)
    if h > 0.1 * dist:
        warnings.warn(
            f"FD step h={h:.3g} is large next to the distance {dist:.3g} "
            "to the flux line; expect contaminated stencils",
            stacklevel=3,
        )


def _stencil(f: FluxLine, x, h: float):
    """A at the six points x +- h*e_k; (2, 3 axes, 3 components)."""
    x = np.asarray(x, dtype=float)
    eye = np.eye(3)
    pts = np.vstack([x + h * eye, x - h * eye])
    a = potential_at(f, pts)
    return a[:3], a[3:]


def divergence_check(f: FluxLine, x, h: float = DEFAULT_FD_STEP, threads=None) -> float:
    """Central-difference divergence of A at x; near zero away from the line."""
    _warn_if_coarse(f, x, h)
    plus, minus = _stencil(f, x, h)
    return float(sum((plus[k, k] - minus[k, k]) for k in range(3)) / (2.0 * h))


def curl_check(f: FluxLine, x, h: float = DEFAULT_FD_STEP, threads=None):
    """Central-difference curl of A at x; (3,), near zero away from the line."""
    _warn_if_coarse(f, x, h)
    plus, minus = _stencil(f, x, h)
    d = (plus - minus) / (2.0 * h)
    # d[j, k] approximates dA_k / dx_j
    return np.array(
        [d[1, 2] - d[2, 1], d[2, 0] - d[0, 2], d[0, 1] - d[1, 0]]
    )


def potential_gradient_identity(f: FluxLine, x, threads=None) -> float:
    """Relative residual of A = (flux/4pi) grad(solid angle) at x."""
    a = vector_potential(f, x)
    g = (f.flux / (4.0 * np.pi)) * grad_solid_angle(x, f.curve)
    return float(np.linalg.norm(a - g) / max(np.linalg.norm(a), 1e-30))
