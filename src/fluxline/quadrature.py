"""Quadrature nodes for line integrals along polylines.

A closed polyline is treated as uniform parameter samples of a smooth
periodic curve. Trigonometric interpolation supplies the curve points at the
parameter midpoints and the exact tangents of the interpolant there, so
closed line integrals of smooth kernels converge spectrally in the vertex
count instead of at the O(N^-2) rate of chord midpoints. For polyline data
that is not smooth the linking-type integrals below are still protected by
their integer-valued limits.

`biot_savart` is the one pair sum behind the vector potential, the
solid-angle gradient, the circulation and the Gauss linking integral.
"""
import numpy as np

from . import parallel


def periodic_midpoints(points):
    """Midpoint nodes and tangent weights for one closed curve.

    points: (n, 3) vertices with implicit closure. Returns (mids, weights),
    both (n, 3). weights are the interpolant derivative at each node times
    the parameter cell width 2*pi/n, so

        sum_j F(mids[j]) . weights[j]

    approximates the closed line integral of a vector field F.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    coef = np.fft.rfft(pts, axis=0)
    k = np.arange(coef.shape[0])
    # evaluate the trigonometric interpolant half a cell to the right
    half = np.exp(1j * np.pi * k / n)[:, None]
    mids = np.fft.irfft(coef * half, n, axis=0)
    tangents = np.fft.irfft(coef * (1j * k)[:, None] * half, n, axis=0)
    return mids, tangents * (2.0 * np.pi / n)


def biot_savart(mids, weights, xs, threads=None):
    """sum_j weights[j] x (x - mids[j]) / |x - mids[j]|^3 at every x; (m, 3).

    mids, weights: the (n, 3) nodes of `periodic_midpoints`; xs: (m, 3)
    points, taken in fixed 256-row blocks so the result is thread
    independent. Callers keep xs off the curve.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))

    def block(i0, i1):
        r = xs[i0:i1, None, :] - mids[None, :, :]
        inv_r3 = np.einsum("ijk,ijk->ij", r, r) ** -1.5
        return np.einsum("ijk,ij->ik", np.cross(weights[None, :, :], r), inv_r3)

    return np.concatenate(parallel.blocks(block, xs.shape[0], threads=threads))


def linking_integral(path_points, curve_points, threads=None) -> float:
    """(1/4pi) closed integral over the path of `biot_savart` of the curve.

    The Gauss linking double integral of two closed curves, and the
    circulation of a unit-flux line's potential; near an integer for
    disjoint smooth curves.
    """
    mp, wp = periodic_midpoints(path_points)
    mc, wc = periodic_midpoints(curve_points)
    b = biot_savart(mc, wc, mp, threads=threads)
    return float(np.einsum("ij,ij->", b, wp)) / (4.0 * np.pi)
