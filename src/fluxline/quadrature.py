"""Quadrature nodes for line integrals along polylines.

A closed polyline is treated as uniform parameter samples of a smooth
periodic curve. Trigonometric interpolation supplies the curve points at the
parameter midpoints and the exact tangents of the interpolant there, so
closed line integrals of smooth kernels converge spectrally in the vertex
count instead of at the O(N^-2) rate of chord midpoints. For polyline data
that is not smooth the linking-type integrals below are still protected by
their integer-valued limits.
"""
import numpy as np


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

