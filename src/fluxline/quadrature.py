"""Quadrature nodes for line integrals along polylines.

A closed polyline is treated as uniform parameter samples of a smooth
periodic curve. Trigonometric interpolation supplies the curve points at the
parameter midpoints and the exact tangents of the interpolant there, so
closed line integrals of smooth kernels converge spectrally in the vertex
count instead of at the O(N^-2) rate of chord midpoints. For polyline data
that is not smooth the linking-type integrals below are still protected by
their integer-valued limits.

`biot_savart` is the one pair sum behind the vector potential, the
solid-angle gradient, the circulation and the Gauss linking integral. It
factors the sum about one node o of the curve, B(x) = S(x) x (x - o) - T(x),
so each block is one contraction of the (rows, n) inverse cubed distances
with six rows of node data. Its rounding grows like the curve's diameter
over the distance from x to the line.

`linking_integral` runs that sum at the resolution the pair needs. A curve
whose `rfft` modes from m/2 up sum to at most TAIL_TOL times its largest
coordinate is, to rounding, its own interpolant at m nodes, so both curves
are truncated to m = 64, 128, ... nodes while 4m stays within the smaller
node count, and the sum at 2m is taken once it agrees with the sum at m
within DOUBLING_TOL. Every other pair gets the sum at its native nodes, bit
for bit.
"""
import numpy as np

from . import parallel

# The first truncated node count. On the 108 perturbed-circle pairs of the
# benchmark's `link_files` rounds (seeds 0-11, n = 256-2048) the sums at 32
# and 64 nodes agree within DOUBLING_TOL on 9 pairs, those at 64 and 128 on
# 103. It also keeps curves of fewer than 256 nodes on their native sum.
TRUNCATE_FROM = 64
# A truncation may move a coordinate by this fraction of the curve's largest
# one. The dropped tails of those band-limited curves, rounding of their
# samples, are at most 5.5e-15 of it at m = 64; a square of 1024 points has
# 1.8e-2 at m = 64 and 1.8e-3 at m = 512.
TAIL_TOL = 1e-12
# Successive sums this close end the doubling. On the same pairs, both
# orders, the accepted sum was within 2.9e-15 of the native one, and the sum
# at 128 nodes within 1.3e-13.
DOUBLING_TOL = 1e-12


def periodic_midpoints(points):
    """Midpoint nodes and tangent weights for one closed curve.

    points: (n, 3) vertices with implicit closure. Returns (mids, weights),
    both (n, 3). weights are the interpolant derivative at each node times
    the parameter cell width 2*pi/n, so

        sum_j F(mids[j]) . weights[j]

    approximates the closed line integral of a vector field F.
    """
    pts = np.asarray(points, dtype=float)
    return _nodes(np.fft.rfft(pts, axis=0), pts.shape[0])


def _nodes(coef, n):
    """`periodic_midpoints` of the n-node trigonometric interpolant whose
    leading `rfft` coefficients are coef; the missing ones are 0."""
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

    The sum is linear in the cross products, so about the origin o = mids[0]

        B(x) = S(x) x (x - o) - T(x),
        S = sum_j w_j / r_j^3,  T = sum_j (w_j x (mids[j] - o)) / r_j^3,

    with r_j = |x - mids[j]|. A block forms r^-3 as one (rows, n) array and
    contracts it with the six rows [w | w x (mids - o)] built once per call,
    so no (rows, n, 3) array is built. The two terms cancel as x nears the
    curve: rounding grows like |x - o| / r_j, about diameter / d at a
    distance d from the line. On a unit circle of 1024 nodes, at points
    across the circle from o, it is 1e-14 relative at d = diameter and
    3.1e-11 at d = 1e-4 diameters, where the quadrature error is already
    near 1 (far larger than the rounding).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    o = mids[0]
    rel = mids.T - o[:, None]
    w = weights.T
    rows6 = np.concatenate([w, _cross(w, rel)])

    def block(i0, i1):
        x = xs[i0:i1] - o
        r2 = (x[:, :1] - rel[0]) ** 2 + (x[:, 1:2] - rel[1]) ** 2 + (x[:, 2:] - rel[2]) ** 2
        # numpy's own loop, not BLAS: a BLAS product's summation order
        # changes with its thread count, and so would the result's last bits
        st = np.einsum("ij,kj->ik", np.power(r2, -1.5, out=r2), rows6).T
        return (_cross(st[:3], x.T) - st[3:]).T

    return np.concatenate(parallel.blocks(block, xs.shape[0], threads=threads))


def _cross(a, b):
    """a x b over the first axis, (3, k); np.cross's set-up outweighs a one-point block."""
    return a[[1, 2, 0]] * b[[2, 0, 1]] - a[[2, 0, 1]] * b[[1, 2, 0]]


def linking_integral(path_points, curve_points, threads=None) -> float:
    """(1/4pi) closed integral over the path of `biot_savart` of the curve.

    The Gauss linking double integral of two closed curves, and the
    circulation of a unit-flux line's potential; near an integer for
    disjoint smooth curves.

    The sum runs at the resolution it needs. Both curves are truncated to
    m nodes of their trigonometric interpolants once the `rfft` modes that
    m drops, k >= m/2, sum to rounding level:

        (2/n) sum_{k >= m/2} |c_k| <= TAIL_TOL * max |coordinate|

    in every coordinate of each curve. m starts at TRUNCATE_FROM and doubles;
    the sums at m and 2m are taken while 4m <= the smaller node count, and
    the 2m sum is returned once two successive sums agree within
    DOUBLING_TOL (the periodic trapezoid rule converges geometrically, so
    one doubling checks it). Every other pair of curves, too small, not
    band-limited or not converged by half its nodes, gets the sum at the
    native nodes, the same bits as without the truncation, after at most
    about n^2/3 pairs spent on the doublings.
    """
    path = np.asarray(path_points, dtype=float)
    curve = np.asarray(curve_points, dtype=float)
    cp, cc = np.fft.rfft(path, axis=0), np.fft.rfft(curve, axis=0)

    def total(m=None):
        """The sum on both interpolants at m nodes; at their own nodes for m=None."""
        (mp, wp), (mc, wc) = (
            _nodes(c, len(p)) if m is None else _nodes(c[:m // 2] * (m / len(p)), m)
            for c, p in ((cp, path), (cc, curve)))
        b = biot_savart(mc, wc, mp, threads=threads)
        return float(np.einsum("ij,ij->", b, wp)) / (4.0 * np.pi)

    n = min(len(path), len(curve))
    m = TRUNCATE_FROM
    while 4 * m <= n and not (_tail_ok(cp, path, m) and _tail_ok(cc, curve, m)):
        m *= 2
    if 4 * m <= n:
        prev = total(m)
        while 4 * m <= n:
            m *= 2
            cur = total(m)
            if abs(cur - prev) <= DOUBLING_TOL:
                return cur
            prev = cur
    return total()


def _tail_ok(coef, points, m):
    """Whether truncating the curve to m nodes moves no coordinate past rounding level."""
    tail = np.abs(coef[m // 2:]).sum(axis=0).max() * (2.0 / len(points))
    return tail <= TAIL_TOL * np.abs(points).max()
