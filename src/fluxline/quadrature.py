"""Quadrature nodes for line integrals along polylines.

A closed polyline is treated as uniform parameter samples of a smooth
periodic curve. Trigonometric interpolation supplies the curve points at the
parameter midpoints and the exact tangents of the interpolant there, so
closed line integrals of smooth kernels converge spectrally in the vertex
count instead of at the O(N^-2) rate of chord midpoints (the periodic
trapezoid rule; Trefethen and Weideman, SIAM Rev. 56:385, 2014). For
polyline data that is not smooth the linking-type integrals below are still
protected by their integer-valued limits.

That interpolant is the curve model. It depends on the curve alone, so
`curves.ClosedCurve` caches it: `spectrum`, the `rfft` coefficients,
`nodes`, the (mids, weights) that `_nodes` builds from them, and
`kernel_factor`, the part of the pair sum below that depends on the nodes
alone. The cached arrays are read-only, so threads may share them. The
sums below take curves and read those caches, so a curve that enters many
sums, as the fixed curve of a deformation family does, is transformed
once, and a potential at one point costs its n pairs and little else: the
sum hands back each point's least squared node distance
(`_pair_sums`), from which `field` decides the potential's guard at a
point far from the line without a scan of its segments.
`periodic_midpoints` gives the same nodes for a bare point array.

`biot_savart` is the one pair sum behind the vector potential, the
solid-angle gradient, the circulation and the Gauss linking integral. It
factors the sum about one node o of the curve, B(x) = S(x) x (x - o) - T(x),
so each block is one contraction of the (rows, n) inverse cubed distances
with six rows of node data. `_factor` builds o, the nodes less o and those
six rows; `_pair_sums` runs the blocks and `_factored_sum` checks them.
`biot_savart(mids, weights, xs)` does both, for the truncated node sets of
`linking_integral`; a sum at a curve's own nodes reads its cached factor
instead, with the same bits. Its rounding grows like the curve's diameter
over the distance from x to the line. The blocks run serially on the
calling thread, so a sum that is not truncated below costs its pairs on
one core:
on a 2-core host the native sum of a square and a circle of 1024 points
each took 20-29 ms, against 12-13 ms on a pool of two threads (2048
points: 71-109 ms against 46-48 ms). Fewer pairs, not more threads, is the
way to make it cheaper. A block holds at most BLOCK_PAIRS node pairs, so
its (rows, n) arrays stay small enough to be reused from the allocator's
cache rather than mapped afresh.

`linking_integral` runs that sum at the resolution the pair needs. A curve
whose `rfft` modes from m/2 up sum to at most TAIL_TOL times its largest
coordinate is, to rounding, its own interpolant at m nodes, so both curves
are truncated to m = 64, 128, ... nodes while 4m stays within the smaller
node count, and the sum at 2m is taken once it agrees with the sum at m
within DOUBLING_TOL. Every other pair gets the sum at its native nodes, bit
for bit.
"""
import numpy as np

from .errors import GeometryError
from .parallel import CHUNK_ROWS

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
# node pairs in one block of `biot_savart`, at most CHUNK_ROWS rows of them:
# a (rows, n) float array over 128 KB, 2^14 doubles, is fresh pages on every
# allocation. On one thread the sum of 160 nodes at 160 points took
# 0.71-0.87 ms in one block and 0.35-0.46 ms in blocks of 102 rows (2048 x
# 2048: 78-94 against 60-63 ms). The rows of a block change no result's bits.
BLOCK_PAIRS = 2 ** 14
# the pair sum cubes distances, and the crossing count's plane values take
# products of three coordinates unscaled: finite up to this size, which every
# curve of a sum and every surface shares
MAX_COORDINATE = 1e72


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
    leading `rfft` coefficients are coef, (k, 3); the missing ones are 0.
    A stack of them, (..., k, 3), gives stacked nodes, (..., n, 3)."""
    k = np.arange(coef.shape[-2])
    # evaluate the trigonometric interpolant half a cell to the right
    half = np.exp(1j * np.pi * k / n)[:, None]
    mids = np.fft.irfft(coef * half, n, axis=-2)
    tangents = np.fft.irfft(coef * (1j * k)[:, None] * half, n, axis=-2)
    return mids, tangents * (2.0 * np.pi / n)


def biot_savart(mids, weights, xs):
    """sum_j weights[j] x (x - mids[j]) / |x - mids[j]|^3 at every x; (m, 3).

    mids, weights: the (n, 3) nodes of a curve (`ClosedCurve.nodes`); xs:
    (m, 3) points. Callers keep xs off the curve. `_factored_sum` of
    `_factor(mids, weights)`: a curve caches its factor
    (`ClosedCurve.kernel_factor`), so a sum at its native nodes builds none.
    """
    return _factored_sum(_factor(mids, weights), xs)


def _factor(mids, weights):
    """(o, rel, rows6): the part of `biot_savart` that depends on the curve alone.

    The sum is linear in the cross products, so about the origin o = mids[0]

        B(x) = S(x) x (x - o) - T(x),
        S = sum_j w_j / r_j^3,  T = sum_j (w_j x (mids[j] - o)) / r_j^3,

    with r_j = |x - mids[j]|. rel is the (3, n) array mids - o and rows6
    the six (n,) rows [w | w x (mids - o)] that r^-3 is contracted with.
    Stacked nodes, (..., n, 3), give stacked factors.
    """
    o = mids[..., 0, :]
    # C-ordered, so that a block's outer differences read it contiguously
    rel = np.ascontiguousarray(np.swapaxes(mids, -1, -2) - o[..., None])
    w = np.swapaxes(weights, -1, -2)
    cross = np.moveaxis(_cross(np.moveaxis(w, -2, 0), np.moveaxis(rel, -2, 0)), 0, -2)
    return o, rel, np.concatenate([w, cross], axis=-2)


def _factored_sum(factor, xs):
    """`biot_savart` at xs on the curve whose `_factor` is factor; (m, 3).

    The blocks of `_pair_sums`, checked by `_finite`. The two terms of the
    factored sum cancel as x nears the curve: rounding grows like
    |x - o| / r_j, about diameter / d at a distance d from the line. On a
    unit circle of 1024 nodes, at points across the circle from o, it is
    1e-14 relative at d = diameter and 3.1e-11 at d = 1e-4 diameters,
    where the quadrature error is already near 1 (far larger than the
    rounding).
    """
    return _finite(_pair_sums(factor, xs), factor)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # `_finite` covers these
def _pair_sums(factor, xs, nearest=None):
    """The factored sum at xs, unchecked and transposed; (3, m).

    xs is taken in blocks of min(CHUNK_ROWS, BLOCK_PAIRS // n) rows, at
    least one. A block forms r^-3 as one (rows, n) array, in two buffers
    allocated once per call, and contracts it with rows6, so no (rows, n, 3)
    array is built. nearest: an (m,) array that receives each row's least
    r^2, a node distance the caller may bound the line's distance with.
    """
    o, rel, rows6 = factor
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    m, n = xs.shape[0], rel.shape[1]
    rows = max(1, min(CHUNK_ROWS, BLOCK_PAIRS // n, m))
    r2_buf, sq_buf = np.empty((2, rows, n))
    # (3, m): the layout the callers' contractions have always summed in,
    # so their rounding does not change
    out = np.empty((3, m))
    for i0 in range(0, m, rows):
        x = xs[i0:i0 + rows] - o
        r2, sq = r2_buf[:x.shape[0]], sq_buf[:x.shape[0]]
        # (x0 - rel0)^2 + (x1 - rel1)^2 + (x2 - rel2)^2, summed in that order
        np.square(np.subtract.outer(x[:, 0], rel[0], out=r2), out=r2)
        for k in (1, 2):
            r2 += np.square(np.subtract.outer(x[:, k], rel[k], out=sq), out=sq)
        if nearest is not None:
            np.minimum.reduce(r2, axis=1, out=nearest[i0:i0 + rows])
        # numpy's own loop, not BLAS: a BLAS product's summation order
        # changes with its thread count, and so would the result's last bits
        st = np.einsum("ij,kj->ik", np.power(r2, -1.5, out=r2), rows6).T
        if x.shape[0] == 1:
            # `_cross` in floats, the same operations and bits: its gathers
            # and ufuncs on (3, 1) arrays took 5 of a one-point sum's 29 us
            # at n = 1024
            (s0, s1, s2, t0, t1, t2), (x0, x1, x2) = st[:, 0].tolist(), x[0].tolist()
            out[:, i0] = s1 * x2 - s2 * x1 - t0, s2 * x0 - s0 * x2 - t1, s0 * x1 - s1 * x0 - t2
        else:
            out[:, i0:i0 + rows] = _cross(st[:3], x.T) - st[3:]
    return out


def _finite(out, factor):
    """out.T, or GeometryError naming the curve's extent if the sum is not
    finite: on a curve so small that r^-3 overflows, or at a point that is
    not finite."""
    if not np.isfinite(out).all():
        raise GeometryError(
            f"the pair sum is not finite on a curve {np.ptp(factor[1], axis=1).max():.3g} across")
    return out.T


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(a, b):
    """a x b over the first axis, (3, k); np.cross's set-up outweighs a one-point block."""
    return a[_NEXT] * b[_PREV] - a[_PREV] * b[_NEXT]


def linking_integral(path, curve) -> float:
    """(1/4pi) closed integral over the path of `biot_savart` of the curve.

    path, curve: `ClosedCurve`s. The Gauss linking double integral of two
    closed curves, and the circulation of a unit-flux line's potential; near
    an integer for disjoint smooth curves.

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
    def total(m=None):
        """The sum on both interpolants at m nodes; at their own nodes for m=None."""
        if m is None:
            mp, wp = path.nodes
            b = _factored_sum(curve.kernel_factor, mp)
        else:
            (mp, wp), (mc, wc) = (_nodes(c.spectrum[:m // 2] * (m / c.n), m)
                                  for c in (path, curve))
            b = biot_savart(mc, wc, mp)
        return float(np.einsum("ij,ij->", b, wp)) / (4.0 * np.pi)

    _check_size(path, curve)
    n = min(path.n, curve.n)
    m = TRUNCATE_FROM
    while 4 * m <= n and not (_tail_ok(path, m) and _tail_ok(curve, m)):
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


def _model_stage(*curves):
    """The curve-model stage (`curves._MODEL`) that `linking_integral` reads
    first on a pair of these curves, in either role: "kernel_factor" below
    4 * TRUNCATE_FROM nodes, where the sum is native, and "spectrum" from
    there up, where the spectra's tails decide a truncation."""
    return "kernel_factor" if 4 * TRUNCATE_FROM > min(c.n for c in curves) else "spectrum"


def _check_size(*curves):
    """GeometryError naming the size if the curves' coordinates pass MAX_COORDINATE."""
    size = max(c._size for c in curves)
    if size > MAX_COORDINATE:
        raise GeometryError(f"curve coordinates reach {size:.3g}, above {MAX_COORDINATE:.0e}")


def _tail_ok(c, m):
    """Whether truncating the curve to m nodes moves no coordinate past rounding level."""
    tail = np.abs(c.spectrum[m // 2:]).sum(axis=0).max() * (2.0 / c.n)
    return tail <= TAIL_TOL * c._size
