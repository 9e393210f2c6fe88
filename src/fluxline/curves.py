"""Oriented closed polylines in 3-space: generators, resampling, deformation.

A `ClosedCurve` caches what depends on it alone: its curve model (the
`rfft` spectrum, the quadrature nodes and the Biot-Savart kernel factor
that `quadrature` reads), its centroid and diameter, and the boxes of its
SCAN_BLOCK-segment runs. `_boxes` builds the boxes of every pruned scan,
`topology`'s crossing count included, and `_box_bound` bounds pairs by
their gaps before any is evaluated. A scan given a cutoff evaluates only
what lies within it: `min_distance` and the self check for segment pairs,
`distance_to_curve` for points, so the potential's guard at a point far
from the line evaluates no segment.
"""
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ClearanceError, GeometryError, SchemaError, check_numbers, read_json
from .quadrature import BLOCK_PAIRS, _factor, _nodes

DEFAULT_N = 1024
# most points a curve file or the command line's --samples may give: the
# measured memory and time of one Biot-Savart block are quoted at this size
MAX_POINTS = 16384
# segments per bounding box in the pruned distance scan
SCAN_BLOCK = 32


@dataclass(frozen=True)
class ClosedCurve:
    """Oriented closed polyline; the segment points[-1] -> points[0] closes it.

    points: (n, 3) float array, n >= 3, consecutive vertices distinct.

    The curve model is the polyline's trigonometric interpolant: the points
    are uniform samples of a smooth periodic curve. `spectrum` holds its
    `rfft` coefficients and `nodes` the quadrature nodes at the native n
    built from them (`quadrature._nodes`), so every line integral over the
    curve reads one model, computed once per curve. They, the centroid, the
    diameter and the largest coordinate are cached on first use; every
    array is read-only.
    Instances are immutable and safe to share across threads: two threads
    that fill a cache at once compute the same values.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise GeometryError("curve points must form an (n, 3) array")
        if pts.shape[0] < 3:
            raise GeometryError("a closed curve needs at least 3 points")
        if not np.isfinite(pts).all():
            raise GeometryError("curve points must be finite")
        # exact, where squared lengths underflow: finite a - b is 0 only if a == b
        if not ((pts[1:] != pts[:-1]).any(axis=1).all() and (pts[0] != pts[-1]).any()):
            raise GeometryError("consecutive curve points must be distinct")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @cached_property
    def spectrum(self):
        """The (n // 2 + 1, 3) `rfft` coefficients of the points along the curve."""
        return _read_only(np.fft.rfft(self.points, axis=0))

    @cached_property
    def nodes(self):
        """(mids, weights) of the periodic midpoint rule, as `quadrature.periodic_midpoints`."""
        return tuple(_read_only(a) for a in _nodes(self.spectrum, self.n))

    @cached_property
    def kernel_factor(self):
        """(o, rel, rows6): `quadrature._factor` of `nodes`, what `biot_savart` builds per call."""
        return tuple(_read_only(a) for a in _factor(*self.nodes))

    @cached_property
    def _run_box(self):
        """(lo, hi, run): the segments' run boxes from `_boxes` and each segment's run."""
        p0, u = self.segments()
        lo, hi = _boxes(p0, p0 + u)[2:]
        return _read_only(lo), _read_only(hi), _read_only(np.arange(self.n) // SCAN_BLOCK)

    @cached_property
    def _centroid(self):
        return _read_only(self.points.mean(axis=0))

    @cached_property
    def _size(self) -> float:
        """The largest absolute coordinate."""
        return float(np.abs(self.points).max())

    @cached_property
    def _diameter(self) -> float:
        return _diameter_of(self.points, self._centroid)

    def segments(self):
        """Segment start points and direction vectors, each (n, 3)."""
        return self.points, np.roll(self.points, -1, axis=0) - self.points

    def reversed(self) -> "ClosedCurve":
        """Same point set, opposite orientation."""
        return ClosedCurve(self.points[::-1].copy())

    def centroid(self):
        return self._centroid

    def diameter(self) -> float:
        """Twice the largest vertex distance from the centroid; a scale proxy."""
        return self._diameter

    def perimeter(self) -> float:
        _, d = self.segments()
        return float(np.linalg.norm(d, axis=1).sum())


def _read_only(a):
    a.flags.writeable = False
    return a


def _exponent(size):
    """The k with 2^(k - 1) <= size < 2^k (0 for size 0)."""
    return int(np.frexp(size)[1])


def _scaled(*arrays):
    """(k, the arrays times 2^-k), k the `_exponent` of their largest |entry|: the
    one scale rule of every geometric kernel. Scaled, they lie in (-1, 1), where no
    square or cube overflows or underflows, and each rounding is the unscaled one
    times 2^-k, so results in the normal range keep their bits at any scale."""
    k = _exponent(max(float(np.abs(a).max()) for a in arrays))
    return k, [np.ldexp(a, -k) for a in arrays]


def _diameter_of(points, centroid) -> float:
    """Twice the largest |point - centroid|: the differences of the `_scaled` inputs,
    `_scaled` again, so that an extent far below the coordinates keeps its bits."""
    k, (p, c) = _scaled(points, centroid)
    j, (d,) = _scaled(p - c)
    return float(np.ldexp(2.0 * np.sqrt(np.max(np.einsum("ij,ij->i", d, d))), k + j))


@dataclass(frozen=True)
class DeformationSpec:
    """Parameters for a seeded band-limited random deformation.

    amplitude: total deformation scale (>= 0; zero means no motion).
    n_modes: Fourier modes of each per-step displacement (>= 1).
    seed: rng seed; identical seeds give identical sequences.
    steps: number of deformation steps (>= 1).
    clearance: minimum allowed distance to the obstacle curve (> 0).
    max_tries: rejection budget per step before giving up.
    """

    amplitude: float
    n_modes: int
    seed: int
    steps: int
    clearance: float
    max_tries: int = 50

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0.0):
            raise GeometryError("amplitude must be finite and >= 0")
        if self.n_modes < 1:
            raise GeometryError("n_modes must be >= 1")
        if self.steps < 1:
            raise GeometryError("steps must be >= 1")
        if not (math.isfinite(self.clearance) and self.clearance > 0.0):
            raise GeometryError("clearance must be finite and positive")
        if self.max_tries < 1:
            raise GeometryError("max_tries must be >= 1")


def _segment_pair_distance(p0, u, q0, v):
    """Distances between every segment of set one and every segment of set two.

    p0, u: (n1, 3) segment starts and direction vectors; q0, v: (n2, 3).
    Returns (n1, n2). Closest points by one clamp of s, the t best for that
    s, and one correction (Ericson, Real-Time Collision Detection, 5.1.9);
    exact for nondegenerate segments. Parallel pairs start from s = 0, which
    lies on their line of closest points.
    """
    w = p0[:, None, :] - q0[None, :, :]
    a = np.einsum("ij,ij->i", u, u)[:, None]
    c = np.einsum("ij,ij->i", v, v)[None, :]
    # BLAS rounds a product with one row or one column (gemv) unlike a larger
    # one (gemm); a lone segment is doubled, so that a pair's distance has
    # the same bits in whatever call evaluates it
    k1, k2 = (1 if x.shape[0] > 1 else 2 for x in (u, v))
    b = (np.repeat(u, k1, axis=0) @ np.repeat(v, k2, axis=0).T)[::k1, ::k2]
    d = np.einsum("ik,ijk->ij", u, w)
    e = np.einsum("jk,ijk->ij", v, w)
    den = a * c - b * b
    s = np.divide(b * e - c * d, den, out=np.zeros_like(den), where=den > 1e-13 * a * c)
    s = np.clip(s, 0.0, 1.0)
    # where the t best for s leaves [0, 1], clamp it and re-pick s for that end
    t = (b * s + e) / c
    s = np.where(t < 0.0, np.clip(-d / a, 0.0, 1.0),
                 np.where(t > 1.0, np.clip((b - d) / a, 0.0, 1.0), s))
    t = np.clip(t, 0.0, 1.0)
    diff = w + s[:, :, None] * u[:, None, :] - t[:, :, None] * v[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _boxes(*corners):
    """(lo, hi, run_lo, run_hi): the C-ordered (3, k) corners of the boxes of the
    elements with these (k, 3) corner arrays and of their SCAN_BLOCK runs."""
    lo, hi = (np.ascontiguousarray(f.reduce(corners).T) for f in (np.minimum, np.maximum))
    starts = np.arange(0, lo.shape[1], SCAN_BLOCK)
    return lo, hi, np.minimum.reduceat(lo, starts, axis=1), np.maximum.reduceat(hi, starts, axis=1)


def _box_bound(lo_a, hi_a, lo_b, hi_b, slack):
    """Gaps between every box of set a and every box of set b, less slack.

    The corners are C-ordered (3, k) arrays: numpy's loops then run along
    the boxes, not along three coordinates.
    """
    gap = np.maximum(np.maximum(lo_b[:, None, :] - hi_a[:, :, None],
                                lo_a[:, :, None] - hi_b[:, None, :]), 0.0)
    return np.sqrt(np.einsum("kij,kij->ij", gap, gap)) - slack


def _band_bound(u):
    """Lower bounds on the distances of non-adjacent segment pairs in the
    diagonal band of a closed polyline's runs, from monotone windows.

    Window i is runs i and i + 1 (mod the run count), e_i the unit vector
    along the sum of its segments. If every segment k of a run has
    u_k . e > 0, the run's vertices project onto e in increasing order, so
    two of its segments a < b - 1 are at least sum_{a<k<b} u_k . e >=
    min_k u_k . e apart (a monotone chain cannot meet itself; Shamos and
    Hoey 1976). Returns (band, diag): band[i] bounds the pairs of runs i and
    i + 1 by the least u_k . e_i over window i, diag[i] the pairs inside
    run i by the better of windows i - 1 and i; 0 where a window or run is
    not monotone.
    """
    n = u.shape[0]
    starts = np.arange(0, n, SCAN_BLOCK)
    run = np.arange(n) // SCAN_BLOCK
    w = np.add.reduceat(u, starts)
    w += np.roll(w, -1, axis=0)
    norm = np.sqrt(np.einsum("ij,ij->i", w, w))

    def least(ww, nn):
        """Least u_k . ww / nn over each run, 0 where that is not positive
        (a positive one implies nn > 0)."""
        m = np.minimum.reduceat(np.einsum("ij,ij->i", u, ww[run]), starts)
        return np.divide(m, nn, out=np.zeros_like(m), where=m > 0.0)

    # run r leads in window r and trails in window r - 1
    lead, trail = least(w, norm), least(np.roll(w, 1, axis=0), np.roll(norm, 1))
    return np.minimum(lead, np.roll(trail, -1)), np.maximum(lead, trail)


def _min_segment_distance(p0, u, q0, v, skip_adjacent=False, cutoff=np.inf) -> float:
    """Minimum of _segment_pair_distance(p0, u, q0, v), bit for bit, pruned.

    Axis-aligned boxes bound the distances from below at two levels: the
    gap between the boxes of two SCAN_BLOCK runs of consecutive segments,
    and the gap between the boxes of two segments. The run pair of least
    bound is evaluated first, and its minimum ub is an achieved distance;
    then every other run pair bounded by min(ub, cutoff) is evaluated. In
    each row run the kernel is called once, on the rows and the gathered
    columns that hold a segment pair bounded by the least distance found so
    far (or cutoff). Serial: two threads gained nothing here.
    skip_adjacent (q0, v are p0, u): the pairs i, i and i, i +- 1 mod n are
    left out. Neighbouring runs share a vertex, so the boxes of the
    diagonal band (run pairs i, i and i, i +- 1) always touch; with three
    runs or more, _band_bound's monotone windows bound the band instead
    wherever the curve advances along one direction over two runs, which
    a smooth, finely sampled curve does everywhere. (With two runs a window
    is the whole closed curve, which advances along no direction.)
    cutoff: when the minimum is <= cutoff it is returned exactly, and
    otherwise some value above cutoff (inf when no pair comes within it).
    A caller that only compares the distance with a tolerance passes the
    tolerance and skips the pairs farther apart; the default inf is the
    exact scan. The scan runs on the inputs `_scaled`; a segment whose squared
    length underflows to 0 there, where the kernel would divide by it, is refused.
    """
    k, (p0, u, q0, v) = _scaled(p0, u, q0, v)
    for w in (u, v):
        ww = np.einsum("ij,ij->i", w, w)
        if not ww.all():
            size = max(float(np.abs(x).max()) for x in (p0, q0))
            raise _too_short(np.ldexp(np.abs(w[np.argmin(ww)]).max(), k), np.ldexp(size, k))
    cutoff = np.ldexp(cutoff, -k)
    n = p0.shape[0]
    boxes_p = _boxes(p0, p0 + u)
    boxes_q = boxes_p if skip_adjacent else _boxes(q0, q0 + v)
    (lo_p, hi_p, *runs_p), (lo_q, hi_q, *runs_q) = boxes_p, boxes_q
    # the slack covers the rounding of the bounds and of the kernel's
    # distances, so no pruned pair can hold a smaller computed distance
    slack = 1e-12 * max(float(np.abs(c).max()) for c in (lo_p, hi_p, lo_q, hi_q))
    runs = _box_bound(*runs_p, *runs_q, slack)
    if skip_adjacent and runs.shape[0] >= 3:
        band, diag = _band_bound(u)
        run = np.arange(runs.shape[0])
        nxt = np.roll(run, -1)
        runs[run, run] = np.maximum(runs[run, run], diag - slack)
        runs[run, nxt] = runs[nxt, run] = np.maximum(runs[run, nxt], band - slack)
    col_run = np.arange(q0.shape[0]) // SCAN_BLOCK

    def scan(take, best):
        for i in np.flatnonzero(take.any(axis=1)):
            cols = np.flatnonzero(take[i, col_run])
            rows = np.arange(i * SCAN_BLOCK, min(i * SCAN_BLOCK + SCAN_BLOCK, n))
            near = _box_bound(*(np.take(x, k, axis=1) for x, k in
                                ((lo_p, rows), (hi_p, rows), (lo_q, cols), (hi_q, cols))), slack)
            near = near <= min(best, cutoff)
            if skip_adjacent:
                k = (cols[None, :] - rows[:, None]) % n
                near[(k <= 1) | (k == n - 1)] = False
            r, c = near.any(axis=1), near.any(axis=0)
            if c.any():
                d = _segment_pair_distance(p0[rows[r]], u[rows[r]], q0[cols[c]], v[cols[c]])
                best = min(best, float(d[near[r][:, c]].min()))
        return best

    # with no run pair bounded within cutoff, no pair is and nothing is scanned
    first = np.zeros(runs.shape, dtype=bool)
    first.flat[np.argmin(runs)] = runs.min() <= cutoff
    ub = scan(first, np.inf)
    return float(np.ldexp(scan((runs <= min(ub, cutoff)) & ~first, ub), k))


def min_distance(a: ClosedCurve, b: ClosedCurve, threads=None, *, cutoff=np.inf) -> float:
    """Minimum Euclidean distance over all segment pairs of two closed curves.

    cutoff: the minimum is exact when it is <= cutoff, and otherwise some
    value above cutoff, so a caller that only compares the distance with a
    tolerance passes the tolerance; the default gives the exact minimum.
    """
    return _min_segment_distance(*a.segments(), *b.segments(), cutoff=cutoff)


def _too_short(extent, size):
    """The refusal of a segment whose squared length underflows to 0 once `_scaled`."""
    return GeometryError(f"a segment of extent {extent:.3g} is too short next to coordinates"
                         f" of size {size:.3g}: its squared length underflows")


def point_segment_distance(x, p0, d):
    """Distances (m, k) from points x (m, 3) to segments (p0, d) (k, 3), on x - p0, d `_scaled`.

    A segment of length 0 is its point p0. One whose squared length underflows
    to 0 once scaled with the offsets x - p0, where the projection would divide
    by it, is refused with GeometryError, as in `_min_segment_distance`.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    k, (w, u) = _scaled(x[:, None, :] - p0[None, :, :], d)
    uu = np.einsum("ij,ij->i", u, u)
    if not uu.all():
        short = d[uu == 0.0]
        if short.any():
            raise _too_short(float(np.abs(short).max()), float(np.ldexp(np.abs(w).max(), k)))
        uu[uu == 0.0] = np.inf  # t = 0 on a point
    t = np.clip(np.einsum("jk,ijk->ij", u, w) / uu, 0.0, 1.0)
    diff = w - t[:, :, None] * u[None, :, :]
    return np.ldexp(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)), k)


def distance_to_curve(x, c: ClosedCurve, *, cutoff=np.inf):
    """Distance from each point in x to the curve polyline; (m,) or scalar.

    cutoff: as for `min_distance`, point by point: a distance <= cutoff is
    exact, and a larger one is some value above cutoff (inf when no segment
    comes within it). The boxes of the curve's SCAN_BLOCK runs bound each
    point's distance from below, less the slack of `_min_segment_distance`,
    and only the runs bounded within cutoff are evaluated, so a caller that
    only compares the distance with a tolerance passes the tolerance; the
    default inf evaluates every segment. The points go in blocks of
    BLOCK_PAIRS // n rows, at least one.
    """
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    lo, hi, seg_run = c._run_box
    n = c.n
    out = np.full(pts.shape[0], np.inf)
    rows = max(1, BLOCK_PAIRS // n)
    for i0 in range(0, pts.shape[0], rows):
        p = pts[i0:i0 + rows]
        corners = np.ascontiguousarray(p.T)
        slack = 1e-12 * max(c._size, float(np.abs(p).max()))
        # not "bound <= cutoff": a point with a nan coordinate is evaluated
        near = ~(_box_bound(corners, corners, lo, hi, slack) > cutoff)
        if near.any():
            r = near.any(axis=1)
            seg = np.flatnonzero(near.any(axis=0)[seg_run])
            p0 = c.points[seg]
            dist = point_segment_distance(p[r], p0, c.points[(seg + 1) % n] - p0)
            dist[~near[r][:, seg_run[seg]]] = np.inf
            out[i0 + np.flatnonzero(r)] = dist.min(axis=1)
    return float(out[0]) if x.ndim == 1 else out


def _check_self_avoiding(c: ClosedCurve, label):
    tol = 1e-12 * c._size
    p, u = c.segments()
    if _min_segment_distance(p, u, p, u, skip_adjacent=True, cutoff=tol) < tol:
        raise GeometryError(f"{label}: non-adjacent segments intersect")


def _circle_frame(normal):
    nv = np.asarray(normal, dtype=float)
    nn = np.linalg.norm(nv)
    if nn == 0.0 or not np.all(np.isfinite(nv)):
        raise GeometryError("circle normal must be a nonzero finite vector")
    nv = nv / nn
    helper = np.array([1.0, 0.0, 0.0])
    if abs(nv[0]) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = helper - np.dot(helper, nv) * nv
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(nv, e1)
    return e1, e2


def make_circle(center, radius, normal, n: int = DEFAULT_N) -> ClosedCurve:
    """Uniformly sampled circle, right-handed about the given normal."""
    if not (radius > 0.0 and math.isfinite(radius)):
        raise GeometryError("circle radius must be positive")
    if n < 3:
        raise GeometryError("a circle needs at least 3 samples")
    e1, e2 = _circle_frame(normal)
    theta = 2.0 * np.pi * np.arange(n) / n
    pts = (
        np.asarray(center, dtype=float)
        + radius * np.cos(theta)[:, None] * e1
        + radius * np.sin(theta)[:, None] * e2
    )
    # analytic circles cannot self-intersect; skip the O(n^2) scan
    return ClosedCurve(pts)


def make_torus_knot(p: int, q: int, R: float, r: float, n: int = DEFAULT_N) -> ClosedCurve:
    """Curve on a torus: azimuth p*theta, tube phase q*theta.

    rho(theta) = R + r*sin(q*theta), z(theta) = r*cos(q*theta). Links the
    circle rho = R, z = 0 exactly q times; (1, 0) degenerates to a planar
    circle of radius R at height r.
    """
    if math.gcd(p, q) != 1:
        raise GeometryError("p and q must be coprime")
    if not (R > r > 0.0):
        raise GeometryError("need R > r > 0")
    if n < 16 * max(abs(p), abs(q), 1):
        raise GeometryError("n too small to resolve the knot; need >= 16*max(p, q)")
    theta = 2.0 * np.pi * np.arange(n) / n
    rho = R + r * np.sin(q * theta)
    pts = np.column_stack(
        [rho * np.cos(p * theta), rho * np.sin(p * theta), r * np.cos(q * theta)]
    )
    c = ClosedCurve(pts)
    _check_self_avoiding(c, "torus knot")
    return c


def resample(c: ClosedCurve, n: int) -> ClosedCurve:
    """Resample to n points at uniform arc length by linear interpolation, on the
    segments `_scaled`, so that the points keep their bits at any scale."""
    if n < 3:
        raise GeometryError("resample target must be >= 3 points")
    k, (pts, seg) = _scaled(*c.segments())
    seglen = np.linalg.norm(seg, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    s = np.arange(n) * (cum[-1] / n)
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, c.n - 1)
    frac = (s - cum[idx]) / seglen[idx]
    return ClosedCurve(np.ldexp(pts[idx] + frac[:, None] * seg[idx], k))


def fourier_displacement(rng, theta, n_modes: int):
    """Band-limited random vector field over the curve parameter; (n, 3)."""
    return _displacement(rng, *_mode_columns(theta, n_modes))


def _mode_columns(theta, n_modes):
    """The (n, 1) columns cos((m + 1) theta) and sin((m + 1) theta), m < n_modes."""
    return ([np.cos((m + 1) * theta)[:, None] for m in range(n_modes)],
            [np.sin((m + 1) * theta)[:, None] for m in range(n_modes)])


def _displacement(rng, cos, sin):
    """`fourier_displacement` on its mode columns; a column times a row is np.outer's bits."""
    coef = rng.normal(size=(len(cos), 2, 3))
    disp = np.zeros((cos[0].shape[0], 3))
    for m, (c, s) in enumerate(zip(cos, sin)):
        disp += c * coef[m, 0]
        disp += s * coef[m, 1]
    return disp


def _deform(a: ClosedCurve, b: ClosedCurve, spec: DeformationSpec, move_b: bool, lb: float):
    """Seeded rejection loop: deform a, and b too when move_b, keeping clearance.

    lb is min_distance(a, b), which the caller measured; a start not above
    spec.clearance is refused. Yields the spec.steps drawn pairs (a_i, b_i),
    not (a, b), each more than spec.clearance apart. Every attempt draws
    one displacement per moving curve, a first. Each moving curve steps at
    most half the clearance split among the moving curves, so the relative
    motion between accepted states stays below half the clearance and the
    pair cannot pass through each other between steps.

    The pair's distance is carried as a lower bound lb (conservative
    advancement, Mirtich 1996). A step moves every vertex of a moving curve,
    and so every point of its segments, by at most `step`, and the distance
    is 1-Lipschitz in each curve's motion: a candidate is at least
    lb - step * len(moving) from its partner. When that bound, less 1e-12
    times the pair's largest coordinate for rounding, clears spec.clearance,
    the candidate is accepted unscanned and lb becomes the bound. Otherwise
    the pair is scanned; an accepted candidate sets lb to its distance, a
    rejected one leaves lb as it was. The bound never changes a decision and
    the draws are the same, so the states are those of a scan per attempt.
    """
    if lb <= spec.clearance:
        raise ClearanceError(
            f"initial clearance {lb:.6g} is not above the required {spec.clearance:.6g}"
        )
    rng = np.random.default_rng(spec.seed)
    moving = [a, b] if move_b else [a]
    modes = [_mode_columns(2.0 * np.pi * np.arange(c.n) / c.n, spec.n_modes) for c in moving]
    step = min(spec.amplitude / spec.steps, 0.5 * spec.clearance / len(moving))
    for _ in range(spec.steps):
        for attempt in range(spec.max_tries + 1):
            if attempt == spec.max_tries:
                raise ClearanceError(
                    f"no clearance-respecting step found in {spec.max_tries} tries"
                )
            disps = [_displacement(rng, *cs) for cs in modes]
            peaks = [float(np.sqrt(np.max(np.einsum("ij,ij->i", d, d)))) for d in disps]
            if 0.0 in peaks:
                continue
            cand = [ClosedCurve(c.points + (step / pk) * d)
                    for c, d, pk in zip(moving, disps, peaks)]
            pair = (cand[0], cand[1] if move_b else b)
            slack = 1e-12 * max(c._size for c in pair)
            moved = lb - step * len(moving) - slack
            dist = moved if moved > spec.clearance else min_distance(*pair)
            if dist > spec.clearance:
                lb = dist
                break
        yield pair
        moving = cand


def deform_homotopy(c: ClosedCurve, obstacle: ClosedCurve, spec: DeformationSpec, threads=None):
    """Deform c in spec.steps random smooth steps while keeping clearance.

    Returns spec.steps + 1 curves, the first being c. Candidate steps closer
    than spec.clearance to the obstacle are rejected and redrawn from the
    seeded generator, so the output is deterministic for a fixed seed. The
    per-step motion is capped at half the clearance: successive curves then
    cannot jump across the obstacle, so the homotopy class relative to the
    obstacle is preserved, not just sampled.
    """
    return [c] + [a for a, _ in _deform(c, obstacle, spec, False, min_distance(c, obstacle))]


def save_curve(c: ClosedCurve, path):
    """Write the curve as JSON {"points": [[x, y, z], ...]}; closure implicit."""
    with open(path, "w") as fh:
        json.dump({"points": c.points.tolist()}, fh)
        fh.write("\n")


def load_curve(path) -> ClosedCurve:
    """Read a curve JSON file of at most MAX_POINTS points; best-effort geometry validation."""
    data = read_json(path)
    if not isinstance(data, dict) or "points" not in data:
        raise SchemaError(f"{path}: expected an object with a 'points' field")
    if isinstance(data["points"], list) and len(data["points"]) > MAX_POINTS:
        raise SchemaError(
            f"{path}: {len(data['points'])} points, more than the {MAX_POINTS} allowed")
    check_numbers(path, data["points"], "coordinates")
    try:
        curve = ClosedCurve(data["points"])
    except (GeometryError, ValueError, TypeError, OverflowError) as e:
        # ValueError, TypeError, OverflowError: 'points' is not an array of floats
        raise SchemaError(f"{path}: {e}") from e
    try:
        _check_self_avoiding(curve, path)
    except GeometryError as e:
        # the message already starts with the path
        raise SchemaError(str(e)) from e
    return curve
