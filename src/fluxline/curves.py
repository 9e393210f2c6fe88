"""Oriented closed polylines in 3-space: generators, resampling, deformation."""
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ClearanceError, GeometryError, SchemaError, check_numbers, read_json

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
    Instances are immutable and safe to share across threads.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise GeometryError("curve points must form an (n, 3) array")
        if pts.shape[0] < 3:
            raise GeometryError("a closed curve needs at least 3 points")
        if not np.all(np.isfinite(pts)):
            raise GeometryError("curve points must be finite")
        seg = np.roll(pts, -1, axis=0) - pts
        if float(np.min(np.einsum("ij,ij->i", seg, seg))) == 0.0:
            raise GeometryError("consecutive curve points must be distinct")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def segments(self):
        """Segment start points and direction vectors, each (n, 3)."""
        return self.points, np.roll(self.points, -1, axis=0) - self.points

    def reversed(self) -> "ClosedCurve":
        """Same point set, opposite orientation."""
        return ClosedCurve(self.points[::-1].copy())

    def centroid(self):
        return self.points.mean(axis=0)

    def diameter(self) -> float:
        """Twice the largest vertex distance from the centroid; a scale proxy."""
        d = self.points - self.centroid()
        return 2.0 * float(np.sqrt(np.max(np.einsum("ij,ij->i", d, d))))

    def perimeter(self) -> float:
        _, d = self.segments()
        return float(np.linalg.norm(d, axis=1).sum())


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


def _run_boxes(*corners):
    """Lower and upper corners of the boxes of SCAN_BLOCK runs of the corner arrays."""
    starts = np.arange(0, corners[0].shape[0], SCAN_BLOCK)
    return (np.minimum.reduceat(np.minimum.reduce(corners), starts),
            np.maximum.reduceat(np.maximum.reduce(corners), starts))


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
    left out.
    cutoff: when the minimum is <= cutoff it is returned exactly, and
    otherwise some value above cutoff (inf when no pair comes within it).
    A caller that only compares the distance with a tolerance passes the
    tolerance and skips the pairs farther apart; the default inf is the
    exact scan.
    """
    n = p0.shape[0]
    seg = (np.minimum(p0, p0 + u), np.maximum(p0, p0 + u),
           np.minimum(q0, q0 + v), np.maximum(q0, q0 + v))
    # the slack covers the rounding of the bounds and of the kernel's
    # distances, so no pruned pair can hold a smaller computed distance
    slack = 1e-12 * max(float(np.abs(c).max()) for c in seg)

    def bound(lo_a, hi_a, lo_b, hi_b):
        """Box gaps less the slack, from C-ordered (3, k) corners: numpy's
        loops then run along the boxes, not along three coordinates."""
        gap = np.maximum(np.maximum(lo_b[:, None, :] - hi_a[:, :, None],
                                    lo_a[:, :, None] - hi_b[:, None, :]), 0.0)
        return np.sqrt(np.einsum("kij,kij->ij", gap, gap)) - slack

    runs = bound(*(np.ascontiguousarray(c.T)
                   for c in (*_run_boxes(*seg[:2]), *_run_boxes(*seg[2:]))))
    lo_p, hi_p, lo_q, hi_q = (np.ascontiguousarray(c.T) for c in seg)
    col_run = np.arange(q0.shape[0]) // SCAN_BLOCK

    def scan(take, best):
        for i, row_take in enumerate(take):
            cols = np.flatnonzero(row_take[col_run])
            if cols.size:
                rows = np.arange(i * SCAN_BLOCK, min(i * SCAN_BLOCK + SCAN_BLOCK, n))
                near = bound(*(np.take(x, k, axis=1) for x, k in
                               ((lo_p, rows), (hi_p, rows), (lo_q, cols), (hi_q, cols))))
                near = near <= min(best, cutoff)
                if skip_adjacent:
                    k = (cols[None, :] - rows[:, None]) % n
                    near[(k <= 1) | (k == n - 1)] = False
                r, c = near.any(axis=1), near.any(axis=0)
                if c.any():
                    d = _segment_pair_distance(p0[rows[r]], u[rows[r]], q0[cols[c]], v[cols[c]])
                    best = min(best, float(d[near[r][:, c]].min()))
        return best

    first = np.zeros(runs.shape, dtype=bool)
    first.flat[np.argmin(runs)] = True
    ub = scan(first, np.inf)
    return scan((runs <= min(ub, cutoff)) & ~first, ub)


def min_distance(a: ClosedCurve, b: ClosedCurve, threads=None, *, cutoff=np.inf) -> float:
    """Minimum Euclidean distance over all segment pairs of two closed curves.

    cutoff: the minimum is exact when it is <= cutoff, and otherwise some
    value above cutoff, so a caller that only compares the distance with a
    tolerance passes the tolerance; the default gives the exact minimum.
    `threads` is accepted for the API and unused: the pruned scan is serial.
    """
    return _min_segment_distance(*a.segments(), *b.segments(), cutoff=cutoff)


def point_segment_distance(x, p0, d):
    """Distances from points x (m, 3) to segments (p0, d) (k, 3); returns (m, k)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    w = x[:, None, :] - p0[None, :, :]
    dd = np.einsum("ij,ij->i", d, d)[None, :]
    t = np.clip(np.einsum("jk,ijk->ij", d, w) / dd, 0.0, 1.0)
    diff = w - t[:, :, None] * d[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def distance_to_curve(x, c: ClosedCurve):
    """Distance from each point in x to the curve polyline; (m,) or scalar."""
    p0, d = c.segments()
    out = point_segment_distance(x, p0, d).min(axis=1)
    return float(out[0]) if np.asarray(x).ndim == 1 else out


def _min_nonadjacent_self_distance(points, cutoff=np.inf) -> float:
    pts = np.asarray(points, dtype=float)
    u = np.roll(pts, -1, axis=0) - pts
    return _min_segment_distance(pts, u, pts, u, skip_adjacent=True, cutoff=cutoff)


def _check_self_avoiding(points, label):
    tol = 1e-12 * (float(np.max(np.abs(points))) or 1.0)
    if _min_nonadjacent_self_distance(points, cutoff=tol) < tol:
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
    _check_self_avoiding(pts, "torus knot")
    return ClosedCurve(pts)


def resample(c: ClosedCurve, n: int) -> ClosedCurve:
    """Resample to n points at uniform arc length by linear interpolation."""
    if n < 3:
        raise GeometryError("resample target must be >= 3 points")
    pts = c.points
    closed = np.vstack([pts, pts[:1]])
    seg = np.diff(closed, axis=0)
    seglen = np.linalg.norm(seg, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    s = np.arange(n) * (cum[-1] / n)
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, pts.shape[0] - 1)
    frac = (s - cum[idx]) / seglen[idx]
    return ClosedCurve(closed[idx] + frac[:, None] * seg[idx])


def fourier_displacement(rng, theta, n_modes: int):
    """Band-limited random vector field over the curve parameter; (n, 3)."""
    coef = rng.normal(size=(n_modes, 2, 3))
    disp = np.zeros((theta.shape[0], 3))
    for m in range(n_modes):
        disp += np.outer(np.cos((m + 1) * theta), coef[m, 0])
        disp += np.outer(np.sin((m + 1) * theta), coef[m, 1])
    return disp


def _deform(a: ClosedCurve, b: ClosedCurve, spec: DeformationSpec, move_b: bool):
    """Seeded rejection loop: deform a, and b too when move_b, keeping clearance.

    Returns spec.steps + 1 pairs (a_i, b_i), the first being (a, b), each
    more than spec.clearance apart. Every attempt draws one displacement per
    moving curve, a first. Each moving curve steps at most half the clearance
    split among the moving curves, so the relative motion between accepted
    states stays below half the clearance and the pair cannot pass through
    each other between steps.

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
    lb = min_distance(a, b)
    if lb <= spec.clearance:
        raise ClearanceError(
            f"initial clearance {lb:.6g} is not above the required {spec.clearance:.6g}"
        )
    rng = np.random.default_rng(spec.seed)
    moving = [a, b] if move_b else [a]
    thetas = [2.0 * np.pi * np.arange(c.n) / c.n for c in moving]
    step = min(spec.amplitude / spec.steps, 0.5 * spec.clearance / len(moving))
    out = [(a, b)]
    for _ in range(spec.steps):
        for attempt in range(spec.max_tries + 1):
            if attempt == spec.max_tries:
                raise ClearanceError(
                    f"no clearance-respecting step found in {spec.max_tries} tries"
                )
            disps = [fourier_displacement(rng, th, spec.n_modes) for th in thetas]
            peaks = [float(np.sqrt(np.max(np.einsum("ij,ij->i", d, d)))) for d in disps]
            if 0.0 in peaks:
                continue
            cand = [ClosedCurve(c.points + (step / pk) * d)
                    for c, d, pk in zip(moving, disps, peaks)]
            pair = (cand[0], cand[1] if move_b else b)
            slack = 1e-12 * max(float(np.abs(c.points).max()) for c in pair)
            moved = lb - step * len(moving) - slack
            dist = moved if moved > spec.clearance else min_distance(*pair)
            if dist > spec.clearance:
                lb = dist
                break
        out.append(pair)
        moving = cand
    return out


def deform_homotopy(c: ClosedCurve, obstacle: ClosedCurve, spec: DeformationSpec, threads=None):
    """Deform c in spec.steps random smooth steps while keeping clearance.

    Returns spec.steps + 1 curves, the first being c. Candidate steps closer
    than spec.clearance to the obstacle are rejected and redrawn from the
    seeded generator, so the output is deterministic for a fixed seed. The
    per-step motion is capped at half the clearance: successive curves then
    cannot jump across the obstacle, so the homotopy class relative to the
    obstacle is preserved, not just sampled. `threads` is accepted for the
    API and unused: the clearance scan is serial.
    """
    return [a for a, _ in _deform(c, obstacle, spec, False)]


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
        _check_self_avoiding(curve.points, path)
    except GeometryError as e:
        # the message already starts with the path
        raise SchemaError(str(e)) from e
    return curve
