"""Linking numbers, spanning surfaces, crossing counts, signed solid angles."""
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import (SCAN_BLOCK, ClosedCurve, _box_bound, _boxes, _diameter_of,
                     _min_segment_distance, _scaled, min_distance, point_segment_distance)
from .errors import GeometryError, SchemaError, UnderResolvedError, check_numbers, read_json
from .quadrature import (_NEXT, _PREV, BLOCK_PAIRS, MAX_COORDINATE, _cross, _factored_sum,
                         linking_integral)

TOUCH_GUARD = 1e-9
DEFAULT_LINK_TOL = 1e-3
# rounding bounds of the crossing count's float signs, in u = 2^-53; orient3d's
# is Shewchuk's bound A (Discrete Comput. Geom. 18:305, 1997)
ORIENT_BOUND = 2.0 * (7.0 + 56.0 * 2.0 ** -53) * 2.0 ** -53  # twice bound A
GRADIENT_BOUND = 8.0 * 2.0 ** -53  # twice the 4 u of a 2x2 determinant of differences
PLANE_BOUND = 128.0 * 2.0 ** -53  # over twice the 55 u of `crossing_linking`'s plane values
UNDERFLOW = 2.0 ** -1070  # what underflow adds to an orient3d, times 1 + |x - o|


@dataclass(frozen=True)
class LinkingResult:
    raw: float
    rounded: int
    residual: float


def gauss_linking(c: ClosedCurve, k: ClosedCurve, tol: float = DEFAULT_LINK_TOL,
                  threads=None) -> LinkingResult:
    """Linking number of two disjoint closed curves by the double line integral.

    (1/4pi) sum over node pairs of (x - x') . (dx x dx') / |x - x'|^3,
    with both curves evaluated at spectral parameter midpoints so smooth
    inputs converge far faster than the segment count suggests.
    """
    touch = TOUCH_GUARD * max(c.diameter(), k.diameter())
    if min_distance(c, k, cutoff=touch) < touch:
        raise GeometryError("curves touch or nearly touch; linking is undefined")
    raw = linking_integral(c, k)
    rounded = int(np.rint(raw))
    residual = abs(raw - rounded)
    result = LinkingResult(raw=float(raw), rounded=rounded, residual=float(residual))
    if residual >= tol:
        raise UnderResolvedError(
            f"linking residual {residual:.3e} exceeds tol {tol:.3e}; "
            "refine the curves or relax tol",
            result=result,
        )
    return result


@dataclass(frozen=True)
class Surface:
    """Oriented triangle mesh: vertices (m, 3) float, triangles (t, 3) int."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        t = np.array(self.triangles, dtype=int)
        if v.ndim != 2 or v.shape[1] != 3:
            raise GeometryError("surface vertices must form an (m, 3) array")
        if not np.all(np.isfinite(v)):
            raise GeometryError("surface vertices must be finite")
        if t.ndim != 2 or t.shape[1] != 3 or t.shape[0] < 1:
            raise GeometryError("surface triangles must form a (t, 3) index array")
        if t.min() < 0 or t.max() >= v.shape[0]:
            raise GeometryError("triangle indices out of vertex range")
        size = float(np.abs(v).max())
        if size > MAX_COORDINATE:
            raise GeometryError(f"surface coordinates reach {size:.3g},"
                                f" above {MAX_COORDINATE:.0e}")
        v.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    def corners(self):
        """The three (t, 3) corner arrays of every triangle."""
        v, t = self.vertices, self.triangles
        return v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]

    @cached_property
    def _diameter(self) -> float:
        """As `ClosedCurve.diameter`, of the vertices."""
        return _diameter_of(self.vertices, self.vertices.mean(axis=0))

    def normals(self):
        """Unnormalized face normals, 0.5 * (b - a) x (c - a); (t, 3)."""
        k, nrm = self._normals()
        return np.ldexp(nrm, 2 * k)

    def _normals(self):
        """(k, `normals` times 2^-2k), from the edge vectors `_scaled` by 2^-k."""
        a, b, c = self.corners()
        k, (e1, e2) = _scaled(b - a, c - a)
        return k, 0.5 * np.cross(e1, e2)

    def area(self) -> float:
        k, nrm = self._normals()
        return float(np.ldexp(np.linalg.norm(nrm, axis=1).sum(), 2 * k))


def span_surface(c: ClosedCurve) -> Surface:
    """Fan of triangles from the curve centroid; oriented with the curve.

    Triangle i is (centroid, p_i, p_{i+1}), so face normals follow the
    right-hand rule applied to the curve orientation.
    """
    n = c.n
    i = np.arange(n)
    triangles = np.column_stack([np.zeros(n, dtype=int), i + 1, (i + 1) % n + 1])
    surf = Surface(np.vstack([c.centroid()[None, :], c.points]), triangles)
    k, nrm = surf._normals()
    areas = np.linalg.norm(nrm, axis=1)
    scale = np.ldexp(c.diameter(), -k)
    if float(areas.sum()) < 1e-12 * scale * scale:
        raise GeometryError("degenerate spanning surface: total area vanishes")
    good = areas > 1e-14 * scale * scale
    mean = nrm[good].sum(axis=0)
    mean_norm = np.linalg.norm(mean)
    if mean_norm > 0.0:
        dots = nrm[good] @ (mean / mean_norm) / areas[good]
        if float(dots.min()) <= 0.0:
            raise GeometryError("inverted spanning surface: fan triangles disagree in orientation")
    return surf


def _boundary_distance(path: ClosedCurve, surf: Surface, cutoff=np.inf) -> float:
    """Distance from the path to the mesh edges used by exactly one triangle.

    cutoff: as for `curves.min_distance`, exact when the distance is <= cutoff.
    """
    edges = surf.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    _, first, count = np.unique(np.sort(edges, axis=1), axis=0,
                                return_index=True, return_counts=True)
    # in mesh order, so that runs of consecutive edges stay close together
    # for the pruned scan's bounding boxes
    start, end = edges[np.sort(first[count == 1])].T
    if start.size == 0:
        return np.inf
    v = surf.vertices
    return _min_segment_distance(*path.segments(), v[start], v[end] - v[start], cutoff=cutoff)


def _ints(*points):
    """The (k, 3) float rows as (3, k) Python-integer object arrays, each row of
    all of them over one power of 2, so that their sums and products are exact."""
    m, e = np.frexp(np.stack(points))
    low = np.where(m == 0.0, 1 << 20, e).min(axis=(0, 2), keepdims=True)  # zeros set no scale
    shift = np.where(m == 0.0, 0, e - low).astype(object)
    return [i.T for i in (m * 2.0 ** 53).astype(np.int64).astype(object) << shift]


def _pcross(a, b):
    """The permanent of `_cross`: a x b with its minus signs made plus."""
    return a[_NEXT] * b[_PREV] + a[_PREV] * b[_NEXT]


def _orient_signs(o, x, y, z, edge):
    """Exact signs of det[x - o, y - o, z - o] over (k, 3) rows of points, and
    the rows where it is 0, a tie, broken as if the path's points, z (plane
    tests) or y and z (edge tests), moved by (e, e^2, e^3), e -> 0+: by the
    first nonzero of the gradient in that move, (x - o) x (y - o) or
    (x - o) x (y - z). A float term keeps its sign past its rounding bound,
    is 0 if each product has an exact 0 factor, else goes to `_ints`. The
    value is taken first: only the rows its bound leaves open build the rest."""
    X, Y, Z = ((v - o).T for v in (x, y, z))
    slack = UNDERFLOW * (1.0 + abs(X).max(axis=0))
    value = (X * _cross(Y, Z)).sum(axis=0)
    sign = np.where(abs(value) > ORIENT_BOUND * (abs(X) * _pcross(abs(Y), abs(Z))).sum(axis=0)
                    + slack, np.sign(value), 0.0)
    tie = sign == 0.0
    rows = np.flatnonzero(tie)
    if not rows.size:
        return sign, tie
    X, Y, Z, slack = X[:, rows], Y[:, rows], Z[:, rows], slack[rows]
    W = (y[rows] - z[rows]).T if edge else Y
    grad = _cross(X, W)
    s = np.vstack([np.zeros(rows.size),
                   np.where(abs(grad) > GRADIENT_BOUND * _pcross(abs(X), abs(W)) + slack,
                            np.sign(grad), 0.0)])
    nonzero = np.vstack([((X != 0.0) & _pcross(Y != 0.0, Z != 0.0)).any(axis=0),
                         _pcross(X != 0.0, W != 0.0)])
    exact = np.flatnonzero((nonzero & ~np.logical_or.accumulate(s != 0.0)).any(axis=0))
    if exact.size:
        io, ix, iy, iz = _ints(*(v[rows[exact]] for v in (o, x, y, z)))
        xi = ix - io
        s[:, exact] = np.sign(np.vstack([(xi * _cross(iy - io, iz - io)).sum(axis=0),
                                         _cross(xi, iy - (iz if edge else io))]))
    sign[rows], tie[rows] = s[np.argmax(s != 0.0, axis=0), np.arange(rows.size)], s[0] == 0.0
    return sign, tie


@np.errstate(under="ignore", over="ignore", invalid="ignore")  # the bounds or `_ints` cover these
def crossing_linking(path: ClosedCurve, surf: Surface, threads=None) -> int:
    """Signed count of path crossings through an oriented spanning surface.

    Equal to the linking number of the path with the surface boundary.
    Segment pq crosses triangle abc when det[b - a, c - a, x - a] has
    opposite signs at x = p and q and det[b - a, p - a, q - a] and its two
    shifts in abc agree; it counts the sign at q, +1 along the face normal.
    Signs are exact, ties broken as if the path moved (`_orient_signs`). A
    tie in a pair whose boxes meet raises if the path comes within
    TOUCH_GUARD of the boundary, relative to the smaller of the path's and
    the surface's diameters, where the move may matter.

    Only the pairs of a SCAN_BLOCK-segment run and a SCAN_BLOCK-triangle run
    whose boxes meet are evaluated, in chunks of BLOCK_PAIRS segment-triangle
    pairs: each chunk takes the plane values of its runs' vertices against
    their triangles as one batched product. Of those, only the pairs whose
    own boxes meet get exact plane signs and edge tests: a segment and a
    triangle whose boxes are apart cannot cross, even after the move.
    """
    pts, n = path.points, path.n
    a, b, c = surf.corners()
    tris = a.shape[0]
    # v = n.(x - o) - n.(a - o), so that the bound holds |x - o|, not |x|
    e1, e2, ao, po = b - a, c - a, a - path.centroid(), pts - path.centroid()
    nrm = np.cross(e1, e2)
    na = np.einsum("tj,tj->t", nrm, ao)
    # |v - n*.(x - a)| <= 55 u |b - a| |c - a| (|a - o| + |x - o|) in the max
    # norm to first order, n* the exact normal; 2^-1000 covers underflow
    size = max(float(abs(e1).max() * abs(e2).max()), 2.0 ** -1000)
    bound = PLANE_BOUND * size * float(abs(ao).max() + abs(po).max()) + 2.0 ** -1000
    # a sentinel triangle tris, whose plane value is +inf at every vertex
    nrm, na = np.vstack([nrm, np.zeros(3)]), np.append(na, -np.inf)
    tlo, thi, lo, hi = _boxes(a, b, c)
    slo, shi, plo, phi = _boxes(pts, np.roll(pts, -1, axis=0))

    def meet(s, t):  # whether the boxes of segments s and triangles t meet, pair by pair
        return ((slo[:, s] <= thi[:, t]) & (tlo[:, t] <= shi[:, s])).all(axis=0)

    # the first segment and the first triangle of every pair of runs whose boxes meet
    starts = np.argwhere(_box_bound(plo, phi, lo, hi, 0.0) <= 0.0) * SCAN_BLOCK
    chunk = BLOCK_PAIRS // SCAN_BLOCK ** 2  # run pairs
    count, tied = 0, False
    for r0 in range(0, starts.shape[0], chunk):
        first = starts[r0:r0 + chunk]
        # each run pair's SCAN_BLOCK + 1 vertices, which its segments join, and
        # its triangles; the ragged last runs are padded with the path's first
        # vertex, whose segments to itself cross nothing, and the sentinel
        k, t = first[:, :1] + np.arange(SCAN_BLOCK + 1), first[:, 1:] + np.arange(SCAN_BLOCK)
        k, t = np.minimum(k, n) % n, np.minimum(t, tris)
        v = po[k] @ nrm[t].transpose(0, 2, 1) - na[t][:, None, :]
        side = np.where(abs(v) > bound, np.sign(v), 0.0)
        # an open sign only matters where a segment that the vertex ends meets
        # the triangle; a straddle by a segment that meets none is not tested
        r, i, j = np.nonzero(side == 0.0)
        x, y = k[r, i], t[r, j]
        keep = meet(x - 1, y) | meet(x, y)
        r, i, j, x, y = r[keep], i[keep], j[keep], x[keep], y[keep]
        side[r, i, j], tie = _orient_signs(a[y], b[y], c[y], pts[x], False)
        r, i, j = np.nonzero(side[:, :-1] != side[:, 1:])
        keep = meet(k[r, i], t[r, j])
        r, i, j = r[keep], i[keep], j[keep]
        p, q, tj = pts[k[r, i]], pts[k[r, i + 1]], t[r, j]
        (s0, z0), (s1, z1), (s2, z2) = (_orient_signs(e[tj], f[tj], p, q, True)
                                        for e, f in ((a, b), (b, c), (c, a)))
        tied = tied or bool(tie.any() or (z0 | z1 | z2).any())
        count += int(side[r, i + 1, j][(s0 == s1) & (s1 == s2)].sum())
    if tied:
        touch = TOUCH_GUARD * min(path.diameter(), surf._diameter)
        if _boundary_distance(path, surf, touch) < touch:
            raise GeometryError("path touches or nearly touches the surface boundary")
    return count


def surface_point_distance(x, surf: Surface) -> float:
    """Euclidean distance from a point to a triangle mesh, on the corners relative to x."""
    k, (a, b, c) = _scaled(*(p - np.asarray(x, dtype=float) for p in surf.corners()))
    nrm = np.cross(b - a, c - a)
    areas = np.linalg.norm(nrm, axis=1)
    good = areas > 0.0
    ga, gb, gc = a[good], b[good], c[good]
    nhat = nrm[good] / areas[good][:, None]
    off = np.einsum("tj,tj->t", ga, nhat)
    proj = off[:, None] * nhat
    # inside: on the left of every edge, seen against the normal
    inside = np.all([np.einsum("tj,tj->t", np.cross(q - p, proj - p), nhat) >= 0.0
                     for p, q in ((ga, gb), (gb, gc), (gc, ga))], axis=0)
    edges = point_segment_distance(np.zeros(3), np.vstack([a, b, c]),
                                   np.vstack([b - a, c - b, a - c]))
    return float(np.ldexp(min(np.abs(off[inside]).min(initial=np.inf), edges.min()), k))


def solid_angle(x, surf: Surface, threads=None) -> float:
    """Signed solid angle of an oriented triangle mesh seen from x.

    Sum of per-triangle signed angles; positive when the face normals point
    away from x. Follows the convention of accumulating (x' - x) . dS' /
    |x' - x|^3, so a viewer on the side the normals point toward sees a
    negative value. One vectorised pass over the corners relative to x, `_scaled`.
    """
    if surface_point_distance(x, surf) <= TOUCH_GUARD * surf._diameter:
        raise GeometryError("point lies on the surface; the solid angle jumps there")
    _, (r1, r2, r3) = _scaled(*(p - x for p in surf.corners()))
    n1, n2, n3 = (np.linalg.norm(r, axis=1) for r in (r1, r2, r3))
    num = np.einsum("ij,ij->i", r1, np.cross(r2, r3))
    den = (
        n1 * n2 * n3
        + np.einsum("ij,ij->i", r1, r2) * n3
        + np.einsum("ij,ij->i", r1, r3) * n2
        + np.einsum("ij,ij->i", r2, r3) * n1
    )
    return float(np.sum(2.0 * np.arctan2(num, den)))


def grad_solid_angle(x, c: ClosedCurve, threads=None):
    """Gradient of the solid angle subtended by any surface spanning c.

    Equals the closed line integral of (x' - x) x dx' / |x' - x|^3 over the
    curve, which is surface independent; evaluated with the same spectral
    midpoint rule as the linking integral, on the curve's cached nodes. This
    is the smooth branch: its closed line integrals give 4pi times the
    linking number directly.
    """
    return _factored_sum(c.kernel_factor, x)[0]


def save_surface(surf: Surface, path):
    """Write the mesh as JSON {"vertices": [...], "triangles": [...]}."""
    with open(path, "w") as fh:
        json.dump({"vertices": surf.vertices.tolist(), "triangles": surf.triangles.tolist()}, fh)
        fh.write("\n")


def load_surface(path) -> Surface:
    data = read_json(path)
    if not isinstance(data, dict) or "vertices" not in data or "triangles" not in data:
        raise SchemaError(f"{path}: expected an object with 'vertices' and 'triangles'")
    check_numbers(path, data["vertices"], "vertex coordinates")
    check_numbers(path, data["triangles"], "triangle indices", integral=True)
    try:
        return Surface(np.asarray(data["vertices"], dtype=float),
                       np.asarray(data["triangles"], dtype=int))
    except (GeometryError, ValueError, TypeError, OverflowError) as e:
        raise SchemaError(f"{path}: {e}") from e
