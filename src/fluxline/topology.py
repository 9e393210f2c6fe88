"""Linking numbers, spanning surfaces, crossing counts, signed solid angles."""
import json
from dataclasses import dataclass

import numpy as np

from .curves import (SCAN_BLOCK, ClosedCurve, _box_bound, _boxes, _min_segment_distance,
                     min_distance, point_segment_distance)
from .errors import GeometryError, SchemaError, UnderResolvedError, check_numbers, read_json
from .parallel import CHUNK_ROWS
from .quadrature import _cross, _factored_sum, linking_integral

TOUCH_GUARD = 1e-9
DEFAULT_LINK_TOL = 1e-3
# the crossing count and the fan's orientation check square face normals
# and their sum over up to MAX_POINTS triangles: fourth powers of the
# coordinates, finite up to this size
MAX_COORDINATE = 1e72


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
    touch = TOUCH_GUARD * max(c.diameter(), k.diameter(), 1e-30)
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
            raise GeometryError(f"surface coordinates reach {size:.3g}, above"
                                f" {MAX_COORDINATE:.0e}: squared face normals would overflow")
        v.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    def corners(self):
        """The three (t, 3) corner arrays of every triangle."""
        v, t = self.vertices, self.triangles
        return v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]

    def normals(self):
        """Unnormalized face normals, 0.5 * (b - a) x (c - a); (t, 3)."""
        a, b, c = self.corners()
        return 0.5 * np.cross(b - a, c - a)

    def area(self) -> float:
        return float(np.linalg.norm(self.normals(), axis=1).sum())


def span_surface(c: ClosedCurve) -> Surface:
    """Fan of triangles from the curve centroid; oriented with the curve.

    Triangle i is (centroid, p_i, p_{i+1}), so face normals follow the
    right-hand rule applied to the curve orientation.
    """
    pts = c.points
    n = pts.shape[0]
    centroid = c.centroid()
    vertices = np.vstack([centroid[None, :], pts])
    i = np.arange(n)
    triangles = np.column_stack([np.zeros(n, dtype=int), i + 1, (i + 1) % n + 1])
    surf = Surface(vertices, triangles)
    nrm = surf.normals()
    areas = np.linalg.norm(nrm, axis=1)
    scale = max(c.diameter(), 1e-30)
    if float(areas.sum()) < 1e-12 * scale * scale:
        raise GeometryError("degenerate spanning surface: total area vanishes")
    good = areas > 1e-14 * scale * scale
    mean = nrm[good].sum(axis=0)
    mean_norm = np.linalg.norm(mean)
    if mean_norm > 0.0:
        dots = nrm[good] @ (mean / mean_norm) / areas[good]
        if float(dots.min()) <= 0.0:
            raise GeometryError(
                "inverted spanning surface: fan triangles disagree in orientation"
            )
    return surf


def _min_barycentric(x, a, b, c):
    """Smallest barycentric weight of each point x[i] in triangle (a[i], b[i], c[i]).

    All arrays are (k, 3). The weights are signed areas over the full normal
    (b - a) x (c - a), so a point in the triangle's plane is inside when the
    result is positive and on an edge or corner when it is 0.
    """
    x, a, b, c = x.T, a.T, b.T, c.T
    # each product back in (k, 3) rows: einsum rounds a sum along a row
    # otherwise than one across rows, and the weights keep their bits
    n, n0, n1 = (np.ascontiguousarray(_cross(p, q).T)
                 for p, q in ((b - a, c - a), (b - x, c - x), (c - x, a - x)))
    n2 = np.einsum("ij,ij->i", n, n)
    w0 = np.einsum("ij,ij->i", n0, n) / n2
    w1 = np.einsum("ij,ij->i", n1, n) / n2
    return np.minimum(np.minimum(w0, w1), 1.0 - w0 - w1)


def _boundary_distance(path: ClosedCurve, surf: Surface, cutoff=np.inf) -> float:
    """Distance from the path to the mesh edges used by exactly one triangle.

    cutoff: as for `curves.min_distance`, exact when the distance is <= cutoff.
    """
    t = surf.triangles
    edges = np.stack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]], axis=1).reshape(-1, 2)
    _, first, count = np.unique(np.sort(edges, axis=1), axis=0,
                                return_index=True, return_counts=True)
    # in mesh order, so that runs of consecutive edges stay close together
    # for the pruned scan's bounding boxes
    start, end = edges[np.sort(first[count == 1])].T
    if start.size == 0:
        return np.inf
    v = surf.vertices
    return _min_segment_distance(*path.segments(), v[start], v[end] - v[start], cutoff=cutoff)


def crossing_linking(path: ClosedCurve, surf: Surface, threads=None) -> int:
    """Signed count of path crossings through an oriented spanning surface.

    Equal to the linking number of the path with the surface boundary.
    Crossing along the face normal counts +1, against it -1. A segment
    crosses a triangle at parameter t in [0, 1). Path segments that lie in
    a face plane and overlap the face raise. A crossing too close to a
    triangle edge or corner to classify, or a path vertex lying exactly on
    a face, where the path may touch the surface and turn back, moves the
    whole path by 1e-9 * 3^k of its scale, k = 1..11, in a fixed generic
    direction, and the count is repeated; a move that reaches half the
    path's distance to the surface boundary raises instead. Serial: a
    CHUNK_ROWS block of segments meets only the triangles of the runs whose
    padded `curves._boxes` lie at `_box_bound` 0 from one of its own runs'.
    """
    pts = path.points
    scale = max(path.diameter(), 1e-30)
    a, b, c = surf.corners()
    nrm = np.cross(b - a, c - a)
    nlen = np.linalg.norm(nrm, axis=1)
    # s = n.(a - o) - n.(p - o) about the path centroid o: n.a - n.p loses
    # the digits of t far from the origin and miscounts there
    o = path.centroid()
    na = np.einsum("tj,tj->t", nrm, a - o)
    eps = 1e-12
    # a pair the body counts, flags or rejects has its hit point or midpoint
    # within 1e-9 in barycentric weight (2e-9 of the mesh's extent) and
    # eps * scale of the triangle; eps of the largest coordinate is rounding
    lo, hi = _boxes(a, b, c)[2:]
    pad = 2e-9 * float(np.max(hi.max(axis=1) - lo.min(axis=1))) \
        + eps * (scale + max(float(np.abs(x).max()) for x in (lo, hi, pts)))
    lo, hi, run = lo - pad, hi + pad, np.arange(a.shape[0]) // SCAN_BLOCK
    # crossings that land on a triangle edge or vertex (fan apex hits are
    # common for symmetric inputs) are escaped by translating the whole path
    # a hair in a fixed generic direction; a translation far smaller than the
    # path-to-boundary distance cannot change the linking class
    generic = np.array([np.pi - 3.0, np.e - 2.0, np.sqrt(2.0) - 1.0])
    generic /= np.linalg.norm(generic)
    for attempt in range(12):
        nudge = 1e-9 * scale * 3.0 ** attempt
        if attempt == 1:
            # only a clearance within twice the largest nudge decides, and
            # then it is exact; 2 * 1e-9 rounds as 1e-9, so the bound is
            # twice the last nudge bit for bit
            clearance = _boundary_distance(path, surf, 2e-9 * scale * 3.0 ** 11)
        if attempt and nudge >= 0.5 * clearance:
            raise GeometryError(
                f"crossing nudge {nudge:.3g} reaches half the path's distance "
                f"{clearance:.3g} to the surface boundary")
        work = pts + nudge * generic if attempt else pts
        d = np.roll(work, -1, axis=0) - work
        # CHUNK_ROWS is a multiple of SCAN_BLOCK: a block's runs are the path's
        plo, phi = _boxes(work, work + d)[2:]
        count, suspicious = 0, False
        for i0 in range(0, pts.shape[0], CHUNK_ROWS):
            p, u = work[i0:i0 + CHUNK_ROWS], d[i0:i0 + CHUNK_ROWS]
            block = slice(i0 // SCAN_BLOCK, (i0 + CHUNK_ROWS) // SCAN_BLOCK)
            near = (_box_bound(plo[:, block], phi[:, block], lo, hi, 0.0) <= 0.0).any(axis=0)[run]
            ta, tb, tc, tn, tl, tna = (x[near] for x in (a, b, c, nrm, nlen, na))
            # den = n.d and s = n.(a - p), so n.(q - a) = den - s
            den = u @ tn.T
            s = tna - (p - o) @ tn.T
            if not attempt:
                # a segment in a face plane, overlapping the face, has no
                # well-defined crossing parity
                i, j = np.nonzero(np.abs(s) < eps * scale * tl)
                flat = (np.abs(den[i, j]) <= eps * tl[j] * np.linalg.norm(u[i], axis=1)) \
                    & (np.abs(den[i, j] - s[i, j]) < eps * scale * tl[j])
                i, j = i[flat], j[flat]
                if i.size and np.any(
                        _min_barycentric(p[i] + 0.5 * u[i], ta[j], tb[j], tc[j]) > -1e-9):
                    raise GeometryError(
                        "path segment lies in the surface; crossings are undefined")
            with np.errstate(divide="ignore", invalid="ignore"):
                t = s / den
            i, j = np.nonzero((den != 0.0) & (t >= 0.0) & (t < 1.0))
            if not i.size:
                continue
            wmin = _min_barycentric(p[i] + t[i, j, None] * u[i], ta[j], tb[j], tc[j])
            inside = wmin > eps
            # a path vertex on a face may touch the surface and turn back,
            # which the half-open rule would count; nudge it off like an edge
            suspicious |= np.any((wmin > -eps) & ~inside) | np.any(inside & (t[i, j] == 0.0))
            count += int(np.sign(den[i[inside], j[inside]]).sum())
        if not suspicious:
            return count
    raise GeometryError("could not resolve crossings away from triangle edges")


def surface_point_distance(x, surf: Surface) -> float:
    """Euclidean distance from a point to a triangle mesh."""
    x = np.asarray(x, dtype=float)
    a, b, c = surf.corners()
    nrm = surf.normals()
    areas = np.linalg.norm(nrm, axis=1)
    good = areas > 0.0
    best = np.inf
    if np.any(good):
        nhat = nrm[good] / areas[good][:, None]
        off = np.einsum("tj,tj->t", x[None, :] - a[good], nhat)
        proj = x[None, :] - off[:, None] * nhat
        inside = _min_barycentric(proj, a[good], b[good], c[good]) >= 0.0
        if np.any(inside):
            best = float(np.min(np.abs(off[inside])))
    for p, q in ((a, b), (b, c), (c, a)):
        best = min(best, float(point_segment_distance(x, p, q - p).min()))
    return best


def _mesh_scale(surf: Surface) -> float:
    d = surf.vertices - surf.vertices.mean(axis=0)
    return max(2.0 * float(np.sqrt(np.max(np.einsum("ij,ij->i", d, d)))), 1e-30)


def solid_angle(x, surf: Surface, threads=None) -> float:
    """Signed solid angle of an oriented triangle mesh seen from x.

    Sum of per-triangle signed angles; positive when the face normals point
    away from x. Follows the convention of accumulating (x' - x) . dS' /
    |x' - x|^3, so a viewer on the side the normals point toward sees a
    negative value. One vectorised pass over the triangles.
    """
    x = np.asarray(x, dtype=float)
    if surface_point_distance(x, surf) <= 1e-9 * _mesh_scale(surf):
        raise GeometryError("point lies on the surface; the solid angle jumps there")
    a, b, c = surf.corners()
    r1, r2, r3 = a - x, b - x, c - x
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
        json.dump(
            {"vertices": surf.vertices.tolist(), "triangles": surf.triangles.tolist()},
            fh,
        )
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
