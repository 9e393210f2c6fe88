"""Linking integrals, spanning fans, crossing counts, and solid angles."""
import json

import numpy as np
import pytest

import fluxline as fl
from fluxline import topology
from conftest import (
    Y,
    Z,
    axial_solid_angle_magnitude,
    circle,
    hopf_pair,
    random_pair,
    refined_solid_angle,
)


def rectangle_loop(width, height, center, n_per_side=64):
    """Axis-aligned rectangle in the xz-plane, right-handed about -y."""
    w, h = width / 2.0, height / 2.0
    t = np.linspace(0.0, 1.0, n_per_side, endpoint=False)[:, None]
    sides = [
        np.hstack([-w + 2 * w * t, 0 * t, -h + 0 * t]),
        np.hstack([w + 0 * t, 0 * t, -h + 2 * h * t]),
        np.hstack([w - 2 * w * t, 0 * t, h + 0 * t]),
        np.hstack([-w + 0 * t, 0 * t, h - 2 * h * t]),
    ]
    return fl.ClosedCurve(np.vstack(sides) + np.asarray(center, dtype=float))


def test_hopf_linking_value_sign_and_oracle_agreement():
    path, flux_curve = hopf_pair(1024)
    res = fl.gauss_linking(path, flux_curve)
    assert res.residual < 1e-6
    assert res.rounded == 1
    cross = fl.crossing_linking(path, fl.span_surface(flux_curve))
    assert cross == res.rounded


def test_unlinked_coaxial_circles():
    a = circle((0, 0, 0), 1.0, Z, 512)
    b = circle((0, 0, 10), 1.0, Z, 512)
    res = fl.gauss_linking(a, b)
    assert res.rounded == 0
    assert abs(res.raw) < 1e-6


def test_reversal_negates_raw():
    path, flux_curve = hopf_pair(512)
    raw = fl.gauss_linking(path, flux_curve).raw
    raw_rev = fl.gauss_linking(path.reversed(), flux_curve).raw
    assert abs(raw + raw_rev) < 1e-12
    raw_rev2 = fl.gauss_linking(path, flux_curve.reversed()).raw
    assert abs(raw + raw_rev2) < 1e-12


def test_double_reversal_restores_raw():
    path, flux_curve = hopf_pair(512)
    raw = fl.gauss_linking(path, flux_curve).raw
    both = fl.gauss_linking(path.reversed(), flux_curve.reversed()).raw
    assert abs(raw - both) < 1e-12


def test_swap_symmetry():
    path, flux_curve = hopf_pair(512)
    assert abs(fl.gauss_linking(path, flux_curve).raw
               - fl.gauss_linking(flux_curve, path).raw) < 1e-12
    a, b = random_pair(11, n=512)
    assert abs(fl.gauss_linking(a, b).raw - fl.gauss_linking(b, a).raw) < 1e-12


def test_torus_knot_winds_twice():
    core = circle((0, 0, 0), 1.0, Z, 1024)
    knot = fl.make_torus_knot(1, 2, 1.0, 0.4, 1024)
    res = fl.gauss_linking(knot, core)
    assert res.rounded == 2
    assert res.residual < 1e-6
    assert fl.crossing_linking(knot, fl.span_surface(core)) == 2


def test_under_resolved_raises_and_carries_result():
    a = circle((0, 0, 0), 1.0, Z, 16)
    b = circle((1.98, 0, 0), 1.0, Y, 16)
    with pytest.raises(fl.UnderResolvedError) as err:
        fl.gauss_linking(a, b, tol=1e-3)
    res = err.value.result
    assert res is not None
    assert np.isfinite(res.raw)
    assert res.residual >= 1e-3
    assert res.residual == abs(res.raw - res.rounded)


def test_touching_curves_rejected():
    a = circle((0, 0, 0), 1.0, Z, 256)
    with pytest.raises(fl.GeometryError):
        fl.gauss_linking(a, a)


def test_linking_thread_count_invariant():
    path, flux_curve = hopf_pair(1024)
    r1 = fl.gauss_linking(path, flux_curve, threads=1)
    r4 = fl.gauss_linking(path, flux_curve, threads=4)
    assert r1.raw == r4.raw


def _crossing_or_error(path, surf):
    """crossing_linking's count, or the message of the GeometryError it raises."""
    try:
        return fl.crossing_linking(path, surf)
    except fl.GeometryError as e:
        return str(e)


def _unculled_crossing(monkeypatch, path, surf):
    """_crossing_or_error with every run box infinite, so that no triangle is
    culled: the dense reference, each block against the whole mesh. Fails if
    the count no longer builds its boxes through the patched builder."""
    boxes, calls = topology._boxes, []

    def infinite(*corners):
        calls.append(len(corners))
        lo, hi, run_lo, run_hi = boxes(*corners)
        return lo, hi, run_lo - np.inf, run_hi + np.inf

    with monkeypatch.context() as m:
        m.setattr(topology, "_boxes", infinite)
        got = _crossing_or_error(path, surf)
    # the triangles' boxes once, then the path's once per pass
    assert calls[0] == 3 and calls.count(2) == len(calls) - 1 >= 1
    return got


def test_crossing_count_thread_count_invariant(monkeypatch, started_threads, unit_disk):
    # every path has more than one 256-row block, and the count is serial:
    # two threads start no thread
    monkeypatch.setenv("FLUXLINE_THREADS", "2")
    long = rectangle_loop(2.0, 1.0, (0.3, 0, 0), n_per_side=80)
    apex = circle((1, 0, 0), 1.0, Y, 1024)  # hits the fan apex: nudged
    coplanar = circle((0.2, 0, 0), 0.3, Z, 600)
    small_disk = fl.span_surface(circle((0, 0, 0), 1.0, Z, 64))
    for path, surf, want in ((long, unit_disk, -1), (apex, unit_disk, 1), (
            coplanar, small_disk, "path segment lies in the surface; crossings are undefined")):
        assert _crossing_or_error(path, surf) == want == _unculled_crossing(monkeypatch, path, surf)
    assert started_threads == []


@pytest.mark.parametrize("shift", [0.0, 1e7])
def test_crossing_cull_keeps_pairs_met_only_within_the_pad(monkeypatch, shift):
    # each path lies in the plane y = -d and the triangle in y >= 0, so the
    # path's box meets the triangle's only by the pad; at 1e7 every
    # coordinate stays exact
    side = 2.0 ** 16
    tri = fl.Surface(np.array([(0, 0, 0), (side, 0, 0), (0, side, 0)]) + shift, [[0, 1, 2]])
    x0, x1, h = side / 4, 2 * side, side / 4
    # a segment pierces z = 0 a weight of 2^-44 outside the edge y = 0: too
    # close to the edge to classify, and to the boundary to nudge
    d = 2.0 ** -28
    pierce = [(x0, -d, -h), (x0, -d, h), (x1, -d, h), (x1, -d, -h)]
    # a segment lies in z = 0, its midpoint a weight of 2^-32 outside that edge
    d = 2.0 ** -16
    flat = [(x0, -d, 0), (3 * x0, -d, 0), (3 * x0, -d, h), (x0, -d, h)]
    for points, match in ((pierce, "reaches half the path's distance"),
                          (flat, "path segment lies in the surface")):
        path = fl.ClosedCurve(np.array(points) + shift)
        got = _crossing_or_error(path, tri)
        assert match in got
        assert got == _unculled_crossing(monkeypatch, path, tri)


def test_span_disk_area():
    surf = fl.span_surface(circle((0, 0, 0), 1.0, Z, 1024))
    assert len(surf.triangles) == 1024
    assert abs(surf.area() - np.pi) < 1e-4


def test_span_triangle_exact_area():
    tri = circle((0, 0, 0), 1.0, Z, 3)
    surf = fl.span_surface(tri)
    p = tri.points
    exact = 0.5 * abs(np.cross(p[1] - p[0], p[2] - p[0])[2])
    assert len(surf.triangles) == 3
    assert abs(surf.area() - exact) < 1e-12


def test_span_boundary_edges_match_curve_segments():
    c = circle((0, 0, 0), 1.0, Z, 32)
    surf = fl.span_surface(c)
    edges = {}
    for tri in surf.triangles:
        for e in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(e), max(e))
            edges.setdefault(key, []).append(e)
    boundary = [es[0] for es in edges.values() if len(es) == 1]
    assert len(boundary) == 32
    # each boundary edge is an (i, i+1) curve segment traversed forward
    verts = surf.vertices
    for i, j in boundary:
        pi = np.nonzero((c.points == verts[i]).all(axis=1))[0][0]
        pj = np.nonzero((c.points == verts[j]).all(axis=1))[0][0]
        assert (pi + 1) % c.n == pj


def test_span_fold_through_centroid_rejected():
    th1 = np.linspace(-2.4, 2.4, 160)
    th2 = np.linspace(2.4, -2.4, 98)[1:-1]
    outer = np.stack([np.cos(th1), np.sin(th1), np.zeros_like(th1)], axis=1)
    inner = np.stack([0.55 * np.cos(th2), 0.55 * np.sin(th2),
                      np.zeros_like(th2)], axis=1)
    crescent = fl.ClosedCurve(np.vstack([outer, inner]))
    with pytest.raises(fl.GeometryError):
        fl.span_surface(crescent)


def test_crossing_single_pierce_plus_one(unit_disk):
    # vertical sides cross z=0 at x=-0.7 (descending, inside the disk) and
    # x=1.3 (outside), so exactly one signed pierce; reversal flips it
    loop = rectangle_loop(2.0, 1.0, (0.3, 0, 0))
    assert fl.crossing_linking(loop, unit_disk) == -1
    assert fl.crossing_linking(loop.reversed(), unit_disk) == 1
    # 320 segments: the pierce lands on vertex 280, which relabelling moves
    # to 256, the first row of the second 256-row block, and into the first
    long = rectangle_loop(2.0, 1.0, (0.3, 0, 0), n_per_side=80)
    assert np.all(long.points[280] == [-0.7, 0.0, 0.0])
    for shift in (0, -24, -25, -40, 100):
        relabelled = fl.ClosedCurve(np.roll(long.points, shift, axis=0))
        assert fl.crossing_linking(relabelled, unit_disk) == -1


def test_crossing_outside_loop_zero(unit_disk):
    loop = rectangle_loop(0.5, 0.5, (4.0, 0, 3.0))
    assert fl.crossing_linking(loop, unit_disk) == 0


def test_crossing_twice_opposite_cancels(unit_disk):
    loop = circle((0.3, 0, 0), 0.2, Y, 128)
    assert fl.crossing_linking(loop, unit_disk) == 0


def test_crossing_coplanar_path_inside_fan_raises():
    # every segment lies in the fan, most with their midpoints in the half
    # of a triangle away from the apex
    disk = fl.span_surface(circle((0, 0, 0), 1.0, Z, 64))
    path = circle((0.2, 0, 0), 0.3, Z, 64)
    with pytest.raises(fl.GeometryError, match="lies in the surface"):
        fl.crossing_linking(path, disk)


@pytest.mark.parametrize("scale", [1e70, 1e80])
def test_crossing_count_counts_or_names_the_coordinate_size(scale):
    # a 64-point unit disk's fan and its threading circle, scaled: squared
    # face normals overflow near 1e77, where the count read 0 and the fan
    # looked inverted; a surface that large is refused
    disk, ring = circle((0, 0, 0), 1.0, Z, 64), circle((1, 0, 0), 1.0, Y, 64)
    fan = fl.span_surface(disk)
    path = fl.ClosedCurve(ring.points * scale)
    with np.errstate(all="raise"):
        for build in (lambda: fl.Surface(fan.vertices * scale, fan.triangles),
                      lambda: fl.span_surface(fl.ClosedCurve(disk.points * scale))):
            if scale < topology.MAX_COORDINATE:
                assert fl.crossing_linking(path, build()) == 1
                continue
            with pytest.raises(fl.GeometryError, match=r"coordinates reach 1e\+80, above 1e\+72"):
                fl.crossing_linking(path, build())


def test_crossing_count_survives_translation_far_from_origin():
    # a rotation leaves no coordinate exact; 1e7 from the origin n.a - n.p
    # loses the digits that the crossing parameter needs
    rot = np.linalg.qr(np.random.default_rng(1024).normal(size=(3, 3)))[0]
    path, flux_curve = hopf_pair(1024)
    cancel = circle((1.3, 0, 0), 0.2, Z, 1024)
    for off in (1e4, 1e5, 1e6, 1e7):
        shift = off * np.array([1.0, -0.7, 0.3])
        surf = fl.span_surface(fl.ClosedCurve(flux_curve.points @ rot.T + shift))
        assert fl.crossing_linking(fl.ClosedCurve(path.points @ rot.T + shift), surf) == 1
        assert fl.crossing_linking(fl.ClosedCurve(cancel.points @ rot.T + shift), surf) == 0


def test_crossing_through_fan_apex_resolved(unit_disk):
    # the threading circle passes exactly through the fan apex vertex
    path = circle((1, 0, 0), 1.0, Y, 1024)
    assert path.points[512] @ path.points[512] < 1e-20
    assert fl.crossing_linking(path, unit_disk) in (-1, 1)
    assert fl.crossing_linking(path, unit_disk) == fl.gauss_linking(
        path, circle((0, 0, 0), 1.0, Z, 1024)).rounded


def test_crossing_vertex_touch_is_not_a_crossing(unit_disk):
    # the path touches the disk at one vertex and turns back below it; the
    # half-open rule t in [0, 1) alone would count the touch once
    touch = fl.ClosedCurve(np.array(
        [(0.5, 0, -1), (0.5, 0.1, 0), (0.5, 0.2, -1), (3, 0, -1)], dtype=float))
    assert fl.crossing_linking(touch, unit_disk) == 0
    assert fl.crossing_linking(touch.reversed(), unit_disk) == 0
    # passing through the same vertex still counts once
    through = fl.ClosedCurve(np.array(
        [(0.5, 0, -1), (0.5, 0.1, 0), (0.5, 0.2, 1), (3, 0, 1), (3, 0, -1)], dtype=float))
    assert fl.crossing_linking(through, unit_disk) == 1
    assert fl.crossing_linking(through.reversed(), unit_disk) == -1


def test_crossing_nudge_next_to_the_boundary_raises(unit_disk):
    # the path pierces the fan apex, which forces a nudge, and passes 3e-9
    # above the rim vertex (1, 0, 0): the first nudge, 1e-9 * scale * 3,
    # already reaches half that clearance
    path = fl.ClosedCurve(np.array(
        [(0, 0, -1), (0, 0, 1), (1, 0, 3e-9), (2, 0, 3e-9), (2, 0, -1)], dtype=float))
    # the clearance scan stops at twice the largest nudge; a clearance under
    # that is exact, as the message shows
    with pytest.raises(fl.GeometryError, match="half the path's distance 3e-09 to"):
        fl.crossing_linking(path, unit_disk)
    # 0.1 above the rim the same nudge resolves the apex hit
    clear = fl.ClosedCurve(np.array(
        [(0, 0, -1), (0, 0, 1), (1, 0, 0.1), (2, 0, 0.1), (2, 0, -1)], dtype=float))
    assert fl.crossing_linking(clear, unit_disk) == 1


def test_solid_angle_axial_closed_form(unit_disk):
    for z in (0.25, 0.5, 1.0, 2.0):
        val = fl.solid_angle(np.array([0.0, 0.0, z]), unit_disk)
        assert abs(abs(val) - axial_solid_angle_magnitude(z)) < 1e-4
        # observer on the normal side sees a negative value
        assert val < 0.0
        below = fl.solid_angle(np.array([0.0, 0.0, -z]), unit_disk)
        assert abs(below + val) < 1e-12


def test_solid_angle_matches_direct_quadrature():
    surf = fl.span_surface(circle((0, 0, 0), 1.0, Z, 256))
    for x in (np.array([0.0, 0.0, 0.7]), np.array([0.3, -0.2, 0.5]),
              np.array([1.4, 0.3, -0.6])):
        vos = fl.solid_angle(x, surf)
        direct = refined_solid_angle(x, surf, k=10)
        assert abs(vos - direct) < 2e-3 * max(1.0, abs(vos))


def test_solid_angle_far_field(unit_disk):
    x = 1e3 * np.array([0.7, -0.7, 0.1414]) / np.linalg.norm([0.7, -0.7, 0.1414])
    assert abs(fl.solid_angle(x, unit_disk)) < 1e-5


def test_solid_angle_jump_4pi():
    surf = fl.span_surface(circle((0, 0, 0), 2.0, Z, 1024))
    eps = 1e-4
    up = fl.solid_angle(np.array([0.2, 0.0, eps]), surf)
    down = fl.solid_angle(np.array([0.2, 0.0, -eps]), surf)
    assert abs(abs(up - down) - 4.0 * np.pi) < 1e-3


def test_solid_angle_no_jump_outside_surface():
    surf = fl.span_surface(circle((0, 0, 0), 1.0, Z, 1024))
    eps = 1e-4
    up = fl.solid_angle(np.array([1.7, 0.0, eps]), surf)
    down = fl.solid_angle(np.array([1.7, 0.0, -eps]), surf)
    assert abs(up - down) < 1e-3


def test_solid_angle_on_surface_rejected(unit_disk):
    with pytest.raises(fl.GeometryError):
        fl.solid_angle(np.array([0.2, 0.1, 0.0]), unit_disk)


def test_solid_angle_range(unit_disk):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-3, 3, 3)
        if abs(x[2]) < 0.05 and np.hypot(x[0], x[1]) < 1.1:
            continue
        assert abs(fl.solid_angle(x, unit_disk)) < 4.0 * np.pi


def test_grad_solid_angle_matches_finite_differences(unit_disk):
    c = circle((0, 0, 0), 1.0, Z, 1024)
    rng = np.random.default_rng(7)
    h = 1e-4
    checked = 0
    while checked < 20:
        u = rng.normal(size=3)
        x = u / np.linalg.norm(u) * rng.uniform(0.5, 3.0)
        if np.hypot(x[0], x[1]) < 1.15 and abs(x[2]) < 0.01:
            continue
        if fl.surface_point_distance(x, unit_disk) < 10 * h:
            continue
        checked += 1
        g = fl.grad_solid_angle(x, c)
        fd = np.empty(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd[k] = (fl.solid_angle(x + e, unit_disk)
                     - fl.solid_angle(x - e, unit_disk)) / (2 * h)
        assert np.linalg.norm(g - fd) < 1e-3 * max(np.linalg.norm(g), 1e-30)


def test_grad_solid_angle_axial_symmetry():
    c = circle((0, 0, 0), 1.0, Z, 1024)
    g = fl.grad_solid_angle(np.array([0.0, 0.0, 0.7]), c)
    assert abs(g[0]) < 1e-8 and abs(g[1]) < 1e-8


def test_grad_solid_angle_far_field_decay():
    c = circle((0, 0, 0), 1.0, Z, 1024)
    u = np.array([0.3, -0.5, 0.81])
    u /= np.linalg.norm(u)
    ratio = (np.linalg.norm(fl.grad_solid_angle(50 * u, c))
             / np.linalg.norm(fl.grad_solid_angle(100 * u, c)))
    assert abs(ratio - 8.0) < 0.4


def test_grad_circulation_gives_4pi_linking():
    path, flux_curve = hopf_pair(1024)
    mids = 0.5 * (path.points + np.roll(path.points, -1, axis=0))
    seg = np.roll(path.points, -1, axis=0) - path.points
    total = sum(float(fl.grad_solid_angle(m, flux_curve) @ w)
                for m, w in zip(mids, seg))
    assert abs(total - 4.0 * np.pi) < 1e-3


def test_grad_circulation_vanishes_for_distant_loop():
    flux_curve = circle((0, 0, 0), 1.0, Z, 512)
    loop = circle((6, 0, 4), 1.0, Z, 256)
    mids = 0.5 * (loop.points + np.roll(loop.points, -1, axis=0))
    seg = np.roll(loop.points, -1, axis=0) - loop.points
    total = sum(float(fl.grad_solid_angle(m, flux_curve) @ w)
                for m, w in zip(mids, seg))
    assert abs(total) < 1e-9


def test_surface_point_distance_values(unit_disk):
    assert abs(fl.surface_point_distance(np.array([0.0, 0.0, 0.5]), unit_disk)
               - 0.5) < 1e-12
    assert abs(fl.surface_point_distance(np.array([3.0, 0.0, 0.0]), unit_disk)
               - 2.0) < 1e-4
    assert fl.surface_point_distance(np.array([0.2, 0.1, 0.0]), unit_disk) < 1e-12


def test_surface_io_roundtrip(tmp_path):
    surf = fl.span_surface(circle((0, 0, 0), 1.0, Z, 64))
    path = tmp_path / "disk.json"
    fl.save_surface(surf, path)
    back = fl.load_surface(path)
    assert np.array_equal(back.vertices, surf.vertices)
    assert np.array_equal(back.triangles, surf.triangles)


@pytest.mark.parametrize("vertices,triangles,match", [
    ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0.9, 1.2, 2.7]], "triangle indices must be integers"),
    ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[True, 1, 2]], "triangle indices must be integers"),
    ([[0, 0, 0], [True, 0, 0], [0, 1, 0]], [[0, 1, 2]], "vertex coordinates must be numbers"),
], ids=["fractional-index", "bool-index", "bool-vertex"])
def test_surface_io_rejects_coerced_values(tmp_path, vertices, triangles, match):
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps({"vertices": vertices, "triangles": triangles}))
    with pytest.raises(fl.SchemaError, match="coerced.json: " + match):
        fl.load_surface(path)


def test_surface_io_accepts_integral_float_indices(tmp_path):
    path = tmp_path / "floats.json"
    path.write_text(json.dumps({"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
                                "triangles": [[0.0, 1.0, 2.0]]}))
    assert fl.load_surface(path).triangles.tolist() == [[0, 1, 2]]


def test_surface_file_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"vertices": [], "triangles": [], "name": "\u00e9"}'.encode("latin-1"))
    with pytest.raises(fl.SchemaError, match="latin1.json"):
        fl.load_surface(path)


def test_surface_io_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [[0,0,0]], "triangles": [[0, 1, 2]]}')
    with pytest.raises(fl.SchemaError):
        fl.load_surface(path)


def test_surface_file_without_triangles(tmp_path):
    path = tmp_path / "vertices.json"
    path.write_text('{"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]}')
    with pytest.raises(fl.SchemaError, match="expected an object with 'vertices' and 'triangles'"):
        fl.load_surface(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_surface_rejects_non_finite_vertices(tmp_path, bad):
    # a rim vertex of a 64-point unit-disk fan; with a nan there, the
    # threading circle's count would come back 0 instead of 1, unflagged
    disk = fl.span_surface(circle((0, 0, 0), 1.0, Z, 64))
    threading = circle((1, 0, 0), 0.5, Y, 256)
    assert fl.crossing_linking(threading, disk) in (-1, 1)
    vertices = disk.vertices.copy()
    vertices[1, 0] = bad
    with pytest.raises(fl.GeometryError, match="surface vertices must be finite"):
        fl.Surface(vertices, disk.triangles)
    # json writes NaN and Infinity, which Python's json reads back as floats
    path = tmp_path / "disk.json"
    path.write_text(json.dumps({"vertices": vertices.tolist(),
                                "triangles": disk.triangles.tolist()}))
    with pytest.raises(fl.SchemaError, match="disk.json: surface vertices must be finite"):
        fl.load_surface(path)
