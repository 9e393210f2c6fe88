"""Linking integrals, spanning fans, crossing counts, and solid angles."""
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

import fluxline as fl
from fluxline import cli, topology
from conftest import (
    Y,
    Z,
    axial_solid_angle_magnitude,
    circle,
    hopf_pair,
    random_pair,
    refined_solid_angle,
)
from test_curves import _circle_pair, _rotated


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


@pytest.mark.parametrize("scale", [1e-120, 1e-80, 1e-50, 1e70, 1e80, 1e150, 1e160])
def test_linking_sum_counts_or_names_the_coordinate_size(scale):
    # a 256-point Hopf pair, scaled: the pair sum read 0 at 1e150, where its
    # cubed distances overflow, and NaN at 1e160; curves above the surfaces'
    # bound are refused by the sum that the Gauss count and the circulation share.
    # At 1e-120 its r^-3 overflows, and the sum gave NaN; at 1e-80 and 1e-50
    # the touch guard's floor of 1e-39 refused the pair as touching
    path, flux_curve = (fl.ClosedCurve(c.points * scale) for c in hopf_pair(256))
    want = fl.gauss_linking(*hopf_pair(256)).rounded
    if scale < 1e-100:
        for fn, args in ((fl.gauss_linking, (path, flux_curve)),
                         (fl.circulation, (fl.FluxLine(flux_curve, 1.0), path))):
            with pytest.raises(fl.GeometryError, match="pair sum is not finite on a curve 2e-120"):
                fn(*args)
        return
    if scale < topology.MAX_COORDINATE:
        assert fl.gauss_linking(path, flux_curve).rounded == want
        assert fl.circulation(fl.FluxLine(flux_curve, 1.0), path) == pytest.approx(want, abs=1e-12)
        return
    size = f"curve coordinates reach 2e\\+{round(np.log10(scale))}, above 1e\\+72"
    with pytest.raises(fl.GeometryError, match=size):
        fl.gauss_linking(path, flux_curve)
    # the circulation's guard scans at any scale: at 1e160 its squared
    # distances overflowed, and it refused the pair as touching
    with pytest.raises(fl.GeometryError, match=size):
        fl.circulation(fl.FluxLine(flux_curve, 1.0), path)


def _crossing_or_error(path, surf):
    """crossing_linking's count, or the message of the GeometryError it raises."""
    try:
        return fl.crossing_linking(path, surf)
    except fl.GeometryError as e:
        return str(e)


def _unculled_crossing(monkeypatch, path, surf):
    """_crossing_or_error with every run box infinite, so that no run pair is
    culled: every segment run against every triangle run. Pairs whose own
    boxes are apart are still dropped, as the tie rule reads those boxes.
    Fails if the count no longer builds its boxes through the patched
    builder."""
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
    # unculled, every count spans several chunks of run pairs, and the count
    # is serial: two threads start no thread
    monkeypatch.setenv("FLUXLINE_THREADS", "2")
    long = rectangle_loop(2.0, 1.0, (0.3, 0, 0), n_per_side=80)
    apex = circle((1, 0, 0), 1.0, Y, 1024)  # passes within 1e-10 of the fan apex
    # lies in the fan and away from its rim: the path moved off the fan
    # plane does not cross it
    coplanar = circle((0.2, 0, 0), 0.3, Z, 600)
    small_disk = fl.span_surface(circle((0, 0, 0), 1.0, Z, 64))
    for path, surf, want in ((long, unit_disk, -1), (apex, unit_disk, 1),
                             (coplanar, small_disk, 0)):
        assert _crossing_or_error(path, surf) == want == _unculled_crossing(monkeypatch, path, surf)
    assert started_threads == []


@pytest.mark.parametrize("shift", [0.0, 1e7])
def test_crossing_cull_drops_only_pairs_whose_boxes_are_apart(monkeypatch, shift):
    # each path lies in the plane y = -d and the triangle in y >= 0, so at
    # d > 0 their boxes are d apart and the cull drops every pair, and at
    # d = 0 the boxes meet on the triangle's boundary edge y = 0, which the
    # path then touches; at 1e7 every coordinate stays exact
    side = 2.0 ** 16
    tri = fl.Surface(np.array([(0, 0, 0), (side, 0, 0), (0, side, 0)]) + shift, [[0, 1, 2]])
    x0, x1, h = side / 4, 2 * side, side / 4
    for apart, want in ((1.0, 0), (0.0, "path touches or nearly touches the surface boundary")):
        # a segment pierces z = 0 2^-28 outside the edge y = 0, or on it
        d = apart * 2.0 ** -28
        pierce = [(x0, -d, -h), (x0, -d, h), (x1, -d, h), (x1, -d, -h)]
        # a segment lies in z = 0 2^-16 outside that edge, every plane value
        # an exact zero, or along it
        d = apart * 2.0 ** -16
        flat = [(x0, -d, 0), (3 * x0, -d, 0), (3 * x0, -d, h), (x0, -d, h)]
        for points in (pierce, flat):
            path = fl.ClosedCurve(np.array(points) + shift)
            got = _crossing_or_error(path, tri)
            assert got == want == _unculled_crossing(monkeypatch, path, tri)



def _star():
    """`tools/cli_corpus.py`'s 1023-point star: 341 spikes, each down through the
    unit disk's fan and back up outside it, every 32-segment run's box
    holding the fan's apex, so that every pair of runs meets."""
    phi = np.repeat(np.arange(341) * np.pi * (3.0 - np.sqrt(5.0)), 3)
    r, z = np.tile([0.05, 1.5, 1.5], 341), np.tile([0.5, -0.5, 0.5], 341)
    return fl.ClosedCurve(np.column_stack([r * np.cos(phi), r * np.sin(phi), z]))


def test_crossing_count_edge_tests_only_pairs_whose_boxes_meet(monkeypatch, unit_disk):
    # the star straddles the fan's plane in 698,368 pairs of meeting runs,
    # 2,095,104 edge rows, of which 84,080 pairs have meeting boxes
    orient, rows = topology._orient_signs, [0]

    def counted(o, x, y, z, edge):
        rows[0] += edge * o.shape[0]
        return orient(o, x, y, z, edge)

    monkeypatch.setattr(topology, "_orient_signs", counted)
    for path, want in ((_star(), -341), (_star().reversed(), 341)):
        rows[0] = 0
        assert fl.crossing_linking(path, unit_disk) == want
        assert rows[0] < 300_000


def test_crossing_count_equals_the_count_over_every_pair():
    # a segment and a triangle whose boxes are apart cannot cross: with every
    # box infinite, the count evaluates every pair and gives the same number
    boxes = topology._boxes

    def infinite(*corners):
        lo, hi, run_lo, run_hi = boxes(*corners)
        return lo - np.inf, hi + np.inf, run_lo - np.inf, run_hi + np.inf

    for seed in range(3):
        pair = _circle_pair(seed, 256, True)
        for path, flux_curve in (pair, pair[::-1]):
            surf = fl.span_surface(flux_curve)
            want = fl.crossing_linking(path, surf)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(topology, "_boxes", infinite)
                assert fl.crossing_linking(path, surf) == want


def test_crossing_count_evaluates_few_plane_values(monkeypatch):
    # only the pairs of a segment run and a triangle run whose boxes meet
    # are evaluated: on these pairs, 0.9-3.2% of the (n + 1) t plane values,
    # against 7-25% when the cull took 256-row blocks, which meet every run
    # of the fan beside its apex
    box_bound, meets = topology._box_bound, []

    def recording(*args):
        gaps = box_bound(*args)
        meets.append(gaps <= 0.0)
        return gaps

    monkeypatch.setattr(topology, "_box_bound", recording)
    for seed in range(3):
        for pair in (_circle_pair(seed, 1024, True), _rotated(_circle_pair, seed, 1024, True)):
            for path, flux_curve in (pair, pair[::-1]):
                meets.clear()
                assert abs(fl.crossing_linking(path, fl.span_surface(flux_curve))) == 1
                # one cull; each pair of full runs holds 33 vertices and 32 triangles
                (m,) = meets
                assert m.shape == (32, 32)
                assert m.sum() * 33 * 32 < 0.05 * 1025 * 1024


def test_span_disk_area():
    surf = fl.span_surface(circle((0, 0, 0), 1.0, Z, 1024))
    assert len(surf.triangles) == 1024
    assert abs(surf.area() - np.pi) < 1e-4


def test_normals_follow_the_right_hand_rule_and_sum_to_the_area():
    c = circle((0, 0, 0), 1.0, Z, 64)
    for curve, sign in ((c, 1.0), (c.reversed(), -1.0)):
        surf = fl.span_surface(curve)
        nrm = surf.normals()
        assert nrm.shape == (64, 3)
        assert not nrm[:, :2].any() and (sign * nrm[:, 2] > 0.0).all()
        assert np.linalg.norm(nrm, axis=1).sum() == surf.area()
        tiny = fl.Surface(np.ldexp(surf.vertices, -300), surf.triangles)
        assert np.array_equal(tiny.normals(), np.ldexp(nrm, -600))
    right = fl.Surface(np.array([(0, 0, 0), (3, 0, 0), (0, 2, 0)], dtype=float), [(0, 1, 2)])
    assert right.normals().tolist() == [[0.0, 0.0, 3.0]]


@pytest.mark.parametrize("scale", [1e-50, 1e-76])
def test_span_tiny_circle_and_count_through_it(scale):
    # the fan's degeneracy test once floored the diameter at 1e-30
    disk = fl.span_surface(fl.ClosedCurve(circle((0, 0, 0), 1.0, Z, 64).points * scale))
    assert disk.area() == pytest.approx(np.pi * scale ** 2, rel=1e-2)
    ring = fl.ClosedCurve(circle((1, 0, 0), 1.0, Y, 64).points * scale)
    assert fl.crossing_linking(ring, disk) == 1


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
    # a curve along one line spans no area
    line = fl.ClosedCurve(np.array([(0, 0, 0), (1, 0, 0), (3, 0, 0), (2, 0, 0)], dtype=float))
    with pytest.raises(fl.GeometryError, match="degenerate spanning surface"):
        fl.span_surface(line)


def test_crossing_single_pierce_plus_one(unit_disk):
    # vertical sides cross z=0 at x=-0.7 (descending, inside the disk) and
    # x=1.3 (outside), so exactly one signed pierce; reversal flips it
    loop = rectangle_loop(2.0, 1.0, (0.3, 0, 0))
    assert fl.crossing_linking(loop, unit_disk) == -1
    assert fl.crossing_linking(loop.reversed(), unit_disk) == 1
    # 320 segments: the pierce lands on vertex 280, which relabelling moves
    # to 256 and 240, each the end of one 32-segment run and the start of the
    # next, and to 255 and 60, inside runs
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
    # of a triangle away from the apex: the path moved off the fan plane,
    # as exact zeros are broken, crosses nothing, and it stays 0.5 from the
    # rim, so nothing is refused
    disk = fl.span_surface(circle((0, 0, 0), 1.0, Z, 64))
    path = circle((0.2, 0, 0), 0.3, Z, 64)
    assert fl.crossing_linking(path, disk) == 0
    assert fl.crossing_linking(path.reversed(), disk) == 0


@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e-75, 1e70, 1e80])
def test_crossing_count_counts_or_names_the_coordinate_size(scale):
    # a 64-point unit disk's fan and its threading circle, scaled: squared
    # face normals overflow near 1e77, where the count read 0 and the fan
    # looked inverted; a surface that large is refused. Below about 1e-100
    # products underflow, and the count read 0 there; `span_surface` calls
    # such small fans degenerate, so they are built directly
    disk, ring = circle((0, 0, 0), 1.0, Z, 64), circle((1, 0, 0), 1.0, Y, 64)
    fan = fl.span_surface(disk)
    path = fl.ClosedCurve(ring.points * scale)
    with np.errstate(all="raise"):
        builds = (lambda: fl.Surface(fan.vertices * scale, fan.triangles),
                  lambda: fl.span_surface(fl.ClosedCurve(disk.points * scale)))
        for build in builds[:1 + (scale > 1)]:
            if scale < topology.MAX_COORDINATE:
                assert fl.crossing_linking(path, build()) == 1
                continue
            with pytest.raises(fl.GeometryError, match=r"coordinates reach 1e\+80, above 1e\+72"):
                fl.crossing_linking(path, build())


@pytest.mark.parametrize("size", [1e100, 1e200, 1e300])
def test_crossing_count_of_a_path_far_larger_than_the_surface(size):
    # a rectangle whose near side pierces a 64-point unit-disk fan and whose
    # far corners reach size: its float plane and edge values overflow, and
    # the exact integers count the one crossing
    disk = fl.span_surface(circle((0, 0, 0), 1.0, Z, 64))
    path = fl.ClosedCurve(np.array([(0.5, 0, -size), (0.5, 0, size), (size, 0, size),
                                    (size, 0, -size)]))
    with np.errstate(all="raise"):
        assert fl.crossing_linking(path, disk) == 1
        assert fl.crossing_linking(path.reversed(), disk) == -1


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


def square_fan(flip=False):
    """Four triangles about the apex (0, 0, 0) spanning the square of corners
    (+-1, +-1, 0), with normal +z, or -z flipped; every coordinate exact."""
    v = [(0, 0, 0), (1, -1, 0), (1, 1, 0), (-1, 1, 0), (-1, -1, 0)]
    t = np.array([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1)])
    return fl.Surface(np.array(v, dtype=float), t[:, ::-1] if flip else t)


def square_grid(flip=False):
    """Eight triangles on the 3 x 3 grid x, y in {-1, 0, 1}, z = 0, with normal
    +z, or -z flipped: (0, 0, 0) is an interior mesh vertex."""
    v = [(x, y, 0) for y in (-1, 0, 1) for x in (-1, 0, 1)]
    t = np.array([f for i in (0, 1, 3, 4) for f in ((i, i + 1, i + 4), (i, i + 4, i + 3))])
    return fl.Surface(np.array(v, dtype=float), t[:, ::-1] if flip else t)


def staple(x, y, via=False):
    """The loop in the plane y that rises through (x, y, 0) and comes back
    down at x = 3, outside the squares: it links their boundary once, +1
    against normal +z. via: with a vertex at (x, y, 0)."""
    pts = [(x, y, -1)] + [(x, y, 0)] * via + [(x, y, 1), (3, y, 1), (3, y, -1)]
    return fl.ClosedCurve(np.array(pts, dtype=float))


@pytest.mark.parametrize("build, x, y", [
    (square_fan, 0.0, 0.0),  # the apex, on every triangle
    (square_fan, 0.5, 0.5),  # inside the fan edge to (1, 1, 0)
    (square_fan, 0.25, 0.0),  # inside a face, on the plane y = 0 of the apex
    (square_grid, 0.0, 0.0),  # an interior mesh vertex
    (square_grid, 0.5, 0.0),  # inside an edge of the grid
    (square_grid, 0.5, 0.5),  # inside a cell's diagonal
])
@pytest.mark.parametrize("via", [False, True])
def test_crossing_through_a_vertex_or_an_edge_counts_once(build, x, y, via):
    # every hit is an exact zero of some sign, broken the same way in every
    # triangle that shares it, so the one crossing counts once; a reversed
    # path or a flipped surface flips the sign
    path = staple(x, y, via)
    for flip in (False, True):
        for p, want in ((path, 1), (path.reversed(), -1)):
            assert fl.crossing_linking(p, build(flip)) == (-want if flip else want)


@pytest.mark.parametrize("build", [square_fan, square_grid])
def test_crossing_touch_at_a_vertex_or_along_a_face_counts_0(build):
    # a path that touches the apex, or the interior vertex, from below and
    # turns back, and a path that lies in the surface around that vertex:
    # both link the boundary 0 times
    touch = fl.ClosedCurve(np.array([(-0.5, 0, -1), (0, 0, 0), (0.5, 0, -1)], dtype=float))
    flat = fl.ClosedCurve(np.array(
        [(-0.5, -0.5, 0), (0.5, -0.5, 0), (0.5, 0.5, 0), (-0.5, 0.5, 0)], dtype=float))
    for path in (touch, flat):
        for flip in (False, True):
            assert fl.crossing_linking(path, build(flip)) == 0
            assert fl.crossing_linking(path.reversed(), build(flip)) == 0


def test_crossing_through_a_vertex_of_a_closed_surface_counts_0():
    # a tetrahedron with its vertex (0, 0, 0) below the face z = 2: the staple
    # enters through that vertex, a tie, and leaves through a side face. The
    # surface has no boundary, so it is at infinite distance and nothing is refused
    v = np.array([(0, 0, 0), (-1, -1, 2), (2, -1, 2), (-1, 2, 2)], dtype=float)
    t = np.array([(0, 2, 1), (0, 3, 2), (0, 1, 3), (1, 2, 3)])
    for via in (False, True):
        path = staple(0.0, 0.0, via)
        for flip in (False, True):
            tetrahedron = fl.Surface(v, t[:, ::-1] if flip else t)
            assert topology._boundary_distance(path, tetrahedron) == np.inf
            for p in (path, path.reversed()):
                assert fl.crossing_linking(p, tetrahedron) == 0


def test_crossing_under_a_cone_rim_counts_0_through_every_tie():
    # an inverted square pyramid, apex (0, 0, 0), rim in the plane z = 1:
    # a loop below that plane links the rim 0 times. Loops on the half-integer
    # grid meet the apex, the slanted edges and the face planes exactly, in
    # every order of tie, and the ties of the plane and edge tests must be
    # broken by one and the same motion of the path. Moved by 2^20, every
    # coordinate stays exact, but the path's centroid does not, and the
    # float plane values of the ties are rounding noise
    vertices = np.array([(0, 0, 0), (2, 0, 1), (0, 2, 1), (-2, 0, 1), (0, -2, 1)], dtype=float)
    cone = np.array([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1)])
    rng = np.random.default_rng(749)
    for k in range(400):
        pts = rng.integers(-4, 5, size=(rng.integers(3, 9), 3)) / 2.0
        pts[:, 2] = np.minimum(pts[:, 2], 0.5)
        if np.any(np.all(pts == np.roll(pts, -1, axis=0), axis=1)):
            continue
        shift = np.array([1.0, -0.5, 2.0]) * 2.0 ** 20 * (k % 2)
        path = fl.ClosedCurve(pts + shift)
        for t in (cone, cone[:, ::-1]):
            surf = fl.Surface(vertices + shift, t)
            assert fl.crossing_linking(path, surf) == 0
            assert fl.crossing_linking(path.reversed(), surf) == 0



def _fraction_signs(o, x, y, z, edge):
    """`_orient_signs` in exact rationals: the sign of det[x - o, y - o, z - o],
    else of the first nonzero component of (x - o) x (y - o), or of
    (x - o) x (y - z) for an edge test; and whether the determinant is 0."""
    signs, ties = [], []
    for row in zip(o, x, y, z):
        po, px, py, pz = ([Fraction(float(c)) for c in v] for v in row)
        X, Y, Z = ([a - b for a, b in zip(v, po)] for v in (px, py, pz))
        W = [a - b for a, b in zip(py, pz)] if edge else Y

        def cross(a, b):
            return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]

        det = sum(a * b for a, b in zip(X, cross(Y, Z)))
        terms = [det, *cross(X, W)]
        signs.append(next((float(np.sign(t)) for t in terms if t != 0), 0.0))
        ties.append(det == 0)
    return signs, ties


@pytest.mark.parametrize("edge", [False, True])
def test_orient_signs_match_exact_rationals(edge):
    # value first, then gradient: random rows, which the value's float bound
    # decides; small integer grids, full of exact zeros and ties; points
    # within rounding of one plane, which go to the integers; and the grids
    # scaled into the subnormals and far up, where products underflow or
    # the float terms overflow
    rng = np.random.default_rng(24)
    k = 150
    grid = rng.integers(-2, 3, size=(4, k, 3)).astype(float)
    o, x, y = rng.normal(size=(3, k, 3)) * 10.0 ** rng.uniform(-150, 60, size=(k, 1))
    st = rng.normal(size=(2, k, 1))
    flat = (o, x, y, o + st[0] * (x - o) + st[1] * (y - o))
    for rows in (rng.normal(size=(4, k, 3)), grid, flat, grid * 2.0 ** -1060, grid * 2.0 ** 500):
        with np.errstate(under="ignore", over="ignore", invalid="ignore"):
            sign, tie = topology._orient_signs(*rows, edge)
        want, ties = _fraction_signs(*rows, edge)
        assert sign.tolist() == want and tie.tolist() == ties


def test_crossing_count_measures_the_boundary_only_after_a_tie(monkeypatch):
    # the clearance scan costs more than a whole unlinked count, so it runs
    # only after an exact zero in a pair whose boxes meet
    calls = []

    def boundary_distance(*args):
        calls.append(args)
        return np.inf

    monkeypatch.setattr(topology, "_boundary_distance", boundary_distance)
    for name in ("unlinked", "l2"):
        for n in (128, 1024):
            a, b = cli._preset_curves(name, n)
            for p, s in ((a, b), (b, a)):
                fl.crossing_linking(p, fl.span_surface(s))
    assert calls == []
    assert fl.crossing_linking(staple(0.0, 0.0), square_fan()) == 1
    assert len(calls) == 1


def test_crossing_nudge_next_to_the_boundary_raises(unit_disk):
    # each path passes about 1.2e-16 from the fan apex, the disk's centroid, too
    # close for a float sign, and then 3e-9 or 0.1 above the rim vertex
    # (1, 0, 0): the exact signs count the one crossing, and no tie is broken
    for clearance in (3e-9, 0.1):
        path = fl.ClosedCurve(np.array([(0, 0, -1), (0, 0, 1), (1, 0, clearance),
                                        (2, 0, clearance), (2, 0, -1)], dtype=float))
        assert fl.crossing_linking(path, unit_disk) == 1
        assert fl.crossing_linking(path.reversed(), unit_disk) == -1
    # through the rim vertex the path touches the boundary, where the count
    # depends on the side it is moved to
    path = fl.ClosedCurve(np.array(
        [(0, 0, -1), (0, 0, 1), (1, 0, 0), (2, 0, 0), (2, 0, -1)], dtype=float))
    for p in (path, path.reversed()):
        with pytest.raises(fl.GeometryError, match="path touches or nearly touches the surface"):
            fl.crossing_linking(p, unit_disk)
    # a rectangle far larger than the fan through its point (0.5, 0, 0), 0.5
    # from its rim: a tie, and the guard is relative to the smaller diameter,
    # so the count is not refused as it was when relative to the path's
    disk = fl.span_surface(circle((0, 0, 0), 1.0, Z, 64))
    for far in (1e20, 1e100, 1e160):
        path = fl.ClosedCurve(np.array(
            [(0.5, 0, -far), (0.5, 0, 0), (0.5, 0, far), (far, 0, far), (far, 0, -far)]))
        assert fl.crossing_linking(path, disk) == 1
        assert fl.crossing_linking(path.reversed(), disk) == -1


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


@pytest.mark.parametrize("x", [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.0, 0.0, -np.inf]])
def test_solid_angle_refuses_a_point_that_is_not_finite(x):
    # no arithmetic on the point: no warning, and no nan passed off as an angle
    surf = fl.span_surface(circle((0, 0, 0), 1.0, Z, 64))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        with pytest.raises(fl.GeometryError, match="the point must be finite"):
            fl.solid_angle(x, surf)
        distance = fl.surface_point_distance(x, surf)
    assert np.isnan(distance) if np.isnan(x).any() else distance == np.inf


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
    for vertices, triangles, match in (
            ([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], r"vertices must form an \(m, 3\) array"),
            ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1]], r"triangles must form a \(t, 3\)"),
            ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [], r"triangles must form a \(t, 3\)")):
        path.write_text(json.dumps({"vertices": vertices, "triangles": triangles}))
        with pytest.raises(fl.SchemaError, match="bad.json: surface " + match):
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
