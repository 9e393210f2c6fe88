"""Curve generators, resampling, deformation, distance, and file IO."""
import contextlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import fluxline as fl
from conftest import X, Y, Z, brute_min_distance, circle, hopf_pair, perturbed, random_pair
from fluxline import curves, quadrature
from fluxline.curves import _displacement, _mode_columns
from fluxline.quadrature import periodic_midpoints


def test_make_circle_four_point_vertices():
    c = circle((0, 0, 0), 1.0, Z, 4)
    want = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float)
    assert np.allclose(c.points, want, atol=1e-15)


@pytest.mark.parametrize("make", [
    lambda: circle((0, 0, 0), 1.0, Z, 32),
    lambda: fl.make_torus_knot(2, 3, 1.0, 0.4, 160),
    lambda: random_pair(1001)[1],
])
def test_curve_model_is_the_midpoint_rule_of_its_points(make):
    c = make()
    mids, w = periodic_midpoints(c.points)
    assert np.array_equal(c.spectrum, np.fft.rfft(c.points, axis=0))
    assert np.array_equal(c.nodes[0], mids) and np.array_equal(c.nodes[1], w)
    assert c.spectrum is c.spectrum and c.nodes is c.nodes
    assert np.array_equal(c.centroid(), c.points.mean(axis=0))
    d = c.points - c.points.mean(axis=0)
    assert c.diameter() == 2.0 * float(np.sqrt(np.max(np.einsum("ij,ij->i", d, d))))


def test_curve_model_is_read_only():
    c = circle((0, 0, 0), 1.0, Z, 64)
    for a in (c.spectrum, *c.nodes, c.centroid()):
        with pytest.raises(ValueError):
            a[0] = 1.0
    with pytest.raises(AttributeError):
        c.spectrum = np.zeros((33, 3))


def test_kernel_factor_is_read_only_and_that_of_fresh_nodes():
    c = perturbed(circle((0.3, -1, 2), 1.5, Y, 200), np.random.default_rng(3), 0.1)
    fresh = quadrature._factor(*periodic_midpoints(c.points))
    assert len(c.kernel_factor) == len(fresh) == 3
    for got, want in zip(c.kernel_factor, fresh):
        assert np.array_equal(got, want) and got.strides == want.strides
        with pytest.raises(ValueError):
            got[0] = 1.0
    assert c.kernel_factor is c.kernel_factor


def unstacked_model(c):
    """spectrum, nodes and kernel factor of c, built from its points alone."""
    spectrum = np.fft.rfft(c.points, axis=0)
    nodes = quadrature._nodes(spectrum, c.n)
    return spectrum, nodes, quadrature._factor(*nodes)


@pytest.mark.parametrize("n", [3, 4, 127, 128, 160, 1024])
@pytest.mark.parametrize("count", [1, 2, 16, 17])
def test_stacked_models_are_those_of_one_curve(n, count):
    rng = np.random.default_rng(1000 * count + n)
    stack = [fl.ClosedCurve(rng.normal(size=(n, 3))) for _ in range(count)]
    # a stack may start part-built, and list a curve twice
    if count > 2:
        stack[1].spectrum, stack[2].nodes
    curves._build_models(stack + stack[:1], "kernel_factor")
    for c in stack:
        fresh = fl.ClosedCurve(c.points)
        spectrum, nodes, factor = unstacked_model(c)
        for got, one, want in zip((c.spectrum, *c.nodes, *c.kernel_factor),
                                  (fresh.spectrum, *fresh.nodes, *fresh.kernel_factor),
                                  (spectrum, *nodes, *factor)):
            assert np.array_equal(got, one) and np.array_equal(got, want)
            assert got.strides == one.strides == want.strides
            assert not got.flags.writeable


@pytest.mark.parametrize("make", [
    lambda: perturbed(circle((0.3, -1, 2), 1.5, Y, 200), np.random.default_rng(3), 0.1),
    lambda: fl.make_torus_knot(2, 3, 1.0, 0.4, 256),
    # corners: the interpolant overshoots, so its nodes stand off the polyline
    lambda: fl.ClosedCurve([[x, 0.0, 0.0] for x in np.linspace(0, 1, 8, endpoint=False)]
                           + [[1.0, y, 0.0] for y in np.linspace(0, 1, 8, endpoint=False)]
                           + [[1.0 - x, 1.0, 0.0] for x in np.linspace(0, 1, 8, endpoint=False)]
                           + [[0.0, 1.0 - y, 0.0] for y in np.linspace(0, 1, 8, endpoint=False)]),
])
def test_node_reach_bounds_every_segment_from_its_node(make):
    c = make()
    p0, u = c.segments()
    mids = c.nodes[0]
    t = np.linspace(0.0, 1.0, 33)[:, None, None]
    reach = np.linalg.norm(p0 + t * u - mids, axis=2).max()
    # the bound through the chord's midpoint is within a sagitta of the farthest point
    assert reach <= c._node_reach < reach + 0.02 * np.linalg.norm(u, axis=1).max()


@pytest.mark.parametrize("cutoff", [0.0, 1e-3, 0.05, 0.3, np.inf])
def test_distance_with_a_cutoff_is_exact_within_it(cutoff):
    c = perturbed(circle((0, 0, 0), 1.0, Z, 1024), np.random.default_rng(4), 0.05)
    rng = np.random.default_rng(5)
    # more points than one block of BLOCK_PAIRS // n = 16 rows, a few on the line
    xs = np.vstack([rng.uniform(-1.5, 1.5, size=(60, 3)) * [1, 1, 0.2], c.points[::97]])
    exact = curves.point_segment_distance(xs, *c.segments()).min(axis=1)
    got = curves.distance_to_curve(xs, c, cutoff=cutoff)
    within = exact <= cutoff
    assert np.array_equal(got[within], exact[within])
    assert np.all(got[~within] > cutoff)
    for x, want in zip(xs[:20], exact):
        assert curves.distance_to_curve(x, c) == want
    assert np.isnan(curves.distance_to_curve([np.nan, 0.0, 0.0], c, cutoff=cutoff))


def test_make_circle_perimeter_second_order():
    def rel_err(n):
        return abs(circle((0, 0, 0), 2.0, Z, n).perimeter() - 4.0 * np.pi) / (4.0 * np.pi)

    assert rel_err(1024) < 1e-4
    ratio = rel_err(64) / rel_err(128)
    assert 3.8 < ratio < 4.2


def test_make_circle_triangle_is_valid():
    c = circle((0, 0, 0), 1.0, Z, 3)
    assert c.n == 3
    assert np.allclose(np.linalg.norm(c.points, axis=1), 1.0)


def test_make_circle_rejects_bad_input():
    with pytest.raises(fl.GeometryError):
        circle((0, 0, 0), 0.0, Z, 64)
    with pytest.raises(fl.GeometryError):
        circle((0, 0, 0), -1.0, Z, 64)
    with pytest.raises(fl.GeometryError):
        circle((0, 0, 0), 1.0, (0, 0, 0), 64)
    with pytest.raises(fl.GeometryError):
        circle((0, 0, 0), 1.0, Z, 2)


def test_make_circle_orientation_right_handed():
    c = circle((0, 0, 0), 1.0, Z, 256)
    # z-component of p x dp must be positive all the way around
    cross_z = np.cross(c.points, np.roll(c.points, -1, axis=0) - c.points)[:, 2]
    assert np.all(cross_z > 0.0)


def test_torus_knot_degenerate_is_planar_circle():
    c = fl.make_torus_knot(1, 0, 2.0, 0.5, 256)
    rho = np.hypot(c.points[:, 0], c.points[:, 1])
    assert np.allclose(rho, 2.0, atol=1e-12)
    assert np.ptp(c.points[:, 2]) < 1e-12


def test_self_distance_scan_matches_unchunked_minimum():
    from fluxline.curves import _segment_pair_distance

    rng = np.random.default_rng(7)
    pts = np.cumsum(rng.normal(size=(600, 3)), axis=0)
    u = np.roll(pts, -1, axis=0) - pts
    dmat = _segment_pair_distance(pts, u, pts, u)
    i = np.arange(600)
    for j in (i, (i + 1) % 600, (i - 1) % 600):
        dmat[i, j] = np.inf
    assert _self_min(fl.ClosedCurve(pts)) == float(dmat.min())


def _self_min(c, cutoff=np.inf):
    """The self check's scan of c: its non-adjacent segment pairs, pruned."""
    p, u = c.segments()
    return curves._min_segment_distance(p, u, p, u, skip_adjacent=True, cutoff=cutoff)


def _unpruned_min(p0, u, q0, v, skip_adjacent=False):
    """Minimum of the full _segment_pair_distance matrix, built 256 rows at a
    time; skip_adjacent leaves out the pairs i, i and i, i +- 1 mod n."""
    n, best = p0.shape[0], np.inf
    for i0 in range(0, n, 256):
        d = curves._segment_pair_distance(p0[i0:i0 + 256], u[i0:i0 + 256], q0, v)
        if skip_adjacent:
            i = np.arange(i0, min(i0 + 256, n))
            for j in (i, (i + 1) % n, (i - 1) % n):
                d[i - i0, j] = np.inf
        best = min(best, float(d.min()))
    return best


def _circle_pair(seed, n, linked):
    """Perturbed unit circles, Hopf-linked or 2.3 apart, as the benchmark's."""
    rng = np.random.default_rng(seed)
    a = circle((0, 0, 0), 1.0, Z, n)
    b = circle((1, 0, 0), 1.0, Y, n) if linked else circle((2.3, 0, 0), 1.0, X, n)
    return perturbed(a, rng, 0.1, modes=2), perturbed(b, rng, 0.1, modes=2)


def _rotated(make, *args):
    """make(*args) turned by one fixed random rotation, off the axes that
    the run boxes are aligned to."""
    rot = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
    return tuple(fl.ClosedCurve(c.points @ rot.T) for c in make(*args))


def _eight(offset, roll, lift=0.0, shift=0.0, n=256):
    """Figure-eight through the origin, at t = pi/2 and 3 pi/2 of its
    parameter: at vertex 64 and 192 for offset 0, inside segments 63 and 191
    for offset 0.5, and `roll` indices on. The strands are lifted apart by
    lift times the self check's tolerance there; the eight is moved by
    `shift` along (1, 1, 1)."""
    t = 2.0 * np.pi * (np.arange(n) + offset) / n
    pts = np.roll(np.column_stack([np.cos(t), 0.5 * np.sin(2.0 * t), np.zeros(n)]), roll, axis=0)
    pts += shift
    pts[:, 2] += 0.5 * lift * 1e-12 * np.max(np.abs(pts)) * np.roll(np.sin(t), roll)
    return pts


# the crossing inside a run (segments 80 and 208), at the vertices that
# begin runs 2 and 6, and in the closing segment n - 1 with segment 127
EIGHTS = [(0.5, 17), (0.0, 0), (0.5, 192)]


def _eight_pair(*args):
    return fl.ClosedCurve(_eight(*args)), circle((0, 0, 5), 1.0, Z, 64)


def _touch_pair(factor, shift=0.0, n=64):
    """Coplanar circles whose vertices n/2 and 0 lie factor times the touch
    guard, TOUCH_GUARD times their diameter 2, apart; moved by `shift`."""
    gap = factor * fl.topology.TOUCH_GUARD * 2.0
    return (circle((shift, shift, shift), 1.0, Z, n),
            circle((shift + 2.0 + gap, shift, shift), 1.0, Z, n))


def _hairpin(gap, pinch, n=192):
    """Two legs along x that come gap apart only at back-leg vertex `pinch`
    and open to 0.05 apart. The out leg spans x in (0, 1) and ends run 2;
    a step of 3/4 segment along x turns it at the tip into the back leg,
    which spans (0.2, 1) in shorter steps. The nearest pair is then one
    pinch, which a wrong band bound would hide: pinch 10 lies in run pair
    (2, 3), across the tip, where run 2 advances along its window and run 3
    does not, and pinch 85 in run pair (5, 0), across the base."""
    m = n // 2
    out = (np.arange(m) + 0.25) / m
    back = 1.0 - 0.8 * np.arange(m) / m
    y = gap + 0.05 * (back - back[pinch]) ** 2
    return np.concatenate([np.column_stack([out, np.zeros(m), np.zeros(m)]),
                           np.column_stack([back, y, np.zeros(m)])])


def _circle_points(n):
    return circle((0, 0, 0), 1.0, Z, n).points


def _blob(seed, scale, offset, n=256):
    """A unit circle under a band-limited random displacement of peak 0.5,
    scaled and moved by offset along (1, 1, 1)."""
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * np.arange(n) / n
    disp = _displacement(rng, *_mode_columns(theta, 3))
    disp *= 0.5 / np.sqrt(np.einsum("ij,ij->i", disp, disp)).max()
    return scale * (_circle_points(n) + disp) + offset


def _torus_knot_points(q, n):
    return fl.make_torus_knot(1, q, 1.0, 0.4, n).points


# inputs for the band bound of the self scan: hairpins whose legs come
# within, at and beyond the self check's tolerance; fewer than three runs
# and a one-segment last run; smooth curves over six orders of scale and
# far off the origin; and knots whose windows turn through a tube twist.
# The last entry says whether the curve crosses itself within the tolerance;
# None at the tolerance itself, where the kernel's rounding decides.
BAND_INPUTS = [
    *((_hairpin, (gap, pinch), None if gap == 1e-12 else gap < 1e-12)
      for pinch in (10, 85) for gap in (1e-14, 1e-12, 1e-9, 1e-3)),
    *((_circle_points, (n,), False) for n in (64, 65, 66, 96, 97)),
    *((_blob, (seed, scale, offset), False) for seed, (scale, offset) in enumerate(
        (s, o) for s in (1e-3, 1.0, 1e3) for o in (0.0, 1e4))),
    *((_torus_knot_points, (q, n), False) for q, n in ((2, 80), (2, 160), (3, 97), (3, 256),
                                                       (5, 80), (5, 256))),
]


def _with_copy(make, *args):
    """The curve make(*args) and a reversed copy moved by a tenth of its extent."""
    pts = make(*args)
    return fl.ClosedCurve(pts), fl.ClosedCurve(pts[::-1] + 0.1 * np.ptp(pts, axis=0))


@pytest.mark.parametrize("make, args", [
    *((random_pair, (seed,)) for seed in (1000, 1001, 1010, 1051)),
    *((_circle_pair, (seed, n, linked))
      for n in (3, 31, 33, 1000, 2048) for seed, linked in ((0, True), (1, False))),
    *((_rotated, (_circle_pair, 0, n, True)) for n in (1000, 2048)),
    (_rotated, (random_pair, 1001)),
    *((_eight_pair, (*e, lift, shift)) for e in EIGHTS for lift in (0.0, 2.0)
      for shift in (0.0, 1e7)),
    *((_touch_pair, (factor, shift)) for factor in (0.5, 2.0) for shift in (0.0, 1e7)),
    *((_with_copy, (make, *args)) for make, args, _ in BAND_INPUTS),
])
def test_pruned_scans_equal_the_full_scan(make, args):
    a, b = make(*args)
    assert fl.min_distance(a, b) == _unpruned_min(*a.segments(), *b.segments())
    for c in (a, b):
        assert _self_min(c) == _unpruned_min(
            *c.segments(), *c.segments(), skip_adjacent=True)


def test_pruned_scan_on_touching_curves_and_open_paths(tmp_path):
    a = circle((0, 0, 0), 1.0, Z, 1024)
    assert fl.min_distance(a, a) == 0.0
    # point reflection through vertex 0: the curves share that vertex exactly
    touching = fl.ClosedCurve(2.0 * a.points[0] - a.points)
    assert fl.min_distance(a, touching) == 0.0
    # the open-path clearance of gauge.open_path_gauge_shift
    rng = np.random.default_rng(5)
    for gamma in (np.column_stack([np.ones(300), np.zeros(300), np.linspace(5.0, -0.1, 300)]),
                  np.cumsum(rng.normal(scale=0.2, size=(500, 3)), axis=0)):
        seg = np.diff(gamma, axis=0)
        assert curves._min_segment_distance(gamma[:-1], seg, *a.segments()) == \
            _unpruned_min(gamma[:-1], seg, *a.segments())
    # a figure-eight crosses itself at the origin; the pruned scan finds it
    eight = _eight(0.0, 0)
    u = np.roll(eight, -1, axis=0) - eight
    assert _self_min(fl.ClosedCurve(eight)) == _unpruned_min(
        eight, u, eight, u, skip_adjacent=True) < 1e-12
    path = tmp_path / "eight.json"
    path.write_text(json.dumps({"points": eight.tolist()}))
    with pytest.raises(fl.SchemaError, match="non-adjacent segments intersect") as err:
        fl.load_curve(path)
    assert str(err.value).count(str(path)) == 1


@pytest.mark.parametrize("n", [33, 64, 96])
def test_self_scan_skips_the_wrap_around_pair_at_a_block_border(n):
    # segment n - 1 meets segment 0 at vertex 0; they sit in different
    # blocks, so only the mod-n adjacency keeps the scan from reading 0
    c = circle((0, 0, 0), 1.0, Z, n)
    found = _self_min(c)
    assert found == _unpruned_min(*c.segments(), *c.segments(), skip_adjacent=True)
    assert found > 0.01


def _count_pairs(monkeypatch):
    """List that collects the size of every _segment_pair_distance call."""
    evaluated = []
    kernel = curves._segment_pair_distance

    def counting(*args):
        d = kernel(*args)
        evaluated.append(d.size)
        return d

    monkeypatch.setattr(curves, "_segment_pair_distance", counting)
    return evaluated


def test_pruned_scan_skips_most_pairs_of_far_apart_circles(monkeypatch):
    evaluated = _count_pairs(monkeypatch)
    a = circle((0, 0, 0), 1.0, Z, 1024)
    b = circle((5, 0, 0), 1.0, Y, 1024)
    assert abs(fl.min_distance(a, b) - 3.0) < 1e-5
    assert 0 < sum(evaluated) < 0.1 * 1024 * 1024


def test_pruned_scan_skips_most_pairs_of_linked_circles(monkeypatch):
    # around a Hopf-like pair most run pairs lie near the minimum, the hard
    # case of the pruning; the run boxes evaluate 2.4% of the pairs here
    evaluated = _count_pairs(monkeypatch)
    a, b = _circle_pair(0, 2048, True)
    assert fl.min_distance(a, b) > 0.0
    assert 0 < sum(evaluated) < 0.035 * 2048 * 2048


def test_decision_scans_evaluate_few_pairs(monkeypatch):
    # the self check and the touch check only ask whether a pair comes
    # within their tolerance; the segment boxes keep the kernel almost idle
    # (the exact self scan evaluates 0.05% here)
    evaluated = _count_pairs(monkeypatch)
    a, b = _circle_pair(0, 2048, True)
    curves._check_self_avoiding(a, "a")
    assert sum(evaluated) < 0.005 * 2048 * 2048
    evaluated.clear()
    fl.gauss_linking(a, b)
    assert sum(evaluated) < 0.005 * 2048 * 2048


def test_self_check_bounds_no_segment_box_of_smooth_curves(monkeypatch, tmp_path):
    # neighbouring runs share a vertex, so their boxes touch; on smooth
    # curves of three runs or more the monotone windows bound the whole
    # diagonal band above the tolerance, and the run-level call is the only one
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    # the rounds' expected linking numbers are not needed here, only their curves
    monkeypatch.setattr(workloads.oracles, "polygon_linking", lambda a, b: 0)
    shapes = []
    box_bound = curves._box_bound

    def recording(*args):
        gaps = box_bound(*args)
        shapes.append(gaps.shape)
        return gaps

    monkeypatch.setattr(curves, "_box_bound", recording)
    loops = list(_circle_pair(0, 2048, True))
    for seed in range(4):
        # the square and its 64-point circle have fewer than three runs
        for op in workloads.build("link_files", seed, tmp_path)[1]:
            if op.kind != "link_square":
                loops += [fl.ClosedCurve(json.loads(Path(f).read_text())["points"])
                          for f in op.spec["argv"][2:5:2]]
    assert len(loops) == 2 + 4 * 20
    for c in loops:
        shapes.clear()
        curves._check_self_avoiding(c, "curve")
        runs = -(-c.n // curves.SCAN_BLOCK)
        assert shapes == [(runs, runs)]


@pytest.mark.parametrize("make, args, crosses", [
    *(pytest.param(_eight, (offset, roll, lift, shift), lift == 0.0,
                   id=f"{lift}-{offset}-{roll}-{shift}")
      for lift in (0.0, 2.0) for offset, roll in EIGHTS for shift in (0.0, 1e7)),
    *BAND_INPUTS,
])
def test_self_check_decides_as_the_full_scan(tmp_path, make, args, crosses):
    pts = make(*args)
    u = np.roll(pts, -1, axis=0) - pts
    full = _unpruned_min(pts, u, pts, u, skip_adjacent=True)
    tol = 1e-12 * float(np.max(np.abs(pts)))
    if crosses is not None:
        assert (full < tol) == crosses
    # the cutoff scan is exact up to the tolerance and above it beyond
    found = _self_min(fl.ClosedCurve(pts), cutoff=tol)
    assert found == full if full <= tol else found > tol
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"points": pts.tolist()}))
    if full < tol:
        with pytest.raises(fl.SchemaError, match="non-adjacent segments intersect"):
            fl.load_curve(path)
    else:
        assert fl.load_curve(path).n == len(pts)


@pytest.mark.parametrize("scale", [pytest.param(2.0 ** -530, id="2^-530"), 1e-150, 1e-100, 1e100,
                                   1e150, 1e160, pytest.param(2.0 ** 530, id="2^530")])
def test_segment_scans_hold_at_any_scale(scale):
    # the kernel's squared lengths overflowed above about 1e77 and flushed
    # to 0 below about 1e-77: the figure-eights passed the self check at
    # 1e100, 1e150 and 1e-150, and min_distance of a Hopf pair read inf at
    # 1e160. Scaled by a power of 2, every distance keeps its bits
    with np.errstate(over="raise", invalid="raise"):
        for offset, roll in EIGHTS:
            with pytest.raises(fl.GeometryError, match="non-adjacent segments intersect"):
                curves._check_self_avoiding(fl.ClosedCurve(_eight(offset, roll) * scale), "eight")
        pair = hopf_pair(256)
        scaled = [fl.ClosedCurve(c.points * scale) for c in pair]
        got = [fl.min_distance(*scaled), scaled[0].diameter()]
    want = [fl.min_distance(*pair) * scale, pair[0].diameter() * scale]
    if np.frexp(scale)[0] == 0.5:
        assert got == want
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_tiny_circle_far_from_the_origin():
    # a circle of radius 1e-200 in the plane x = 1: scaled with the
    # coordinates by 2^-1, its extent lost its bits and the diameter read 0,
    # and the squared segment lengths flushed to 0, where min_distance to
    # its copy above read inf with RuntimeWarnings
    origin = circle((0, 0, 0), 1e-200, X, 64)
    shifted = circle((1, 0, 0), 1e-200, X, 64)
    above = fl.ClosedCurve(shifted.points + [0.0, 0.0, 3e-200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert shifted.diameter() == origin.diameter()
        with pytest.raises(fl.GeometryError, match="extent 9.8e-202 is too short next to "
                                                   "coordinates of size 1: its squared length"):
            fl.min_distance(shifted, above)
        with pytest.raises(fl.GeometryError, match="squared length underflows"):
            curves._check_self_avoiding(shifted, "circle")
        assert fl.min_distance(origin, fl.ClosedCurve(origin.points + [0.0, 0.0, 3e-200])) \
            == pytest.approx(1e-200, rel=1e-12)


def test_point_distance_to_a_tiny_circle_far_from_the_origin_is_refused():
    # the same circle: scaled with the offsets x - p0, the squared segment
    # lengths flushed to 0, and the distance read nan at (2, 0, 0) and 1.0
    # at (1, 0, 1), each with RuntimeWarnings
    c = circle((1, 0, 0), 1e-200, X, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in ((2.0, 0.0, 0.0), (1.0, 0.0, 1.0)):
            with pytest.raises(fl.GeometryError, match="extent 9.8e-202 is too short next to "
                                                       "coordinates of size 1: its squared length"):
                curves.distance_to_curve(np.array(x), c)


def test_point_distance_to_a_segment_of_length_0_is_to_its_point():
    p0 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    d = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = curves.point_segment_distance([(-3.0, 4.0, 0.0), (0.5, 2.0, 0.0)], p0, d)
    assert np.array_equal(got, [[5.0, 5.0], [math.hypot(0.5, 2.0), 2.0]])


@pytest.mark.parametrize("shift", [0.0, 1e7])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_touch_check_decides_as_the_full_scan(factor, shift):
    a, b = _touch_pair(factor, shift)
    touch = fl.topology.TOUCH_GUARD * max(a.diameter(), b.diameter())
    full = _unpruned_min(*a.segments(), *b.segments())
    found = fl.min_distance(a, b, cutoff=touch)
    assert found == full if full <= touch else found > touch
    if not shift:
        assert (full < touch) == (factor < 1.0)
    if full < touch:
        with pytest.raises(fl.GeometryError, match="curves touch"):
            fl.gauss_linking(a, b)
    else:
        # the touch check passes; the sum over so near a pair may not resolve
        with contextlib.suppress(fl.UnderResolvedError):
            fl.gauss_linking(a, b)


def test_segment_pair_distance_does_not_depend_on_the_call():
    # a pruned scan evaluates a pair in calls of any shape, one row or one
    # column included, and must read the same bits as the full matrix
    rng = np.random.default_rng(2)
    p0, u = rng.normal(size=(2, 32, 3))
    q0, v = rng.normal(size=(2, 96, 3))
    full = curves._segment_pair_distance(p0, u, q0, v)
    for rows, cols in (([3], [5]), ([3], [5, 40, 90]), ([1, 7, 30], [60]), ([0, 1], [2, 3])):
        assert np.array_equal(curves._segment_pair_distance(p0[rows], u[rows], q0[cols], v[cols]),
                              full[np.ix_(rows, cols)])


def _pair_distance_reference(p0, u, q0, v):
    """Segment-pair distance of one pair: the smaller of the four endpoint-
    segment distances and, if it lies inside both segments, the critical
    point of the squared distance."""
    def point_segment(x, a, d):
        t = min(1.0, max(0.0, float(np.dot(x - a, d) / np.dot(d, d))))
        return float(np.linalg.norm(x - a - t * d))

    best = min(point_segment(p0, q0, v), point_segment(p0 + u, q0, v),
               point_segment(q0, p0, u), point_segment(q0 + v, p0, u))
    w = p0 - q0
    m = np.array([[u @ u, -(u @ v)], [u @ v, -(v @ v)]])
    if np.linalg.det(m) != 0.0:
        s, t = np.linalg.solve(m, [-(u @ w), -(v @ w)])
        if 0.0 <= s <= 1.0 and 0.0 <= t <= 1.0:
            best = min(best, float(np.linalg.norm(w + s * u - t * v)))
    return best


def test_segment_pair_distance_on_degenerate_pairs():
    from fluxline.curves import _segment_pair_distance

    rng = np.random.default_rng(11)
    pairs = []
    for _ in range(30):
        p0, x, gap = rng.normal(size=(3, 3))
        u, v = rng.normal(size=(2, 3))
        # exactly parallel and antiparallel (power-of-two scalings keep
        # a*c - b*b at exactly 0), apart and overlapping along the line
        pairs += [(p0, u, p0 + gap, 2.0 * u), (p0, u, p0 + gap, -0.5 * u),
                  (p0, u, p0 + 0.25 * u, u), (p0, u, p0 + 1.5 * u, -u)]
        # crossing at s = 0.3, t = 0.6
        pairs.append((x - 0.3 * u, u, x - 0.6 * v, v))
        # lengths 1e-3 against 1e3, either way round, skew and parallel
        short, long_ = 1e-3 * u, 1e3 * v
        pairs += [(p0, short, p0 + gap, long_), (p0, long_, p0 + gap, short),
                  (p0, short, p0 + gap, 1e3 * u), (p0, long_, p0 + gap, 1e-3 * v)]
    p0, u, q0, v = (np.array(col) for col in zip(*pairs))
    got = np.diagonal(_segment_pair_distance(p0, u, q0, v))
    for k, pair in enumerate(pairs):
        scale = max(np.linalg.norm(pair[1]), np.linalg.norm(pair[3]),
                    np.linalg.norm(pair[0] - pair[2]))
        assert abs(got[k] - _pair_distance_reference(*pair)) <= 1e-12 * scale, (k, pair)


def test_self_distance_scan_thread_independent(monkeypatch, started_threads):
    # the scan is serial: FLUXLINE_THREADS starts no thread and changes nothing
    monkeypatch.setenv("FLUXLINE_THREADS", "2")
    pts = np.cumsum(np.random.default_rng(7).normal(size=(600, 3)), axis=0)
    u = np.roll(pts, -1, axis=0) - pts
    assert _self_min(fl.ClosedCurve(pts)) == _unpruned_min(
        pts, u, pts, u, skip_adjacent=True)
    assert started_threads == []


def test_trefoil_self_avoiding():
    c = fl.make_torus_knot(2, 3, 2.0, 0.5, 512)
    pts = c.points
    seg = np.roll(pts, -1, axis=0) - pts
    n = pts.shape[0]
    # brute-force scan over non-adjacent segment pairs at dense samples
    t = np.linspace(0.0, 1.0, 6, endpoint=False)
    dense = (pts[:, None, :] + t[None, :, None] * seg[:, None, :]).reshape(n, -1, 3)
    best = np.inf
    for i in range(n):
        js = [j for j in range(i + 2, n) if not (i == 0 and j == n - 1)]
        if not js:
            continue
        d2 = ((dense[i][:, None, :] - dense[js].reshape(-1, 3)[None, :, :]) ** 2).sum(axis=2)
        best = min(best, float(d2.min()))
    assert math.sqrt(best) > 1e-3


def test_torus_knot_pq_swap_distinct():
    a = fl.make_torus_knot(2, 3, 2.0, 0.5, 512)
    b = fl.make_torus_knot(3, 2, 2.0, 0.5, 512)
    assert np.abs(a.points - b.points).max() > 0.1


def test_torus_knot_rejects_bad_input():
    with pytest.raises(fl.GeometryError):
        fl.make_torus_knot(2, 4, 2.0, 0.5, 512)
    with pytest.raises(fl.GeometryError):
        fl.make_torus_knot(2, 3, 0.5, 0.5, 512)
    with pytest.raises(fl.GeometryError):
        fl.make_torus_knot(2, 3, 2.0, 0.5, 17)


def test_resample_idempotent_on_uniform_input():
    c = circle((0, 0, 0), 1.0, Z, 1024)
    r = fl.resample(c, 1024)
    assert np.abs(r.points - c.points).max() < 1e-12


def test_resample_convergence_preserves_linking():
    partner = circle((1, 0, 0), 1.0, Y, 1024)
    coarse = circle((0, 0, 0), 1.0, Z, 64)
    fine = fl.resample(coarse, 1024)
    raw_coarse = fl.gauss_linking(coarse, partner).raw
    raw_fine = fl.gauss_linking(fine, partner).raw
    assert abs(raw_fine - raw_coarse) < 1e-6


def test_resample_to_triangle():
    r = fl.resample(circle((0, 0, 0), 1.0, Z, 1024), 3)
    assert r.n == 3
    # vertices stay on (or within a chord of) the unit circle
    rad = np.linalg.norm(r.points, axis=1)
    assert np.all(rad > 0.99) and np.all(rad < 1.0 + 1e-12)
    sides = np.linalg.norm(np.roll(r.points, -1, axis=0) - r.points, axis=1)
    assert np.ptp(sides) < 1e-2


def test_resample_keeps_its_bits_at_any_scale():
    # on the raw points the segment norms squared: at 2^-540 and below, and at
    # 2^600 and above, finite input was refused as "curve points must be
    # finite" with a RuntimeWarning, and at 2^-510 to 2^-520 the points lost bits
    c = circle((0, 0, 0), 1.0, Z, 64)
    want = fl.resample(c, 97).points
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-600, 1001):
            got = fl.resample(fl.ClosedCurve(np.ldexp(c.points, k)), 97).points
            assert np.array_equal(got, np.ldexp(want, k)), k


def test_resample_rejects_too_few():
    with pytest.raises(fl.GeometryError):
        fl.resample(circle((0, 0, 0), 1.0, Z, 64), 2)


def test_reversal_is_involution():
    c = fl.make_torus_knot(2, 3, 2.0, 0.5, 256)
    assert np.array_equal(c.reversed().reversed().points, c.points)


def test_closed_curve_validation():
    with pytest.raises(fl.GeometryError):
        fl.ClosedCurve(np.zeros((2, 3)))
    pts = circle((0, 0, 0), 1.0, Z, 16).points.copy()
    pts[5] = pts[6]
    with pytest.raises(fl.GeometryError):
        fl.ClosedCurve(pts)
    pts = circle((0, 0, 0), 1.0, Z, 16).points.copy()
    pts[0, 0] = np.nan
    with pytest.raises(fl.GeometryError):
        fl.ClosedCurve(pts)


@pytest.mark.parametrize("scale", [1e-165, 1e-200, 1e-300])
def test_tiny_curves_build_and_a_repeated_point_is_refused(scale):
    # their squared segment lengths underflow to 0, which once read as a
    # repeated point
    from fluxline.gauge import _open_polyline

    pts = circle((0, 0, 0), 1.0, Z, 256).points * scale
    fl.ClosedCurve(pts)
    _open_polyline(pts)
    pts[5] = pts[6]
    with pytest.raises(fl.GeometryError, match="consecutive curve points must be distinct"):
        fl.ClosedCurve(pts)
    with pytest.raises(fl.GeometryError, match="consecutive open path points must be distinct"):
        _open_polyline(pts)


def test_curve_refuses_each_repeated_neighbour_and_an_overflowed_sum():
    # a validated curve plus a finite displacement, as `_deform` builds, can
    # overflow or close a segment, the closing one (last, first) included
    square = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], dtype=float)
    for i in range(4):
        pts = square.copy()
        pts[i] = pts[(i + 1) % 4]
        with pytest.raises(fl.GeometryError, match="consecutive curve points must be distinct"):
            fl.ClosedCurve(pts)
    with np.errstate(over="ignore"):
        overflowed = square * 1e308 + 1e308
    with pytest.raises(fl.GeometryError, match="curve points must be finite"):
        fl.ClosedCurve(overflowed)
    pts = square.copy()
    pts[2] = pts[0]  # a repeat that is not a neighbour is a curve
    fl.ClosedCurve(pts)


def test_curve_points_immutable():
    c = circle((0, 0, 0), 1.0, Z, 16)
    with pytest.raises(ValueError):
        c.points[0, 0] = 5.0


def test_deformation_spec_validation():
    ok = dict(amplitude=0.1, n_modes=2, seed=0, steps=5, clearance=0.05)
    fl.DeformationSpec(**ok)
    for key, bad in (("amplitude", -1.0), ("n_modes", 0), ("steps", 0),
                     ("clearance", 0.0), ("clearance", -1.0), ("max_tries", 0)):
        with pytest.raises(fl.GeometryError):
            fl.DeformationSpec(**{**ok, key: bad})


def test_deform_zero_amplitude_is_identity():
    path, obstacle = hopf_pair(256)
    spec = fl.DeformationSpec(amplitude=0.0, n_modes=3, seed=1, steps=5,
                              clearance=0.05)
    steps = fl.deform_homotopy(path, obstacle, spec)
    assert len(steps) == 6
    for s in steps:
        assert np.array_equal(s.points, path.points)


def test_deform_same_seed_deterministic(monkeypatch):
    path, obstacle = hopf_pair(256)
    spec = fl.DeformationSpec(amplitude=0.2, n_modes=3, seed=42, steps=8,
                              clearance=0.05)
    first = fl.deform_homotopy(path, obstacle, spec)
    second = fl.deform_homotopy(path, obstacle, spec)
    for s1, s2 in zip(first, second):
        assert np.array_equal(s1.points, s2.points)
    # a zero displacement cannot be normalised and is redrawn: one that takes
    # no draws from the generator leaves the states as they were
    draw, zeros = curves._displacement, [np.zeros((256, 3))]

    def zero_once(rng, cos, sin):
        return zeros.pop() if zeros else draw(rng, cos, sin)

    monkeypatch.setattr(curves, "_displacement", zero_once)
    for s1, s2 in zip(first, fl.deform_homotopy(path, obstacle, spec), strict=True):
        assert np.array_equal(s1.points, s2.points)
    assert zeros == []


def test_deform_respects_clearance_every_step():
    path, obstacle = hopf_pair(256)
    spec = fl.DeformationSpec(amplitude=0.2, n_modes=3, seed=7, steps=12,
                              clearance=0.05)
    for s in fl.deform_homotopy(path, obstacle, spec):
        assert fl.min_distance(s, obstacle) > 0.05


def test_deform_hopf_keeps_linking_each_step():
    path, obstacle = hopf_pair(512)
    spec = fl.DeformationSpec(amplitude=0.2, n_modes=3, seed=3, steps=20,
                              clearance=0.05)
    for s in fl.deform_homotopy(path, obstacle, spec):
        res = fl.gauss_linking(s, obstacle)
        assert res.rounded == 1
        assert res.residual < 1e-3


def _largest_moves(curves):
    return [float(np.max(np.linalg.norm(b.points - a.points, axis=1)))
            for a, b in zip(curves, curves[1:])]


def test_deform_step_capped_at_half_the_clearance():
    path, obstacle = hopf_pair(128)
    spec = fl.DeformationSpec(amplitude=5.0, n_modes=3, seed=4, steps=6,
                              clearance=0.05)
    for move in _largest_moves(fl.deform_homotopy(path, obstacle, spec)):
        assert move == pytest.approx(0.025, rel=1e-9)


def test_simultaneous_deform_moves_each_curve_a_quarter_clearance():
    from fluxline.curves import _deform

    path, flux_curve = hopf_pair(128)
    spec = fl.DeformationSpec(amplitude=5.0, n_modes=3, seed=4, steps=6,
                              clearance=0.05)
    states = [s for [s] in _deform(path, flux_curve, spec, True, fl.min_distance(path, flux_curve))]
    assert len(states) == 6
    for curves in zip(*[(path, flux_curve)] + states):
        for move in _largest_moves(curves):
            assert move == pytest.approx(0.0125, rel=1e-9)
    for a, b in states:
        assert fl.min_distance(a, b) > 0.05


def test_deform_out_of_tries_raises():
    # every step of 0.45 draws the hopf path nearer than 0.9 to its partner,
    # whose distance is 0.9994: each try is refused
    path, obstacle = hopf_pair(128)
    spec = fl.DeformationSpec(amplitude=10.0, n_modes=32, seed=0, steps=1,
                              clearance=0.9, max_tries=5)
    with pytest.raises(fl.ClearanceError, match="no clearance-respecting step found in 5 tries"):
        fl.deform_homotopy(path, obstacle, spec)


def test_deform_initial_clearance_violation_raises():
    inner = circle((0, 0, 0), 1.0, Z, 128)
    outer = circle((0, 0, 0), 1.05, Z, 128)
    spec = fl.DeformationSpec(amplitude=0.1, n_modes=2, seed=0, steps=4,
                              clearance=0.2)
    with pytest.raises(fl.ClearanceError):
        fl.deform_homotopy(inner, outer, spec)


def _counted(monkeypatch, name):
    """A one-element list counting the calls made to curves.<name>."""
    count = [0]
    original = getattr(curves, name)

    def counted(*args, **kw):
        count[0] += 1
        return original(*args, **kw)

    monkeypatch.setattr(curves, name, counted)
    return count


def _deform_scanning_every_attempt(a, b, spec, move_b=False):
    """curves._deform without the displacement bound: one scan per attempt.
    Like it, the drawn states without the start (a, b)."""
    rng = np.random.default_rng(spec.seed)
    moving = [a, b] if move_b else [a]
    step = min(spec.amplitude / spec.steps, 0.5 * spec.clearance / len(moving))
    out = []
    for _ in range(spec.steps):
        while True:
            cand = []
            for c in moving:
                theta = 2.0 * np.pi * np.arange(c.n) / c.n
                d = curves._displacement(rng, *curves._mode_columns(theta, spec.n_modes))
                peak = float(np.sqrt(np.max(np.einsum("ij,ij->i", d, d))))
                cand.append(fl.ClosedCurve(c.points + (step / peak) * d))
            pair = (cand[0], cand[1] if move_b else b)
            if fl.min_distance(*pair) > spec.clearance:
                break
        out.append(pair)
        moving = cand
    return out


def _assert_same_states(states, expected):
    assert len(states) == len(expected)
    for (a, b), (ea, eb) in zip(states, expected):
        assert np.array_equal(a.points, ea.points) and np.array_equal(b.points, eb.points)


def test_deform_with_room_to_spare_scans_only_the_initial_pair(monkeypatch):
    # the phase subcommand's default deformation of the hopf preset: the
    # 20 steps of 0.01 cannot close the initial distance down to 0.05
    obstacle, path = hopf_pair(128)
    spec = fl.DeformationSpec(amplitude=0.2, n_modes=3, seed=0, steps=20,
                              clearance=0.05)
    scans = _counted(monkeypatch, "min_distance")
    assert len(fl.deform_homotopy(path, obstacle, spec)) == 21
    assert scans[0] == 1


def test_deform_scans_every_attempt_near_the_clearance(monkeypatch):
    obstacle = circle((0, 0, 0), 1.0, Z, 128)
    knot = fl.make_torus_knot(1, 2, 1.0, 0.4, 128)
    spec = fl.DeformationSpec(amplitude=0.2, n_modes=3, seed=0, steps=20,
                              clearance=0.999 * fl.min_distance(knot, obstacle))
    expected = _deform_scanning_every_attempt(knot, obstacle, spec)
    lb = fl.min_distance(knot, obstacle)
    scans = _counted(monkeypatch, "min_distance")
    draws = _counted(monkeypatch, "_displacement")
    _assert_same_states([s for [s] in curves._deform(knot, obstacle, spec, False, lb)], expected)
    assert draws[0] > spec.steps
    assert scans[0] == draws[0]


@pytest.mark.parametrize("move_b, scans_made", [(False, 48), (True, 36)])
def test_deform_scans_again_once_the_bound_runs_out(monkeypatch, move_b, scans_made):
    # 40 steps of 0.025 against an initial distance 0.0976 above the
    # clearance: the loop scans, accepts or rejects, and runs on the bound
    obstacle = circle((0, 0, 0), 1.0, Z, 64)
    knot = fl.make_torus_knot(1, 2, 1.0, 0.4, 64)
    spec = fl.DeformationSpec(amplitude=1.0, n_modes=3, seed=0, steps=40,
                              clearance=0.3)
    expected = _deform_scanning_every_attempt(knot, obstacle, spec, move_b)
    lb = fl.min_distance(knot, obstacle)
    scans = _counted(monkeypatch, "min_distance")
    _assert_same_states([s for [s] in curves._deform(knot, obstacle, spec, move_b, lb)],
                        expected)
    assert scans[0] == scans_made


def test_deform_far_from_the_origin_keeps_clearance():
    shift = np.array([1e6, 0.0, 0.0])
    obstacle, path = (fl.ClosedCurve(c.points + shift) for c in hopf_pair(128))
    spec = fl.DeformationSpec(amplitude=0.2, n_modes=3, seed=2, steps=20,
                              clearance=0.05)
    states = [s for [s] in curves._deform(path, obstacle, spec, False,
                                          fl.min_distance(path, obstacle))]
    _assert_same_states(states, _deform_scanning_every_attempt(path, obstacle, spec))
    for s, _ in states:
        assert _unpruned_min(*s.segments(), *obstacle.segments()) > 0.05


def test_min_distance_coaxial_circles():
    a = circle((0, 0, 0), 1.0, Z, 512)
    b = circle((0, 0, 5), 1.0, Z, 512)
    assert abs(fl.min_distance(a, b) - 5.0) < 1e-9


def test_min_distance_self_is_zero():
    a = circle((0, 0, 0), 1.0, Z, 256)
    assert fl.min_distance(a, a) == 0.0


def test_min_distance_hopf_positive_and_matches_brute_force():
    a, b = hopf_pair(256)
    d = fl.min_distance(a, b)
    assert d > 0.5
    # the dense point-cloud scan can only overestimate the true minimum
    assert d <= brute_min_distance(a, b) + 1e-12
    assert abs(d - brute_min_distance(a, b, samples=24)) < 1e-3


def test_min_distance_thread_count_invariant(started_threads):
    # threads is accepted and unused: the scan starts no thread
    a, b = hopf_pair(512)
    assert fl.min_distance(a, b, threads=4) == _unpruned_min(*a.segments(), *b.segments())
    assert started_threads == []


def test_curve_io_roundtrip(tmp_path):
    c = fl.make_torus_knot(2, 3, 2.0, 0.5, 128)
    path = tmp_path / "knot.json"
    fl.save_curve(c, path)
    back = fl.load_curve(path)
    assert np.array_equal(back.points, c.points)


def test_curve_io_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"points": [[0, 0, 0], [1, 1, ]]}')
    with pytest.raises(fl.SchemaError) as err:
        fl.load_curve(path)
    assert "line" in str(err.value)


def test_curve_io_wrong_shape(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"points": [[0.0, 0.0], [1.0, 0.0]]}))
    with pytest.raises(fl.SchemaError):
        fl.load_curve(path)


@pytest.mark.parametrize("coordinate", [True, False, "1.5"])
def test_curve_io_rejects_coerced_coordinates(tmp_path, coordinate):
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps({"points": [[coordinate, 0, 0], [1, 0, 0], [0, 1, 0]]}))
    with pytest.raises(fl.SchemaError, match="coerced.json: coordinates must be numbers"):
        fl.load_curve(path)


def test_curve_io_significant_digits(tmp_path):
    c = circle((0, 0, 0), 1.0, Z, 64)
    path = tmp_path / "circle.json"
    fl.save_curve(c, path)
    parsed = np.asarray(json.loads(path.read_text())["points"])
    # writer must keep >= 15 significant digits on every coordinate
    assert np.abs(parsed - c.points).max() < 1e-15
