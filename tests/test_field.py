"""Vector potential, circulation, counted flux, and differential identities."""
import numpy as np
import pytest

import fluxline as fl
from conftest import Y, Z, circle, hopf_pair, on_axis_potential_magnitude
from fluxline.quadrature import biot_savart


def square_loop_xz(center, side, n_per_side=32):
    """Small square in the xz-plane, right-handed about -y."""
    h = side / 2.0
    t = np.linspace(0.0, 1.0, n_per_side, endpoint=False)[:, None]
    sides = [
        np.hstack([-h + side * t, 0 * t, -h + 0 * t]),
        np.hstack([h + 0 * t, 0 * t, -h + side * t]),
        np.hstack([h - side * t, 0 * t, h + 0 * t]),
        np.hstack([-h + 0 * t, 0 * t, h - side * t]),
    ]
    return fl.ClosedCurve(np.vstack(sides) + np.asarray(center, dtype=float))


def test_on_axis_potential_matches_loop_form(unit_flux_line):
    for z in (0.0, 0.5, 2.0):
        a = fl.vector_potential(unit_flux_line, np.array([0.0, 0.0, z]))
        assert abs(a[2] - on_axis_potential_magnitude(1.0, 1.0, z)) < 1e-6
        assert abs(a[0]) < 1e-12 and abs(a[1]) < 1e-12


def test_potential_linear_in_flux():
    c = circle((0, 0, 0), 1.0, Z, 512)
    x = np.array([0.4, -0.2, 0.9])
    a1 = fl.vector_potential(fl.FluxLine(c, 1.0), x)
    a25 = fl.vector_potential(fl.FluxLine(c, 2.5), x)
    assert np.abs(a25 - 2.5 * a1).max() < 1e-15


def test_far_field_decay_ratio(unit_flux_line):
    u = np.array([1.0, 0.3, 0.5])
    u /= np.linalg.norm(u)
    for r in (25.0, 50.0):
        ratio = (np.linalg.norm(fl.vector_potential(unit_flux_line, r * u))
                 / np.linalg.norm(fl.vector_potential(unit_flux_line, 2 * r * u)))
        assert abs(ratio - 8.0) < 0.4


def test_far_field_log_slope(unit_flux_line):
    u = np.array([0.2, 1.0, 0.4])
    u /= np.linalg.norm(u)
    rs = np.array([20.0, 35.0, 60.0, 100.0])
    mags = [np.linalg.norm(fl.vector_potential(unit_flux_line, r * u)) for r in rs]
    slope = np.polyfit(np.log(rs), np.log(mags), 1)[0]
    assert abs(slope + 3.0) < 0.06


def test_potential_guard_near_curve(unit_flux_line):
    with pytest.raises(fl.GeometryError):
        fl.vector_potential(unit_flux_line, np.array([1.0, 0.0, 0.0]))



@pytest.mark.parametrize("scale", [1e-110, 1e70, 1e80, 1e160])
def test_potential_counts_or_names_the_coordinate_size(scale):
    # a 1024-point unit circle, scaled: at 1e160 the potential read
    # [0, 0, nan] with only RuntimeWarnings, its squared distances overflowed;
    # at 1e-110 it read [nan, nan, nan], its r^-3 overflowed
    unit = fl.FluxLine(circle((0, 0, 0), 1.0, Z, 1024), 1.0)
    line = fl.FluxLine(fl.ClosedCurve(unit.curve.points * scale), 1.0)
    x = np.array([0.1, 0.2, 0.5])
    with np.errstate(all="raise"):
        if scale < 1.0:
            with pytest.raises(fl.GeometryError, match="pair sum is not finite on a curve 2e-110"):
                fl.vector_potential(line, np.array([0.0, 0.0, scale]))
            return
        if scale < fl.quadrature.MAX_COORDINATE:
            np.testing.assert_allclose(fl.vector_potential(line, x * scale) * scale,
                                       fl.vector_potential(unit, x), rtol=1e-12, atol=1e-15)
            return
        size = f"curve coordinates reach 1e\\+{round(np.log10(scale))}, above 1e\\+72"
        with pytest.raises(fl.GeometryError, match=size):
            fl.vector_potential(line, x * scale)


def guard_sweep(c, rng, count=240):
    """Points 1e-9 to 10^0.5 from points of c's polyline, a third of them
    within 10% of the guard, 1e-6 diameters."""
    p0, d = c.segments()
    k = rng.integers(c.n, size=count)
    on_line = p0[k] + rng.uniform(size=(count, 1)) * d[k]
    dist = 10.0 ** rng.uniform(-9.0, 0.5, size=count)
    dist[::3] = 1e-6 * c.diameter() * rng.uniform(0.9, 1.1, size=dist[::3].size)
    v = rng.normal(size=(count, 3))
    return on_line + dist[:, None] * v / np.linalg.norm(v, axis=1)[:, None]


@pytest.mark.parametrize("make", [
    lambda: circle((0, 0, 0), 1.0, Z, 1024),
    lambda: circle((3, -2, 1), 0.7, Y, 333),
    lambda: square_loop_xz((0.5, 0.2, -0.1), 2.0),
])
def test_potential_refuses_exactly_inside_the_guard(make):
    c = make()
    f = fl.FluxLine(c, 1.3)
    guard = fl.field._guard_bound(c)
    refused = 0
    for x in guard_sweep(c, np.random.default_rng(c.n)):
        if fl.curves.distance_to_curve(x, c) <= guard:
            refused += 1
            with pytest.raises(fl.GeometryError, match="too close"):
                fl.vector_potential(f, x)
        else:
            want = biot_savart(*c.nodes, x)[0] * (f.flux / (4.0 * np.pi))
            assert np.array_equal(fl.vector_potential(f, x), want)
    # both sides of the guard are exercised
    assert 40 < refused < 200


def test_probes_beyond_the_guard_evaluate_no_segment(monkeypatch):
    rows = []
    evaluate = fl.curves.point_segment_distance

    def counted(x, p0, d):
        rows.append(p0.shape[0])
        return evaluate(x, p0, d)

    monkeypatch.setattr(fl.curves, "point_segment_distance", counted)
    f = fl.FluxLine(circle((0, 0, 0), 1.0, Z, 1024), 1.0)
    rng = np.random.default_rng(7)
    phi, psi = rng.uniform(0.0, 2.0 * np.pi, size=(2, 50))
    # 0.1 from the line in any direction, and the near probes 1e-3 outside it
    rho = 1.0 + 0.1 * np.cos(psi)
    points = [*np.column_stack([rho * np.cos(phi), rho * np.sin(phi), 0.1 * np.sin(psi)]),
              (1.001, 0.0, 0.0), (1.003, 0.0, 0.0)]
    for x in points:
        fl.vector_potential(f, x)
    assert rows == []
    # the exact distance, which the finite-difference warning takes, scans them all
    fl.curves.distance_to_curve(np.array(points[0]), f.curve)
    assert rows == [1024]


def test_tiny_dipole_far_field():
    side = 1e-2
    sq = fl.ClosedCurve(np.array([
        [side / 2, side / 2, 0.0], [-side / 2, side / 2, 0.0],
        [-side / 2, -side / 2, 0.0], [side / 2, -side / 2, 0.0],
    ]))
    f = fl.FluxLine(sq, 1.0)
    x = np.array([1.3, -0.7, 0.9])
    area_vec = np.array([0.0, 0.0, side * side])
    dipole = np.cross(area_vec, x) / (4.0 * np.pi * np.linalg.norm(x) ** 3)
    assert np.linalg.norm(fl.vector_potential(f, x) - dipole) < 1e-5


def test_circulation_hopf(unit_flux_line):
    path = circle((1, 0, 0), 1.0, Y, 1024)
    circ = fl.circulation(unit_flux_line, path)
    assert abs(circ - 1.0) < 1e-4
    assert abs(fl.circulation(unit_flux_line, path.reversed()) + 1.0) < 1e-4


def test_circulation_non_enclosing(unit_flux_line):
    far = circle((4, 0, 3), 1.0, Z, 512)
    assert abs(fl.circulation(unit_flux_line, far)) < 1e-6


def test_circulation_double_winding(unit_flux_line):
    knot = fl.make_torus_knot(1, 2, 1.0, 0.4, 1024)
    surf = fl.span_surface(unit_flux_line.curve)
    assert fl.crossing_linking(knot, surf) == 2
    assert abs(fl.circulation(unit_flux_line, knot) - 2.0) < 1e-4


def test_circulation_linear_in_flux():
    c = circle((0, 0, 0), 1.0, Z, 512)
    path = circle((1, 0, 0), 1.0, Y, 512)
    c1 = fl.circulation(fl.FluxLine(c, 1.0), path)
    c25 = fl.circulation(fl.FluxLine(c, 2.5), path)
    assert abs(c25 - 2.5 * c1) < 1e-12


def test_circulation_touching_rejected(unit_flux_line):
    # coplanar circle crossing the flux circle at two points
    through = circle((1, 0, 0), 0.5, Z, 128)
    with pytest.raises(fl.GeometryError):
        fl.circulation(unit_flux_line, through)


def test_flux_through_pierced_disk(unit_flux_line):
    disk = fl.span_surface(circle((1.2, 0, 0), 2.0, Y, 512))
    assert fl.flux_through(unit_flux_line, disk) == 1.0


def test_flux_through_far_surface(unit_flux_line):
    disk = fl.span_surface(circle((30, 0, 0), 1.0, Z, 128))
    assert fl.flux_through(unit_flux_line, disk) == 0.0


def test_flux_equals_circulation_stokes(unit_flux_line):
    path = circle((1, 0, 0), 1.0, Y, 1024)
    flux = fl.flux_through(unit_flux_line, fl.span_surface(path))
    circ = fl.circulation(unit_flux_line, path)
    assert abs(flux - circ) < 1e-4


def test_divergence_vanishes_at_random_points(unit_flux_line):
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.normal(size=3)
        x = u / np.linalg.norm(u) * rng.uniform(1.6, 3.0)
        a = fl.vector_potential(unit_flux_line, x)
        bound = 1e-4 * max(np.linalg.norm(a), 1.0)
        assert abs(fl.divergence_check(unit_flux_line, x, 1e-3)) < bound


def test_divergence_on_axis(unit_flux_line):
    assert abs(fl.divergence_check(unit_flux_line, np.array([0.0, 0.0, 1.5]),
                                   1e-3)) < 1e-4


def test_divergence_second_order_in_h(unit_flux_line):
    x = np.array([1.7, 0.4, 0.9])
    r1 = abs(fl.divergence_check(unit_flux_line, x, 2e-3))
    r2 = abs(fl.divergence_check(unit_flux_line, x, 1e-3))
    assert 3.2 < r1 / r2 < 4.8


def test_curl_vanishes_off_curve(unit_flux_line):
    rng = np.random.default_rng(13)
    for _ in range(20):
        u = rng.normal(size=3)
        x = u / np.linalg.norm(u) * rng.uniform(1.6, 3.0)
        a = fl.vector_potential(unit_flux_line, x)
        bound = 1e-4 * max(np.linalg.norm(a), 1.0)
        assert np.linalg.norm(fl.curl_check(unit_flux_line, x, 1e-3)) < bound


def test_small_loop_circulation_stokes(unit_flux_line):
    # tiny loop in a curl-free region
    away = square_loop_xz((0.5, 0.4, 0.8), 1e-2)
    assert abs(fl.circulation(unit_flux_line, away)) < 1e-8
    # translated to embrace the flux line: full flux regardless of loop size;
    # the smallest loop sits closer to the wire than one N=1024 segment, so
    # it needs a curve sampling finer than its standoff distance
    around = square_loop_xz((1.0, 0.0, 0.0), 3e-2, n_per_side=64)
    assert abs(abs(fl.circulation(unit_flux_line, around)) - 1.0) < 1e-3
    dense = fl.FluxLine(circle((0, 0, 0), 1.0, Z, 8192), 1.0)
    tiny = square_loop_xz((1.0, 0.0, 0.0), 1e-2)
    assert abs(abs(fl.circulation(dense, tiny)) - 1.0) < 1e-3


def test_coarse_step_warns(unit_flux_line):
    with pytest.warns(UserWarning):
        fl.divergence_check(unit_flux_line, np.array([0.0, 0.0, 1.02]), 0.5)


def test_potential_gradient_identity_random_points(unit_flux_line):
    rng = np.random.default_rng(17)
    surf = fl.span_surface(unit_flux_line.curve)
    checked = 0
    while checked < 20:
        u = rng.normal(size=3)
        x = u / np.linalg.norm(u) * rng.uniform(0.5, 3.0)
        if fl.surface_point_distance(x, surf) < 0.05:
            continue
        checked += 1
        assert fl.potential_gradient_identity(unit_flux_line, x) < 1e-6


def test_potential_gradient_identity_axial(unit_flux_line):
    for z in (0.5, 1.0, 2.0):
        res = fl.potential_gradient_identity(unit_flux_line,
                                             np.array([0.0, 0.0, z]))
        assert res < 1e-9


def test_gradient_identity_fd_variant(unit_flux_line, unit_disk):
    # independent check: A against central differences of the solid angle
    rng = np.random.default_rng(19)
    h = 1e-4
    lam = unit_flux_line.flux / (4.0 * np.pi)
    checked = 0
    while checked < 10:
        u = rng.normal(size=3)
        x = u / np.linalg.norm(u) * rng.uniform(0.6, 2.5)
        if fl.surface_point_distance(x, unit_disk) < 10 * h:
            continue
        checked += 1
        a = fl.vector_potential(unit_flux_line, x)
        fd = np.empty(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd[k] = (fl.solid_angle(x + e, unit_disk)
                     - fl.solid_angle(x - e, unit_disk)) / (2 * h)
        assert np.linalg.norm(a - lam * fd) < 1e-3 * max(np.linalg.norm(a), 1e-30)


def test_gradient_identity_fd_variant_breaks_at_surface(unit_flux_line, unit_disk):
    # just off the surface interior the jump contaminates the stencil, which
    # is exactly why such points must be excluded by a proximity guard
    x = np.array([0.3, 0.0, 1e-5])
    h = 1e-4
    a = fl.vector_potential(unit_flux_line, x)
    lam = unit_flux_line.flux / (4.0 * np.pi)
    e = np.array([0.0, 0.0, h])
    fd_z = (fl.solid_angle(x + e, unit_disk) - fl.solid_angle(x - e, unit_disk)) / (2 * h)
    assert np.linalg.norm(a[2] - lam * fd_z) > 100.0 * np.linalg.norm(a)


def test_flux_line_validation():
    c = circle((0, 0, 0), 1.0, Z, 64)
    with pytest.raises(fl.GeometryError):
        fl.FluxLine(c, np.inf)
    with pytest.raises(fl.GeometryError, match="FluxLine.curve must be a ClosedCurve"):
        fl.FluxLine(c.points, 1.0)
