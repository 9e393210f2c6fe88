"""Surface gauge, open-path gauge dependence, singular-gauge demos."""
import warnings

import numpy as np
import pytest

import fluxline as fl
from conftest import Y, Z, circle, hopf_pair
from fluxline.gauge import (
    SolenoidConfig,
    open_path_gauge_shift,
    singular_gauge_closed_line_demo,
    solenoid_potential,
    solenoid_singular_gauge_demo,
    surface_gauge_circulation,
)


def test_surface_gauge_hopf_exact(unit_flux_line, unit_disk):
    path = circle((1, 0, 0), 1.0, Y, 1024)
    assert surface_gauge_circulation(unit_flux_line, unit_disk, path) == 1.0


def test_surface_gauge_matches_coulomb(unit_flux_line, unit_disk):
    path = circle((1, 0, 0), 1.0, Y, 1024)
    coulomb = fl.circulation(unit_flux_line, path)
    surface = surface_gauge_circulation(unit_flux_line, unit_disk, path)
    assert abs(surface - coulomb) < 1e-4

    knot = fl.make_torus_knot(1, 2, 1.0, 0.4, 1024)
    assert abs(surface_gauge_circulation(unit_flux_line, unit_disk, knot)
               - fl.circulation(unit_flux_line, knot)) < 1e-4

    f25 = fl.FluxLine(unit_flux_line.curve, 2.5)
    assert abs(surface_gauge_circulation(f25, unit_disk, path)
               - fl.circulation(f25, path)) < 2.5e-4


def test_surface_gauge_non_crossing_zero(unit_flux_line, unit_disk):
    far = circle((4, 0, 3), 1.0, Z, 256)
    assert surface_gauge_circulation(unit_flux_line, unit_disk, far) == 0.0


def test_open_path_closed_gamma_no_shift(unit_flux_line):
    t = np.linspace(0.0, 2.0 * np.pi, 128)
    gamma = np.stack([1.5 + 0.3 * np.cos(t), 0.3 * np.sin(t),
                      0.5 + 0.0 * t], axis=1)
    gamma[-1] = gamma[0]
    plain, transformed = open_path_gauge_shift(unit_flux_line, gamma)
    assert transformed == plain


def test_open_complementary_paths_compose_full_circulation(unit_flux_line):
    enclosing = circle((1, 0, 0), 1.0, Y, 1024)
    pts = enclosing.points
    # split away from the spanning disk: endpoints at (1, 0, -1) and (1, 0, 1)
    first = pts[256:769]
    second = np.vstack([pts[768:], pts[:257]])
    p1, t1 = open_path_gauge_shift(unit_flux_line, first)
    p2, t2 = open_path_gauge_shift(unit_flux_line, second)
    # per-segment midpoint sums rejoin the closed-loop value at O(h^2)
    circ = fl.circulation(unit_flux_line, enclosing)
    assert abs((p1 + p2) - circ) < 1e-4
    # the gauge terms at the two shared endpoints cancel exactly
    assert abs((t1 + t2) - (p1 + p2)) < 1e-12
    assert abs((p1 + p2) - 1.0) < 1e-4


def test_open_path_gauge_dependence_matches_solid_angle(unit_flux_line, unit_disk):
    start = np.array([1.5, 0.0, -1.0])
    end = np.array([1.4, 0.2, 1.3])
    gamma = start + np.linspace(0.0, 1.0, 64)[:, None] * (end - start)
    plain, transformed = open_path_gauge_shift(unit_flux_line, gamma)
    lam = -unit_flux_line.flux / (4.0 * np.pi)
    delta = fl.solid_angle(end, unit_disk) - fl.solid_angle(start, unit_disk)
    assert abs((transformed - plain) - lam * delta) < 1e-6
    assert abs(transformed - plain) > 1e-3


def test_open_path_endpoint_on_surface_rejected(unit_flux_line):
    gamma = np.stack([np.linspace(0.3, 2.0, 32), np.zeros(32), np.zeros(32)],
                     axis=1)
    with pytest.raises(fl.GeometryError):
        open_path_gauge_shift(unit_flux_line, gamma)


def test_open_path_touching_curve_rejected(unit_flux_line):
    gamma = np.stack([np.linspace(0.0, 2.0, 64), np.zeros(64),
                      np.full(64, 1e-12)], axis=1)
    with pytest.raises(fl.GeometryError):
        open_path_gauge_shift(unit_flux_line, gamma)


def test_open_path_touching_curve_in_last_block_rejected(unit_flux_line):
    # 299 segments from z = 5 down to z = -0.1 through the flux line's vertex
    # (1, 0, 0), which segment 293 reaches: only the second 256-row block touches
    gamma = np.column_stack([np.ones(300), np.zeros(300), np.linspace(5.0, -0.1, 300)])
    open_path_gauge_shift(unit_flux_line, gamma[:257])
    with pytest.raises(fl.GeometryError, match="touches"):
        open_path_gauge_shift(unit_flux_line, gamma)


def test_open_path_validation(unit_flux_line):
    with pytest.raises(fl.GeometryError):
        open_path_gauge_shift(unit_flux_line, np.zeros((1, 3)))
    dup = np.array([[2.0, 0, 0], [2.0, 0, 0], [2.0, 1, 0]])
    with pytest.raises(fl.GeometryError):
        open_path_gauge_shift(unit_flux_line, dup)
    with pytest.raises(fl.GeometryError, match="open path points must be finite"):
        open_path_gauge_shift(unit_flux_line, [[2.0, 0, 0], [2.0, np.nan, 0]])


def test_solenoid_potential_profile():
    s = SolenoidConfig(R=1.0, flux=1.0)
    assert abs(solenoid_potential(s, 2.0) - 1.0 / (4.0 * np.pi)) < 1e-15
    inner = solenoid_potential(s, 1.0 - 1e-12)
    outer = solenoid_potential(s, 1.0 + 1e-12)
    assert abs(inner - outer) < 1e-9
    assert solenoid_potential(s, 0.0) == 0.0
    assert abs(solenoid_potential(s, 0.5) - 1.0 / (4.0 * np.pi)) < 1e-15
    with pytest.raises(fl.GeometryError, match="rho must be finite and >= 0"):
        solenoid_potential(s, -0.5)


def test_solenoid_config_validation():
    with pytest.raises(fl.GeometryError):
        SolenoidConfig(R=0.0, flux=1.0)
    with pytest.raises(fl.GeometryError):
        SolenoidConfig(R=1.0, flux=np.nan)


def test_solenoid_demo_single_turn():
    s = SolenoidConfig(R=1.0, flux=1.0)
    rec = solenoid_singular_gauge_demo(s, 2.0, 1)
    assert abs(rec["circ_A"] - 1.0) < 1e-8
    assert rec["circ_Aprime"] == 0.0
    assert abs(rec["string_flux"] + 1.0) < 1e-8
    assert rec["winding"] == 1


def test_solenoid_demo_three_turns_linear():
    s = SolenoidConfig(R=1.0, flux=1.0)
    rec = solenoid_singular_gauge_demo(s, 2.0, 3)
    assert abs(rec["circ_A"] - 3.0) < 1e-8
    assert abs(rec["string_flux"] + 3.0) < 1e-8
    assert rec["winding"] == 3


def test_solenoid_demo_non_enclosing():
    s = SolenoidConfig(R=1.0, flux=1.0)
    rec = solenoid_singular_gauge_demo(s, 3.0, 0)
    assert abs(rec["circ_A"]) < 1e-8
    assert rec["circ_Aprime"] == 0.0
    assert abs(rec["string_flux"]) < 1e-8
    assert rec["winding"] == 0


@pytest.mark.parametrize("turns, n", [(511, 1024), (-511, 1024), (7, 16)])
def test_solenoid_demo_winding_up_to_half_the_samples(turns, n):
    rec = solenoid_singular_gauge_demo(SolenoidConfig(R=1.0, flux=1.0), 2.0, turns, n=n)
    assert rec["winding"] == turns
    assert abs(rec["circ_A"] - turns) < 1e-8 * abs(turns)


@pytest.mark.parametrize("turns, n", [(512, 1024), (-512, 1024), (8, 16)])
def test_solenoid_demo_rejects_half_a_turn_per_sample(turns, n):
    # at half a turn per sample the vertex-angle unwrap cannot tell the
    # direction of a step, and the winding count came out wrong
    with pytest.raises(fl.GeometryError, match="samples per turn"):
        solenoid_singular_gauge_demo(SolenoidConfig(R=1.0, flux=1.0), 2.0, turns, n=n)


def test_solenoid_demo_inside_rejected():
    s = SolenoidConfig(R=1.0, flux=1.0)
    with pytest.raises(fl.GeometryError):
        solenoid_singular_gauge_demo(s, 0.5, 1)
    with pytest.raises(fl.GeometryError, match="at least 16 quadrature samples"):
        solenoid_singular_gauge_demo(s, 2.0, 1, n=15)


@pytest.mark.parametrize("R, rho0, turns", [(1.0, 1.7e308, 1), (1e-310, 2e-310, 1),
                                            (1e-320, 2e-310, 3), (1e-300, 1e300, 0),
                                            (1e-300, 1e300, 2)])
def test_solenoid_demo_at_the_ends_of_the_float_range(R, rho0, turns):
    # built in raw units, the loop's potential underflowed to 0 at rho0 =
    # 1.7e308 (circ_A 0.0), and its squared radius flushed to 0 at rho0 =
    # 2e-310 (circ_A nan, with a RuntimeWarning); at unit scale neither can
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = solenoid_singular_gauge_demo(SolenoidConfig(R=R, flux=0.7), rho0, turns)
    assert rec["winding"] == turns
    assert abs(rec["circ_A"] - 0.7 * turns) < 1e-12
    assert rec["string_flux"] == -rec["circ_A"]


@pytest.mark.parametrize("n", [18, 1024, 1026])
def test_solenoid_demo_non_enclosing_loop_next_to_the_solenoid(n):
    # rho0 one ulp above R: a loop of radius (rho0 - R)/2 about (rho0, 0, 0)
    # in the plane z = 0 has its points round onto rho0 in x, and when n/2
    # is odd the two about y = r coincide, which a ClosedCurve refuses
    rec = solenoid_singular_gauge_demo(SolenoidConfig(R=1.0, flux=1.0),
                                       float(np.nextafter(1.0, 2.0)), 0, n=n)
    assert rec["winding"] == 0
    assert abs(rec["circ_A"]) < 1e-12


@pytest.mark.parametrize("turns, n", [(1, 1024), (0, 1024), (-3, 64), (7, 16)])
def test_solenoid_demo_record_is_the_same_at_any_scale(turns, n):
    # the loop is built on rho0 scaled by a power of 2, so scaling R and
    # rho0 by 2^k, while they stay normal, keeps every bit of the record
    want = solenoid_singular_gauge_demo(SolenoidConfig(R=0.7, flux=1.3), 1.9, turns, n=n)
    for k in (-1020, -600, -1, 1, 600, 1022):
        s = SolenoidConfig(R=np.ldexp(0.7, k), flux=1.3)
        assert solenoid_singular_gauge_demo(s, np.ldexp(1.9, k), turns, n=n) == want, k


def test_closed_line_demo_hopf(unit_flux_line):
    path = circle((1, 0, 0), 1.0, Y, 1024)
    rec = singular_gauge_closed_line_demo(unit_flux_line, path)
    assert abs(rec["before"] - 1.0) < 1e-4
    assert rec["after"] == 0.0
    # the counted flux is what the broken invariance destroys
    assert abs(rec["before"] - fl.flux_through(
        unit_flux_line, fl.span_surface(path))) < 1e-4


def test_closed_line_demo_non_enclosing(unit_flux_line):
    path = circle((4, 0, 3), 1.0, Z, 256)
    rec = singular_gauge_closed_line_demo(unit_flux_line, path)
    assert abs(rec["before"]) < 1e-6
    assert rec["after"] == 0.0
