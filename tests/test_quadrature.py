"""The one Biot-Savart kernel: every line-integral form reads the same sum."""
import numpy as np
import pytest

import fluxline as fl
from conftest import Z, circle, hopf_pair
from fluxline.abphase import PhaseParams, ab_phase_circulation, ab_phase_solid_angle
from fluxline.field import potential_at
from fluxline.quadrature import biot_savart, periodic_midpoints


def preset(name, n=256):
    """(flux curve, path) of the command line's built-in configurations."""
    if name == "hopf":
        return hopf_pair(n)
    unit = circle((0, 0, 0), 1.0, Z, n)
    if name == "unlinked":
        return unit, circle((4, 0, 3), 1.0, Z, n)
    return unit, fl.make_torus_knot(1, 2, 1.0, 0.4, n)


def test_kernel_matches_a_plain_loop():
    mids, w = periodic_midpoints(circle((0, 0, 0), 1.0, Z, 32).points)
    xs = np.array([[0.1, 0.2, 0.5], [2.0, -1.0, 0.3]])
    want = [sum(np.cross(w[j], x - mids[j]) / np.linalg.norm(x - mids[j]) ** 3
                for j in range(len(mids))) for x in xs]
    assert np.allclose(biot_savart(mids, w, xs), want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("name", ["hopf", "l2", "unlinked"])
def test_gauss_linking_raw_is_the_unit_flux_circulation(name):
    flux_curve, path = preset(name)
    raw = fl.gauss_linking(path, flux_curve).raw
    assert raw == fl.circulation(fl.FluxLine(flux_curve, 1.0), path)


@pytest.mark.parametrize("name", ["hopf", "l2", "unlinked"])
def test_solid_angle_form_is_the_circulation_form(name):
    flux_curve, path = preset(name)
    f = fl.FluxLine(flux_curve, 2.5)
    p = PhaseParams(alpha=0.7)
    assert ab_phase_solid_angle(p, path, f) == ab_phase_circulation(p, f, path)


def test_potential_is_exactly_the_scaled_solid_angle_gradient():
    f = fl.FluxLine(circle((0, 0, 0), 1.0, Z, 256), 1.3)
    rng = np.random.default_rng(5)
    for x in rng.uniform(-2.0, 2.0, size=(8, 3)):
        assert fl.potential_gradient_identity(f, x) == 0.0


def test_threads_do_not_change_circulation_or_potential():
    flux_curve, path = hopf_pair(600)
    f = fl.FluxLine(flux_curve, 1.0)
    assert fl.circulation(f, path, threads=1) == fl.circulation(f, path, threads=2)
    xs = path.points + 0.01
    assert np.array_equal(potential_at(f, xs, threads=1), potential_at(f, xs, threads=2))
