"""The one Biot-Savart kernel: every line-integral form reads the same sum."""
import tracemalloc

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


def long_double_sum(mids, w, xs):
    """The pair sum taken directly, in np.longdouble."""
    mids, w, xs = (np.asarray(a, dtype=np.longdouble) for a in (mids, w, xs))
    r = xs[:, None, :] - mids[None, :, :]
    inv_r3 = np.einsum("ijk,ijk->ij", r, r) ** np.longdouble(-1.5)
    return np.einsum("ijk,ij->ik", np.cross(w[None, :, :], r), inv_r3)


@pytest.mark.parametrize("shift", [0.0, 1e7])
def test_kernel_accuracy_near_the_far_side_of_the_curve(shift):
    # the kernel factors the sum about mids[0]; its rounding is worst at
    # points near the curve and far from that node
    n = 1024
    mids, w = periodic_midpoints(circle((shift, shift, shift), 1.0, Z, n).points)
    far = np.arange(n // 4, 3 * n // 4)
    outward = mids[far] - shift
    outward /= np.linalg.norm(outward, axis=1)[:, None]
    d_over_diameter = np.geomspace(1.0, 1e-4, 5)
    xs = mids[far] + 2.0 * np.resize(d_over_diameter, far.size)[:, None] * outward
    assert xs.shape[0] > 256
    across = mids[n // 2] + 2e-4 * outward[n // 4]
    for got, pts in ((biot_savart(mids, w, xs), xs), (biot_savart(mids, w, across), [across])):
        want = long_double_sum(mids, w, pts)
        rel = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
        assert rel.max() <= 1e-10


def test_one_kernel_block_builds_no_pair_by_3_array():
    n = 4096
    mids, w = periodic_midpoints(circle((0, 0, 0), 1.0, Z, n).points)
    xs = mids[:256] * 1.5
    tracemalloc.start()
    try:
        biot_savart(mids, w, xs, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a (256, n, 3) float array alone is 24 MiB
    assert peak < 40 * 2**20


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
