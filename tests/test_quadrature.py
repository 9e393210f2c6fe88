"""The one Biot-Savart kernel: every line-integral form reads the same sum."""
import tracemalloc

import numpy as np
import pytest

import fluxline as fl
from conftest import Y, Z, circle, hopf_pair, perturbed, random_pair
from fluxline import quadrature
from fluxline.abphase import PhaseParams, ab_phase_circulation, ab_phase_solid_angle
from fluxline.field import potential_at
from fluxline.quadrature import biot_savart, linking_integral, periodic_midpoints


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


def native_sum(path, curve):
    """The linking sum at both curves' own nodes, without truncation."""
    mp, wp = periodic_midpoints(path)
    mc, wc = periodic_midpoints(curve)
    return float(np.einsum("ij,ij->", biot_savart(mc, wc, mp), wp)) / (4.0 * np.pi)


@pytest.fixture
def kernel_pairs(monkeypatch):
    """rows * cols of every `biot_savart` call that `linking_integral` makes."""
    pairs = []

    def counted(mids, w, xs, threads=None):
        pairs.append(np.atleast_2d(xs).shape[0] * mids.shape[0])
        return biot_savart(mids, w, xs, threads=threads)

    monkeypatch.setattr(quadrature, "biot_savart", counted)
    return pairs


def band_limited(name, n):
    """(path, curve) points of trigonometric polynomials of low degree."""
    if name == "circles":
        rng = np.random.default_rng(0)
        return (perturbed(circle((0, 0, 0), 1.0, Z, n), rng, 0.1, modes=2).points,
                perturbed(circle((1, 0, 0), 1.0, Y, n), rng, 0.1, modes=2).points)
    return circle((0, 0, 0), 1.0, Z, n).points, fl.make_torus_knot(1, 2, 1.0, 0.4, n).points


@pytest.mark.parametrize("n", [256, 512, 1024, 2048])
@pytest.mark.parametrize("name, m", [("circles", 128), ("torus", 256)])
def test_band_limited_pairs_sum_at_m_nodes(kernel_pairs, name, m, n):
    path, curve = band_limited(name, n)
    raw = linking_integral(path, curve)
    assert abs(raw - native_sum(path, curve)) <= 1e-12
    # the doublings 64, 128, ... m, against n * n = 4.2M pairs at n = 2048
    assert sum(kernel_pairs) <= sum(k * k for k in (64, 128, 256) if k <= m)


def square(per_edge):
    """The square [-1, 1]^2 in z = 0, per_edge points an edge."""
    e = np.linspace(-1.0, 1.0, per_edge + 1)[:-1]
    one, zero = np.ones(per_edge), np.zeros(per_edge)
    return np.concatenate([
        np.column_stack([e, -one, zero]), np.column_stack([one, e, zero]),
        np.column_stack([-e, one, zero]), np.column_stack([-one, -e, zero]),
    ])


def native_case(name):
    """(path, curve, pairs the doublings may add) of a pair that keeps the native sum."""
    if name == "square-circle":
        # the benchmark's pair: 32 and 64 points, fewer than 256
        theta = 2.0 * np.pi * np.arange(64) / 64
        small = np.column_stack([0.7 + 0.1 * np.cos(theta), np.full(64, 1.025),
                                 -0.1 * np.sin(theta)])
        return square(8), small, 0
    if name == "polygon":
        # a square of 1024 points threaded by a circle: not band-limited
        return square(256), circle((1, 0, 0), 0.5, Y, 1024).points, 0
    if name == "random":
        # curves 0.11 apart: the doubled sums do not agree by 512 nodes
        a, b = random_pair(1004)
        return a.points, b.points, 1024 * 1024 / 3
    # circles 1e-3 apart at 2048 nodes
    return (circle((0, 0, 0), 1.0, Z, 2048).points, circle((1.501, 0, 0), 0.5, Y, 2048).points,
            2048 * 2048 / 3)


@pytest.mark.parametrize("name", ["square-circle", "polygon", "random", "near"])
def test_other_pairs_keep_the_native_sum(kernel_pairs, name):
    path, curve, extra = native_case(name)
    assert linking_integral(path, curve) == native_sum(path, curve)
    assert sum(kernel_pairs) <= len(path) * len(curve) + extra


@pytest.mark.parametrize("name", ["circles", "torus"])
def test_truncated_sum_is_antisymmetric_and_symmetric(name):
    path, curve = band_limited(name, 1024)
    raw = linking_integral(path, curve)
    assert abs(linking_integral(path[::-1], curve) + raw) <= 1e-12
    assert abs(linking_integral(curve, path) - raw) <= 1e-12


def test_linking_sum_does_not_depend_on_threads():
    a, b = random_pair(1004)
    for path, curve in (band_limited("circles", 2048), (a.points, b.points)):
        assert linking_integral(path, curve, threads=1) == linking_integral(path, curve, threads=2)
