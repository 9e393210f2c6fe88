"""Tests of the benchmark's own oracles and inputs; none of them imports fluxline."""
import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
import workloads

Z = np.array([0.0, 0.0, 1.0])
X, Y = np.eye(3)[0], np.eye(3)[1]


def circle(center, e1, e2, radius=1.0, n=256):
    return workloads._circle(center, np.asarray(e1, float), np.asarray(e2, float), radius, n)


def torus_knot(q, r=0.4, n=512):
    theta = 2.0 * np.pi * np.arange(n) / n
    rho = 1.0 + r * np.sin(q * theta)
    return np.column_stack([rho * np.cos(theta), rho * np.sin(theta), r * np.cos(q * theta)])


def gauss_midpoint(a, b):
    """Plain chord-midpoint Gauss double integral, the definition itself."""
    ma, da = 0.5 * (a + np.roll(a, -1, 0)), np.roll(a, -1, 0) - a
    mb, db = 0.5 * (b + np.roll(b, -1, 0)), np.roll(b, -1, 0) - b
    r = ma[:, None, :] - mb[None, :, :]
    cr = np.cross(da[:, None, :], db[None, :, :])
    return float((np.einsum("ijk,ijk->ij", r, cr)
                  / np.linalg.norm(r, axis=2) ** 3).sum() / (4.0 * math.pi))


def test_polygon_linking_matches_gauss_integral_sign_and_value():
    a = circle((0, 0, 0), X, Y)
    b = circle((1, 0, 0), X, Z)
    raw = oracles.polygon_linking_raw(a, b)
    assert abs(raw - round(raw)) < 1e-9
    assert abs(gauss_midpoint(a, b) - raw) < 1e-3
    assert oracles.polygon_linking(a, b[::-1]) == -oracles.polygon_linking(a, b)
    assert oracles.polygon_linking(b, a) == oracles.polygon_linking(a, b)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_torus_knot_links_unit_circle_q_times(q):
    assert oracles.polygon_linking(circle((0, 0, 0), X, Y, n=128), torus_knot(q, n=256)) == q


def test_presets_have_their_constructed_linking_numbers():
    unit = circle((0, 0, 0), X, Y)
    presets = {
        "hopf": circle((1, 0, 0), X, -Z),          # normal y, as the CLI builds it
        "l2": torus_knot(2, 0.4, 256),
        "unlinked": circle((4, 0, 3), X, Y),
    }
    for name, other in presets.items():
        assert oracles.polygon_linking(other, unit) == oracles.PRESET_LINKING[name], name


def test_square_circle_polygons_are_unlinked():
    square, small = workloads.square_circle_pair()
    assert oracles.polygon_linking(square, small) == 0
    # the circle clears the square's edge y = 1 by 0.025
    assert abs(small[:, 1].min() - 1.025) < 1e-15


def biot_savart(points, radius, flux, n=20000):
    """Chord-midpoint Biot-Savart sum over a finely sampled loop."""
    loop = circle((0, 0, 0), X, Y, radius, n)
    mids, d = 0.5 * (loop + np.roll(loop, -1, 0)), np.roll(loop, -1, 0) - loop
    r = np.asarray(points)[:, None, :] - mids[None, :, :]
    return flux / (4.0 * math.pi) * (np.cross(d[None, :, :], r)
                                     / np.linalg.norm(r, axis=2)[..., None] ** 3).sum(axis=1)


def test_loop_potential_reduces_to_axis_form():
    z = np.linspace(-3.0, 3.0, 13)
    for radius, flux in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.7)):
        pts = np.column_stack([0 * z, 0 * z, z])
        got = oracles.loop_potential(pts, radius, flux)
        want = flux * radius ** 2 / (2.0 * (radius ** 2 + z ** 2) ** 1.5)
        assert np.allclose(got[:, 2], want, rtol=1e-14, atol=0.0)
        assert np.all(got[:, :2] == 0.0)


def test_loop_potential_matches_direct_biot_savart_off_axis():
    rng = np.random.default_rng(7)
    pts = np.array([workloads._probe_point(rng) for _ in range(8)])
    got = oracles.loop_potential(pts, 1.0, 1.3)
    want = biot_savart(pts, 1.0, 1.3)
    err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert err.max() < 1e-5


def test_fringe_shift_and_wrap():
    shift, spacing = oracles.fringe_shift(0.5, 1.0, 3.0, 1.0, 1.0, 1.0)
    assert shift == pytest.approx(2.0)            # L = 2, lambda_bar = 1, d = 1
    assert spacing == pytest.approx(4.0 * math.pi)
    assert oracles.wrapped_error(shift + 3 * spacing, shift, spacing) < 1e-12
    for off in (-0.3, 0.7):
        got = oracles.wrapped_error(shift + off * spacing, shift, spacing)
        assert got == pytest.approx(0.3 * spacing)


@pytest.mark.parametrize("linked", [True, False])
def test_circle_pairs_keep_clearance_and_known_linking(linked):
    for seed in range(4):
        a, b = workloads.circle_pair(np.random.default_rng(seed), 96, linked)
        gap = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2).min()
        scale = np.linalg.norm(a - a.mean(axis=0), axis=1).max()
        assert gap > 0.3 * scale
        assert abs(oracles.polygon_linking(a, b)) == (1 if linked else 0)


@pytest.mark.parametrize("name", ["phase_deform", "field_fringe"])
def test_rounds_repeat_per_seed_and_keep_their_make_up(name, tmp_path):
    def round_of(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        setup, ops = workloads.build(name, seed, d)
        specs = json.loads(json.dumps([op.spec for op in ops]).replace(str(d), "D"))
        return setup, specs, [(op.kind, op.known_fault) for op in ops]

    first, again, other = round_of(3, "a"), round_of(3, "b"), round_of(4, "c")
    assert first == again
    assert first[1] != other[1]
    assert first[2] == other[2]


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    import run
    import tracer

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = {k: u for k, (u, _) in tracer.metric_units().items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_latencies_scale_by_the_calibrations_around_them():
    import run

    result = {"cal_at": [0.0, 0.5, 3.0, 10.0], "cal_s": [0.02, 0.04, 0.01, 0.03],
              "starts": [0.1, 3.5], "latencies": [0.3, 2.0]}
    # the first operation has two calibrations within 1 s (median 0.03); the
    # second has none, so the last one before it and the first one after it
    want = [0.3 * run.CAL_NOMINAL_S / 0.03, 2.0 * run.CAL_NOMINAL_S / 0.02]
    assert run._scaled_latencies(result) == pytest.approx(want)
