"""End-to-end command-line behavior: reports, artifacts, exit codes."""
import argparse
import collections
import functools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluxline as fl
from conftest import random_pair
from fluxline import cli, interference
from fluxline.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_link_preset_hopf(capsys):
    code, out, _ = run(["link", "--preset", "hopf"], capsys)
    rep = json.loads(out)
    assert code == 0
    assert rep["agree"] is True
    assert rep["rounded"] in (-1, 1)
    assert rep["residual"] < 1e-6
    assert rep["crossing_count"] == rep["rounded"]
    assert rep["config"]["samples"] == 1024


def test_link_preset_unlinked(capsys):
    code, out, _ = run(["link", "--preset", "unlinked"], capsys)
    rep = json.loads(out)
    assert code == 0
    assert rep["rounded"] == 0
    assert rep["agree"] is True


def test_link_preset_l2(capsys):
    code, out, _ = run(["link", "--preset", "l2"], capsys)
    rep = json.loads(out)
    assert code == 0
    assert abs(rep["rounded"]) == 2
    assert rep["agree"] is True


def test_link_curve_files(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    fl.save_curve(fl.make_circle((0, 0, 0), 1.0, (0, 0, 1), 256), a)
    fl.save_curve(fl.make_circle((1, 0, 0), 1.0, (0, 1, 0), 256), b)
    code, out, _ = run(["link", "--curve-a", str(a), "--curve-b", str(b)], capsys)
    rep = json.loads(out)
    assert code == 0
    assert abs(rep["rounded"]) == 1
    assert rep["agree"] is True


def test_link_missing_inputs(capsys):
    code, _, err = run(["link"], capsys)
    assert code == 2
    assert "preset" in err


def test_link_malformed_curve_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": [[0,0,0],')
    good = tmp_path / "good.json"
    fl.save_curve(fl.make_circle((0, 0, 0), 1.0, (0, 0, 1), 64), good)
    code, _, err = run(
        ["link", "--curve-a", str(bad), "--curve-b", str(good)], capsys)
    assert code == 2
    assert "line 1" in err and "column" in err


def test_link_rejects_curve_file_over_the_samples_bound(tmp_path, capsys, monkeypatch):
    assert fl.curves.MAX_POINTS == cli.SAMPLES.at_most
    big = tmp_path / "big.json"
    fl.save_curve(fl.make_circle((0, 0, 0), 1.0, (0, 0, 1), fl.curves.MAX_POINTS + 1), big)
    good = tmp_path / "good.json"
    fl.save_curve(fl.make_circle((1, 0, 0), 1.0, (0, 1, 0), 64), good)

    def unreachable(*args, **kwargs):
        raise AssertionError("an oversized file must be refused before it is built or scanned")

    monkeypatch.setattr(fl.curves, "ClosedCurve", unreachable)
    monkeypatch.setattr(fl.curves, "_check_self_avoiding", unreachable)
    code, out, err = run(["link", "--curve-a", str(big), "--curve-b", str(good)], capsys)
    assert code == 2 and out == ""
    assert str(big) in err and f"{fl.curves.MAX_POINTS + 1} points" in err


def test_link_under_resolved_still_reports(capsys):
    code, out, _ = run(["link", "--preset", "hopf", "--samples", "8"], capsys)
    assert code == 3
    rep = json.loads(out)
    assert rep["residual"] >= 1e-3
    assert rep["agree"] is False


def test_link_exits_3_when_the_counts_disagree(tmp_path, capsys):
    # a 32-point square and a 64-point circle clearing its edge by 0.025: the
    # square's interpolant bulges 0.020 past it, so the Gauss sum links the
    # circle to within its residual while the polygons, counted exactly, do not
    e = np.linspace(-1.0, 1.0, 9)[:-1]
    one, zero = np.ones(8), np.zeros(8)
    square = np.concatenate([np.column_stack([e, -one, zero]), np.column_stack([one, e, zero]),
                             np.column_stack([-e, one, zero]), np.column_stack([-one, -e, zero])])
    t = 2.0 * np.pi * np.arange(64) / 64
    ring = np.column_stack([0.7 + 0.1 * np.cos(t), np.full(64, 1.025), -0.1 * np.sin(t)])
    files = [tmp_path / "square.json", tmp_path / "ring.json"]
    for path, points in zip(files, (square, ring)):
        fl.save_curve(fl.ClosedCurve(points), path)
    report = tmp_path / "report.json"
    code, out, err = run(["link", "--curve-a", str(files[0]), "--curve-b", str(files[1]),
                          "-o", str(report)], capsys)
    assert code == 3 and err == ""
    assert report.read_text() == out
    rep = json.loads(out)
    assert abs(rep["rounded"]) == 1 and rep["residual"] < 1e-3
    assert rep["crossing_count"] == 0 and rep["agree"] is False


def test_config_that_is_a_json_array_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{"alpha": 2.0}]))
    code, out, err = run(["phase", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert "config must be a JSON object" in err


def test_link_curve_file_that_is_a_list_exits_2(tmp_path, capsys):
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps(fl.make_circle((0, 0, 0), 1.0, (0, 0, 1), 64).points.tolist()))
    good = tmp_path / "good.json"
    fl.save_curve(fl.make_circle((1, 0, 0), 1.0, (0, 1, 0), 64), good)
    code, out, err = run(["link", "--curve-a", str(listed), "--curve-b", str(good)], capsys)
    assert code == 2 and out == ""
    assert "listed.json: expected an object with a 'points' field" in err


def test_link_on_curves_too_large_to_sum_exits_2(tmp_path):
    # a Hopf pair scaled by 1e160: the pair sum was NaN, and `link` printed
    # the traceback of rounding it
    for name, c in (("a", fl.make_circle((0, 0, 0), 1.0, (0, 0, 1), 256)),
                    ("b", fl.make_circle((1, 0, 0), 1.0, (0, 1, 0), 256))):
        fl.save_curve(fl.ClosedCurve(c.points * 1e160), tmp_path / f"{name}.json")
    proc = subprocess.run(
        [sys.executable, "-m", "fluxline", "link", "--curve-a", str(tmp_path / "b.json"),
         "--curve-b", str(tmp_path / "a.json")], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(fl.__file__).parents[1])})
    assert proc.returncode == 2 and proc.stdout == ""
    assert "error: curve coordinates reach 2e+160, above 1e+72" in proc.stderr
    # the touch guard's squared distances overflowed before the sum refused
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


def test_config_file_overrides_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 2.0, "samples": 256}))
    code, out, _ = run(["phase", "--config", str(cfg)], capsys)
    rep = json.loads(out)
    assert code == 0
    assert rep["config"]["alpha"] == 2.0
    assert rep["config"]["samples"] == 256
    assert rep["forms"]["topological"] == pytest.approx(2.0)


def test_flags_beat_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 2.0, "samples": 256}))
    code, out, _ = run(
        ["phase", "--config", str(cfg), "--alpha", "1.5"], capsys)
    rep = json.loads(out)
    assert code == 0
    assert rep["config"]["alpha"] == 1.5
    assert rep["config"]["samples"] == 256


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alfa": 2.0}))
    code, _, err = run(["phase", "--config", str(cfg)], capsys)
    assert code == 2
    assert "unknown config keys" in err and "alfa" in err


def test_config_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{\n  broken\n}")
    code, _, err = run(["phase", "--config", str(cfg)], capsys)
    assert code == 2
    assert "line 2" in err


def test_phase_report_forms(capsys):
    code, out, _ = run(
        ["phase", "--preset", "hopf", "--samples", "512"], capsys)
    rep = json.loads(out)
    assert code == 0
    assert set(rep["forms"]) == {
        "topological", "circulation", "flux", "solid_angle", "crossing"}
    assert rep["linking"] in (-1, 1)
    assert rep["max_spread"] < 1e-3


def test_plain_phase_measures_the_pair_once(monkeypatch, capsys):
    from fluxline import abphase, field, topology

    holders = {"min_distance": (topology, field), "linking_integral": (topology, field, abphase)}
    calls = dict.fromkeys(holders, 0)
    for name, mods in holders.items():
        for mod in mods:
            def counted(*args, _fn=getattr(mod, name), _name=name, **kw):
                calls[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(mod, name, counted)
    code, out, _ = run(["phase", "--preset", "hopf", "--samples", "256"], capsys)
    forms = json.loads(out)["forms"]
    assert code == 0
    assert calls == {"min_distance": 1, "linking_integral": 1}
    assert forms["circulation"] == forms["solid_angle"]


@pytest.mark.parametrize("preset, samples", [("hopf", 128), ("l2", 512)])
def test_invariance_transforms_each_curve_once(monkeypatch, capsys, preset, samples):
    from fluxline import abphase, field, topology

    rffts, linked = [0], {}

    def counted(*args, _fn=np.fft.rfft, **kw):
        rffts[0] += 1
        return _fn(*args, **kw)

    monkeypatch.setattr(np.fft, "rfft", counted)
    for mod in (abphase, field, topology):
        def recorded(path, curve, _fn=mod.linking_integral):
            # keeps every argument alive, so that no id is reused
            linked.update((id(c), c) for c in (path, curve))
            return _fn(path, curve)
        monkeypatch.setattr(mod, "linking_integral", recorded)
    code, _, _ = run(["phase", "--preset", preset, "--samples", str(samples),
                      "--invariance", "--steps", "8"], capsys)
    assert code == 0
    # the two originals and 8 new curves of each of the four families'
    # moving curves; the swap family re-links the simultaneous one
    assert len(linked) == 2 + 4 * 8
    assert rffts[0] <= len(linked)


def test_phase_invariance_measures_the_start_once(monkeypatch, capsys):
    from fluxline import abphase, curves, field, quadrature, topology

    start, scans, sums = [], [0], [0]

    def preset(*args, _fn=cli._preset_curves):
        start[:] = _fn(*args)  # flux curve, path
        return tuple(start)

    def scanned(a, b, *args, _fn=curves.min_distance, **kw):
        # distance is symmetric: the start pair either way round
        if {id(a), id(b)} == set(map(id, start)) and kw.get("cutoff", np.inf) == np.inf:
            scans[0] += 1
        return _fn(a, b, *args, **kw)

    def summed(path, curve, _fn=quadrature.linking_integral):
        # the swap family's first sum is of the exchanged pair: another sum
        if path is start[1] and curve is start[0]:
            sums[0] += 1
        return _fn(path, curve)

    monkeypatch.setattr(cli, "_preset_curves", preset)
    for mod in (abphase, curves, field, topology):
        monkeypatch.setattr(mod, "min_distance", scanned)
    for mod in (abphase, field, topology):
        monkeypatch.setattr(mod, "linking_integral", summed)
    code, _, _ = run(["phase", "--preset", "hopf", "--samples", "128", "--invariance"], capsys)
    assert code == 0
    # one exact scan serves all three deformed families, and every family's
    # first phase is the suite's base: one sum in gauss_linking, one in base
    assert (scans[0], sums[0]) == (1, 2)


@pytest.mark.parametrize("preset", ["hopf", "l2", "unlinked"])
def test_phase_invariance_makes_the_same_diameters_at_any_steps(monkeypatch, capsys, preset):
    from fluxline import curves, topology

    count = [0]

    def counted(*args, _fn=curves._diameter_of):
        count[0] += 1
        return _fn(*args)

    for mod in (curves, topology):
        monkeypatch.setattr(mod, "_diameter_of", counted)
    counts = []
    for steps in ("2", "20"):
        count[0] = 0
        code, _, _ = run(["phase", "--preset", preset, "--samples", "128", "--invariance",
                          "--steps", steps], capsys)
        assert code == 0
        counts.append(count[0])
    # the flux curve's and the path's, for the spanning surfaces, the guard
    # and the one guard decision of each family's start, and on hopf, whose
    # path passes the flux circle's centroid, the fan's for the crossing
    # count's tie; no deformed state's
    assert counts == [3 if preset == "hopf" else 2] * 2


def test_phase_invariance_clearance_violation(capsys):
    code, _, err = run(
        ["phase", "--preset", "hopf", "--samples", "128", "--invariance",
         "--clearance", "2.0"], capsys)
    assert code == 4
    assert "clearance" in err


def test_phase_invariance_out_of_tries_exits_4(capsys):
    # steps of half the clearance draw the hopf pair, 0.9994 apart, under 0.9
    code, out, err = run(
        ["phase", "--preset", "hopf", "--samples", "128", "--invariance", "--steps", "1",
         "--amplitude", "10", "--modes", "32", "--clearance", "0.9"], capsys)
    assert code == 4 and out == ""
    assert "no clearance-respecting step found in 50 tries" in err


def test_field_profile_csv(tmp_path, capsys):
    out_path = tmp_path / "field.csv"
    code, out, _ = run(
        ["field", "--from", "0", "--to", "2", "--steps", "5",
         "-o", str(out_path)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "z,A_x,A_y,A_z,A_axial_analytic"
    assert len(lines) == 6
    for row in lines[1:]:
        z, ax, ay, az, ref = (float(v) for v in row.split(","))
        assert abs(ax) < 1e-12 and abs(ay) < 1e-12
        assert abs(az - ref) < 1e-6
    assert out_path.read_text() == out
    sidecar = json.loads(out_path.with_suffix(".json").read_text())
    assert sidecar["config"]["steps"] == 5


@pytest.mark.parametrize("argv", [["--to", "1e200"], ["--radius", "1e200"], ["--radius", "1e-110"],
                                  ["--radius", "1e-105"], "config"],
                         ids=["to-1e200", "radius-1e200", "radius-1e-110", "radius-1e-105",
                              "config-start--1e200"])
def test_field_refuses_sizes_its_sums_cannot_take(tmp_path, capsys, argv):
    # these printed an OverflowError or a ZeroDivisionError traceback from the
    # analytic column, or a row of NaN with exit 0 (1e-105)
    if argv == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"start": -1e200}))
        argv = ["--config", str(cfg)]
    code, out, err = run(["field", *argv, "--samples", "64", "--steps", "3"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_field_takes_the_axis_in_one_sum(capsys):
    # -1 to 1 in 65 steps holds the row z = 0 exactly; at radius 0.6 and
    # flux 1.5 numpy's vectorised power over the whole axis rounds two
    # analytic values otherwise at 15 digits (numpy 2.4 on AVX-512)
    for z0, z1, steps, radius, flux in ((-1.5, 2.0, 37, 0.8, 1.7), (-1.0, 1.0, 65, 0.6, 1.5)):
        argv = ["field", "--from", str(z0), "--to", str(z1), "--steps", str(steps),
                "--radius", str(radius), "--flux", str(flux), "--samples", "256"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        f = fl.FluxLine(fl.make_circle((0, 0, 0), radius, (0, 0, 1), 256), flux)
        rows = out.splitlines()
        assert rows[0] == "z,A_x,A_y,A_z,A_axial_analytic"
        zs = np.linspace(z0, z1, steps).tolist()
        assert (0.0 in zs) == (steps == 65)
        for z, row in zip(zs, rows[1:]):
            a = fl.vector_potential(f, (0.0, 0.0, z))
            analytic = flux * radius ** 2 / (2.0 * (radius ** 2 + z ** 2) ** 1.5)
            assert row == ",".join(f"{v:.15g}" for v in (z, *a, analytic))
        assert len(rows) == steps + 1


def test_interfere_writes_what_write_pattern_writes(tmp_path, capsys):
    code, _, _ = run(["interfere", "--alpha", "1.3", "--grid", "256", "-o", str(tmp_path / "cli")],
                     capsys)
    assert code == 0
    for name, alpha in (("pattern_off", 0.0), ("pattern_on", 1.3)):
        fl.write_pattern(fl.pattern(fl.TwoSlitConfig(), alpha, n_grid=256), tmp_path / f"{name}.csv")
        for suffix in (".csv", ".json"):
            assert ((tmp_path / "cli" / name).with_suffix(suffix).read_bytes()
                    == (tmp_path / name).with_suffix(suffix).read_bytes())


def test_interfere_artifacts(tmp_path, capsys):
    code, out, _ = run(
        ["interfere", "--alpha", "3.14159", "-o", str(tmp_path)], capsys)
    rep = json.loads(out)
    assert code == 0
    assert rep["rel_err"] < 0.02
    assert (tmp_path / "pattern_off.csv").exists()
    assert (tmp_path / "pattern_on.csv").exists()
    assert (tmp_path / "report.json").read_text() == out
    off_lines = (tmp_path / "pattern_off.csv").read_text().splitlines()
    assert off_lines[0] == "x_b,density"
    assert len(off_lines) == rep["config"]["n_grid"] + 1


@pytest.mark.parametrize("alpha, turns", [("30", 5), ("-40", -6)])
def test_interfere_unwraps_more_than_three_fringes(tmp_path, capsys, alpha, turns):
    code, out, _ = run(["interfere", "--alpha", alpha, "-o", str(tmp_path)], capsys)
    rep = json.loads(out)
    assert code == 0
    assert rep["wrap_turns"] == turns
    assert rep["rel_err"] < 1e-3


def test_interfere_unwraps_by_the_pattern_fringe(tmp_path, capsys):
    # the pattern shifts by alpha * fringe_spacing_pattern / 2 pi; what is
    # left against the analytic shift is the gap between the two spacings
    code, out, _ = run(["interfere", "--alpha", "1000", "-o", str(tmp_path)], capsys)
    rep = json.loads(out)
    assert code == 0
    gap = 1.0 - rep["fringe_spacing_pattern"] / rep["fringe_spacing"]
    assert abs(gap - 2.25e-4) < 1e-6
    assert abs(rep["rel_err"] - gap) < 1e-5


@pytest.mark.parametrize("argv", [["interfere", "--alpha", "2e4"],
                                  ["sweep", "--to", "2e4"]])
def test_alpha_past_a_quarter_fringe_of_drift_exits_2(tmp_path, capsys, argv):
    code, out, err = run(argv + ["-o", str(tmp_path / "out")], capsys)
    assert code == 2
    assert out == ""
    assert "quarter fringe" in err


@pytest.mark.parametrize("argv", [["interfere", "--alpha", "1e300"],
                                  ["sweep", "--to", "1e300"]])
def test_alpha_too_large_to_place_the_shift_exits_2(tmp_path, capsys, argv):
    # the double nearest 2e300 says nothing about the shift within a fringe
    code, out, err = run(argv + ["-o", str(tmp_path / "out")], capsys)
    assert code == 2
    assert out == ""
    assert "1% of a fringe" in err


def test_interfere_at_three_points_per_fringe(tmp_path, capsys):
    code, out, _ = run(["interfere", "--grid", "200", "-o", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads(out)["rel_err"] < 1e-3


def test_interfere_under_three_points_per_fringe_exits_2(tmp_path, capsys):
    code, out, err = run(["interfere", "--grid", "190", "-o", str(tmp_path)], capsys)
    assert code == 2
    assert out == ""
    assert "points per fringe" in err


def test_sweep_builds_the_flux_off_pattern_once(monkeypatch, capsys):
    # the flux-off pattern's alpha-free density terms serve all 9 patterns
    # (it and the 8 steps), and its spectrum is taken once: each pattern is
    # demodulated once, by one real FFT
    counts, demodulated = collections.Counter(), []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def fringe_signal(values, *args):
        demodulated.append(values)
        return signal(values, *args)

    signal = interference._fringe_signal
    monkeypatch.setattr(interference, "_fringe_signal", fringe_signal)
    for module, name in ((interference, "_terms"), (interference, "_combine"),
                         (np.fft, "rfft"), (np.fft, "fft"), (np.fft, "ifft")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    code, _, _ = run(["sweep", "--steps", "8", "--grid", "256"], capsys)
    assert code == 0
    assert counts == {"_terms": 1, "_combine": 9, "rfft": 9}
    assert len(demodulated) == len({id(values) for values in demodulated}) == 9


def test_interfere_overflowing_shift_exits_2(tmp_path, capsys):
    code, out, err = run(["interfere", "--alpha", "1e308", "-o", str(tmp_path)], capsys)
    assert code == 2
    assert "overflows" in err
    assert out == ""


def test_gauge_demo_solenoid_defaults(capsys):
    code, out, _ = run(["gauge-demo", "--solenoid"], capsys)
    rep = json.loads(out)
    assert code == 0
    assert abs(rep["circ_A"] - 1.0) < 1e-8
    assert rep["circ_Aprime"] == 0.0
    assert abs(rep["string_flux"] + 1.0) < 1e-8
    assert rep["winding"] == 1


def test_gauge_demo_solenoid_three_turns(capsys):
    code, out, _ = run(
        ["gauge-demo", "--solenoid", "--turns", "3", "--flux", "0.5"], capsys)
    rep = json.loads(out)
    assert code == 0
    assert abs(rep["circ_A"] - 1.5) < 1e-8
    assert abs(rep["string_flux"] + 1.5) < 1e-8
    assert rep["winding"] == 3


@pytest.mark.parametrize("argv, turns", [(["--turns", "511"], 511),
                                         (["--turns", "-511"], -511),
                                         (["--turns", "7", "--samples", "16"], 7)])
def test_gauge_demo_solenoid_many_turns(capsys, argv, turns):
    code, out, _ = run(["gauge-demo", "--solenoid"] + argv, capsys)
    assert code == 0
    assert json.loads(out)["winding"] == turns


@pytest.mark.parametrize("argv", [["--turns", "512"], ["--turns", "-512"],
                                  ["--turns", "8", "--samples", "16"]])
def test_gauge_demo_solenoid_too_many_turns_exits_2(capsys, argv):
    code, out, err = run(["gauge-demo", "--solenoid"] + argv, capsys)
    assert code == 2
    assert out == ""
    assert "samples per turn" in err


@pytest.mark.parametrize("argv", [["--radius", "1", "--rho0", "1.7e308"],
                                  ["--radius", "1e-310", "--rho0", "2e-310"]])
def test_gauge_demo_solenoid_at_the_ends_of_the_float_range(capsys, argv):
    # these exited 0 with circ_A 0.0 and, with a RuntimeWarning, nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(["gauge-demo", "--solenoid", *argv], capsys)
    rep = json.loads(out)
    assert code == 0
    assert rep["winding"] == 1
    assert abs(rep["circ_A"] - 1.0) < 1e-12


def test_gauge_demo_closed_line(capsys):
    code, out, _ = run(
        ["gauge-demo", "--closed-line", "--samples", "512"], capsys)
    rep = json.loads(out)
    assert code == 0
    assert abs(rep["before"] - 1.0) < 1e-4
    assert rep["after"] == 0.0


def test_sweep_alpha_periodic(capsys):
    code, out, _ = run(
        ["sweep", "--param", "alpha", "--from", "0", "--to",
         "6.283185307179586", "--steps", "8", "--grid", "1024"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "param,value,shift_measured,shift_analytic,rel_err"
    assert len(lines) == 9
    # the alpha = 0 pattern correlates with the flux-off one as a sum of |z|^2
    assert lines[1] == "alpha,0,0,0,0"
    off = fl.pattern(fl.TwoSlitConfig(), 0.0, n_grid=1024)
    for alpha, line in zip(np.linspace(0.0, 6.283185307179586, 8), lines[1:]):
        rep = cli._shift_report(off, fl.pattern(fl.TwoSlitConfig(), float(alpha), n_grid=1024))
        assert line == "alpha,{:.15g},{:.15g},{:.15g},{:.15g}".format(
            alpha, rep["shift_measured"], rep["shift_analytic"], rep["rel_err"])
    first = float(lines[1].split(",")[2])
    last = float(lines[8].split(",")[2])
    spacing = fl.fringe_spacing(fl.TwoSlitConfig())
    wrapped = (last - first) - round((last - first) / spacing) * spacing
    assert abs(wrapped) < 0.01 * spacing


def test_sweep_rejects_unknown_parameter(capsys):
    code, _, err = run(
        ["sweep", "--param", "radius", "--steps", "2"], capsys)
    assert code == 2
    assert "radius" in err


def test_repeat_runs_byte_identical(tmp_path, capsys):
    argv = ["link", "--preset", "l2", "--samples", "512", "--seed", "5"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        run(["interfere", "--alpha", "1.0", "--grid", "512", "-o", str(d)],
            capsys)
    for name in ("pattern_off.csv", "pattern_on.csv", "report.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_thread_count_does_not_change_results(capsys):
    base = ["link", "--preset", "hopf", "--samples", "512"]
    _, out1, _ = run(base + ["--threads", "1"], capsys)
    _, out4, _ = run(base + ["--threads", "4"], capsys)
    rep1, rep4 = json.loads(out1), json.loads(out4)
    assert (rep1["config"].pop("threads"), rep4["config"].pop("threads")) == (1, 4)
    assert rep1 == rep4


def test_worker_and_blas_threads_do_not_change_output():
    """Byte-identical stdout over FLUXLINE_THREADS and OpenBLAS threads.

    The linking sum runs over 3 blocks; the sweep's fringe correlations
    are 16384-point sums.

    BLAS threads are fixed when numpy loads, so each setting is its own
    process. FLUXLINE_THREADS is set in the environment, as `--threads`
    would show in the report's config.
    """
    script = ("from fluxline.cli import main\n"
              "main(['link', '--preset', 'l2', '--samples', '600'])\n"
              "main(['phase', '--preset', 'hopf', '--samples', '600', '--invariance',"
              " '--steps', '2'])\n"
              "main(['sweep', '--grid', '16384'])\n")
    outs = []
    for threads, blas in (("1", "1"), ("2", "1"), ("1", "2")):
        env = dict(os.environ, FLUXLINE_THREADS=threads, OPENBLAS_NUM_THREADS=blas,
                   PYTHONPATH=str(Path(fl.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert b'"rounded": 2' in outs[0] and b'"passed": true' in outs[0]
    assert outs[1] == outs[0] and outs[2] == outs[0]


def _native_sum_argv(command, tmp_path):
    """A run whose linking sums take their native 1024 nodes, four 256-row blocks.

    The link pair comes within 0.11, so the doubled sums do not agree by
    512 nodes; the phase run's deformations carry 200 modes, which every
    truncation the sum may try (at most 256 nodes) would cut.
    """
    if command == "phase":
        return ["phase", "--preset", "hopf", "--invariance", "--steps", "1", "--modes", "200"]
    files = [tmp_path / "a.json", tmp_path / "b.json"]
    for curve, path in zip(random_pair(1004), files):
        fl.save_curve(curve, path)
    return ["link", "--curve-a", str(files[0]), "--curve-b", str(files[1])]


@pytest.mark.parametrize("command", ["link", "phase"])
def test_threads_1_opens_no_pool(tmp_path, capsys, started_threads, command):
    # every kernel is serial: neither thread count starts a thread
    argv = _native_sum_argv(command, tmp_path)
    assert run(argv + ["--threads", "1"], capsys)[0] == 0
    assert run(argv + ["--threads", "2"], capsys)[0] == 0
    assert started_threads == []


def test_threads_env_var(monkeypatch, capsys):
    argv = ["link", "--preset", "hopf", "--samples", "256"]
    _, flagged, _ = run(argv + ["--threads", "2"], capsys)
    monkeypatch.setenv("FLUXLINE_THREADS", "2")
    _, from_env, _ = run(argv, capsys)
    assert json.loads(from_env)["raw"] == json.loads(flagged)["raw"]


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    # a cache of this test's own, so no later main call gets its parser
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser.__wrapped__))
    for argv, code in ((["link", "--preset", "hopf", "--samples", "64"], 0),
                       (["phase", "--preset", "unlinked", "--samples", "64"], 0),
                       (["field", "--steps", "2", "--samples", "64"], 0),
                       (["link", "--preset", "l2", "--samples", "1"], 2)):
        assert run(argv, capsys)[0] == code
    assert built.count("fluxline") == 1
    assert len(built) == 1 + len(cli.COMMANDS)


def test_help_lists_subcommands_and_exit_codes():
    proc = subprocess.run(
        [sys.executable, "-m", "fluxline.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    for word in ("link", "phase", "field", "interfere", "gauge-demo",
                 "sweep", "Exit codes"):
        assert word in proc.stdout


# Every config key of every subcommand, by the report's embedded config;
# `output` is a config key too, but reports leave it out.
EMBEDDED_KEYS = {
    "link": {"preset", "curve_a", "curve_b", "samples", "tol", "seed",
             "threads"},
    "phase": {"preset", "alpha", "flux", "samples", "tol", "seed", "threads",
              "invariance", "steps", "amplitude", "clearance", "modes"},
    "field": {"flux", "radius", "start", "stop", "steps", "samples", "seed",
              "tol", "threads"},
    "interfere": {"alpha", "x0", "b", "t_a", "t_b", "m", "v", "half_width",
                  "n_grid", "seed", "threads"},
    "gauge-demo": {"mode", "flux", "radius", "rho0", "turns", "samples",
                   "seed", "tol", "threads"},
    "sweep": {"param", "start", "stop", "steps", "x0", "b", "t_a", "t_b",
              "m", "v", "half_width", "n_grid", "seed", "threads"},
}
STRING_KEYS = {"preset", "curve_a", "curve_b", "output", "mode", "param"}
NULL_DEFAULT = {"threads", "output", "half_width", "curve_a", "curve_b"}


def _wrong_values():
    for command, keys in EMBEDDED_KEYS.items():
        for key in sorted(keys | {"output"}):
            yield command, key, 5 if key in STRING_KEYS else "x"
            yield command, key, [1]
            nullable = key in NULL_DEFAULT or (command, key) == ("link", "preset")
            if not nullable:
                yield command, key, None


@pytest.mark.parametrize("command,key,value", list(_wrong_values()))
def test_config_wrong_type_exits_2_naming_the_key(tmp_path, capsys, command, key,
                                                  value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert key in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("argv", [
    ["link", "--preset", "hopf", "--samples", "64"],
    ["phase", "--samples", "64"],
    ["field", "--steps", "2", "--samples", "64"],
    ["interfere", "--grid", "256"],
    ["gauge-demo", "--samples", "64"],
    ["sweep", "--steps", "2", "--grid", "256"],
])
def test_embedded_config_keys(tmp_path, capsys, argv):
    out_path = tmp_path / "out.csv"
    code, out, _ = run(argv + ["-o", str(tmp_path if argv[0] == "interfere"
                                         else out_path)], capsys)
    assert code == 0
    if argv[0] in ("field", "sweep"):
        rep = json.loads(out_path.with_suffix(".json").read_text())
    else:
        rep = json.loads(out)
    assert set(rep["config"]) == EMBEDDED_KEYS[argv[0]]


def test_config_values_embedded_as_given(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1, "alpha": 2, "samples": 64}))
    code, out, _ = run(["phase", "--config", str(cfg)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert type(rep["config"]["tol"]) is int and type(rep["config"]["alpha"]) is int
    assert '"topological": 2.0' in out


@pytest.mark.parametrize("argv,word", [
    (["link", "--preset", "hopf", "--samples", "64", "--tol", "-1"], "tol"),
    (["link", "--preset", "hopf", "--samples", "64", "--tol", "0"], "tol"),
    (["link", "--preset", "hopf", "--samples", "64", "--threads", "0"], "threads"),
    (["phase", "--samples", "64", "--steps", "0"], "steps"),
    (["phase", "--samples", "64", "--modes", "0"], "modes"),
    (["phase", "--samples", "64", "--amplitude", "-0.1"], "amplitude"),
    (["gauge-demo", "--samples", "8"], "samples"),
    (["field", "--steps", "1"], "steps"),
    (["interfere", "--grid", "32"], "n_grid"),
    (["link", "--preset", "hopf", "--samples", "100000000000"], "samples"),
    (["link", "--preset", "hopf", "--samples", "16385"], "samples"),
    (["phase", "--samples", "100000000000"], "samples"),
    (["field", "--samples", "100000000000"], "samples"),
    (["gauge-demo", "--samples", "100000000000"], "samples"),
    (["field", "--steps", "1048577"], "steps"),
    (["sweep", "--steps", "100000000000"], "steps"),
    (["interfere", "--grid", "100000000000"], "n_grid"),
    (["sweep", "--grid", "1048577"], "n_grid"),
    (["phase", "--samples", "64", "--modes", "8193"], "modes"),
    (["phase", "--samples", "64", "--invariance", "--steps", "100000000000"], "steps"),
])
def test_out_of_range_flag_exits_2(capsys, argv, word):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert word in err


def test_config_over_the_samples_bound_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 100000000000}))
    code, out, err = run(["link", "--preset", "hopf", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert "samples must be an integer >= 8 <= 16384" in err


def test_config_number_past_the_float_range_exits_2(tmp_path, capsys):
    # a JSON integer of 401 digits has no float: math.isfinite overflows on it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 10 ** 400}))
    code, out, err = run(["link", "--preset", "hopf", "--samples", "64", "--config", str(cfg)],
                         capsys)
    assert code == 2
    assert out == ""
    assert "tol must be a finite number > 0" in err


def test_config_over_the_steps_bound_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 1025}))
    code, out, err = run(["phase", "--preset", "hopf", "--samples", "64", "--invariance",
                          "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert "steps must be an integer >= 1 <= 1024" in err


def test_config_over_the_modes_bound_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"modes": 100000000000}))
    code, out, err = run(["phase", "--preset", "hopf", "--samples", "64", "--invariance",
                          "--steps", "1", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert "modes must be an integer >= 1 <= 8192" in err


@pytest.mark.parametrize("content", [
    b'{"points": [["a", 0, 0], [1, 0, 0], [0, 1, 0]]}',
    b'{"points": [[{"x": 1}, 0, 0], [1, 0, 0], [0, 1, 0]]}',
    b'{"points": [[0, 0, 0], [1, 0], [0, 1, 0]]}',
    b'\xff\xfe{"points": []}',
    b'{"points": [[true, 0, 5], [0, 1, 5], [-1, 0, 5]]}',
    b'{"points": []}',
], ids=["string", "object", "ragged", "utf16-bom", "bool", "empty"])
def test_undecodable_curve_file_exits_2(tmp_path, capsys, content):
    bad = tmp_path / "bad_curve.json"
    bad.write_bytes(content)
    good = tmp_path / "good.json"
    fl.save_curve(fl.make_circle((0, 0, 0), 1.0, (0, 0, 1), 64), good)
    code, out, err = run(["link", "--curve-a", str(bad), "--curve-b", str(good)],
                         capsys)
    assert code == 2
    assert out == ""
    assert "bad_curve.json" in err and "Traceback" not in err


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bin.json"
    cfg.write_bytes(b'\xff\xfe{"alpha": 2}')
    code, out, err = run(["phase", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert "bin.json" in err and "UTF-8" in err


@pytest.mark.parametrize("command", ["interfere", "sweep"])
@pytest.mark.parametrize("flag", ["--samples", "--tol"])
def test_unused_linking_flags_rejected(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "5"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("half_width", ["0.3", "1e5", "1e-9"])
def test_interfere_grid_that_misses_the_fringe_exits_2(tmp_path, capsys, half_width):
    code, out, err = run(["interfere", "--half-width", half_width,
                          "-o", str(tmp_path / "out")], capsys)
    assert code == 2
    assert out == ""
    assert "cannot measure the fringe shift" in err


def test_threads_env_var_not_an_integer(tmp_path, monkeypatch, capsys):
    # one test id over every subcommand: each exits 2 before it computes or writes
    for value in ("abc", "0"):
        monkeypatch.setenv("FLUXLINE_THREADS", value)
        for argv in (["link", "--preset", "hopf", "--samples", "64"],
                     ["phase", "--preset", "hopf", "--samples", "64"],
                     ["field", "--steps", "2", "--samples", "64"],
                     ["interfere", "--grid", "512"],
                     ["gauge-demo", "--samples", "64"],
                     ["sweep", "--steps", "2", "--grid", "512"]):
            code, out, err = run(argv + ["-o", str(tmp_path / "out")], capsys)
            assert (code, out) == (2, ""), (argv, value)
            assert f"FLUXLINE_THREADS must be an integer >= 1, got {value!r}" in err
            assert not (tmp_path / "out").exists()


def test_link_missing_curve_file(tmp_path, capsys):
    good = tmp_path / "good.json"
    fl.save_curve(fl.make_circle((0, 0, 0), 1.0, (0, 0, 1), 64), good)
    code, _, err = run(["link", "--curve-a", str(tmp_path / "missing.json"),
                        "--curve-b", str(good)], capsys)
    assert code == 2
    assert "missing.json" in err


def test_unwritable_output_path(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x.json"
    code, _, err = run(["link", "--preset", "hopf", "--samples", "64",
                        "-o", str(target)], capsys)
    assert code == 2
    assert "x.json" in err


def _configs(table):
    """JSON objects of table keys and unknown keys; values are nested JSON with
    huge ints, NaN and +-Infinity, or a default, choice or bound +-1 of the key."""
    junk = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=6)
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 63, 100000000000, 1e308]),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6)

    def entry(opt):
        bounds = [b for b in (opt.at_least, opt.above, opt.at_most) if b is not None]
        edges = [opt.default, *opt.choices, *bounds, *(b + d for b in bounds for d in (-1, 1))]
        return st.tuples(st.just(opt.key), st.sampled_from(edges) | junk)

    unknown = st.tuples(st.sampled_from(["alfa", "hbar", "config", ""]), junk)
    return st.lists(st.one_of(*map(entry, table), unknown), max_size=6).map(dict)


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_any_json_config_exits_0_or_2(tmp_path, monkeypatch, name):
    _, table, text = cli.COMMANDS[name]

    def stub(o, config):
        for opt in table:
            opt.check(o[opt.key])
            if opt.key in config:
                opt.check(config[opt.key])
        return 0

    monkeypatch.setitem(cli.COMMANDS, name, (stub, table, text))
    cfg_path = tmp_path / "cfg.json"

    @settings(max_examples=200, deadline=None)
    @given(_configs(table))
    def check(cfg):
        cfg_path.write_text(json.dumps(cfg))
        assert main([name, "--config", str(cfg_path)]) in (0, 2)

    check()
