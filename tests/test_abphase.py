"""The phase in its five forms and its deformation invariances."""
import tracemalloc

import numpy as np
import pytest

import fluxline as fl
from conftest import Y, Z, circle, hopf_pair
from fluxline.abphase import (
    PhaseParams,
    ab_phase_circulation,
    ab_phase_crossing,
    ab_phase_flux,
    ab_phase_solid_angle,
    ab_phase_topological,
    invariance_suite,
)
from fluxline.curves import DeformationSpec
from fluxline.field import GUARD_FACTOR


def suite_spec(**kw):
    base = dict(amplitude=0.2, n_modes=4, seed=7, steps=5, clearance=0.05)
    base.update(kw)
    return DeformationSpec(**base)


def test_topological_substitutions():
    assert ab_phase_topological(PhaseParams(np.pi), 2) == 2.0 * np.pi
    assert ab_phase_topological(PhaseParams(0.8), 0) == 0.0
    a = 1.3
    assert ab_phase_topological(PhaseParams(a), -1) == -a


def test_params_validation():
    with pytest.raises(fl.GeometryError):
        PhaseParams(np.nan)
    with pytest.raises(fl.GeometryError):
        PhaseParams(np.inf)


def test_circulation_form_hopf():
    flux_curve, path = hopf_pair()
    f = fl.FluxLine(flux_curve, 1.0)
    p = PhaseParams(1.0)
    phase = ab_phase_circulation(p, f, path)
    l = fl.crossing_linking(path, fl.span_surface(flux_curve))
    assert l in (-1, 1)
    assert abs(phase - l * p.alpha) < 1e-4


def test_circulation_form_ignores_flux_value():
    flux_curve, path = hopf_pair(512)
    p = PhaseParams(0.6)
    ph1 = ab_phase_circulation(p, fl.FluxLine(flux_curve, 1.0), path)
    ph2 = ab_phase_circulation(p, fl.FluxLine(flux_curve, 2.5), path)
    assert ph1 == ph2
    ph0 = ab_phase_circulation(p, fl.FluxLine(flux_curve, 0.0), path)
    assert ph0 == ph1


def test_circulation_form_non_enclosing(unit_flux_line):
    far = circle((4, 0, 3), 1.0, Z, 512)
    assert abs(ab_phase_circulation(PhaseParams(1.0), unit_flux_line, far)) < 1e-6


def test_flux_form_agrees_with_circulation(unit_flux_line):
    path = circle((1, 0, 0), 1.0, Y, 1024)
    p = PhaseParams(0.9)
    a = ab_phase_circulation(p, unit_flux_line, path)
    b = ab_phase_flux(p, unit_flux_line, path)
    assert abs(a - b) < 1e-4
    assert b == pytest.approx(0.9 * round(a / 0.9), abs=1e-12)


def test_solid_angle_form_hopf(unit_flux_line):
    path = circle((1, 0, 0), 1.0, Y, 1024)
    p = PhaseParams(1.0)
    phase = ab_phase_solid_angle(p, path, unit_flux_line)
    l = fl.crossing_linking(path, fl.span_surface(unit_flux_line.curve))
    assert abs(phase - ab_phase_topological(p, l)) < 1e-3


def test_solid_angle_gradient_alone_vanishes_when_unlinked(unit_flux_line):
    # closed gradient integral has no surface bookkeeping to cancel here
    far = circle((4, 0, 3), 1.0, Z, 512)
    phase = ab_phase_solid_angle(PhaseParams(1.0), far, unit_flux_line)
    assert abs(phase) < 1e-6


def test_crossing_form_integer_weighted(unit_flux_line):
    p = PhaseParams(0.7)
    path = circle((1, 0, 0), 1.0, Y, 1024)
    assert ab_phase_crossing(p, unit_flux_line, path) in (0.7, -0.7)
    twice = fl.make_torus_knot(1, 2, 1.0, 0.4, 1024)
    val = ab_phase_crossing(p, unit_flux_line, twice)
    assert abs(val) == pytest.approx(1.4, abs=1e-15)
    far = circle((4, 0, 3), 1.0, Z, 256)
    assert ab_phase_crossing(p, unit_flux_line, far) == 0.0


def test_winding_additivity(unit_flux_line):
    p = PhaseParams(0.45)
    once = circle((1, 0, 0), 1.0, Y, 1024)
    twice = fl.make_torus_knot(1, 2, 1.0, 0.4, 1024)
    ph1 = ab_phase_circulation(p, unit_flux_line, once)
    ph2 = ab_phase_circulation(p, unit_flux_line, twice)
    assert abs(abs(ph2) - 2.0 * abs(ph1)) < 1e-3


def test_five_forms_agree(unit_flux_line):
    p = PhaseParams(0.7)
    path = circle((1, 0, 0), 1.0, Y, 1024)
    l = fl.gauss_linking(path, unit_flux_line.curve).rounded
    values = [
        ab_phase_topological(p, l),
        ab_phase_circulation(p, unit_flux_line, path),
        ab_phase_flux(p, unit_flux_line, path),
        ab_phase_solid_angle(p, path, unit_flux_line),
        ab_phase_crossing(p, unit_flux_line, path),
    ]
    assert max(values) - min(values) < 1e-3


def test_touching_path_rejected(unit_flux_line):
    through = circle((1, 0, 0), 0.5, Z, 128)
    p = PhaseParams(1.0)
    with pytest.raises(fl.GeometryError):
        ab_phase_circulation(p, unit_flux_line, through)
    with pytest.raises(fl.GeometryError):
        ab_phase_solid_angle(p, through, unit_flux_line)


def test_invariance_zero_amplitude_trivial(unit_flux_line):
    path = circle((1, 0, 0), 1.0, Y, 256)
    f = fl.FluxLine(circle((0, 0, 0), 1.0, Z, 256), 1.0)
    rep = invariance_suite(PhaseParams(1.0), f, path,
                           suite_spec(amplitude=0.0, steps=2))
    assert rep["passed"]
    for name, entry in rep["suites"].items():
        # swap re-orders the arithmetic, so allow rounding-level deviation
        budget = 1e-12 if name == "swap" else 0.0
        assert entry["max_deviation"] <= budget
        assert entry["failed_step"] is None


def suite_peak(n, steps):
    """tracemalloc's peak over an invariance suite of a hopf pair of n points."""
    flux_curve, path = hopf_pair(n)
    spec = suite_spec(steps=steps, n_modes=3)
    tracemalloc.start()
    try:
        assert invariance_suite(PhaseParams(0.7), fl.FluxLine(flux_curve, 1.0), path,
                                spec)["passed"]
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_invariance_suite_holds_one_state_at_a_time():
    # each state's phases are taken as it is drawn, and the state goes with
    # its curves' cached spectra and nodes: a family held whole, one curve of
    # points a step, would pass this bound alone
    n, few, many = 128, 32, 160
    suite_peak(n, 1)  # a first run's one-time allocations
    growth = suite_peak(n, many) - suite_peak(n, few)
    assert growth < (many - few) * n * 3 * 8


@pytest.mark.parametrize("preset", ["hopf", "l2", "unlinked"])
@pytest.mark.parametrize("steps", [1, 15, 16, 17, 40])
def test_invariance_suite_in_batches_is_that_of_one_state_at_a_time(monkeypatch, preset, steps):
    from fluxline import abphase
    from fluxline.cli import _preset_curves

    def suite():
        flux_curve, path = _preset_curves(preset, 128)
        return invariance_suite(PhaseParams(0.9), fl.FluxLine(flux_curve, 1.0), path,
                                suite_spec(steps=steps, n_modes=3))

    got = suite()
    monkeypatch.setattr(abphase, "STACK_POINTS", 1)
    assert got == suite()


@pytest.mark.parametrize("refused", [2, None])
def test_invariance_suite_takes_the_drawn_phases_before_a_refused_draw(monkeypatch, refused):
    # the path family's 4 states are drawn, the 5th draw runs out of tries,
    # and the phase of state `refused` is refused: that refusal comes first,
    # as it did when each state's phase was taken as it was drawn
    from fluxline import abphase, curves

    draws, phases = [0], [0]

    def displacement(rng, cos, sin, _fn=curves._displacement):
        draws[0] += 1
        return _fn(rng, cos, sin) * (draws[0] <= 4)

    def integral(*args, _fn=abphase.linking_integral):
        phases[0] += 1
        if phases[0] == refused:
            raise fl.GeometryError("refused phase")
        return _fn(*args)

    monkeypatch.setattr(curves, "_displacement", displacement)
    monkeypatch.setattr(abphase, "linking_integral", integral)
    flux_curve, path = hopf_pair(128)
    with pytest.raises(fl.GeometryError if refused else fl.ClearanceError,
                       match="refused phase" if refused else "no clearance-respecting step"):
        invariance_suite(PhaseParams(1.0), fl.FluxLine(flux_curve, 1.0), path,
                         suite_spec(steps=8))
    assert phases[0] == (refused or 4)


def test_invariance_suite_hopf():
    f = fl.FluxLine(circle((0, 0, 0), 1.0, Z, 512), 1.0)
    path = circle((1, 0, 0), 1.0, Y, 512)
    p = PhaseParams(1.0)
    rep = invariance_suite(p, f, path, suite_spec())
    assert rep["passed"]
    assert set(rep["suites"]) == {"path", "flux_curve", "simultaneous", "swap"}
    assert abs(abs(rep["phase"]) - 1.0) < 1e-4
    for entry in rep["suites"].values():
        assert len(entry["phases"]) == 6
        assert entry["max_deviation"] < 1e-3
        assert entry["failed_step"] is None
        assert entry["deviations"][0] == 0.0 or entry is rep["suites"]["swap"]


def test_invariance_requires_clearance():
    f = fl.FluxLine(circle((0, 0, 0), 1.0, Z, 256), 1.0)
    path = circle((1, 0, 0), 1.0, Y, 256)
    with pytest.raises(fl.ClearanceError):
        invariance_suite(PhaseParams(1.0), f, path, suite_spec(clearance=2.0))


@pytest.mark.parametrize("clearance,calls", [(0.05, 1), (1e-9, 10)])
def test_invariance_suite_measures_each_pair_once(monkeypatch, clearance, calls):
    from fluxline import abphase, curves, field

    count = [0]
    measure = curves.min_distance

    def counted(*args, **kw):
        count[0] += 1
        return measure(*args, **kw)

    for module in (abphase, curves, field):
        monkeypatch.setattr(module, "min_distance", counted)
    flux_curve, path = hopf_pair(64)
    invariance_suite(PhaseParams(1.0), fl.FluxLine(flux_curve, 1.0), path,
                     suite_spec(amplitude=0.0, steps=2, clearance=clearance))
    # 1 for the base phase's guard and the initial clearance of all three
    # deformed families: the displacement bound accepts every step unscanned;
    # below the guard (2e-6 here) each of the 9 phases evaluated past base,
    # the swap family's first one included, is measured again
    assert count[0] == calls


@pytest.mark.parametrize("near, offset", [("start", -1e-12), ("start", 1e-12), ("size", -1e-12),
                                          ("size", 1e-12), ("far", 1e-12)])
def test_family_guard_decides_as_each_state(monkeypatch, near, offset):
    # clearances a hair from the start's own guard, GUARD_FACTOR * diameter,
    # where the deformed states' guards fall either side of the clearance, and
    # from the pair's size bound, GUARD_FACTOR * 4 sqrt(3) * the largest
    # coordinate, which `field._clears_guard` tries before any diameter: against
    # a run where every state decides by its own diameter. far: the start's
    # guard, with the pair 1e4 diameters from the origin, where the size bound
    # never decides
    from fluxline import abphase, curves, field

    flux_curve, path = hopf_pair(64)
    amplitude = 1e-6
    shift = np.array([1e4 * flux_curve.diameter() if near == "far" else 0.0, 0.0, 0.0])
    flux_curve, path = (fl.ClosedCurve(c.points + shift) for c in (flux_curve, path))
    if near == "size":
        clearance = GUARD_FACTOR * 4.0 * np.sqrt(3.0) * max(flux_curve._size, path._size)
    else:
        clearance = GUARD_FACTOR * flux_curve.diameter()
    clearance *= 1.0 + offset

    def suite():
        count = [0, 0]

        def measured(*args, _fn=curves._diameter_of):
            count[0] += 1
            return _fn(*args)

        def circulated(*args, _fn=abphase.ab_phase_circulation):
            count[1] += 1
            return _fn(*args)

        with monkeypatch.context() as m:
            m.setattr(curves, "_diameter_of", measured)
            m.setattr(abphase, "ab_phase_circulation", circulated)
            # fresh curves: no diameter cached from a run before
            pair = [fl.ClosedCurve(c.points) for c in (flux_curve, path)]
            rep = invariance_suite(PhaseParams(0.9), fl.FluxLine(pair[0], 1.0), pair[1],
                                   suite_spec(amplitude=amplitude, steps=4, clearance=clearance))
        return rep, count

    got, (measured, circulations) = suite()

    def unsettled(curve, distance):
        return distance > field._guard_bound(curve)

    with monkeypatch.context() as m:
        for module in (abphase, field):
            m.setattr(module, "_clears_guard", unsettled)
        want, (each_measured, each_circulations) = suite()
    assert got == want and circulations == each_circulations
    # the two starts', and then each flux-role state's
    assert each_measured == 2 + 3 * 4
    # a hair within the size bound of the path, the larger one, the path
    # measures its own diameter (its deformed states came out smaller); past
    # it, only the flux curve's is measured, for the start scan's cutoff
    assert measured == ((2 if offset < 0 else 1) if near == "size" else each_measured)


def test_shift_recomputed_from_suite_phases_is_stable():
    from fluxline.interference import TwoSlitConfig, ab_shift_analytic, beam_geometry

    f = fl.FluxLine(circle((0, 0, 0), 1.0, Z, 512), 1.0)
    path = circle((1, 0, 0), 1.0, Y, 512)
    rep = invariance_suite(PhaseParams(0.8), f, path, suite_spec(seed=11))
    L, lam_bar, d = beam_geometry(TwoSlitConfig())
    slope = L * lam_bar / d
    base = ab_shift_analytic(L, lam_bar, d, rep["phase"])
    worst = max(
        abs(ab_shift_analytic(L, lam_bar, d, ph) - base)
        for entry in rep["suites"].values()
        for ph in entry["phases"]
    )
    assert worst < slope * 1e-3
