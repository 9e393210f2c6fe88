"""The flux-line phase in its five equivalent forms, plus invariance suites.

All forms expose the physics through the single dimensionless coupling
alpha = (charge) x (flux) / (hbar c); the flux line's own flux value only
sets the shape-independent scale and cancels out of every phase.

`invariance_suite` measures the start pair once, and takes the phases of
its deformed states in the batches `curves._deform` hands out, their models
built to the stage `quadrature._model_stage` names; `field._clears_guard`
decides whether a phase needs its distance. The phases are those of states
taken one at a time.
"""
import math
from dataclasses import dataclass, replace

from .curves import ClosedCurve, DeformationSpec, _build_models, _deform, min_distance
from .errors import GeometryError
from .field import FluxLine, _circulate, _clears_guard, _guard_bound, circulation
from .quadrature import _model_stage, linking_integral
from .topology import crossing_linking, span_surface

DEFAULT_SUITE_TOL = 1e-3
# the deformed states of a batch hold about this many points, and their curve
# models are built together (`curves._build_models`): 16 states at n = 128,
# 2 at n = 1024 and 1 from n = 2048 up, where a larger stack took longer
STACK_POINTS = 2048


@dataclass(frozen=True)
class PhaseParams:
    """alpha = q * flux / (hbar c), the only coupling the phase depends on."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise GeometryError("alpha must be finite")


def ab_phase_topological(p: PhaseParams, l: int) -> float:
    """Phase from the integer linking number alone: l * alpha radians."""
    return float(l) * p.alpha


def ab_phase_circulation(p: PhaseParams, f: FluxLine, path: ClosedCurve,
                         threads=None) -> float:
    """Phase from the gauge-invariant circulation of the vector potential.

    (alpha / flux) * circulation; computed at unit flux so a zero-flux line
    shape still defines the phase (alpha carries the physical flux).
    """
    unit = FluxLine(curve=f.curve, flux=1.0)
    return p.alpha * circulation(unit, path)


def ab_phase_flux(p: PhaseParams, f: FluxLine, path: ClosedCurve, threads=None) -> float:
    """Phase from the flux carried through a surface spanning the path.

    alpha times the signed count of flux-line crossings through that
    surface; the nonlocal counted-flux reading of the same number.
    """
    return p.alpha * crossing_linking(f.curve, span_surface(path))


def ab_phase_solid_angle(p: PhaseParams, path: ClosedCurve, f: FluxLine,
                         threads=None) -> float:
    """Phase from the closed line integral of the solid-angle gradient.

    (alpha / 4pi) * closed integral of grad(solid angle of the flux curve)
    along the path, the smooth single-branch gradient: that integral is the
    circulation's, 4pi times the linking number.
    """
    return ab_phase_circulation(p, f, path)


def ab_phase_crossing(p: PhaseParams, f: FluxLine, path: ClosedCurve,
                      threads=None) -> float:
    """Phase picked up discretely as the path crosses a spanning surface.

    alpha times the signed count of path crossings through a surface
    spanning the flux curve.
    """
    return p.alpha * crossing_linking(path, span_surface(f.curve))


def _suite_entry(phases, base, tol):
    devs = [abs(ph - base) for ph in phases]
    failed = next((i for i, d in enumerate(devs) if d >= tol), None)
    return {
        "phases": phases,
        "deviations": devs,
        "max_deviation": max(devs),
        "failed_step": failed,
    }


def invariance_suite(p: PhaseParams, f: FluxLine, path: ClosedCurve,
                     spec: DeformationSpec, tol: float = DEFAULT_SUITE_TOL,
                     threads=None) -> dict:
    """Check the four topological invariances of the phase.

    Sub-suites: deform the path, deform the flux curve, deform both at once,
    and swap the two roles along the simultaneous family. Each records the
    circulation-form phase at every step; a step whose phase strays from the
    initial value by tol or more is flagged with its index.

    Each family's states are drawn STACK_POINTS // n at a time, and the
    curve models of a batch are built together before its phases are
    taken; the phases are those of states taken one at a time.
    """
    # one scan of the start pair decides circulation's guard and gives every
    # family's loop its start. A state's vertices lie within amplitude of the
    # start's, so a start more than clearance + 2 amplitudes apart, plus room
    # for the rounding slack `_deform` takes per step (1e-12 of at most size)
    # and for its roundings, has every state accepted unscanned: past that
    # cutoff the loop needs only a lower bound
    size = max(path._size, f.curve._size) + spec.amplitude + spec.clearance
    cutoff = max(_guard_bound(f.curve),
                 spec.clearance + 2.0 * spec.amplitude + 1e-12 * (spec.steps + 1) * size)
    dist = min_distance(path, f.curve, cutoff=cutoff)
    # `ab_phase_circulation`'s bits
    base = p.alpha * _circulate(FluxLine(curve=f.curve, flux=1.0), path, dist)
    lb = min(dist, cutoff)

    def phase(flux_curve, c):
        # every deformed state is more than spec.clearance apart, so when the
        # clearance clears circulation's guard, its distance check cannot fire
        if _clears_guard(flux_curve, spec.clearance):
            return p.alpha * linking_integral(c, flux_curve)
        return ab_phase_circulation(p, FluxLine(curve=flux_curve, flux=f.flux), c)

    stage = _model_stage(path, f.curve)
    batch = max(1, STACK_POINTS // max(path.n, f.curve.n))

    def family(seed, a, b, move_b, take):
        """take(*state) of each state of _deform(a, b, ...), a batch at a time."""
        out = []
        for drawn in _deform(a, b, replace(spec, seed=seed), move_b, lb, batch):
            _build_models([c for state in drawn for c in state], stage)
            out += [take(*state) for state in drawn]
        return out

    # each family starts from (path, f.curve), whose phase is base
    suites = {}
    suites["path"] = _suite_entry([base] + family(
        spec.seed, path, f.curve, False, lambda c, _: phase(f.curve, c)), base, tol)
    suites["flux_curve"] = _suite_entry([base] + family(
        spec.seed + 1, f.curve, path, False, lambda c, _: phase(c, path)), base, tol)

    # role swap: the linking integrand is symmetric under exchanging the
    # curves, so using the path as the flux line must reproduce the phase
    both = [(base, phase(path, f.curve))] + family(
        spec.seed + 2, path, f.curve, True,
        lambda pc, fc: (phase(fc, pc), phase(pc, fc)))
    suites["simultaneous"] = _suite_entry([sim for sim, _ in both], base, tol)
    suites["swap"] = _suite_entry([swap for _, swap in both], base, tol)

    passed = all(s["failed_step"] is None for s in suites.values())
    return {
        "alpha": p.alpha,
        "tol": tol,
        "phase": base,
        "suites": suites,
        "passed": passed,
    }
