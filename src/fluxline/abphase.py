"""The flux-line phase in its five equivalent forms, plus invariance suites.

All forms expose the physics through the single dimensionless coupling
alpha = (charge) x (flux) / (hbar c); the flux line's own flux value only
sets the shape-independent scale and cancels out of every phase.
"""
import math
from dataclasses import dataclass, replace

from .curves import ClosedCurve, DeformationSpec, _deform, min_distance
from .errors import GeometryError
from .field import FluxLine, _guard_bound, circulation
from .quadrature import linking_integral
from .topology import crossing_linking, span_surface

DEFAULT_SUITE_TOL = 1e-3


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
    """
    base = ab_phase_circulation(p, f, path)
    lb = min_distance(path, f.curve)

    def clear(start):
        """Whether the clearance exceeds circulation's guard on every curve
        deformed from start, by a bound: False when the bound cannot tell."""
        # a state's vertices lie within steps * step <= amplitude of the
        # start's, and so does its centroid, so its diameter is at most the
        # start's plus 4 amplitudes. In rounding, each step's sum moves a
        # coordinate by at most 1.2e-16 of the largest one, size + amplitude,
        # and the centroids and diameters are a few 1e-15 of it off: a slack
        # of 1e-12 of it per step, and once more, covers both with room
        slack = 1e-12 * (spec.steps + 1) * (start._size + spec.amplitude)
        return spec.clearance > _guard_bound(start, 4.0 * spec.amplitude + slack)

    def phase(flux_curve, c, far):
        # every deformed state is more than spec.clearance apart, so when the
        # clearance exceeds circulation's guard, its distance check cannot fire;
        # far is clear(start) of the family's flux-role curves, decided once
        if far or spec.clearance > _guard_bound(flux_curve):
            return p.alpha * linking_integral(c, flux_curve)
        return ab_phase_circulation(p, FluxLine(curve=flux_curve, flux=f.flux), c)

    far_flux, far_path = clear(f.curve), clear(path)
    # each family starts from (path, f.curve), whose phase is base
    suites = {}
    states = _deform(path, f.curve, spec, False, lb)
    suites["path"] = _suite_entry(
        [base] + [phase(f.curve, c, far_flux) for c, _ in states], base, tol)

    states = _deform(f.curve, path, replace(spec, seed=spec.seed + 1), False, lb)
    suites["flux_curve"] = _suite_entry(
        [base] + [phase(c, path, far_flux) for c, _ in states], base, tol)

    # role swap: the linking integrand is symmetric under exchanging the
    # curves, so using the path as the flux line must reproduce the phase
    states = _deform(path, f.curve, replace(spec, seed=spec.seed + 2), True, lb)
    both = [(base, phase(path, f.curve, far_path))] + [
        (phase(fc, pc, far_flux), phase(pc, fc, far_path)) for pc, fc in states]
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
