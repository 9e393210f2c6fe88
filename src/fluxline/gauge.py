"""Surface gauge, open-path gauge dependence, singular-gauge demonstrations."""
import math
from dataclasses import dataclass

import numpy as np

from .curves import ClosedCurve, _min_segment_distance, _scaled
from .errors import GeometryError
from .field import FluxLine, _guard_bound, circulation, potential_at
from .topology import Surface, crossing_linking, solid_angle, span_surface


@dataclass(frozen=True)
class SolenoidConfig:
    """Infinite straight solenoid along the z axis: radius R, total flux."""

    R: float
    flux: float

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise GeometryError("solenoid radius must be finite and positive")
        if not math.isfinite(self.flux):
            raise GeometryError("flux must be finite")


def surface_gauge_circulation(f: FluxLine, surf: Surface, path: ClosedCurve) -> float:
    """Circulation of the surface-supported potential along path.

    In the gauge where the potential is concentrated on the spanning surface,
    the circulation is flux times the signed number of path crossings; no
    line quadrature is involved.
    """
    return f.flux * crossing_linking(path, surf)


def _open_polyline(gamma):
    pts = np.asarray(gamma, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
        raise GeometryError("an open path needs an (n >= 2, 3) point array")
    if not np.all(np.isfinite(pts)):
        raise GeometryError("open path points must be finite")
    d = np.diff(pts, axis=0)
    if not (d != 0.0).any(axis=1).all():  # exact, where squared lengths underflow
        raise GeometryError("consecutive open path points must be distinct")
    return pts, d


def open_path_gauge_shift(f: FluxLine, gamma, threads=None):
    """Open-path phase integral before and after a single-valued gauge move.

    gamma: (n, 3) polyline from a start point O to an end point x. Returns
    (plain, transformed): plain is the line integral of A along gamma;
    transformed adds Lambda(x) - Lambda(O) for the gauge function
    Lambda = -(flux/4pi) * (signed solid angle of the spanned surface).
    The two agree only when gamma is closed or the endpoint solid angles
    happen to match: open-path phases are gauge dependent. An endpoint on
    the spanning surface, where Lambda jumps, raises through `solid_angle`.
    """
    pts, seg = _open_polyline(gamma)
    guard = _guard_bound(f.curve)
    if _min_segment_distance(pts[:-1], seg, *f.curve.segments(), cutoff=guard) <= guard:
        raise GeometryError("open path touches or nearly touches the flux line")
    surf = span_surface(f.curve)
    mids = 0.5 * (pts[:-1] + pts[1:])
    a = potential_at(f, mids)
    plain = float(np.einsum("ij,ij->", a, seg))
    lam = -(f.flux / (4.0 * np.pi))
    transformed = plain + lam * (solid_angle(pts[-1], surf) - solid_angle(pts[0], surf))
    return plain, transformed


def solenoid_potential(s: SolenoidConfig, rho: float) -> float:
    """Azimuthal potential magnitude at cylinder radius rho.

    flux * rho / (2 pi R^2) inside, flux / (2 pi rho) outside; continuous
    at rho = R.
    """
    if not (rho >= 0.0 and math.isfinite(rho)):
        raise GeometryError("rho must be finite and >= 0")
    if rho <= s.R:
        return s.flux * rho / (2.0 * np.pi * s.R * s.R)
    return s.flux / (2.0 * np.pi * rho)


def solenoid_singular_gauge_demo(s: SolenoidConfig, rho0: float, n_turns: int,
                                 n: int = 1024) -> dict:
    """Quantify how the 'gauge' that removes the outside potential pays for it.

    The multi-valued gauge function that cancels the azimuthal potential
    outside the solenoid leaves a potential whose circulation vanishes, so
    it changes the enclosed flux by a string contribution: the transformation
    is not a gauge symmetry. Returns circ_A (quadrature of the true outside
    potential around the loop), circ_Aprime (identically zero), string_flux
    (their difference), and the loop's winding number about the axis.

    The loop is a `ClosedCurve` of n points. n_turns != 0: the circle of
    radius rho0 about the axis traversed n_turns times. n_turns == 0: the
    circle of radius rho0/2 about (rho0, 0, 0) in the plane x = rho0, whose
    every point lies at least rho0 from the axis, outside the solenoid, and
    which does not wind about it. The loop is built on rho0 `_scaled` by a
    power of 2, and the circulation of the outside potential flux/(2 pi rho)
    phi-hat, which does not depend on scale, is taken on its `nodes`, so
    the record is the same at any size.
    """
    if not (rho0 > s.R and math.isfinite(rho0)):
        raise GeometryError("rho0 must exceed the solenoid radius")
    if n < 16:
        raise GeometryError("need at least 16 quadrature samples")
    turns = int(n_turns)
    if n <= 2 * abs(turns):
        raise GeometryError(f"{n} samples cannot count {n_turns} turns: the winding"
                            " needs more than 2 samples per turn")
    _, (rho,) = _scaled(rho0)
    phi = 2.0 * np.pi * (turns or 1) * (np.arange(n) / n)
    cos, sin = rho * np.cos(phi), rho * np.sin(phi)
    loop = ClosedCurve(np.column_stack([cos, sin, np.zeros(n)] if turns else
                                       [np.full(n, rho), 0.5 * cos, 0.5 * sin]))
    (x, y, _), (wx, wy, _) = (a.T for a in loop.nodes)
    circ_a = float(s.flux / (2.0 * np.pi) * np.sum((x * wy - y * wx) / (x * x + y * y)))
    ang = np.angle(loop.points[:, 0] + 1j * loop.points[:, 1])
    dphi = np.diff(np.concatenate([ang, ang[:1]]))
    dphi = (dphi + np.pi) % (2.0 * np.pi) - np.pi
    # vertex angular spacing 2 pi |n_turns| / n stays below pi, so the
    # per-step wrap cannot drop a revolution
    winding = int(np.rint(dphi.sum() / (2.0 * np.pi)))
    circ_aprime = 0.0
    return {
        "circ_A": circ_a,
        "circ_Aprime": circ_aprime,
        "string_flux": circ_aprime - circ_a,
        "winding": winding,
    }


def singular_gauge_closed_line_demo(f: FluxLine, path: ClosedCurve, threads=None) -> dict:
    """Circulation before and after the multi-valued transformation that
    zeroes the closed flux line's potential everywhere.

    before is the honest circulation (flux times linking); after is 0
    identically, so any linked path loses its phase: the transformation has
    silently removed the field, which is the point of the demonstration.
    """
    return {"before": circulation(f, path), "after": 0.0}
