"""Reference values computed apart from fluxline.

Nothing here imports the program. Each oracle rests on a formula of its own:

- `polygon_linking`: the exact linking number of two closed polygons, as the
  sum over segment pairs of the signed solid angle of the quadrilateral the
  pair spans (Banchoff 1976; Klenin & Langowski 2000, Biopolymers 54:307).
- `loop_potential`: the Biot-Savart integral of a circular loop in closed
  form through the complete elliptic integrals K and E; fluxline's potential
  of a flux line is that integral with the flux in the role of the current.
- `fringe_shift`: the analytic two-slit shift L * lambda_bar / d * alpha and
  the fringe spacing that makes it periodic.
- `PRESET_LINKING`: the linking numbers of the CLI presets, fixed by how the
  presets are built.
"""
import math

import numpy as np
from scipy.special import ellipe, ellipk

PRESET_LINKING = {"hopf": 1, "l2": 2, "unlinked": 0}

_ROWS = 128


def _unit(v):
    norm = np.sqrt(np.einsum("...k,...k->...", v, v))
    with np.errstate(invalid="ignore", divide="ignore"):
        out = v / norm[..., None]
    return np.where(norm[..., None] > 0.0, out, 0.0)


def polygon_linking_raw(a, b) -> float:
    """Gauss linking integral of two closed polygons, summed exactly per pair.

    a, b: (n, 3) and (m, 3) vertex arrays with implicit closure. For disjoint
    polygons the result is an integer up to rounding.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a2 = np.roll(a, -1, axis=0)
    b1 = b[None, :, :]
    b2 = np.roll(b, -1, axis=0)[None, :, :]
    total = 0.0
    for i0 in range(0, a.shape[0], _ROWS):
        r1 = a[i0:i0 + _ROWS, None, :]
        r2 = a2[i0:i0 + _ROWS, None, :]
        r13, r14 = b1 - r1, b2 - r1
        r23, r24 = b1 - r2, b2 - r2
        n1 = _unit(np.cross(r13, r14))
        n2 = _unit(np.cross(r14, r24))
        n3 = _unit(np.cross(r24, r23))
        n4 = _unit(np.cross(r23, r13))
        omega = sum(
            np.arcsin(np.clip(np.einsum("ijk,ijk->ij", u, v), -1.0, 1.0))
            for u, v in ((n1, n2), (n2, n3), (n3, n4), (n4, n1))
        )
        orient = np.einsum("ijk,ijk->ij", np.cross(b2 - b1, r2 - r1), r13)
        total += float((omega * np.sign(orient)).sum())
    return total / (4.0 * math.pi)


def polygon_linking(a, b) -> int:
    """Exact linking number of two disjoint closed polygons."""
    raw = polygon_linking_raw(a, b)
    rounded = round(raw)
    if abs(raw - rounded) > 1e-6:
        raise ValueError(f"polygon linking sum {raw!r} is not an integer; "
                         "the polygons touch or are degenerate")
    return int(rounded)


def loop_potential(points, radius: float, flux: float):
    """Potential of a circular flux loop at points, (m, 3).

    The loop has its centre at the origin, lies in z = 0 and runs
    counter-clockwise seen from +z. The value is the loop's Biot-Savart
    field with the flux as the current, in the closed form of Simpson et al.
    (NASA/TM-2001-209790), with K and E taking the parameter m = k^2.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    rho = np.hypot(x, y)
    r2 = rho * rho + z * z
    alpha2 = radius * radius + r2 - 2.0 * radius * rho
    beta2 = radius * radius + r2 + 2.0 * radius * rho
    beta = np.sqrt(beta2)
    m = 1.0 - alpha2 / beta2
    kk, ee = ellipk(m), ellipe(m)
    c = flux / math.pi
    a_z = c / (2.0 * alpha2 * beta) * ((radius * radius - r2) * ee + alpha2 * kk)
    with np.errstate(invalid="ignore", divide="ignore"):
        a_rho = c * z / (2.0 * alpha2 * beta * rho) * (
            (radius * radius + r2) * ee - alpha2 * kk)
        a_x = np.where(rho > 0.0, a_rho * x / rho, 0.0)
        a_y = np.where(rho > 0.0, a_rho * y / rho, 0.0)
    return np.column_stack([a_x, a_y, a_z])


def fringe_shift(x0, t_a, t_b, m, v, alpha, hbar=1.0):
    """(shift, spacing): L * lambda_bar / d * alpha and 2 pi L lambda_bar / d.

    L = v (t_b - t_a) is the screen distance, lambda_bar = hbar / (m v) the
    reduced wavelength and d = 2 x0 the slit separation.
    """
    scale = v * (t_b - t_a) * (hbar / (m * v)) / (2.0 * x0)
    return scale * alpha, 2.0 * math.pi * scale


def wrapped_error(measured: float, expected: float, spacing: float) -> float:
    """Distance from measured to the nearest expected + k * spacing."""
    return abs((measured - expected + 0.5 * spacing) % spacing - 0.5 * spacing)
