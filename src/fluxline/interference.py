"""Two-slit interference with Gaussian slits and a flux-dependent phase.

One-dimensional transverse quantum motion, classical longitudinal motion at
constant speed v. The flux enters only through the dimensionless phase
alpha_AB carried by the partial wave of the second slit.
"""
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path as _Path

import numpy as np

from .errors import GeometryError, json_text


@dataclass(frozen=True)
class TwoSlitConfig:
    """Geometry and beam parameters; natural units with hbar = 1 by default.

    Slits sit at +-x0 on the first screen (reached at t_a); the detection
    screen is read at t_b. b sets the Gaussian slit width (a rectangular
    slit of width sqrt(pi)*b transmits the same flux). v is the constant
    longitudinal speed, used only to convert times to lengths.
    """

    x0: float = 0.5
    b: float = 0.1
    t_a: float = 1.0
    t_b: float = 3.0
    m: float = 1.0
    hbar: float = 1.0
    v: float = 1.0

    def __post_init__(self):
        ok = (
            self.x0 > 0.0 and self.b > 0.0 and self.m > 0.0
            and self.hbar > 0.0 and self.v > 0.0
            and 0.0 < self.t_a < self.t_b
            and all(
                math.isfinite(v)
                for v in (self.x0, self.b, self.t_a, self.t_b, self.m,
                          self.hbar, self.v)
            )
        )
        if not ok:
            raise GeometryError(
                "need x0, b, m, hbar, v > 0 and 0 < t_a < t_b, all finite"
            )

    @property
    def v0(self) -> float:
        """Mean transverse speed of a particle that made it through a slit."""
        return self.x0 / self.t_a

    @property
    def beta(self) -> float:
        return self.m / (2.0 * self.hbar)

    @property
    def alpha_broad(self) -> float:
        """Slit-width broadening rate; distinct from the flux phase alpha."""
        return self.hbar / (self.m * self.b * self.b)

    @property
    def spread_classical(self) -> float:
        return self.b * self.t_b / self.t_a

    @property
    def spread_quantum(self) -> float:
        return self.hbar * (self.t_b - self.t_a) / (self.m * self.b)

    @property
    def dx2(self) -> float:
        """Squared total broadening on the detection screen."""
        return self.spread_classical ** 2 + self.spread_quantum ** 2

    @property
    def chi_broad(self) -> float:
        """Classical-to-quantum broadening ratio."""
        return self.spread_classical / self.spread_quantum

    def as_dict(self) -> dict:
        return asdict(self)


def beam_geometry(cfg: TwoSlitConfig):
    """(L, lambda_bar, d): screen distance, reduced wavelength, slit gap."""
    L = cfg.v * (cfg.t_b - cfg.t_a)
    lambda_bar = cfg.hbar / (cfg.m * cfg.v)
    return L, lambda_bar, 2.0 * cfg.x0


def fringe_spacing(cfg: TwoSlitConfig) -> float:
    """Central fringe period of the full two-slit density.

    The density's cosine argument is linear in x_b with slope
    -(2 chi v0 t_b / dx^2 + 4 beta x0 / (t_b - t_a)); the period is 2 pi
    over that magnitude.
    """
    slope = (
        2.0 * cfg.chi_broad * cfg.v0 * cfg.t_b / cfg.dx2
        + 4.0 * cfg.beta * cfg.x0 / (cfg.t_b - cfg.t_a)
    )
    return 2.0 * np.pi / slope


def psi_one_slit(cfg: TwoSlitConfig, x_b, slit_sign: int) -> complex:
    """Single-slit wave at the detection screen, flux absent.

    slit_sign +1 selects the slit at +x0, -1 the slit at -x0 (replacing
    x0 -> -x0 and v0 -> -v0).
    """
    if slit_sign not in (+1, -1):
        raise GeometryError("slit_sign must be +1 or -1")
    x_b = np.asarray(x_b, dtype=float)
    x0 = slit_sign * cfg.x0
    v0 = slit_sign * cfg.v0
    tb, ta, h = cfg.t_b, cfg.t_a, cfg.hbar
    pref = np.sqrt(
        cfg.m / (2.0 * np.pi * 1j * h * (tb + 1j * cfg.alpha_broad * ta * (tb - ta)))
    )
    expo = (
        -(1.0 - 1j * cfg.chi_broad) * (x_b - v0 * tb) ** 2 / (2.0 * cfg.dx2)
        + 1j * cfg.beta * (x_b - x0) ** 2 / (tb - ta)
        + 1j * cfg.beta * x0 * x0 / ta
    )
    out = pref * np.exp(expo)
    return complex(out) if out.ndim == 0 else out


def density(cfg: TwoSlitConfig, x_b, alpha_AB: float):
    """Two-slit probability density with the flux phase alpha_AB.

    Three-term form: two single-slit envelopes plus an interference term
    whose cosine argument carries -alpha_AB. alpha_AB = 0 is the flux-off
    density; the value is non-negative for every x_b.
    """
    x_b = np.asarray(x_b, dtype=float)
    tb, ta, h = cfg.t_b, cfg.t_a, cfg.hbar
    u1 = x_b - cfg.v0 * tb
    u2 = x_b + cfg.v0 * tb
    pref = cfg.m / (
        4.0 * np.pi ** 2 * h * h
        * (tb * tb + cfg.alpha_broad ** 2 * ta * ta * (tb - ta) ** 2)
    )
    cos_arg = (
        cfg.chi_broad * (u1 * u1 - u2 * u2) / (2.0 * cfg.dx2)
        + cfg.beta * ((x_b - cfg.x0) ** 2 - (x_b + cfg.x0) ** 2) / (tb - ta)
        - alpha_AB
    )
    val = pref * (
        np.exp(-u1 * u1 / cfg.dx2)
        + np.exp(-u2 * u2 / cfg.dx2)
        + 2.0 * np.exp(-(u1 * u1 + u2 * u2) / (2.0 * cfg.dx2)) * np.cos(cos_arg)
    )
    return float(val) if val.ndim == 0 else val


def reduced_density(cfg: TwoSlitConfig, x_b, alpha_AB: float):
    """Narrow-spread limit of the density, kept for fringe location only.

    Proportional to cos(delta'/2) with delta' = 2 m x_b x0 / (hbar (t_a -
    t_b)) + alpha_AB; not non-negative, and its cosine runs at half the
    full form's argument rate, so only the extremum positions of its
    absolute value are meaningful.
    """
    x_b = np.asarray(x_b, dtype=float)
    tb, ta, h = cfg.t_b, cfg.t_a, cfg.hbar
    pref = cfg.m * np.exp(-cfg.x0 ** 2 / cfg.dx2) / (
        np.pi ** 2 * h * h
        * (tb * tb + cfg.alpha_broad ** 2 * ta * ta * (tb - ta) ** 2)
    )
    delta = 2.0 * cfg.m * x_b * cfg.x0 / (h * (ta - tb)) + alpha_AB
    val = pref * np.cos(0.5 * delta)
    return float(val) if val.ndim == 0 else val


@dataclass(frozen=True)
class Pattern:
    """Density samples over a uniform symmetric grid, with provenance."""

    x: np.ndarray
    values: np.ndarray
    config: TwoSlitConfig
    alpha: float

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        v = np.array(self.values, dtype=float)
        if x.ndim != 1 or v.shape != x.shape or x.size < 2:
            raise GeometryError("pattern needs matching 1-d grids")
        if np.any(np.diff(x) <= 0.0):
            raise GeometryError("pattern grid must be strictly increasing")
        x.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)

    @cached_property
    def _signal(self):
        """`_fringe_signal` of the values at the grid's mean step and the
        config's fringe: the flux-off side of `ab_shift_measured`, cached
        because a sweep measures every step against one flux-off pattern."""
        dx = float(self.x[-1] - self.x[0]) / (self.x.size - 1)
        z = _fringe_signal(self.values, dx, fringe_spacing(self.config))
        z.flags.writeable = False
        return z


def default_half_width(cfg: TwoSlitConfig) -> float:
    """20 total broadenings: wide enough to hold the envelope and fringes."""
    return 20.0 * math.sqrt(cfg.dx2)


def pattern(cfg: TwoSlitConfig, alpha_AB: float, half_width: float = None,
            n_grid: int = 4096) -> Pattern:
    """Sample the full density on a uniform grid over [-W, W]."""
    if n_grid < 64:
        raise GeometryError("n_grid must be >= 64")
    if half_width is None:
        half_width = default_half_width(cfg)
    if not (half_width > 0.0 and math.isfinite(half_width)):
        raise GeometryError("half_width must be finite and positive")
    x = np.linspace(-half_width, half_width, n_grid)
    return Pattern(x=x, values=density(cfg, x, alpha_AB), config=cfg,
                   alpha=float(alpha_AB))


def ab_shift_analytic(L: float, lambda_bar: float, d: float,
                      alpha_AB: float) -> float:
    """Analytic fringe shift (L * lambda_bar / d) * alpha_AB; raises on overflow."""
    if not d > 0.0:
        raise GeometryError("slit separation d must be positive")
    shift = L * lambda_bar / d * alpha_AB
    if not math.isfinite(shift):
        raise GeometryError(f"analytic fringe shift overflows at alpha_AB = {alpha_AB:.6g}")
    return shift


def _fringe_signal(values, dx, fringe):
    """One-sided complex fringe signal of a pattern.

    Gaussian bandpass of width 0.2 * f0 around the fringe frequency f0 in
    the FFT domain, negative frequencies removed. A wider band passes part
    of the non-oscillating envelope at f = 0 (1% at 0.33 * f0), which
    biases the phase.
    """
    freq = np.fft.fftfreq(values.size, d=dx)
    f0 = 1.0 / fringe
    mask = np.exp(-0.5 * ((freq - f0) / (0.2 * f0)) ** 2)
    mask[freq <= 0.0] = 0.0
    return np.fft.ifft(np.fft.fft(values) * mask)


def ab_shift_measured(off: Pattern, on: Pattern) -> float:
    """Fringe displacement between a flux-off and a flux-on pattern.

    Returns the t within half a fringe of zero with on(x) approximately
    equal to off(x + t): positive when the flux-on pattern matches the
    flux-off pattern sampled further toward +x_b. Complex demodulation
    (Takeda, Ina & Kobayashi 1982): the phase of the flux-on fringe signal
    against the flux-off one, times fringe / 2 pi. Raises GeometryError
    unless the shared grid is evenly spaced, spans more than 1.1 fringes
    and has at least 3 points per fringe.
    """
    if off.x.shape != on.x.shape or not np.array_equal(off.x, on.x):
        raise GeometryError("patterns must share one grid")
    x = off.x
    span = float(x[-1] - x[0])
    dx = span / (x.size - 1)
    # linspace rounding varies the step by far less than 1e-6 of it
    if np.ptp(np.diff(x)) > 1e-6 * dx:
        raise GeometryError("pattern grid must be evenly spaced for the FFT bandpass")
    fringe = fringe_spacing(off.config)
    if span <= 1.1 * fringe:
        raise GeometryError(
            f"grid of {x.size} points over {span:.6g} cannot measure the fringe"
            f" shift: it spans 1.1 fringes or less (fringe spacing {fringe:.6g});"
            " widen it"
        )
    if fringe < 3.0 * dx:
        raise GeometryError(
            f"grid step {dx:.6g} cannot measure the fringe shift: it gives under 3"
            f" points per fringe (fringe spacing {fringe:.6g}); refine or narrow"
            " the grid"
        )
    z_on = _fringe_signal(on.values, dx, fringe)
    return float(np.angle(np.vdot(off._signal, z_on))) * fringe / (2.0 * np.pi)


def quantization_report(n_e: int, N: int, superconducting: bool) -> dict:
    """Observability of the flux phase under charge and flux quantization.

    Normal rings carry integer flux quanta: the phase factor is exp(2 pi i
    n_e N) = 1 for any integers, never observable. Superconducting rings
    quantize in half quanta and the carriers pair, so with unit charge the
    factor is (-1)^N: observable exactly when N is odd. Pure integer
    arithmetic; no trigonometry.
    """
    for name, val in (("n_e", n_e), ("N", N)):
        if not isinstance(val, (int, np.integer)) or isinstance(val, bool):
            raise GeometryError(f"{name} must be an integer")
    if superconducting:
        factor = complex((-1) ** int(N), 0.0)
        return {"phase_factor": factor, "observable": int(N) % 2 == 1}
    return {"phase_factor": complex(1.0, 0.0), "observable": False}


def _csv(header, columns, prefix=""):
    """CSV text: the header line, then a line per row of the stacked
    columns, led by prefix, each value at 15 significant digits.

    One `%` format over the whole table: the only CSV formatter of the
    package's output files.
    """
    table = np.column_stack(columns)
    row = prefix + ",".join(["%.15g"] * table.shape[1]) + "\n"
    return header + "\n" + (row * table.shape[0]) % tuple(table.ravel().tolist())


def write_pattern(pat: Pattern, csv_path):
    """CSV 'x_b,density' at 15 significant digits plus a JSON sidecar."""
    csv_path = _Path(csv_path)
    csv_path.write_text(_csv("x_b,density", (pat.x, pat.values)))
    meta = {"alpha": pat.alpha, "config": pat.config.as_dict(),
            "n_grid": int(pat.x.size), "half_width": float(pat.x[-1])}
    csv_path.with_suffix(".json").write_text(json_text(meta))
