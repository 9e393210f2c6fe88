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
    val = _combine(_terms(cfg, np.asarray(x_b, dtype=float)), alpha_AB)
    return float(val) if val.ndim == 0 else val


def _terms(cfg: TwoSlitConfig, x_b):
    """The parts of `density` that do not depend on alpha_AB: (pref, env,
    cross, arg), the prefactor, the sum of the two single-slit envelopes,
    twice the interference envelope and the flux-off cosine argument."""
    tb, ta, h = cfg.t_b, cfg.t_a, cfg.hbar
    u1 = x_b - cfg.v0 * tb
    u2 = x_b + cfg.v0 * tb
    # products, not `** 2`: a numpy scalar's `** 2` can differ from an
    # array's in the last bit, and a point must get the bits it gets in a grid
    s1 = x_b - cfg.x0
    s2 = x_b + cfg.x0
    pref = cfg.m / (
        4.0 * np.pi ** 2 * h * h
        * (tb * tb + cfg.alpha_broad ** 2 * ta * ta * (tb - ta) ** 2)
    )
    arg = (
        cfg.chi_broad * (u1 * u1 - u2 * u2) / (2.0 * cfg.dx2)
        + cfg.beta * (s1 * s1 - s2 * s2) / (tb - ta)
    )
    env = np.exp(-u1 * u1 / cfg.dx2) + np.exp(-u2 * u2 / cfg.dx2)
    cross = 2.0 * np.exp(-(u1 * u1 + u2 * u2) / (2.0 * cfg.dx2))
    return pref, env, cross, arg


def _combine(terms, alpha_AB: float):
    """The density of alpha_AB from its `_terms`, evaluated as one expression
    of the three-term form, so that it keeps its bits however the terms
    were shared."""
    pref, env, cross, arg = terms
    return pref * (env + cross * np.cos(arg - alpha_AB))


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
    """Density samples over a uniform symmetric grid, with provenance.

    `pattern` and `_with_alpha` also set `_terms`: the config's on the grid."""

    x: np.ndarray
    values: np.ndarray
    config: TwoSlitConfig
    alpha: float

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        v = np.array(self.values, dtype=float)
        if x.ndim != 1 or v.shape != x.shape or x.size < 2:
            raise GeometryError("pattern needs matching 1-d grids")
        # a NaN passes the order check below, and demodulates to a NaN shift
        if not (np.isfinite(x).all() and np.isfinite(v).all()):
            raise GeometryError("pattern grid and values must be finite")
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

    def _with_alpha(self, alpha_AB: float) -> "Pattern":
        """The pattern of alpha_AB on this grid and config, sharing this
        pattern's terms: the density's alpha-free work, done once for
        every pattern of a command. The grid is read-only and checked
        already, so it is shared, not copied and checked again; only the
        values are checked."""
        values = _combine(self._terms, alpha_AB)
        if not np.isfinite(values).all():
            raise GeometryError("pattern grid and values must be finite")
        values.flags.writeable = False
        pat = object.__new__(Pattern)
        # a frozen dataclass guards its attributes only against plain assignment
        for name, value in (("x", self.x), ("values", values), ("config", self.config),
                            ("alpha", float(alpha_AB)), ("_terms", self._terms)):
            object.__setattr__(pat, name, value)
        return pat


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
    terms = _terms(cfg, x)
    pat = Pattern(x=x, values=_combine(terms, alpha_AB), config=cfg, alpha=float(alpha_AB))
    object.__setattr__(pat, "_terms", terms)
    return pat


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
    """Banded one-sided spectrum of a pattern's fringe.

    The real FFT of the values times a Gaussian bandpass of width 0.2 * f0
    around the fringe frequency f0, zero at f <= 0. A wider band passes
    part of the non-oscillating envelope at f = 0 (1% at 0.33 * f0), which
    biases the phase. An even length's last bin, the Nyquist frequency,
    has no sign of its own; `fftfreq` labels it negative, so it is zeroed.
    """
    n = values.size
    freq = np.fft.fftfreq(n, d=dx)[:n // 2 + 1]
    f0 = 1.0 / fringe
    mask = np.exp(-0.5 * ((freq - f0) / (0.2 * f0)) ** 2)
    mask[freq <= 0.0] = 0.0
    return np.fft.rfft(values) * mask


def ab_shift_measured(off: Pattern, on: Pattern) -> float:
    """Fringe displacement between a flux-off and a flux-on pattern.

    Returns the t within half a fringe of zero with on(x) approximately
    equal to off(x + t): positive when the flux-on pattern matches the
    flux-off pattern sampled further toward +x_b. Complex demodulation
    (Takeda, Ina & Kobayashi 1982): the phase of the flux-on fringe signal
    against the flux-off one, times fringe / 2 pi. By Parseval the two
    signals' correlation over the grid is 1/n times that of their banded
    one-sided spectra, so it is taken on the spectra, with no inverse FFT.
    Raises GeometryError unless the shared grid is evenly spaced, spans
    more than 1.1 fringes and has at least 3 points per fringe.
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
    # numpy's own loop, not BLAS's dot, whose summation order follows its thread count
    correlation = np.einsum("i,i->", off._signal.conj(), z_on)
    return float(np.angle(correlation)) * fringe / (2.0 * np.pi)


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


# ---------------------------------------------------------------- CSV text
#
# `_csv` writes each value as `'%.15g' % value` does, a block of values at a
# time. A finite value v with |v| in [1e-280, 1e280] has a decimal exponent
# X and a 15-digit significand N = round(|v| 10^(14 - X)) in [1e14, 1e15),
# rounded half to even. Each value fills a slot of _SLOT bytes:
#
#   bytes  0-5   the sign and the "0.000" of fixed notation below 1 (_LEAD)
#   bytes  6-25  N's digits, five 3-digit chunks of 4 bytes (_CHUNK): the
#                chunk at the decimal point carries it, the others a zero byte
#   bytes 26-31  "e", the exponent's sign and digits, the separator (_TAIL)
#
# The lead and the tail are written as the 8-byte words 0 and 3, before the
# digits, which overwrite their bytes 6-7 and 24-25. Bytes that the text
# does not show are zero: the lead and tail tables hold zeros where a
# notation shows nothing, and a mask (_KEEP) clears the digits past the last
# one shown and a point with nothing after it. One pass deletes the zero
# bytes of a block.

_SLOT = 32
_BLOCK = 4096                    # values formatted at a time
_X_MAX = 283                     # tables cover exponents -_X_MAX .. _X_MAX
_SPLIT = 134217729.0             # 2^27 + 1: Veltkamp's split into 26-bit halves


def _powers_of_ten():
    """(hi, hi's high and low halves, lo): hi + lo = 10^(14 - X) to 2^-106 of
    it, for X in [-_X_MAX, _X_MAX], from Python's exact integers."""
    hi, lo = [], []
    for k in range(14 + _X_MAX, 13 - _X_MAX, -1):
        if k >= 0:
            h = float(10 ** k)
            r = 10 ** k - int(h)
            d = 1
        else:
            d = 10 ** -k
            h = 1 / d
            num, den = h.as_integer_ratio()
            r, d = den - num * d, den * d
        hi.append(h)
        lo.append(r / d)
    hi = np.array(hi)
    t = hi * _SPLIT
    high = t - (t - hi)
    return hi, high, hi - high, np.array(lo)


_TEN_HI, _TEN_HH, _TEN_HL, _TEN_LO = _powers_of_ten()


def _significand(a, x):
    """N = round(a 10^(14 - x)) per value, and where that rounding is not certified.

    hi + lo is the power of ten to 2^-106 of it and a * hi is split
    exactly into p + err (Dekker 1971), so the residual a 10^(14 - x) - N is
    known to within 1e-15; a residual within 1e-9 of a half is not
    certified. a in [1e-280, 1e280] keeps every partial product of the split
    normal.
    """
    k = x + _X_MAX
    hh, hl = _TEN_HH[k], _TEN_HL[k]
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    p = a * _TEN_HI[k]
    err = ah * hh - p
    err += ah * hl
    err += al * hh
    err += al * hl
    n = np.rint(p)
    r = p - n
    r += err
    r += a * _TEN_LO[k]
    n += r > 0.5
    n -= r < -0.5
    np.abs(r, out=r)
    r -= 0.5
    return n, np.abs(r) < 1e-9


def _layouts():
    """Per exponent X: its layout class, the lead words and the tail word;
    per class: the chunk variants; per class and digit count: the mask.

    Classes 0-18 are fixed notation, X = class - 4; 19 and 20 are
    scientific with a 2- and a 3-digit exponent. A chunk's variant v < 3
    puts the point after its digit v, v = 3 puts a zero byte after its
    three digits.
    """
    xs = np.arange(-_X_MAX, _X_MAX + 1)
    fixed_x = (xs >= -4) & (xs < 15)
    cls = np.where(fixed_x, xs + 4, np.where(np.abs(xs) >= 100, 20, 19))
    lead = np.zeros((xs.size, 2, 8), np.uint8)
    lead[:, 1, 0] = ord("-")
    zeros = (np.arange(5) < 1 - xs[:, None]) & fixed_x[:, None] & (xs[:, None] < 0)
    lead[:, :, 1:6] = np.frombuffer(b"0.000", np.uint8) * zeros[:, None, :]
    tail = np.zeros((xs.size, 8), np.uint8)
    tail[:, 2] = ord("e")
    tail[:, 3] = np.where(xs < 0, ord("-"), ord("+"))
    for i, p in enumerate((100, 10, 1)):
        tail[:, 4 + i] = ord("0") + np.abs(xs) // p % 10
    tail[:, 4] *= np.abs(xs) >= 100
    tail[:, 2:7] *= ~fixed_x[:, None]
    tail[:, 7] = ord(",")
    # the point follows digit X in fixed notation from 1 up, digit 0 in
    # scientific; below 1 the lead carries it
    c = np.arange(21)
    x, fixed = c - 4, c < 19
    point = np.where(fixed, np.where(x >= 0, x, -9), 0)
    first = 3 * np.arange(5)
    variant = np.where((point[:, None] >= first) & (point[:, None] < first + 3),
                       point[:, None] - first, 3)
    # byte b of the digit bytes is at chunk j, offset o; digit index i
    b = np.arange(20)
    j, o = b // 4, b % 4
    v = variant[:, j][:, None, :]
    is_point = o == v + 1
    i = 3 * j + o - (o > v)
    s = np.arange(16)[None, :, None]
    xf = x[:, None, None]
    shown = np.where(fixed[:, None, None] & (xf >= 0), np.maximum(s, xf + 1), s)
    point_shown = np.where(fixed[:, None, None], s > xf + 1, s > 1)
    keep = np.ones((21, 16, _SLOT), bool)
    keep[:, :, 6:26] = np.where(is_point, point_shown, i < shown)
    return (cls, lead.view(np.uint64).ravel(), tail.view(np.uint64).ravel(),
            np.ascontiguousarray(1000 * variant.T),
            (keep * np.uint8(255)).view(f"V{_SLOT}").ravel())


_CLASS, _LEAD, _TAIL, _VARIANT, _KEEP = _layouts()


def _chunks():
    """The 4 bytes of each variant of each 3-digit chunk value c, at
    1000 v + c, and 3 j + c's significant digits at 1000 j + c (0 for c = 0)."""
    c = np.arange(1000)
    digits = np.zeros((1000, 4), np.uint8)
    digits[:, :3] = ord("0") + c[:, None] // np.array([100, 10, 1]) % 10
    v, o = np.arange(4)[:, None, None], np.arange(4)
    chunk = np.where(o == v + 1, ord("."), digits[c[:, None], o - (o > v)])
    sig = 3 - (c % 10 == 0) - (c % 100 == 0)
    sig = np.where(c > 0, 3 * np.arange(5)[:, None] + sig, 0)
    return chunk.astype(np.uint8).view(np.uint32).ravel(), sig.astype(np.int8).ravel()


_CHUNK, _SIG = _chunks()
_CHUNK_SCALE = np.array([1e12, 1e9, 1e6, 1e3, 1.0])[:, None]
_CHUNK_BASE = np.arange(0, 5000, 1000)[:, None]


def _csv_block(values, rows, cols, prefix):
    """The text of `rows` rows of `cols` values each, led by the prefix bytes."""
    a = np.abs(values)
    vector = (a >= 1e-280) & (a <= 1e280)
    zero = a == 0.0
    fallback = ~(vector | zero)
    a[~vector] = 1.0
    x = np.floor(np.log10(a)).astype(np.intp)
    n, uncertain = _significand(a, x)
    # log10 can miss the exponent by one next to a power of ten
    off = np.flatnonzero((n >= 1e15) | (n < 1e14))
    if off.size:
        x[off] += np.where(n[off] >= 1e15, 1, -1)
        n[off], uncertain[off] = _significand(a[off], x[off])
        uncertain[off] |= (n[off] >= 1e15) | (n[off] < 1e14)
    fallback |= uncertain
    n[zero] = 0.0
    x[zero] = 0
    x += _X_MAX
    q = n / _CHUNK_SCALE
    np.floor(q, out=q)
    chunk = q.copy()
    chunk[1:] -= 1000.0 * q[:-1]
    chunk = chunk.astype(np.intp)
    cls = _CLASS[x]
    # a zero has no significant digit: the layout of X = 0 still shows "0"
    sig = _SIG[chunk + _CHUNK_BASE].max(axis=0)
    for j in range(5):
        chunk[j] += _VARIANT[j][cls]
    buf = np.empty((rows, prefix.size + cols * _SLOT), np.uint8)
    buf[:, :prefix.size] = prefix
    slots = buf[:, prefix.size:].reshape(rows, cols, _SLOT)
    words = slots.view(np.uint64)
    words[..., 0] = _LEAD[2 * x + np.signbit(values)].reshape(rows, cols)
    words[..., 3] = _TAIL[x].reshape(rows, cols)
    digits = _CHUNK[np.ascontiguousarray(chunk.T)].view("V20")
    slots[..., 6:26].view("V20")[...] = digits.reshape(rows, cols, 1)
    words &= _KEEP[16 * cls + sig].view(np.uint64).reshape(rows, cols, 4)
    slots[:, -1, -1] = ord("\n")
    if fallback.any():
        at = np.flatnonzero(fallback)
        text = b"".join(("%.15g" % v).encode().ljust(_SLOT - 1, b"\0")
                        for v in values[at].tolist())
        slots[at // cols, at % cols, :-1] = np.frombuffer(text, np.uint8).reshape(-1, _SLOT - 1)
    return buf.tobytes().translate(None, b"\0")


def _csv(header, columns, prefix=""):
    """CSV text as ASCII bytes: the header line, then a line per row of the
    stacked columns, led by prefix, each value as `'%.15g' % value` writes it.

    The only CSV formatter of the package's output files. It formats
    blocks of values at once: each value's 15-digit significand is rounded
    by a certified exact product (`_significand`), and its digits are laid
    out per exponent in byte slots. A value whose rounding that cannot
    certify is formatted on its own with `'%.15g' % value`: a non-finite
    value, a subnormal, a magnitude outside [1e-280, 1e280], or a rounding
    within 1e-9 of a tie. Zeros of either sign take the vector path.
    """
    table = np.column_stack(columns)
    rows, cols = table.shape
    prefix = np.frombuffer(prefix.encode(), np.uint8)
    step = max(1, _BLOCK // cols)
    text = [header.encode() + b"\n"]
    for r in range(0, rows, step):
        block = table[r:r + step]
        text.append(_csv_block(block.ravel(), block.shape[0], cols, prefix))
    return b"".join(text)


def write_pattern(pat: Pattern, csv_path):
    """CSV 'x_b,density' at 15 significant digits plus a JSON sidecar."""
    csv_path = _Path(csv_path)
    csv_path.write_bytes(_csv("x_b,density", (pat.x, pat.values)))
    meta = {"alpha": pat.alpha, "config": pat.config.as_dict(),
            "n_grid": int(pat.x.size), "half_width": float(pat.x[-1])}
    csv_path.with_suffix(".json").write_text(json_text(meta))
