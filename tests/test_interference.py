"""Two-slit densities, fringe-shift extraction, quantization parity."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluxline as fl
from conftest import local_maxima, unwrap_shift
from fluxline.interference import (
    _BLOCK,
    TwoSlitConfig,
    _csv,
    ab_shift_analytic,
    ab_shift_measured,
    beam_geometry,
    default_half_width,
    density,
    fringe_spacing,
    pattern,
    psi_one_slit,
    quantization_report,
    reduced_density,
    write_pattern,
)

CFG = TwoSlitConfig()


def envelope_modulus(cfg):
    alpha_b = cfg.hbar / (cfg.m * cfg.b ** 2)
    D = np.hypot(cfg.t_b, alpha_b * cfg.t_a * (cfg.t_b - cfg.t_a))
    return np.sqrt(cfg.m / (2.0 * np.pi * cfg.hbar * D)), D


def test_config_validation():
    with pytest.raises(fl.GeometryError):
        TwoSlitConfig(x0=-1.0)
    with pytest.raises(fl.GeometryError):
        TwoSlitConfig(b=0.0)
    with pytest.raises(fl.GeometryError):
        TwoSlitConfig(t_a=3.0, t_b=1.0)
    with pytest.raises(fl.GeometryError):
        TwoSlitConfig(t_a=0.0)
    with pytest.raises(fl.GeometryError):
        TwoSlitConfig(m=np.inf)


def test_psi_finite_positive_modulus():
    for x in (-12.0, -1.0, 0.0, 0.3, 7.5):
        for s in (+1, -1):
            val = psi_one_slit(CFG, x, s)
            assert np.isfinite(val.real) and np.isfinite(val.imag)
            assert abs(val) > 0.0
    with pytest.raises(fl.GeometryError, match="slit_sign must be"):
        psi_one_slit(CFG, 0.0, 0)


def test_psi_mirror_reflection_exact():
    for x in (0.3, 1.7, -5.2, 12.0):
        assert psi_one_slit(CFG, -x, -1) == psi_one_slit(CFG, x, +1)


def test_psi_prefactor_modulus():
    pref, _ = envelope_modulus(CFG)
    # the envelope peaks where the particle from the slit would arrive
    center = CFG.v0 * CFG.t_b
    assert abs(psi_one_slit(CFG, center, +1)) == pytest.approx(pref, rel=1e-12)
    xs = np.linspace(-30, 30, 2001)
    mods = np.array([abs(psi_one_slit(CFG, x, +1)) for x in xs])
    assert mods.max() <= pref * (1.0 + 1e-12)


def test_density_is_two_path_superposition():
    pref, D = envelope_modulus(CFG)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-10.0, 10.0, 40)
    for alpha in (0.0, 0.7, np.pi, 4.0):
        for x in xs:
            combined = (
                psi_one_slit(CFG, x, +1)
                + np.exp(1j * alpha) * psi_one_slit(CFG, x, -1)
            )
            oracle = abs(combined) ** 2 / (2.0 * np.pi * CFG.hbar * D)
            assert density(CFG, x, alpha) == pytest.approx(oracle, abs=1e-18)


def test_density_period_two_pi():
    xs = np.linspace(-8.0, 8.0, 101)
    base = np.array([density(CFG, x, 0.0) for x in xs])
    shifted = np.array([density(CFG, x, 2.0 * np.pi) for x in xs])
    assert np.max(np.abs(shifted - base)) < 1e-12 * base.max()
    a = np.array([density(CFG, x, 1.1) for x in xs])
    b = np.array([density(CFG, x, 1.1 + 2.0 * np.pi) for x in xs])
    assert np.max(np.abs(a - b)) < 1e-12 * a.max()


def test_density_center_sign_flip_at_pi():
    on = density(CFG, 0.0, np.pi)
    off = density(CFG, 0.0, 0.0)
    assert on < off
    # the two-envelope background sits exactly halfway between them
    envelope = 2.0 * abs(psi_one_slit(CFG, 0.0, +1)) ** 2 / (
        2.0 * np.pi * CFG.hbar * envelope_modulus(CFG)[1]
    )
    assert (on + off) / 2.0 == pytest.approx(envelope, rel=1e-12)


def test_pattern_even_and_nonnegative():
    pat = pattern(CFG, 0.0, n_grid=512)
    assert np.max(np.abs(pat.values - pat.values[::-1])) < 1e-12 * pat.values.max()
    assert np.all(np.diff(pat.x) > 0)
    for alpha in (0.0, 0.7, np.pi):
        assert np.all(pattern(CFG, alpha, n_grid=256).values >= 0.0)


def test_pattern_grid_validation():
    with pytest.raises(fl.GeometryError):
        pattern(CFG, 0.0, n_grid=32)
    with pytest.raises(fl.GeometryError):
        pattern(CFG, 0.0, half_width=-1.0)
    x = np.linspace(-1.0, 1.0, 5)
    for grid, values, match in ((x, x[:4], "matching 1-d grids"),
                                (x[::-1], x, "strictly increasing")):
        with pytest.raises(fl.GeometryError, match=match):
            fl.interference.Pattern(grid, values, CFG, 0.0)


def test_pattern_default_half_width():
    pat = pattern(CFG, 0.0, n_grid=64)
    assert pat.x[-1] == pytest.approx(default_half_width(CFG))
    assert pat.alpha == 0.0
    assert pat.config == CFG


def test_fringe_spacing_from_peaks():
    # wider slit separation packs many fringes under a nearly flat
    # envelope, so peak gaps read the carrier period cleanly
    cfg = TwoSlitConfig(x0=1.0)
    L, lam_bar, d = beam_geometry(cfg)
    expected = 2.0 * np.pi * L * lam_bar / d
    # odd grid keeps the center peak despite the even symmetry
    pat = pattern(cfg, 0.0, half_width=3.2 * expected, n_grid=4097)
    gaps = np.diff(local_maxima(pat.values, pat.x))
    assert len(gaps) >= 4
    assert np.max(np.abs(gaps - expected)) < 0.03 * expected


def test_beam_geometry_convention():
    L, lam_bar, d = beam_geometry(CFG)
    assert L == CFG.v * (CFG.t_b - CFG.t_a)
    assert lam_bar == CFG.hbar / (CFG.m * CFG.v)
    assert d == 2.0 * CFG.x0
    # the exact carrier period carries a small slit-broadening correction
    assert fringe_spacing(CFG) == pytest.approx(
        2.0 * np.pi * L * lam_bar / d, rel=1e-3)


def test_shift_analytic_substitution():
    assert ab_shift_analytic(1.0, 0.01, 0.1, np.pi) == pytest.approx(
        0.1 * np.pi, rel=1e-15)
    assert ab_shift_analytic(1.0, 0.01, 0.1, 0.0) == 0.0
    with pytest.raises(fl.GeometryError):
        ab_shift_analytic(1.0, 0.01, 0.0, 1.0)


def test_shift_analytic_dipole_density_form():
    # flux expressed through the dipole moment line density flux/(4 pi)
    q, flux, L, lam_bar, d = 1.3, 2.2, 1.0, 0.01, 0.1
    alpha = q * flux
    lam_m = flux / (4.0 * np.pi)
    via_density = (L * lam_bar / d) * 4.0 * np.pi * q * lam_m
    assert via_density == pytest.approx(
        ab_shift_analytic(L, lam_bar, d, alpha), rel=1e-15)


def test_shift_self_is_zero():
    off = pattern(CFG, 0.0)
    assert ab_shift_measured(off, off) == 0.0


@pytest.mark.parametrize("n_grid", [200, 4096, 16384])
def test_shift_is_the_pattern_phase_over_a_period(n_grid):
    # the pattern's cosine carries alpha, so its own shift is
    # alpha * fringe / 2 pi; 200 points is 3.1 per fringe
    off = pattern(CFG, 0.0, n_grid=n_grid)
    spacing = fringe_spacing(CFG)
    for alpha in np.linspace(-3.1, 3.1, 13):
        measured = ab_shift_measured(off, pattern(CFG, alpha, n_grid=n_grid))
        assert abs(measured) <= spacing / 2.0
        err = measured - alpha * spacing / (2.0 * np.pi)
        assert abs(err - round(err / spacing) * spacing) < 1e-5


def test_shift_rejects_uneven_grid():
    # a smooth warp keeps the grid increasing; the FFT bandpass would
    # read the warped fringe as a shift of the wrong size
    u = np.linspace(-1.0, 1.0, 4096)
    x = default_half_width(CFG) * (u + 0.1 * np.sin(np.pi * u))
    off = fl.Pattern(x=x, values=density(CFG, x, 0.0), config=CFG, alpha=0.0)
    on = fl.Pattern(x=x, values=density(CFG, x, 1.0), config=CFG, alpha=1.0)
    with pytest.raises(fl.GeometryError, match="evenly spaced"):
        ab_shift_measured(off, on)


def test_shift_pi_matches_analytic():
    off = pattern(CFG, 0.0)
    on = pattern(CFG, np.pi)
    L, lam_bar, d = beam_geometry(CFG)
    analytic = ab_shift_analytic(L, lam_bar, d, np.pi)
    measured = unwrap_shift(ab_shift_measured(off, on), analytic,
                            fringe_spacing(CFG))
    assert abs(measured - analytic) < 0.02 * abs(analytic)


def test_shift_two_pi_unobservable():
    off = pattern(CFG, 0.0)
    on = pattern(CFG, 2.0 * np.pi)
    spacing = fringe_spacing(CFG)
    measured = ab_shift_measured(off, on)
    wrapped = measured - round(measured / spacing) * spacing
    assert abs(wrapped) < 0.01 * spacing


def test_shift_grid_mismatch_rejected():
    with pytest.raises(fl.GeometryError):
        ab_shift_measured(pattern(CFG, 0.0, n_grid=256),
                          pattern(CFG, 0.0, n_grid=128))


@pytest.mark.parametrize("half_width", [0.3, 1e5])
def test_shift_rejects_grid_that_cannot_hold_or_resolve_the_lag_window(half_width):
    # 0.3: the grid spans under 1.1 fringes; 1e5: it has under 3 points
    # per fringe, so the fringe aliases
    off = pattern(CFG, 0.0, half_width=half_width)
    on = pattern(CFG, np.pi, half_width=half_width)
    with pytest.raises(fl.GeometryError, match="cannot measure the fringe shift"):
        ab_shift_measured(off, on)


def test_shift_linear_in_alpha():
    off = pattern(CFG, 0.0)
    L, lam_bar, d = beam_geometry(CFG)
    spacing = fringe_spacing(CFG)
    alphas = np.linspace(-np.pi, np.pi, 9)
    measured = []
    for alpha in alphas:
        analytic = ab_shift_analytic(L, lam_bar, d, alpha)
        measured.append(unwrap_shift(
            ab_shift_measured(off, pattern(CFG, alpha)), analytic, spacing))
    slope = np.polyfit(alphas, measured, 1)[0]
    assert abs(slope - L * lam_bar / d) < 0.03 * L * lam_bar / d


def test_full_and_reduced_forms_locate_same_fringes():
    # far-separated slits put many fringes under a nearly flat envelope
    cfg = TwoSlitConfig(x0=50.0)
    xs = np.linspace(-1.5, 1.5, 1024)
    cell = xs[1] - xs[0]
    full = np.array([density(cfg, x, 0.0) for x in xs])
    reduced = np.array([reduced_density(cfg, x, 0.0) for x in xs])
    full_max = np.where((full[1:-1] > full[:-2]) & (full[1:-1] > full[2:]))[0] + 1
    diff = np.diff(reduced)
    red_ext = np.where(diff[:-1] * diff[1:] < 0.0)[0] + 1
    # the reduced form runs at half rate, so all its extrema sit on full maxima
    assert len(full_max) == len(red_ext) >= 20
    for i in red_ext:
        assert min(abs(xs[i] - xs[j]) for j in full_max) <= cell


def test_quantization_parity():
    even = quantization_report(2, 2, True)
    assert even["phase_factor"] == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert even["observable"] is False
    odd = quantization_report(5, 3, True)
    assert odd["phase_factor"] == pytest.approx(-1.0 + 0.0j, abs=1e-12)
    assert odd["observable"] is True
    normal = quantization_report(7, 4, False)
    assert normal["phase_factor"] == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert normal["observable"] is False
    for n_e, N, name in ((1.0, 3, "n_e"), (1, True, "N")):
        with pytest.raises(fl.GeometryError, match=f"{name} must be an integer"):
            quantization_report(n_e, N, True)


def test_shifts_against_one_flux_off_pattern_keep_their_bits():
    off = pattern(CFG, 0.0, n_grid=1024)
    for alpha in (-2.0, 0.4, 3.0):
        on = pattern(CFG, alpha, n_grid=1024)
        # a fresh flux-off pattern has not demodulated itself yet
        assert ab_shift_measured(off, on) == ab_shift_measured(pattern(CFG, 0.0, n_grid=1024), on)
    with pytest.raises(ValueError):
        off._signal[0] = 0.0


def time_domain_shift(off, on):
    """The reference demodulation: each fringe signal back on the grid, by a
    complex FFT, the bandpass and an inverse FFT, correlated there."""
    x = off.x
    dx = float(x[-1] - x[0]) / (x.size - 1)
    fringe = fringe_spacing(off.config)

    def signal(values):
        freq = np.fft.fftfreq(values.size, d=dx)
        f0 = 1.0 / fringe
        mask = np.exp(-0.5 * ((freq - f0) / (0.2 * f0)) ** 2)
        mask[freq <= 0.0] = 0.0
        return np.fft.ifft(np.fft.fft(values) * mask)

    correlation = np.einsum("i,i->", signal(off.values).conj(), signal(on.values))
    return float(np.angle(correlation)) * fringe / (2.0 * np.pi)


@pytest.mark.parametrize("n_grid", [200, 256, 1024, 4096, 4097, 16384])
def test_spectral_shift_matches_the_time_domain_reference(n_grid):
    off = pattern(CFG, 0.0, n_grid=n_grid)
    fringe = fringe_spacing(CFG)
    for alpha in np.linspace(-2.0 * np.pi, 2.0 * np.pi, 19):
        on = off._with_alpha(alpha)
        d = ab_shift_measured(off, on) - time_domain_shift(off, on)
        # a shift near half a fringe may wrap to either end
        assert abs(d - round(d / fringe) * fringe) <= 1e-14 * fringe
    # an even grid's last bin is the Nyquist frequency, which fftfreq labels
    # negative, so it is cut with the negative half. At 200 points, 3.1 per
    # fringe, the bandpass there is 0.019, yet the pattern holds too little
    # at that frequency for the shift to show it: this pins it instead
    spectrum = off._signal
    assert spectrum.size == n_grid // 2 + 1
    assert spectrum[0] == 0.0
    if n_grid % 2 == 0:
        assert spectrum[-1] == 0.0


@pytest.mark.parametrize("n_grid", [4097, 16384])
def test_shared_terms_keep_every_density_bit(n_grid):
    off = pattern(CFG, 0.0, n_grid=n_grid)
    # one point at a time (a 0-d x) too, in the far tails as well, where the
    # fringe minima cancel and a last-bit change in the cosine argument shows
    at = np.r_[np.linspace(0, n_grid - 1, 41).astype(int), 300:400]
    for alpha in (0.0, -2.0, 0.4, np.pi, 7.5, -40.0):
        values = pattern(CFG, alpha, n_grid=n_grid).values
        assert np.array_equal(values, density(CFG, off.x, alpha))
        assert np.array_equal(values, off._with_alpha(alpha).values)
        assert [density(CFG, x, alpha) for x in off.x[at].tolist()] == values[at].tolist()
    assert off._with_alpha(0.0).values.tobytes() == off.values.tobytes()


def test_patterns_of_one_grid_share_it_and_check_their_values():
    off = pattern(CFG, 0.0, n_grid=256)
    on = off._with_alpha(1.3)
    assert on.x is off.x and not on.values.flags.writeable
    assert (on.config, on.alpha) == (CFG, 1.3)
    with np.errstate(invalid="ignore"), pytest.raises(fl.GeometryError, match="must be finite"):
        off._with_alpha(np.inf)


@pytest.mark.parametrize("where", ["x", "values"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pattern_refuses_non_finite_input(where, bad):
    # a NaN passes the grid's order check, and any of these demodulates to a NaN shift
    arrays = {"x": np.linspace(-1.0, 1.0, 64), "values": np.ones(64)}
    arrays[where][5] = bad
    with pytest.raises(fl.GeometryError, match="must be finite"):
        fl.Pattern(config=CFG, alpha=0.0, **arrays)


def test_write_pattern_round_trip(tmp_path):
    pat = pattern(CFG, np.pi, n_grid=64)
    csv_path = tmp_path / "pat.csv"
    write_pattern(pat, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x_b,density"
    assert len(lines) == 65
    xs = np.array([float(l.split(",")[0]) for l in lines[1:]])
    vs = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.max(np.abs(xs - pat.x)) < 1e-12 * np.max(np.abs(pat.x))
    assert np.max(np.abs(vs - pat.values)) < 1e-12 * pat.values.max()
    side = json.loads((tmp_path / "pat.json").read_text())
    assert side["alpha"] == pytest.approx(np.pi)
    assert side["n_grid"] == 64
    assert side["config"]["x0"] == CFG.x0
    assert side["half_width"] == pytest.approx(default_half_width(CFG))


def percent_csv(header, columns, prefix=""):
    """The reference: one `%.15g` format over the whole table."""
    table = np.column_stack(columns)
    row = prefix + ",".join(["%.15g"] * table.shape[1]) + "\n"
    return header + "\n" + (row * table.shape[0]) % tuple(table.ravel().tolist())


def assert_same_text(got, want):
    """got == want, reported by the first line that differs: pytest's own
    diff of two texts this long takes minutes."""
    lines = enumerate(zip(got.split("\n"), want.split("\n")))
    assert next(((k, g, w) for k, (g, w) in lines if g != w), None) is None
    assert len(got) == len(want)


def decimal_edges():
    """Powers of ten and their neighbours 1 ulp away, both signs."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    return np.concatenate([near, -near])


@settings(max_examples=60, deadline=None)
@given(cols=st.integers(1, 5), rows=st.sampled_from([1, 2, 17, _BLOCK + 5]),
       seed=st.integers(0, 2 ** 32 - 1), prefix=st.sampled_from(["", "alpha,"]),
       special=st.lists(st.floats(width=64), max_size=64))
def test_csv_matches_percent_format(cols, rows, seed, prefix, special):
    rng = np.random.default_rng(seed)
    # random bit patterns span every exponent, subnormals and non-finite values included
    table = rng.integers(0, 2 ** 64, size=(rows, cols), dtype=np.uint64).view(np.float64)
    flat = table.ravel()
    # short decimals end in zeros once rounded to 15 digits; N + 1/2,
    # 10 N + 5 and 100 N + 50 for a 15-digit N are ties, exact in doubles
    short = rng.integers(1, 10 ** rng.integers(1, 16, flat.size)) * 10.0 ** rng.integers(
        -30, 30, flat.size)
    half = (rng.integers(10 ** 14, 18 * 10 ** 13, flat.size) + 0.5) * 10.0 ** rng.integers(
        0, 3, flat.size)
    pick = rng.integers(0, 4, flat.size)
    flat[pick == 1] = short[pick == 1]
    flat[pick == 2] = half[pick == 2]
    flat[pick == 3] = rng.choice(decimal_edges(), flat.size)[pick == 3]
    flat[rng.integers(0, flat.size, len(special))] = special
    columns = tuple(table.T)
    assert_same_text(_csv("h", columns, prefix).decode(), percent_csv("h", columns, prefix))


def test_csv_edge_values():
    # 1.064195944169395e-09 lies 4.2e-17 units of its 15th digit above a
    # half: too near for the vector path to certify (unguarded, it rounds
    # down), so it is formatted on its own
    edges = [1e-5, 1e-4, 1e14, 1e15, -1e-5, -1e-4, -1e14, -1e15,
             999999999999999.5, 100000000000000.5, 100000000000001.5, 1.064195944169395e-09,
             1.5e-300, -1.2345e123, 9.99e-100, 1e100, 5e-324, -5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, 1e-280, 1e280, 0.0, -0.0, np.inf, -np.inf, np.nan]
    column = np.concatenate([edges, decimal_edges()])
    text = _csv("v", (column,)).decode()
    assert_same_text(text, percent_csv("v", (column,)))
    lines = text.splitlines()[1:len(edges) + 1]
    assert lines[:12] == ["1e-05", "0.0001", "100000000000000", "1e+15", "-1e-05", "-0.0001",
                          "-100000000000000", "-1e+15", "1e+15", "100000000000000",
                          "100000000000002", "1.0641959441694e-09"]
    assert lines[16:18] == ["4.94065645841247e-324", "-4.94065645841247e-324"]
    assert lines[-5:] == ["0", "-0", "inf", "-inf", "nan"]


def test_csv_of_a_pattern_matches_percent_format():
    pat = pattern(CFG, 1.3, half_width=1000.0, n_grid=16384)
    columns = (pat.x, pat.values)
    assert_same_text(_csv("x_b,density", columns).decode(), percent_csv("x_b,density", columns))
