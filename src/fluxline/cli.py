"""Command line driver for linking, phases, fields, gauges, interference.

Exit codes: 0 success; 2 bad input (schema, validation, geometry, files); 3
a quadrature residual exceeded tol, or `link`'s Gauss and crossing counts
disagree; 4 a clearance violation. Reports embed the fully resolved
configuration and identical configs reproduce byte-identical outputs.

Each subcommand's options are one table of `Opt` rows. The table alone gives
the flags, the allowed `--config` keys, the defaults, the checks every value
passes (from a flag, a config file or a default) and the embedded config.
"""
import argparse
import functools
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .abphase import (PhaseParams, ab_phase_crossing, ab_phase_flux, ab_phase_topological,
                      invariance_suite)
from .curves import MAX_POINTS, DeformationSpec, load_curve, make_circle, make_torus_knot
from .errors import (ClearanceError, FluxlineError, GeometryError, SchemaError, UnderResolvedError,
                     json_text, read_json)
from .field import FluxLine, _guarded_potential
from .gauge import SolenoidConfig, singular_gauge_closed_line_demo, solenoid_singular_gauge_demo
from .interference import (TwoSlitConfig, _csv, ab_shift_analytic, ab_shift_measured,
                           beam_geometry, fringe_spacing, pattern, write_pattern)
from .parallel import check_threads_env
from .quadrature import MAX_COORDINATE
from .topology import DEFAULT_LINK_TOL, crossing_linking, gauss_linking, span_surface


def _finite(val) -> bool:
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


@dataclass(frozen=True)
class Opt:
    """One option of a subcommand.

    key: config key and report key. kind: "int", "real", "str", "bool" or
    "choice". A null value is accepted only where the default is null.
    at_least / above: inclusive / exclusive lower bound of a number; at_most:
    inclusive upper bound. choices:
    allowed values; argparse enforces them only for kind "choice". A choice
    whose flags are one switch per value takes one help text per switch.
    """

    key: str
    kind: str
    default: object
    help: object = None
    flags: tuple = ()
    at_least: float = None
    above: float = None
    at_most: float = None
    choices: tuple = ()
    metavar: str = None

    def add_to(self, parser):
        flags = self.flags or ("--" + self.key.replace("_", "-"),)
        if self.kind == "bool":
            parser.add_argument(*flags, dest=self.key, action="store_const",
                                const=True, help=self.help)
        elif self.kind == "choice" and len(flags) > 1:
            group = parser.add_mutually_exclusive_group()
            for flag, value, text in zip(flags, self.choices, self.help):
                group.add_argument(flag, dest=self.key, action="store_const",
                                   const=value, help=text)
        else:
            parser.add_argument(
                *flags, dest=self.key, help=self.help, metavar=self.metavar,
                type={"int": int, "real": float}.get(self.kind),
                choices=self.choices if self.kind == "choice" else None)

    def check(self, val):
        """Raise SchemaError naming the key unless val suits this row."""
        if val is None and self.default is None:
            return
        if self.kind == "int":
            ok = isinstance(val, int) and not isinstance(val, bool)
            what = "an integer"
        elif self.kind == "real":
            ok = (isinstance(val, (int, float)) and not isinstance(val, bool)
                  and _finite(val))
            what = "a finite number"
        elif self.kind == "bool":
            ok, what = isinstance(val, bool), "true or false"
        elif self.choices:
            ok, what = val in self.choices, "one of " + ", ".join(self.choices)
        else:
            ok, what = isinstance(val, str), "a string"
        if self.at_least is not None:
            ok = ok and val >= self.at_least
            what += f" >= {self.at_least}"
        if self.above is not None:
            ok = ok and val > self.above
            what += f" > {self.above}"
        if self.at_most is not None:
            ok = ok and val <= self.at_most
            what += f" <= {self.at_most}"
        if not ok:
            raise SchemaError(f"{self.key} must be {what}, got {val!r}")

    def value(self, val):
        """The checked value in the type the computation takes."""
        return float(val) if self.kind == "real" and val is not None else val


PRESETS = ("hopf", "unlinked", "l2")
SEED = Opt("seed", "int", 0, "rng seed for seeded subcommands")
SAMPLES = Opt("samples", "int", 1024, "points per generated curve",
              at_least=8, at_most=MAX_POINTS, metavar="N")
TOL = Opt("tol", "real", DEFAULT_LINK_TOL, "residual tolerance for linking quadrature",
          above=0)
THREADS = Opt("threads", "int", None,
              "checked and unused: every kernel runs on one thread",
              at_least=1)
OUTPUT = Opt("output", "str", None, "write results here",
             flags=("--output", "-o"), metavar="PATH")
FLUX = Opt("flux", "real", 1.0, "flux carried by the line")
TWO_SLIT = (
    Opt("x0", "real", 0.5, "slit half-separation"),
    Opt("b", "real", 0.1, "Gaussian slit width"),
    Opt("t_a", "real", 1.0, "time at slit screen"),
    Opt("t_b", "real", 3.0, "time at detection screen"),
    Opt("m", "real", 1.0, flags=("--mass",)),
    Opt("v", "real", 1.0, "longitudinal speed", flags=("--speed",)),
    Opt("half_width", "real", None, "grid half width (default 20 broadenings)"),
    Opt("n_grid", "int", 4096, "grid points", flags=("--grid",), at_least=64,
        at_most=1048576),
)

LINK = (
    Opt("preset", "choice", None, choices=PRESETS),
    Opt("curve_a", "str", None, "curve JSON file", metavar="FILE"),
    Opt("curve_b", "str", None, "curve JSON file", metavar="FILE"),
    SAMPLES, TOL, SEED, THREADS, OUTPUT,
)
PHASE = (
    Opt("preset", "choice", "hopf", choices=PRESETS),
    Opt("alpha", "real", 1.0, "dimensionless coupling"),
    FLUX, SAMPLES, TOL, SEED, THREADS,
    Opt("invariance", "bool", False,
        "also run the four deformation-invariance suites"),
    # the suite takes its states' phases a batch of about 2048 points at a
    # time (abphase.STACK_POINTS) and holds one batch, so memory does not
    # grow with steps; the bound caps the suite's time
    Opt("steps", "int", 20, "deformation steps", at_least=1, at_most=1024),
    Opt("amplitude", "real", 0.2, "deformation amplitude", at_least=0),
    Opt("clearance", "real", 0.05, "minimum curve separation", above=0),
    # a mode above half the curve's samples aliases; 8192 is half the largest
    Opt("modes", "int", 3, "deformation Fourier modes", at_least=1, at_most=8192),
    OUTPUT,
)
FIELD = (
    FLUX,
    Opt("radius", "real", 1.0, "flux circle radius"),
    # the pair sum and the analytic column cube distances, finite to MAX_COORDINATE
    Opt("start", "real", 0.0, flags=("--from",), metavar="Z0",
        at_least=-MAX_COORDINATE, at_most=MAX_COORDINATE),
    Opt("stop", "real", 2.0, flags=("--to",), metavar="Z1",
        at_least=-MAX_COORDINATE, at_most=MAX_COORDINATE),
    Opt("steps", "int", 64, "number of axis samples", at_least=2, at_most=1048576),
    SAMPLES, SEED, TOL, THREADS, OUTPUT,
)
INTERFERE = (
    Opt("alpha", "real", math.pi, "flux phase"),
    *TWO_SLIT, SEED, THREADS,
    replace(OUTPUT, default="."),
)
GAUGE_DEMO = (
    Opt("mode", "choice", "solenoid", flags=("--solenoid", "--closed-line"),
        choices=("solenoid", "closed-line"),
        help=("infinite-solenoid demo (default)", "closed flux line demo")),
    FLUX,
    Opt("radius", "real", 1.0, "solenoid radius"),
    Opt("rho0", "real", 2.0, "loop radius, > solenoid radius"),
    Opt("turns", "int", 1, "loop winding count"),
    replace(SAMPLES, at_least=16), SEED, TOL, THREADS, OUTPUT,
)
SWEEP = (
    # checked by the table, not by argparse, so a bad name returns 2 from main
    Opt("param", "str", "alpha", "parameter to sweep (alpha)", choices=("alpha",)),
    Opt("start", "real", 0.0, flags=("--from",), metavar="A0"),
    Opt("stop", "real", 2.0 * math.pi, flags=("--to",), metavar="A1"),
    Opt("steps", "int", 8, "sweep points (inclusive ends)", at_least=2,
        at_most=1048576),
    *TWO_SLIT, SEED, THREADS, OUTPUT,
)


def _resolve(args, table):
    """Defaults, overridden by --config file values, overridden by flags.

    Returns (values, config): every value checked and converted for use, and
    the values as given, less `output`, for the report to embed.
    """
    resolved = {opt.key: opt.default for opt in table}
    if args.config:
        file_cfg = read_json(args.config)
        if not isinstance(file_cfg, dict):
            raise SchemaError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(file_cfg) - set(resolved))
        if unknown:
            raise SchemaError(f"{args.config}: unknown config keys {unknown}")
        resolved.update(file_cfg)
    for opt in table:
        val = getattr(args, opt.key)
        if val is not None:
            resolved[opt.key] = val
        opt.check(resolved[opt.key])
    values = {opt.key: opt.value(resolved[opt.key]) for opt in table}
    config = {k: v for k, v in resolved.items() if k != "output"}
    return values, config


def _emit(text, path=None, config=None):
    """Print text; also write it to path, with a `.json` config sidecar if given."""
    sys.stdout.write(text)
    if path:
        path = Path(path)
        path.write_text(text)
        if config is not None:
            path.with_suffix(".json").write_text(json_text({"config": config}))


def _preset_curves(name: str, n: int):
    """(flux_curve, second_curve) for a named built-in configuration."""
    unit = make_circle((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), n)
    if name == "hopf":
        return unit, make_circle((1.0, 0.0, 0.0), 1.0, (0.0, 1.0, 0.0), n)
    if name == "unlinked":
        return unit, make_circle((4.0, 0.0, 3.0), 1.0, (0.0, 0.0, 1.0), n)
    return unit, make_torus_knot(1, 2, 1.0, 0.4, n)


def cmd_link(o, config) -> int:
    if o["preset"]:
        a, b = _preset_curves(o["preset"], o["samples"])
    elif o["curve_a"] and o["curve_b"]:
        a, b = load_curve(o["curve_a"]), load_curve(o["curve_b"])
    else:
        raise SchemaError("need --preset or both --curve-a and --curve-b")
    code = 0
    try:
        res = gauss_linking(a, b, tol=o["tol"])
    except UnderResolvedError as e:
        res, code = e.result, 3
    crossing = crossing_linking(a, span_surface(b))
    # the crossing count is exact: a rounded Gauss count off it is under-resolved
    agree = bool(res.rounded == crossing and code == 0)
    _emit(json_text({
        "raw": res.raw,
        "rounded": res.rounded,
        "residual": res.residual,
        "crossing_count": crossing,
        "agree": agree,
        "config": config,
    }), o["output"])
    return 0 if agree else 3


def cmd_phase(o, config) -> int:
    flux_curve, path = _preset_curves(o["preset"], o["samples"])
    f = FluxLine(curve=flux_curve, flux=o["flux"])
    p = PhaseParams(alpha=o["alpha"])
    link = gauss_linking(path, flux_curve, tol=o["tol"])
    # the circulation and solid-angle forms are alpha times the same
    # `linking_integral` of this pair, which link.raw already holds
    forms = {
        "topological": ab_phase_topological(p, link.rounded),
        "circulation": p.alpha * link.raw,
        "flux": ab_phase_flux(p, f, path),
        "solid_angle": p.alpha * link.raw,
        "crossing": ab_phase_crossing(p, f, path),
    }
    report = {
        "forms": forms,
        "linking": link.rounded,
        "max_spread": max(forms.values()) - min(forms.values()),
        "config": config,
    }
    if o["invariance"]:
        spec = DeformationSpec(amplitude=o["amplitude"], n_modes=o["modes"],
                               seed=o["seed"], steps=o["steps"],
                               clearance=o["clearance"])
        report["invariance"] = invariance_suite(p, f, path, spec)
    _emit(json_text(report), o["output"])
    return 0


def cmd_field(o, config) -> int:
    flux, radius = o["flux"], o["radius"]
    curve = make_circle((0.0, 0.0, 0.0), radius, (0.0, 0.0, 1.0), o["samples"])
    f = FluxLine(curve=curve, flux=flux)
    zs = np.linspace(o["start"], o["stop"], o["steps"])
    # zeros, not zs times the axis: a negative z would put -0.0 in x and y
    points = np.zeros((zs.size, 3))
    points[:, 2] = zs
    # first, so that its refusals of the curve's size come before the column below
    potential = _guarded_potential(f, points)
    # per value, not over the array: numpy's vectorised power rounds
    # otherwise than the C library's in the last bit
    analytic = [flux * radius ** 2 / (2.0 * (radius ** 2 + z ** 2) ** 1.5) for z in zs.tolist()]
    _emit(_csv("z,A_x,A_y,A_z,A_axial_analytic", (zs, potential, analytic)).decode(),
          o["output"], config)
    return 0


def _flux_off_pattern(o):
    """The command's flux-off pattern; its other patterns are built from its terms."""
    cfg = TwoSlitConfig(x0=o["x0"], b=o["b"], t_a=o["t_a"], t_b=o["t_b"],
                        m=o["m"], v=o["v"])
    return pattern(cfg, 0.0, half_width=o["half_width"], n_grid=o["n_grid"])


def _shift_report(off, on) -> dict:
    measured = ab_shift_measured(off, on)
    cfg, alpha = on.config, on.alpha
    L, lam, d = beam_geometry(cfg)
    analytic = ab_shift_analytic(L, lam, d, alpha)
    spacing = 2.0 * np.pi * L * lam / d
    fringe = fringe_spacing(cfg)
    if math.ulp(analytic) > 0.01 * spacing:
        # a double this large cannot place the shift within 1% of a fringe
        raise GeometryError(
            f"alpha_AB = {alpha:.6g} puts the fringe shift at {analytic:.6g}, where"
            f" doubles are spaced wider than 1% of a fringe ({spacing:.6g})")
    if abs(analytic) * abs(spacing - fringe) / spacing > 0.25 * fringe:
        # the pattern shifts by alpha fringe / 2 pi, the analytic form by alpha
        # spacing / 2 pi: a quarter fringe apart, the unwrap below may miscount
        raise GeometryError(
            f"alpha_AB = {alpha:.6g} puts the fringe shift at {analytic:.6g}, where the pattern's"
            f" fringe ({fringe:.6g}) drifts over a quarter fringe from {spacing:.6g}")
    # the measured shift is known modulo the pattern's fringe: unwrap by it
    k = round((analytic - measured) / fringe)
    err = abs(measured + k * fringe - analytic)
    rel = err / abs(analytic) if abs(analytic) > 1e-12 else err / spacing
    return {
        "shift_measured": measured,
        "shift_analytic": analytic,
        "rel_err": rel,
        "wrap_turns": k,
        "fringe_spacing": spacing,
        "fringe_spacing_pattern": fringe,
    }


def cmd_interfere(o, config) -> int:
    off = _flux_off_pattern(o)
    on = off._with_alpha(o["alpha"])
    report = _shift_report(off, on)
    report["config"] = config
    out = Path(o["output"])
    out.mkdir(parents=True, exist_ok=True)
    write_pattern(off, out / "pattern_off.csv")
    write_pattern(on, out / "pattern_on.csv")
    _emit(json_text(report), out / "report.json")
    return 0


def cmd_gauge_demo(o, config) -> int:
    if o["mode"] == "solenoid":
        s = SolenoidConfig(R=o["radius"], flux=o["flux"])
        record = solenoid_singular_gauge_demo(s, o["rho0"], o["turns"],
                                              n=o["samples"])
    else:
        flux_curve, path = _preset_curves("hopf", o["samples"])
        f = FluxLine(curve=flux_curve, flux=o["flux"])
        record = singular_gauge_closed_line_demo(f, path)
    _emit(json_text({**record, "config": config}), o["output"])
    return 0


def cmd_sweep(o, config) -> int:
    off = _flux_off_pattern(o)
    alphas = np.linspace(o["start"], o["stop"], o["steps"])
    reports = [_shift_report(off, off._with_alpha(float(val))) for val in alphas]
    keys = ("shift_measured", "shift_analytic", "rel_err")
    _emit(_csv("param,value," + ",".join(keys),
               (alphas, *([rep[k] for rep in reports] for k in keys)), prefix="alpha,").decode(),
          o["output"], config)
    return 0


COMMANDS = {
    "link": (cmd_link, LINK, "linking number of two closed curves"),
    "phase": (cmd_phase, PHASE, "flux phase in its five forms"),
    "field": (cmd_field, FIELD, "on-axis potential sweep (CSV)"),
    "interfere": (cmd_interfere, INTERFERE, "two-slit patterns and the measured fringe shift"),
    "gauge-demo": (cmd_gauge_demo, GAUGE_DEMO, "singular-gauge demonstrations (JSON)"),
    "sweep": (cmd_sweep, SWEEP, "shift vs a swept parameter (CSV)"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: the tables are constant."""
    parser = argparse.ArgumentParser(
        prog="fluxline",
        description="Linking numbers, flux-line potentials, phases, and "
                    "two-slit interference shifts.",
        epilog="Exit codes: 0 success, 2 bad input, geometry or file, "
               "3 under-resolved residual or disagreeing link counts, 4 clearance violation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, table, text) in COMMANDS.items():
        sub = subs.add_parser(name, help=text)
        sub.add_argument("--config", metavar="FILE",
                         help="JSON file of option overrides (flags still win)")
        for opt in table:
            opt.add_to(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    func, table, _ = COMMANDS[args.command]
    try:
        check_threads_env()
        return func(*_resolve(args, table))
    except (FluxlineError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, ClearanceError):
            return 4
        return 3 if isinstance(e, UnderResolvedError) else 2


if __name__ == "__main__":
    sys.exit(main())
