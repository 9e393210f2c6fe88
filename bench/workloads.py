"""Seeded inputs, one round of operations, and the answer check of each workload.

A workload is a fixed list of operations, a round, that the worker repeats
until the run's time is used up. The seed chooses the geometry, alphas and
ranges inside the round; the make-up of the round (which kinds of operation,
at which sizes, in which order) is the same for every seed, so every run
does the same amount of work per round and the known faults are the same
share of the operations.

Nothing here imports fluxline. Expected answers come from `oracles`.
"""
import json
import math
from pathlib import Path

import numpy as np

import oracles

NAMES = ("link_files", "phase_deform", "field_fringe")

# answers the program documents as its own tolerances
PHASE_TOL = 1e-3          # the invariance suite's and linking residual's default
POTENTIAL_RTOL = 1e-6     # acceptance criterion 07 on the axis
FRINGE_TOL = 0.01         # share of one fringe spacing; the worst seen is 0.005

FIELD_STEPS = 64
SWEEP_STEPS = 8
PROBES_PER_ROUND = 24
PROBE_LINE = {"radius": 1.0, "flux": 1.0, "samples": 1024}
NEAR_LINE_DISTANCES = (1e-3, 3e-3)
TWO_SLIT = {"x0": 0.5, "t_a": 1.0, "t_b": 3.0, "m": 1.0, "v": 1.0}   # the CLI's defaults


class Op:
    """One operation: what the worker runs (`spec`) and how to judge it.

    `spec` is sent to the worker as JSON. `check(output)` returns True when
    the output passes. `known_fault` marks the operations that fail today
    because of a named fault of the program; they count as failed without
    making the run incorrect.
    """

    def __init__(self, kind, spec, check, known_fault=False):
        self.kind = kind
        self.spec = dict(spec, kind=kind)
        self.check = check
        self.known_fault = known_fault


def _num(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------- geometry

def _rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _circle(center, e1, e2, radius, n):
    theta = 2.0 * np.pi * np.arange(n) / n
    return (np.asarray(center, dtype=float)
            + radius * np.cos(theta)[:, None] * e1
            + radius * np.sin(theta)[:, None] * e2)


def _perturb(points, rng, amp, modes=(2, 3, 4)):
    """Add a smooth closed displacement of peak size amp."""
    n = points.shape[0]
    theta = 2.0 * np.pi * np.arange(n) / n
    disp = np.zeros_like(points)
    for m in modes:
        disp += np.outer(np.cos(m * theta), rng.normal(size=3))
        disp += np.outer(np.sin(m * theta), rng.normal(size=3))
    return points + disp * (amp / np.sqrt((disp * disp).sum(axis=1)).max())


def circle_pair(rng, n, linked):
    """Two perturbed unit-size circles, linked (Hopf-like) or clear apart.

    Linked: the second circle is centred on the first one's rim and stands
    in the plane of the first one's normal, which keeps every point of it
    at distance 1 from the first circle before the 0.1 perturbations.
    Unlinked: the centres are 2.3 apart, so both curves stay in disjoint
    balls of radius 1.1 around their centres.
    """
    e1, e2, nz = np.eye(3)
    a = _circle((0.0, 0.0, 0.0), e1, e2, 1.0, n)
    if linked:
        phi = rng.uniform(0.0, 2.0 * np.pi)
        radial = math.cos(phi) * e1 + math.sin(phi) * e2
        b = _circle(radial, radial, nz, 1.0, n)
        if rng.integers(2):
            b = b[::-1].copy()
    else:
        rot = _rotation(rng)
        b = _circle(2.3 * _rotation(rng)[:, 0], rot[:, 0], rot[:, 1], 1.0, n)
    a = _perturb(a, rng, 0.1)
    b = _perturb(b, rng, 0.1)
    rot, shift, scale = _rotation(rng), rng.uniform(-2.0, 2.0, 3), rng.uniform(0.5, 2.0)
    return scale * a @ rot.T + shift, scale * b @ rot.T + shift


def torus_pair(rng, n):
    """The unit circle and a (1, q) torus knot around it; linking number q."""
    q = int(rng.integers(1, 4))
    r = rng.uniform(0.3, 0.5)
    e1, e2, _ = np.eye(3)
    circle = _circle((0.0, 0.0, 0.0), e1, e2, 1.0, n)
    theta = 2.0 * np.pi * np.arange(n) / n
    rho = 1.0 + r * np.sin(q * theta)
    knot = np.column_stack([rho * np.cos(theta), rho * np.sin(theta), r * np.cos(q * theta)])
    rot, shift = _rotation(rng), rng.uniform(-2.0, 2.0, 3)
    return circle @ rot.T + shift, knot @ rot.T + shift, q


def square_circle_pair():
    """The square and circle of the interpolant-versus-polyline fault.

    The square [-1, 1]^2 in z = 0 has 8 points per edge; the circle (centre
    (0.7, 1.025, 0), radius 0.1, normal y, 64 points) clears its edge by
    0.025. The trigonometric interpolant of the square bulges up to 0.020
    past the polyline, so the spectral Gauss sum links the interpolant with
    the circle while the polygons themselves are unlinked.
    """
    e = np.linspace(-1.0, 1.0, 9)[:-1]
    one, zero = np.ones(8), np.zeros(8)
    square = np.concatenate([
        np.column_stack([e, -one, zero]), np.column_stack([one, e, zero]),
        np.column_stack([-e, one, zero]), np.column_stack([-one, -e, zero]),
    ])
    theta = 2.0 * np.pi * np.arange(64) / 64
    circle = np.column_stack([
        0.7 + 0.1 * np.cos(theta), np.full(64, 1.025), -0.1 * np.sin(theta)])
    return square, circle


def _save_curve(path, points):
    with open(path, "w") as fh:
        json.dump({"points": np.asarray(points).tolist()}, fh)


# ---------------------------------------------------------------- checks

def _json(output):
    if output.get("code") != 0:
        return None
    return json.loads(output["stdout"])


def _csv_rows(text, skip=0):
    """Numeric columns from skip on, below the header line."""
    return [[float(v) for v in line.split(",")[skip:]] for line in text.splitlines()[1:]]


def _link_check(expected):
    def check(output):
        if output.get("code") == 3:
            return True
        rep = _json(output)
        return (rep is not None and rep["rounded"] == expected
                and rep["crossing_count"] == expected and rep["agree"] is True)
    return check


def _phase_check(linking, alpha):
    target = alpha * linking
    tol = PHASE_TOL * max(1.0, abs(alpha))

    def check(output):
        rep = _json(output)
        if rep is None or rep["linking"] != linking:
            return False
        inv = rep["invariance"]
        return (all(abs(v - target) <= tol for v in rep["forms"].values())
                and abs(inv["phase"] - target) <= tol
                and inv["passed"] is True
                and all(s["max_deviation"] < tol for s in inv["suites"].values()))
    return check


def _field_check(z0, z1, radius, flux):
    zs = np.linspace(z0, z1, FIELD_STEPS)
    want = oracles.loop_potential(np.column_stack([0 * zs, 0 * zs, zs]), radius, flux)

    def check(output):
        if output.get("code") != 0 or not output.get("files_ok"):
            return False
        got = np.array(_csv_rows(output["stdout"]))
        if got.shape != (FIELD_STEPS, 5):
            return False
        scale = np.abs(want[:, 2])
        return (np.allclose(got[:, 0], zs, rtol=0.0, atol=1e-12)
                and np.all(np.abs(got[:, 3] - want[:, 2]) <= POTENTIAL_RTOL * scale)
                and np.all(np.abs(got[:, 1:3]) <= POTENTIAL_RTOL * scale[:, None]))
    return check


def _probe_check(point):
    want = oracles.loop_potential(point, PROBE_LINE["radius"], PROBE_LINE["flux"])[0]

    def check(output):
        if output.get("error") in ("UnderResolvedError", "GeometryError"):
            return True
        got = output.get("value")
        return (got is not None and float(np.linalg.norm(np.subtract(got, want)))
                <= POTENTIAL_RTOL * float(np.linalg.norm(want)))
    return check


def _shift_ok(measured, alpha):
    shift, spacing = oracles.fringe_shift(alpha=alpha, **TWO_SLIT)
    return oracles.wrapped_error(measured, shift, spacing) <= FRINGE_TOL * spacing


def _interfere_check(alpha):
    def check(output):
        rep = _json(output)
        return (rep is not None and output.get("files_ok") is True
                and _shift_ok(rep["shift_measured"], alpha))
    return check


def _sweep_check(a0, a1):
    alphas = np.linspace(a0, a1, SWEEP_STEPS)

    def check(output):
        if output.get("code") != 0 or not output.get("files_ok"):
            return False
        rows = _csv_rows(output["stdout"], skip=1)
        return (len(rows) == SWEEP_STEPS
                and all(abs(r[0] - a) <= 1e-12 * max(1.0, abs(a)) and _shift_ok(r[1], a)
                        for r, a in zip(rows, alphas)))
    return check


# ---------------------------------------------------------------- rounds

def _link_op(kind, tmp, tag, a, b, known_fault=False):
    fa, fb = tmp / f"{tag}_a.json", tmp / f"{tag}_b.json"
    _save_curve(fa, a)
    _save_curve(fb, b)
    argv = ["link", "--curve-a", str(fa), "--curve-b", str(fb)]
    return Op(kind, {"argv": argv}, _link_check(oracles.polygon_linking(a, b)), known_fault)


def link_files(rng, tmp):
    """Round: n = 512 pairs spread between the long ones, then the short ones.

    Sorted by latency the round runs square < n = 256 (three) < 512 (four)
    < 1024 (two) < 2048, so the median latency falls inside the group of
    512-point pairs; placing those between the 2048- and 1024-point pairs
    samples the host's speed at four points of each round, not one.
    """
    ops = []
    # None: linked or not by seed
    for n, linked in ((512, True), (2048, None), (512, False), (1024, True), (512, True),
                      (1024, False), (512, False), (256, True), (256, False)):
        a, b = circle_pair(rng, n, bool(rng.integers(2)) if linked is None else linked)
        ops.append(_link_op("link_circles", tmp, f"c{len(ops)}_{n}", a, b))
    a, b, _ = torus_pair(rng, 256)
    ops.append(_link_op("link_torus", tmp, "t256", a, b))
    a, b = square_circle_pair()
    ops.append(_link_op("link_square", tmp, "square", a, b, known_fault=True))
    return {}, ops


def phase_deform(rng, tmp):
    # hopf and the three l2 operations take about the same time, unlinked
    # half as long again, so the median falls among those four, which sample
    # the host's speed at four points of each round
    ops = []
    for preset, n in (("l2", 128), ("hopf", 128), ("l2", 128), ("unlinked", 160), ("l2", 128)):
        seed = int(rng.integers(0, 2 ** 31 - 1))
        alpha = round(float(rng.uniform(-3.0, 3.0)), 6)
        argv = ["phase", "--preset", preset, "--invariance", "--threads", "1",
                "--samples", str(n), "--seed", str(seed), "--alpha", _num(alpha)]
        ops.append(Op("phase", {"argv": argv},
                      _phase_check(oracles.PRESET_LINKING[preset], alpha)))
    return {}, ops


def _probe_point(rng):
    """A point at distance 0.1 to 1.5 from the unit circle, in any direction."""
    phi, psi = rng.uniform(0.0, 2.0 * np.pi, 2)
    d = rng.uniform(0.1, 1.5)
    rho = 1.0 + d * math.cos(psi)
    return [rho * math.cos(phi), rho * math.sin(phi), d * math.sin(psi)]


def field_fringe(rng, tmp):
    ops = []
    z0, z1 = round(float(rng.uniform(-2.0, 0.0)), 6), round(float(rng.uniform(0.5, 3.0)), 6)
    radius, flux = round(float(rng.uniform(0.5, 2.0)), 6), round(float(rng.uniform(0.5, 2.0)), 6)
    out = tmp / "axis.csv"
    ops.append(Op("field", {
        "argv": ["field", "--from", _num(z0), "--to", _num(z1), "--steps", str(FIELD_STEPS),
                 "--radius", _num(radius), "--flux", _num(flux), "--threads", "1", "-o", str(out)],
        "files": [[str(out), "stdout"], [str(out.with_suffix(".json")), "exists"]],
    }, _field_check(z0, z1, radius, flux)))
    for _ in range(PROBES_PER_ROUND):
        p = _probe_point(rng)
        ops.append(Op("probe", {"point": p}, _probe_check(p)))
    for d in NEAR_LINE_DISTANCES:
        p = [PROBE_LINE["radius"] + d, 0.0, 0.0]
        ops.append(Op("near_probe", {"point": p}, _probe_check(p), known_fault=True))
    # the two-slit geometry stays at the CLI defaults: it sets the number of
    # correlation lags, so varying it would vary the work per round with the seed
    for grid in (4096, 16384):
        alpha = round(float(rng.uniform(-2.0 * np.pi, 2.0 * np.pi)), 6)
        d = tmp / f"interfere{grid}"
        files = [[str(d / "report.json"), "stdout"]]
        for name in ("pattern_off", "pattern_on"):
            files += [[str(d / f"{name}.csv"), grid + 1], [str(d / f"{name}.json"), "exists"]]
        ops.append(Op("interfere", {
            "argv": ["interfere", "--alpha", _num(alpha), "--grid", str(grid),
                     "--threads", "1", "-o", str(d)],
            "files": files,
        }, _interfere_check(alpha)))
    for grid in (4096, 16384):
        a0 = round(float(rng.uniform(-2.0 * np.pi, 0.0)), 6)
        a1 = round(float(rng.uniform(0.5, 2.0 * np.pi)), 6)
        out = tmp / f"sweep{grid}.csv"
        ops.append(Op("sweep", {
            "argv": ["sweep", "--from", _num(a0), "--to", _num(a1), "--steps", str(SWEEP_STEPS),
                     "--grid", str(grid), "--threads", "1", "-o", str(out)],
            "files": [[str(out), "stdout"], [str(out.with_suffix(".json")), "exists"]],
        }, _sweep_check(a0, a1)))
    return {"probe_line": PROBE_LINE}, ops


BUILDERS = {"link_files": link_files, "phase_deform": phase_deform, "field_fringe": field_fringe}


def build(name, seed, tmp: Path):
    """(setup, ops) of one round of workload `name` for `seed`."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    return BUILDERS[name](rng, tmp)
