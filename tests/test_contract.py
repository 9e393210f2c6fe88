"""The geometry's exact symmetries, as a tested contract.

Metamorphic testing (Chen, Cheung & Yiu, HKUST-CS98-01, 1998): every public
geometric result is taken on a configuration and on a transform of it, and
the two must agree as the mathematics says they do.

- Scaling every coordinate by 2^k and reflecting z -> -z are exact in binary
  floating point (Higham, Accuracy and Stability of Numerical Algorithms,
  2nd ed., 2.1). So each result must be the exactly transformed value, bit
  for bit (a pseudoscalar or a pseudovector changes sign as the reflection
  says), or the same refusal. A scaled configuration may also be refused by
  a GeometryError that names its size.
- Permuting the axes, reversing the flux curve, shifting the points of both
  curves cyclically and swapping the curves' roles hold in exact arithmetic
  only. Integers and exit codes must be equal, and floats within REL of the
  result's size.

No warning may escape. A configuration is a flux curve c, a path p, a point
x and an open path g from x: a preset, two perturbed circles, or the
32-point square threaded by a circle, at 64 to 256 points.
"""
import re
import warnings
from dataclasses import astuple

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import fluxline as fl
from conftest import random_pair
from fluxline import cli
from fluxline.curves import distance_to_curve

# floats under the inexact symmetries agree within REL of their size: of the
# value, plus the configuration's diameter to the result's degree
REL = 1e-11
SIZE = re.compile(r"on a curve \S+ across|coordinates reach \S+, above")
SETTINGS = settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _flux(c):
    return fl.FluxLine(c, 1.0)


# kind: the signs that z -> -z puts on a result, the signs that reversing
# the flux curve puts on it, and the order of its entries after the axes
# (x, y, z) become (y, z, x)
KINDS = {
    "scalar": (1.0, 1.0, None),
    "pseudoscalar": (-1.0, -1.0, None),
    "pseudovector": ([-1.0, -1.0, 1.0], -1.0, [1, 2, 0]),
    "linking": ([-1.0, -1.0, 1.0], [-1.0, -1.0, 1.0], None),  # raw, rounded, residual
    "points": ([1.0, 1.0, -1.0], None, None),  # (m, 3) coordinates
}
# name, result of (flux curve c, path p, point x, open path g), its degree
# under scaling, and its kind
RESULTS = [
    ("min_distance", lambda c, p, x, g: fl.min_distance(c, p), 1, "scalar"),
    ("diameter", lambda c, p, x, g: c.diameter(), 1, "scalar"),
    ("distance_to_curve", lambda c, p, x, g: distance_to_curve(x, c), 1, "scalar"),
    ("gauss_linking", lambda c, p, x, g: astuple(fl.gauss_linking(p, c)), 0, "linking"),
    ("crossing_linking",
     lambda c, p, x, g: fl.crossing_linking(p, fl.span_surface(c)), 0, "pseudoscalar"),
    ("area", lambda c, p, x, g: fl.span_surface(c).area(), 2, "scalar"),
    ("solid_angle", lambda c, p, x, g: fl.solid_angle(x, fl.span_surface(c)), 0, "pseudoscalar"),
    ("surface_point_distance",
     lambda c, p, x, g: fl.surface_point_distance(x, fl.span_surface(c)), 1, "scalar"),
    ("vector_potential", lambda c, p, x, g: fl.vector_potential(_flux(c), x), -1, "pseudovector"),
    ("grad_solid_angle", lambda c, p, x, g: fl.grad_solid_angle(x, c), -1, "pseudovector"),
    ("circulation", lambda c, p, x, g: fl.circulation(_flux(c), p), 0, "pseudoscalar"),
    ("open_path_gauge_shift",
     lambda c, p, x, g: fl.open_path_gauge_shift(_flux(c), g), 0, "pseudoscalar"),
]
# results whose start point moves under reversal and a cyclic shift: under
# the exact symmetries only
POINTS = [("resample", lambda c, p, x, g: fl.resample(c, 97).points, 1, "points")]
# the results of the pair alone, the same with the roles swapped
PAIR = ("min_distance", "gauss_linking", "crossing_linking", "circulation")


def _outcome(fn, config):
    """fn(*config) as a float array, or the FluxlineError it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.asarray(fn(*config), dtype=float)
        except fl.FluxlineError as e:
            return e


def _exit_code(outcome):
    """The code `fluxline` exits with on this outcome."""
    if not isinstance(outcome, Exception):
        return 0
    return {fl.ClearanceError: 4, fl.UnderResolvedError: 3}.get(type(outcome), 2)


def _moved(config, f):
    """The configuration with f applied to every (m, 3) point array."""
    c, p, x, g = config
    return fl.ClosedCurve(f(c.points)), fl.ClosedCurve(f(p.points)), f(x), f(g)


def _square():
    e = np.linspace(-1.0, 1.0, 9)[:-1]
    one, zero = np.ones(8), np.zeros(8)
    return fl.ClosedCurve(np.concatenate([
        np.column_stack([e, -one, zero]), np.column_stack([one, e, zero]),
        np.column_stack([-e, one, zero]), np.column_stack([-one, -e, zero])]))


def _config(c, p, u, v):
    """(c, p, x, g): x and the end of g at c's centroid plus the larger
    diameter times the (3,) offsets u and v, g of 16 segments."""
    size = max(c.diameter(), p.diameter())
    x, y = (c.centroid() + size * np.asarray(w, dtype=float) for w in (u, v))
    return c, p, x, x + np.linspace(0.0, 1.0, 17)[:, None] * (y - x)


# offsets on a grid of 1/64, so that the points stay far from underflow
OFFSETS = st.tuples(*[st.integers(-48, 48).map(lambda i: i / 64.0)] * 3)


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(["hopf", "unlinked", "l2", "smooth", "square"]))
    n = draw(st.sampled_from([64, 128, 256]))
    if kind == "smooth":
        p, c = random_pair(draw(st.integers(0, 2 ** 16)), n, clearance=0.1)
        try:  # the fan of c builds; the role swap spans p
            fl.span_surface(p)
        except fl.GeometryError:
            assume(False)
    elif kind == "square":
        c, p = _square(), fl.make_circle((1.0, 0.0, 0.0), 0.5, (0.0, 1.0, 0.0), n)
    else:
        c, p = cli._preset_curves(kind, n)
    return _config(c, p, draw(OFFSETS), draw(OFFSETS))


# the hopf preset's pair, with x and g clear of the line and the fan
HOPF = _config(*cli._preset_curves("hopf", 256), (0.15, 0.1, 0.05), (0.25, -0.2, 0.3))


def _equal_or_refused_for_size(got, want, name, where):
    if isinstance(got, fl.GeometryError) and SIZE.search(str(got)):
        return
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want)), (name, where)
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, want), (name, where, got, want)


@SETTINGS
@given(config=configs(), k=st.integers(-600, 200))
@example(config=HOPF, k=-600)
@example(config=HOPF, k=-550)
@example(config=HOPF, k=-300)
@example(config=HOPF, k=-150)
@example(config=HOPF, k=200)
def test_scaling_by_a_power_of_2_and_reflection_are_exact(config, k):
    def flip(a):
        return a * [1.0, 1.0, -1.0]

    scaled, reflected = _moved(config, lambda a: np.ldexp(a, k)), _moved(config, flip)
    for name, fn, degree, kind in RESULTS + POINTS:
        base = _outcome(fn, config)
        refused = isinstance(base, Exception)
        for where, moved, want in (
                (f"2^{k}", scaled, base if refused else np.ldexp(base, degree * k)),
                ("z -> -z", reflected, base if refused else base * KINDS[kind][0])):
            _equal_or_refused_for_size(_outcome(fn, moved), want, name, where)


def _close(got, want, size, name, where):
    assert _exit_code(got) == _exit_code(want), (name, where, got, want)
    if not isinstance(want, Exception):
        bound = REL * (np.abs(want).max() + size)
        assert np.all(np.abs(got - want) <= bound), (name, where, got, want)


@SETTINGS
@given(config=configs(), shift=st.integers(1, 63))
@example(config=HOPF, shift=17)
def test_permutation_reversal_shift_and_role_swap_agree(config, shift):
    c, p, x, g = config
    diameter = max(c.diameter(), p.diameter())
    turned = _moved(config, lambda a: a[..., [1, 2, 0]])
    rolled = (*(fl.ClosedCurve(np.roll(k.points, shift, axis=0)) for k in (c, p)), x, g)
    for name, fn, degree, kind in RESULTS:
        base = _outcome(fn, config)
        _, reversal, order = KINDS[kind]
        refused = isinstance(base, Exception)
        for where, moved, want in (
                ("axes permuted", turned, base if refused or order is None else base[order]),
                ("flux curve reversed", (c.reversed(), p, x, g),
                 base if refused else base * reversal),
                (f"points shifted by {shift}", rolled, base),
                *([("roles swapped", (p, c, x, g), base)] if name in PAIR else [])):
            _close(_outcome(fn, moved), want, diameter ** degree, name, where)
