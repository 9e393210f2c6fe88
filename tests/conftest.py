"""Shared geometry builders and independent numerical oracles."""
import threading

import numpy as np
import pytest

import fluxline as fl
from fluxline.curves import _displacement, _mode_columns

Z = np.array([0.0, 0.0, 1.0])
Y = np.array([0.0, 1.0, 0.0])
X = np.array([1.0, 0.0, 0.0])


def circle(center, radius, normal, n=1024):
    return fl.make_circle(np.asarray(center, dtype=float), radius,
                          np.asarray(normal, dtype=float), n)


def hopf_pair(n=1024):
    """Unit circle in the xy-plane and a unit circle threading it."""
    return circle((0, 0, 0), 1.0, Z, n), circle((1, 0, 0), 1.0, Y, n)


@pytest.fixture
def started_threads(monkeypatch):
    """The name of every thread started in the test."""
    started, start = [], threading.Thread.start

    def counting(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


@pytest.fixture(scope="session")
def unit_flux_line():
    return fl.FluxLine(circle((0, 0, 0), 1.0, Z, 1024), 1.0)


@pytest.fixture(scope="session")
def unit_disk():
    return fl.span_surface(circle((0, 0, 0), 1.0, Z, 1024))


def perturbed(c, rng, amp, modes=4):
    """Fourier-displaced copy of c with peak displacement amp, or None."""
    theta = np.linspace(0.0, 2.0 * np.pi, c.n, endpoint=False)
    disp = _displacement(rng, *_mode_columns(theta, modes))
    disp = disp * (amp / max(np.linalg.norm(disp, axis=1).max(), 1e-30))
    try:
        return fl.ClosedCurve(c.points + disp)
    except fl.GeometryError:
        return None


def random_pair(seed, n=1024, clearance=0.05):
    """Seeded pair of perturbed circles with guaranteed clearance.

    Odd seeds center the second circle on the first circle's rim so linked
    configurations occur often; even seeds place it freely. Pairs whose
    second curve cannot be spanned by a fan are redrawn.
    """
    rng = np.random.default_rng(seed)
    while True:
        ca = rng.uniform(-1.5, 1.5, 3)
        ra, rb = rng.uniform(0.5, 1.5, 2)
        na, nb = rng.normal(size=(2, 3))
        base_a = circle(ca, ra, na / np.linalg.norm(na), n)
        if seed % 2:
            cb = base_a.points[int(rng.integers(n))]
        else:
            cb = rng.uniform(-1.5, 1.5, 3)
        a = perturbed(base_a, rng, 0.25 * ra)
        b = perturbed(circle(cb, rb, nb / np.linalg.norm(nb), n), rng, 0.25 * rb)
        if a is None or b is None:
            continue
        if fl.min_distance(a, b) <= clearance:
            continue
        try:
            fl.span_surface(b)
        except fl.GeometryError:
            continue
        return a, b


def refined_solid_angle(x, surf, k=10):
    """Direct midpoint quadrature of the defining surface integral.

    Splits every triangle into k*k congruent subtriangles and sums
    (x' - x) . dS' / |x' - x|^3 at subtriangle centroids. Independent of the
    closed-form per-triangle evaluation it cross-checks.
    """
    a, b, c = surf.corners()
    u = (b - a) / k
    v = (c - a) / k
    area_vec = np.cross(b - a, c - a) * 0.5 / (k * k)
    ii, jj, down = [], [], []
    for i in range(k):
        for j in range(k - i):
            ii.append(i)
            jj.append(j)
            down.append(0)
            if i + j <= k - 2:
                ii.append(i)
                jj.append(j)
                down.append(1)
    ii = np.asarray(ii, dtype=float)
    jj = np.asarray(jj, dtype=float)
    off = np.where(np.asarray(down, dtype=bool), 2.0 / 3.0, 1.0 / 3.0)
    cen = (a[:, None, :]
           + (ii[None, :, None] + off[None, :, None]) * u[:, None, :]
           + (jj[None, :, None] + off[None, :, None]) * v[:, None, :])
    r = cen - np.asarray(x, dtype=float)[None, None, :]
    r3 = np.einsum("tsj,tsj->ts", r, r) ** 1.5
    return float((np.einsum("tsj,tj->ts", r, area_vec) / r3).sum())


def brute_min_distance(a, b, samples=8):
    """Point-cloud lower-bound oracle for segment-pair min distance."""
    def densify(c):
        p = c.points
        q = np.roll(p, -1, axis=0)
        t = np.linspace(0.0, 1.0, samples, endpoint=False)
        return (p[:, None, :] + t[None, :, None] * (q - p)[:, None, :]).reshape(-1, 3)

    pa, pb = densify(a), densify(b)
    best = np.inf
    for chunk in np.array_split(pa, max(1, pa.shape[0] // 512)):
        d2 = ((chunk[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
        best = min(best, float(d2.min()))
    return np.sqrt(best)


def local_maxima(y, x):
    """x-positions of strict interior local maxima of y."""
    i = np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]))[0] + 1
    return x[i]


def unwrap_shift(measured, analytic, spacing, kmax=6):
    """Branch of measured (mod spacing) closest to analytic."""
    ks = np.arange(-kmax, kmax + 1)
    cand = measured + ks * spacing
    return float(cand[np.argmin(np.abs(cand - analytic))])


def axial_solid_angle_magnitude(z):
    """|solid angle| on the axis of a unit disk at height z > 0."""
    return 2.0 * np.pi * (1.0 - z / np.sqrt(1.0 + z * z))


def on_axis_potential_magnitude(flux, radius, z):
    """Axial potential magnitude of a circular flux line."""
    return flux * radius ** 2 / (2.0 * (radius ** 2 + z * z) ** 1.5)
