"""Write the outputs of a fixed set of CLI runs, for a byte-identity check.

    python3 tools/cli_corpus.py OUT
    python3 tools/cli_corpus.py --pin

The second form writes the corpus into a temporary directory and pins its
digests in tools/cli_corpus.sha256.json (`digests`), with numpy's version;
tests/test_cli_corpus.py regenerates the corpus and names every file whose
digest moved. A change that means to move outputs pins again and explains
the file's diff.

Runs through `fluxline.cli.main`, in-process, with fluxline imported from
this checkout's `src/`:

- every command-line operation of the rounds of the three benchmark
  workloads for seeds 0, 1 and 2 (`bench/workloads.build`);
- `link` and `phase --invariance` for each preset at 128 and 1024 samples;
- `gauge-demo --closed-line`;
- `field --from -1 --to 1 --steps 65`, whose axis holds z = 0 exactly,
  and a default `sweep`, whose first row is alpha = 0: rows the benchmark
  seeds never produce;
- refusals, each exiting 2: `link` on a curve file that crosses itself and
  `link` on two curves that share a point;
- `link --threads 2` on a square of 1024 points threaded by a circle of
  1024 nodes, whose linking sum is not truncated: four 256-row blocks;
- `link` on a hairpin whose legs lie 1e-13 apart, under the self check's
  tolerance of 1e-12 times the largest coordinate (exit 2), and on one
  whose legs lie 1e-9 apart (exit 0).

The runs on scaled curves come last, after the library probes below:
`link` on a Hopf pair of 256-point circles scaled by 1e160, and on the
figure-eight and the circle of radius 3 about it, scaled by 1e-150,
1e-100, 1e100, 1e150 and 1e160, where squared distances overflow or
underflow. After them come `field --to 1e200`, `field --radius 1e200`,
`field --radius 1e-110` and `field --radius 1e-105 --samples 64 --steps
3`, where the pair sum or the analytic column overflows; `link` on the
Hopf pair scaled by 1e-50 and 1e-120; and `phase --preset hopf --samples
128 --invariance --steps 256`.

Each run gets a directory OUT/NNN-label holding its argv, stdout, stderr,
exit code and a copy of every file it wrote. A run that raises records the
exception's type and message in place of its exit code.

After the CLI runs come library probes, through public names only, so
that this file runs against an older `src/` too:

- `vector_potential`, which the benchmark times, on the `field_fringe`
  probe line at that workload's probe and near-probe points for seeds 0, 1
  and 2, and at points above a segment's midpoint from 1e-9 to 1e-3 from
  the line, across the guard of 1e-6 diameters;
- the pruned scans: `min_distance`, exact and at cutoffs of 1e-9
  diameters, half and twice the distance, on the `link_files` pairs of
  seeds 0, 1 and 2 and on the presets at 128 and 1024 samples;
  `crossing_linking` both ways on those presets; and
  `open_path_gauge_shift` on the probe line, along open paths from the
  axis to the points across the guard;
- `crossing_linking` on inputs with exact ties, each both ways round and on
  both orientations of its surface: loops through the apex of a square fan
  of exact coordinates, inside one of its edges and inside a face on a plane
  of the apex; through an interior vertex, an edge and a diagonal of a
  3 x 3 grid, each with and without a path vertex there; paths that touch
  the apex or the grid's interior vertex and turn back, or lie in the
  surface around it; and, on fans of the unit circle, paths 3e-9 above and
  through a rim vertex, coplanar paths inside the fan, and a fan and its
  threading circle scaled by 1e-150, 1e-100 and 1e-75;
- `crossing_linking` both ways on the `link_files` pairs of seeds 0, 1 and
  2, and on a 1023-point star whose every 32-segment run passes the apex
  of a 1024-triangle fan, so that every pair of runs meets, forward and
  reversed.

After the last runs come four more sets of library probes:

- on the Hopf preset's 256-point flux circle scaled by 2^k, k in {-150,
  -300, -550, 100}: `span_surface(...).area()`, and `solid_angle`,
  `surface_point_distance` and `curves.distance_to_curve` at the point
  2^k (0.3, 0.2, 0.1), 0.1 of the scale off the fan;
- `crossing_linking` of rectangles in the xz-plane through the point
  (0.5, 0, 0) of a 64-point unit-disk fan, with far corners at 1e20, 1e100
  and 1e160, forward and reversed;
- every state of `deform_homotopy` of the hopf and l2 presets' paths about
  their flux curves at 128 samples, with `phase`'s default deformation for
  seeds 0 and 1;
- `diameter` of 64-point circles of radius 1e-200 in the planes x = 0 and
  x = 1, and `min_distance` to their copies 3e-200 above, where an extent
  far below the coordinates loses its bits.

Then come two more runs: `phase --preset hopf --samples 128 --invariance
--clearance 1e-7 --steps 8`, whose clearance is under the guard, so that
each deformed state decides on its own whether circulation's check runs;
and `interfere --alpha 1.3 --grid 16384 --half-width 1000`, whose pattern
CSVs hold exact zeros, subnormals and values below 1e-280.

Then come six runs of `gauge-demo --solenoid`: the default, `--turns 3
--flux 0.5`, `--turns 0`, `--samples 16 --turns 7`, and `--radius 1 --rho0
1.7e308` and `--radius 1e-310 --rho0 2e-310`, at the ends of the float
range. Last comes `phase --preset l2 --samples 127 --invariance --steps
17`: an odd node count, and one deformed state past the suite's batch
of 16 states at that count.

Each set gets a directory OUT/NNN-label holding `values`: per probe, its
arguments (a point's hex bytes, or a name) and the hex bytes of the result,
or the refusal's exception and message. The curve files the runs read
and the files they write live in one fixed directory under the system's
temporary directory, not under OUT, because reports embed those paths. So
two checkouts give the same corpus exactly when `diff -r OUT_A OUT_B` is
empty.
"""
import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
import fluxline  # noqa: E402
from fluxline import cli  # noqa: E402

WORK = Path(tempfile.gettempdir()) / "fluxline-cli-corpus"
DIGESTS = ROOT / "tools" / "cli_corpus.sha256.json"
SEEDS = (0, 1, 2)
SAMPLES = (128, 1024)


def rounds(name, seed, built):
    """The operations of a benchmark round, built once into built per corpus.

    The corpus reads their argv, curve files and points, never their checks,
    so the exact polygon linking numbers the `link_files` checks hold are
    not computed: that oracle took 7.5 s of a 9.8 s corpus.
    """
    if (name, seed) not in built:
        tmp = WORK / f"{name}-{seed}"
        tmp.mkdir(parents=True)
        exact = workloads.oracles.polygon_linking
        workloads.oracles.polygon_linking = lambda a, b: 0
        try:
            built[name, seed] = workloads.build(name, seed, tmp)[1]
        finally:
            workloads.oracles.polygon_linking = exact
    return built[name, seed]


def runs(built):
    """(label, argv, files written) of every run, in order."""
    for name in workloads.NAMES:
        for seed in SEEDS:
            for op in rounds(name, seed, built):
                if "argv" in op.spec:
                    yield (f"{name}-{seed}-{op.kind}", op.spec["argv"],
                           [path for path, _ in op.spec.get("files", [])])
    for preset in cli.PRESETS:
        for n in SAMPLES:
            yield f"link-{preset}-{n}", ["link", "--preset", preset, "--samples", str(n)], []
            yield (f"phase-{preset}-{n}",
                   ["phase", "--preset", preset, "--samples", str(n), "--invariance"], [])
    yield "gauge-demo-closed-line", ["gauge-demo", "--closed-line"], []
    yield "field-through-zero", ["field", "--from", "-1", "--to", "1", "--steps", "65"], []
    yield "sweep-default", ["sweep"], []
    # a figure-eight crosses itself at the origin, inside segments 63 and
    # 191; a circle and its reflection through its vertex 0 share that vertex
    t = [2.0 * math.pi * (k + 0.5) / 256 for k in range(256)]
    curves = {"eight": [[math.cos(a), 0.5 * math.sin(2.0 * a), 0.0] for a in t],
              "circle": [[math.cos(a), math.sin(a), 0.0] for a in t]}
    x0, y0, _ = curves["circle"][0]
    curves["reflected"] = [[2.0 * x0 - x, 2.0 * y0 - y, 0.0] for x, y, _ in curves["circle"]]
    # the square [-1, 1]^2 in z = 0 has corners, so it is not band-limited;
    # the circle of radius 0.5 about (1, 0, 0) in the xz-plane threads it
    e = [-1.0 + k / 128 for k in range(256)]
    curves["square"] = ([[x, -1.0, 0.0] for x in e] + [[1.0, y, 0.0] for y in e]
                        + [[-x, 1.0, 0.0] for x in e] + [[-1.0, -y, 0.0] for y in e])
    t = [2.0 * math.pi * k / 1024 for k in range(1024)]
    curves["threading"] = [[1.0 + 0.5 * math.cos(a), 0.0, 0.5 * math.sin(a)] for a in t]
    # two straight legs at z = 0.5, above the unit circle, gap apart in y
    for gap in ("1e-13", "1e-9"):
        curves[f"hairpin-{gap}"] = ([[(k + 0.25) / 128, 0.0, 0.5] for k in range(128)]
                                    + [[(127.75 - k) / 128, float(gap), 0.5] for k in range(128)])
    tmp = WORK / "curves"
    tmp.mkdir(parents=True)
    for name, points in curves.items():
        (tmp / f"{name}.json").write_text(json.dumps({"points": points}) + "\n")
    for label, a, b in (("self-crossing", "eight", "circle"), ("touching", "circle", "reflected")):
        yield (f"link-{label}",
               ["link", "--curve-a", str(tmp / f"{a}.json"), "--curve-b", str(tmp / f"{b}.json")], [])
    yield ("link-native-sum",
           ["link", "--curve-a", str(tmp / "square.json"), "--curve-b", str(tmp / "threading.json"),
            "--threads", "2"], [])
    for gap in ("1e-13", "1e-9"):
        yield (f"link-hairpin-{gap}", ["link", "--curve-a", str(tmp / f"hairpin-{gap}.json"),
                                       "--curve-b", str(tmp / "circle.json")], [])


def probe_sets(built):
    """(label, lines of `values`) of every set of library probes, in order."""
    line = probe_line()
    for seed in SEEDS:
        ops = rounds("field_fringe", seed, built)
        yield (f"field_fringe-{seed}-probes",
               [probe(line, op.spec["point"]) for op in ops if op.kind in ("probe", "near_probe")])
    mid = 0.5 * (line.curve.points[0] + line.curve.points[1])
    ends = [mid + [0.0, 0.0, d] for d in (1e-9, 1.9e-6, 2.1e-6, 1e-5, 1e-3)]
    yield "guard-probes", [probe(line, p) for p in ends]
    link_pairs = {}
    for seed in SEEDS:
        ops = rounds("link_files", seed, built)
        link_pairs[seed] = [(f"{k}-{op.kind}", *map(fluxline.load_curve, op.spec["argv"][2:5:2]))
                            for k, op in enumerate(ops)]
        yield f"link_files-{seed}-min_distance", distance_probes(link_pairs[seed])
    presets = [(f"{name}-{n}", *preset_curves(name, n)) for name in cli.PRESETS for n in SAMPLES]
    yield "presets-min_distance", distance_probes(presets)
    yield "presets-crossing_linking", crossing_probes(presets)
    # straight open paths of 64 segments from the axis to the points across the guard
    start, steps = np.array([0.0, 0.0, 0.5]), np.linspace(0.0, 1.0, 65)[:, None]
    yield "guard-open-paths", [
        f"{end.tobytes().hex()} "
        f"{value(fluxline.open_path_gauge_shift, line, start + steps * (end - start))}"
        for end in ends]
    yield "ties-crossing_linking", [
        f"{label}-{way}-{side} {value(fluxline.crossing_linking, p, surf)}"
        for label, path, (square, flipped) in tie_probes()
        for way, p in (("forward", path), ("reversed", path.reversed()))
        for side, surf in (("up", square), ("down", flipped))]
    for seed in SEEDS:
        yield f"link_files-{seed}-crossing_linking", crossing_probes(link_pairs[seed])
    # 341 spikes, each at its own golden-angle step: in at radius 0.05 and
    # z = 0.5, down through the fan to radius 1.5 and z = -0.5, and back up
    # outside it. Each 32-segment run's box holds the origin, the apex of
    # every triangle run's box; the last of its 32 runs holds 31 segments,
    # and the star crosses the fan 341 times
    phi = np.repeat(np.arange(341) * math.pi * (3.0 - math.sqrt(5.0)), 3)
    r, z = np.tile([0.05, 1.5, 1.5], 341), np.tile([0.5, -0.5, 0.5], 341)
    star = fluxline.ClosedCurve(np.column_stack([r * np.cos(phi), r * np.sin(phi), z]))
    fan = fluxline.span_surface(fluxline.make_circle((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), 1024))
    yield "all-runs-meet-crossing_linking", [
        f"star-{way} {value(fluxline.crossing_linking, p, fan)}"
        for way, p in (("forward", star), ("reversed", star.reversed()))]


def last_runs():
    """(label, argv, files written) of the runs after the library probes, in order."""
    tmp = WORK / "scaled"
    tmp.mkdir(parents=True)
    yield scaled_hopf(tmp, 1e160)
    # the figure-eight that `runs` wrote, and the circle of radius 3 about it
    eight, circle = (json.loads((WORK / "curves" / f"{name}.json").read_text())["points"]
                     for name in ("eight", "circle"))
    for scale in (1e-150, 1e-100, 1e100, 1e150, 1e160):
        files = []
        for name, points, size in (("eight", eight, scale), ("circle", circle, 3.0 * scale)):
            files.append(tmp / f"{name}-{scale:g}.json")
            scaled = [[size * x for x in p] for p in points]
            files[-1].write_text(json.dumps({"points": scaled}) + "\n")
        yield (f"link-eight-{scale:g}",
               ["link", "--curve-a", str(files[0]), "--curve-b", str(files[1])], [])
    for argv in (["--to", "1e200"], ["--radius", "1e200"], ["--radius", "1e-110"],
                 ["--radius", "1e-105", "--samples", "64", "--steps", "3"]):
        yield f"field-{argv[0][2:]}-{argv[1]}", ["field", *argv], []
    for scale in (1e-50, 1e-120):
        yield scaled_hopf(tmp, scale)
    yield ("phase-hopf-128-steps-256",
           ["phase", "--preset", "hopf", "--samples", "128", "--invariance", "--steps", "256"], [])


def scale_probe_sets():
    """(label, lines of `values`) of the probe sets after the last runs, in order."""
    flux_curve = preset_curves("hopf", 256)[0]
    lines = []
    for k in (-150, -300, -550, 100):
        c = fluxline.ClosedCurve(np.ldexp(flux_curve.points, k))
        x = np.ldexp([0.3, 0.2, 0.1], k)
        probes = (("area", lambda: fluxline.span_surface(c).area()),
                  ("solid_angle", lambda: fluxline.solid_angle(x, fluxline.span_surface(c))),
                  ("surface_point_distance",
                   lambda: fluxline.surface_point_distance(x, fluxline.span_surface(c))),
                  ("distance_to_curve", lambda: fluxline.curves.distance_to_curve(x, c)))
        lines += [f"2^{k} {name} {value(fn)}" for name, fn in probes]
    yield "scaled-hopf-surface", lines
    disk = fluxline.span_surface(fluxline.make_circle((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), 64))
    rows = []
    for far in (1e20, 1e100, 1e160):
        path = fluxline.ClosedCurve(np.array(
            [(0.5, 0, -far), (0.5, 0, 0), (0.5, 0, far), (far, 0, far), (far, 0, -far)]))
        rows += [f"rectangle-{far:g}-{way} {value(fluxline.crossing_linking, p, disk)}"
                 for way, p in (("forward", path), ("reversed", path.reversed()))]
    yield "far-rectangles-crossing_linking", rows
    rows = []
    for name in ("hopf", "l2"):
        flux_curve, path = preset_curves(name, 128)
        for seed in (0, 1):
            spec = fluxline.DeformationSpec(amplitude=0.2, n_modes=3, seed=seed, steps=20,
                                            clearance=0.05)
            states = value(lambda: [c.points for c in
                                    fluxline.deform_homotopy(path, flux_curve, spec)])
            rows.append(f"{name}-128-seed{seed} {states}")
    yield "presets-deform_homotopy", rows
    rows = []
    for x in (0.0, 1.0):
        c = fluxline.make_circle((x, 0.0, 0.0), 1e-200, (1.0, 0.0, 0.0), 64)
        above = fluxline.ClosedCurve(c.points + [0.0, 0.0, 3e-200])
        rows += [f"x={x:g} diameter {value(c.diameter)}",
                 f"x={x:g} min_distance {value(fluxline.min_distance, c, above)}"]
    yield "tiny-circles-off-the-origin", rows


def end_runs():
    """(label, argv, files written) of the runs after the last probe sets, in order."""
    # a clearance under the guard of 1e-6 diameters, so under the invariance
    # suite's bound for a family too: every state decides on its own
    yield ("phase-hopf-128-clearance-1e-7",
           ["phase", "--preset", "hopf", "--samples", "128", "--invariance",
            "--clearance", "1e-7", "--steps", "8"], [])
    # a grid 50 times wider than the envelope: the density's tails hold exact
    # zeros, subnormals and values below 1e-280, which the CSV formatter
    # writes one at a time
    out = WORK / "interfere-half-width-1000"
    yield ("interfere-half-width-1000",
           ["interfere", "--alpha", "1.3", "--grid", "16384", "--half-width", "1000",
            "-o", str(out)],
           [out / name for name in ("pattern_off.csv", "pattern_off.json", "pattern_on.csv",
                                    "pattern_on.json", "report.json")])
    for argv in ([], ["--turns", "3", "--flux", "0.5"], ["--turns", "0"],
                 ["--samples", "16", "--turns", "7"], ["--radius", "1", "--rho0", "1.7e308"],
                 ["--radius", "1e-310", "--rho0", "2e-310"]):
        yield ("-".join(["gauge-demo-solenoid", *(a.lstrip("-") for a in argv)]),
               ["gauge-demo", "--solenoid", *argv], [])
    yield ("phase-l2-127-steps-17",
           ["phase", "--preset", "l2", "--samples", "127", "--invariance", "--steps", "17"], [])


def scaled_hopf(tmp, scale):
    """The run of `link` on the 256-point Hopf pair scaled by scale, after writing its files."""
    files = []
    for name, c in zip(("a", "b"), preset_curves("hopf", 256)):
        files.append(tmp / f"hopf-{name}-{scale:g}.json")
        files[-1].write_text(json.dumps({"points": (c.points * scale).tolist()}) + "\n")
    return (f"link-hopf-{scale:g}",
            ["link", "--curve-a", str(files[1]), "--curve-b", str(files[0])], [])


def crossing_probes(pairs):
    """`values` lines of crossing_linking on each (label, a, b), both ways round."""
    return [f"{label}-{way} {value(fluxline.crossing_linking, p, fluxline.span_surface(s))}"
            for label, a, b in pairs for way, p, s in (("ab", a, b), ("ba", b, a))]


def tie_probes():
    """(label, path, (surface, the surface flipped)) of the crossing-count tie probes."""
    def surfaces(vertices, triangles):
        t = np.array(triangles)
        return tuple(fluxline.Surface(np.array(vertices, dtype=float), f) for f in (t, t[:, ::-1]))

    def loop(points):
        return fluxline.ClosedCurve(np.array(points, dtype=float))

    fan = surfaces([(0, 0, 0), (1, -1, 0), (1, 1, 0), (-1, 1, 0), (-1, -1, 0)],
                   [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1)])
    grid = surfaces([(x, y, 0) for y in (-1, 0, 1) for x in (-1, 0, 1)],
                    [f for i in (0, 1, 3, 4) for f in ((i, i + 1, i + 4), (i, i + 4, i + 3))])
    for name, mesh, x, y in (("fan-apex", fan, 0, 0), ("fan-edge", fan, 0.5, 0.5),
                             ("fan-face", fan, 0.25, 0), ("grid-vertex", grid, 0, 0),
                             ("grid-edge", grid, 0.5, 0), ("grid-diagonal", grid, 0.5, 0.5)):
        for via in (0, 1):
            points = [(x, y, -1)] + [(x, y, 0)] * via + [(x, y, 1), (3, y, 1), (3, y, -1)]
            yield f"{name}-via{via}", loop(points), mesh
    for name, mesh in (("fan", fan), ("grid", grid)):
        yield f"{name}-touch", loop([(-0.5, 0, -1), (0, 0, 0), (0.5, 0, -1)]), mesh
        square = [(-0.5, -0.5, 0), (0.5, -0.5, 0), (0.5, 0.5, 0), (-0.5, 0.5, 0)]
        yield f"{name}-flat", loop(square), mesh
    z = (0.0, 0.0, 1.0)
    unit = fluxline.span_surface(fluxline.make_circle((0.0, 0.0, 0.0), 1.0, z, 1024))
    disk = fluxline.span_surface(fluxline.make_circle((0.0, 0.0, 0.0), 1.0, z, 64))
    for rim in (3e-9, 0.0):
        yield (f"rim-{rim:g}", loop([(0, 0, -1), (0, 0, 1), (1, 0, rim), (2, 0, rim), (2, 0, -1)]),
               surfaces(unit.vertices, unit.triangles))
    for n, mesh in ((64, disk), (600, disk)):
        yield (f"coplanar-{n}", fluxline.make_circle((0.2, 0.0, 0.0), 0.3, z, n),
               surfaces(mesh.vertices, mesh.triangles))
    ring = fluxline.make_circle((1.0, 0.0, 0.0), 1.0, (0.0, 1.0, 0.0), 64)
    for scale in (1e-150, 1e-100, 1e-75):
        yield (f"scaled-{scale:g}", fluxline.ClosedCurve(ring.points * scale),
               surfaces(disk.vertices * scale, disk.triangles))


def distance_probes(pairs):
    """`values` lines of min_distance on each (label, a, b): exact and at three cutoffs."""
    out = []
    for label, a, b in pairs:
        d = fluxline.min_distance(a, b)
        touch = 1e-9 * max(a.diameter(), b.diameter())
        out += [f"{label} exact {np.float64(d).tobytes().hex()}"] + [
            f"{label} cutoff={name} {value(fluxline.min_distance, a, b, cutoff=cutoff)}"
            for name, cutoff in (("touch", touch), ("half", 0.5 * d), ("twice", 2.0 * d))]
    return out


def preset_curves(name, n):
    """The flux curve and the second curve of a `link --preset`, as the command builds them."""
    unit = fluxline.make_circle((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), n)
    if name == "hopf":
        return unit, fluxline.make_circle((1.0, 0.0, 0.0), 1.0, (0.0, 1.0, 0.0), n)
    if name == "unlinked":
        return unit, fluxline.make_circle((4.0, 0.0, 3.0), 1.0, (0.0, 0.0, 1.0), n)
    return unit, fluxline.make_torus_knot(1, 2, 1.0, 0.4, n)


def probe_line():
    """The line of the `field_fringe` probes, built as the benchmark's worker builds it."""
    spec = workloads.PROBE_LINE
    return fluxline.FluxLine(
        fluxline.make_circle((0.0, 0.0, 0.0), spec["radius"], (0.0, 0.0, 1.0), spec["samples"]),
        spec["flux"])


def probe(line, point):
    """One line of `values`: the point's bytes and the potential's, or the refusal."""
    head = np.asarray(point, dtype=float).tobytes().hex()
    return f"{head} {value(fluxline.vector_potential, line, point, threads=1)}"


def value(fn, *args, **kwargs):
    """fn(*args, **kwargs) as the hex bytes of a float array, or the refusal."""
    try:
        return np.asarray(fn(*args, **kwargs), dtype=float).tobytes().hex()
    except fluxline.FluxlineError as e:
        return f"{type(e).__name__}: {e}"


def run(argv):
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a traceback: recorded, so that the runs after it still run
            code = f"{type(e).__name__}: {e}"
    return code, out.getvalue(), err.getvalue()


def digests(out):
    """{entry: {file: SHA-256}} of the corpus written to out.

    Reports and messages embed WORK, which follows the system's temporary
    directory; it is hashed as the placeholder `$WORK`.
    """
    work = str(WORK).encode()
    return {d.name: {f.name: hashlib.sha256(f.read_bytes().replace(work, b"$WORK")).hexdigest()
                     for f in sorted(d.iterdir())}
            for d in sorted(out.iterdir())}


def main(argv):
    if argv == ["--pin"]:
        with tempfile.TemporaryDirectory() as tmp:
            write(Path(tmp))
            pinned = {"numpy": np.__version__, "entries": digests(Path(tmp))}
        DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    elif len(argv) == 1 and not argv[0].startswith("-"):
        write(Path(argv[0]))
    else:
        sys.exit(__doc__)


def write(out):
    """Write the corpus to out."""
    out.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(WORK, ignore_errors=True)
    built = {}
    for k, (label, args, files) in enumerate(runs(built)):
        write_run(out / f"{k:03d}-{label}", args, files)
    for k, (label, lines) in enumerate(probe_sets(built), start=k + 1):
        write_values(out / f"{k:03d}-{label}", lines)
    for k, (label, args, files) in enumerate(last_runs(), start=k + 1):
        write_run(out / f"{k:03d}-{label}", args, files)
    for k, (label, lines) in enumerate(scale_probe_sets(), start=k + 1):
        write_values(out / f"{k:03d}-{label}", lines)
    for k, (label, args, files) in enumerate(end_runs(), start=k + 1):
        write_run(out / f"{k:03d}-{label}", args, files)
    shutil.rmtree(WORK, ignore_errors=True)


def write_values(d, lines):
    """Write the probe lines to d/values."""
    d.mkdir()
    (d / "values").write_text("".join(x + "\n" for x in lines))
    print(f"{d.name}: {len(lines)} probes")


def write_run(d, args, files):
    """Run args and write its argv, exit code, output and written files to d."""
    code, stdout, stderr = run(args)
    d.mkdir()
    (d / "argv.json").write_text(json.dumps(args) + "\n")
    (d / "code").write_text(f"{code}\n")
    (d / "stdout").write_text(stdout)
    (d / "stderr").write_text(stderr)
    for path in map(Path, files):
        if path.exists():
            shutil.copy(path, d / path.name)
    print(f"{d.name}: exit {code}")


if __name__ == "__main__":
    main(sys.argv[1:])
