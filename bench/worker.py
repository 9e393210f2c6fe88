"""Runs one workload's operations in a fresh process and times them.

    python3 bench/worker.py PLAN.json RESULT.json [--setup-only]

run.py starts it with fluxline's source directory on PYTHONPATH and the
BLAS/OpenMP pools pinned to one thread. It imports fluxline, runs one
untimed warm-up operation of each kind, then repeats whole rounds of the
plan's operations, as many as bring their timed work nearest to the run
length. Before an operation, once CAL_EVERY_S seconds have passed since the
last calibration, and after the last operation, it times a fixed
calibration task that does not touch fluxline (`calibrate`), so run.py can
scale each latency by the host's speed at the time. It writes the
latencies, the calibration times, the raw outputs and the process's peak
memory to RESULT.json; run.py checks the outputs. With --setup-only it stops after
the warm-ups and the set-up calibrations, so run.py can sample the set-up
time in further processes.
"""
import contextlib
import io
import json
import mmap
import os
import resource
import sys
import time

import numpy as np

CAL_EVERY_S = 0.5
CAL_SETUP_REPEATS = 5
_CAL = {}


def calibrate():
    """Seconds taken by a fixed pair-distance kernel in fresh memory.

    Twice: the distances from 128 points to 1024, broadcast into a 3 MB
    array, squared, summed and minimised, the shape of `min_distance`,
    `potential_at` and the self-avoidance scan. Each pass writes into fresh
    anonymous pages from its own mmap, as the program's large arrays do; the
    page faults are part of what tracks the host. Memory from the allocator
    would not do: whether it arrives fresh or reused depends on what the
    program allocated before. It does not touch fluxline, so a change to
    the program does not change it.
    """
    if not _CAL:
        t = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
        q = np.column_stack([np.cos(t), np.sin(t), 0.3 * np.cos(3.0 * t)])
        _CAL.update(p=1.5 * q[::8] + 0.1, q=q)
    p, q = _CAL["p"], _CAL["q"]
    m, n = len(p), len(q)
    t0 = time.perf_counter()
    for _ in range(2):
        with mmap.mmap(-1, 4 * 8 * m * n) as buf:
            d = np.frombuffer(buf, count=3 * m * n).reshape(m, n, 3)
            s = np.frombuffer(buf, count=m * n, offset=d.nbytes).reshape(m, n)
            np.subtract(p[:, None, :], q[None, :, :], out=d)
            np.einsum("ijk,ijk->ij", d, d, out=s)
            np.sqrt(s, out=s).min()
            del d, s
    return time.perf_counter() - t0


# An exception that escapes the program is recorded as the operation's output,
# which fails its check, so one bad answer does not end the run.

def _run_cli(cli, argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    except Exception as e:
        return {"error": f"{type(e).__name__}: {e}"}
    return {"code": code, "stdout": out.getvalue()}


def _run_probe(fluxline, line, point):
    try:
        return {"value": fluxline.field.vector_potential(line, point, threads=1).tolist()}
    except Exception as e:
        return {"error": type(e).__name__}


def _files_ok(files, stdout):
    """Whether each output file exists and holds what it should."""
    for path, want in files:
        if not os.path.isfile(path):
            return False
        if want == "stdout":
            with open(path) as fh:
                if fh.read() != stdout:
                    return False
        elif isinstance(want, int):
            with open(path, "rb") as fh:
                if fh.read().count(b"\n") != want:
                    return False
    return True


def main(argv):
    plan_path, result_path = argv[1], argv[2]
    setup_only = "--setup-only" in argv[3:]
    with open(plan_path) as fh:
        plan = json.load(fh)
    src = os.path.realpath(os.environ["PYTHONPATH"])

    import fluxline
    from fluxline import cli

    if not os.path.realpath(fluxline.__file__).startswith(src + os.sep):
        sys.exit(f"fluxline was imported from {fluxline.__file__}, not from {src}")
    tracer = None
    if plan["trace_path"] and not setup_only:
        from tracer import Tracer

        tracer = Tracer(fluxline)

    line = None
    if "probe_line" in plan["setup"]:
        spec = plan["setup"]["probe_line"]
        line = fluxline.FluxLine(
            fluxline.make_circle((0.0, 0.0, 0.0), spec["radius"], (0.0, 0.0, 1.0),
                                 spec["samples"]),
            spec["flux"])

    def run(op):
        if "argv" in op:
            return _run_cli(cli, op["argv"])
        return _run_probe(fluxline, line, op["point"])

    ops = plan["round"]
    seen = set()
    for op in ops:
        if op["kind"] not in seen:
            seen.add(op["kind"])
            run(op)
    if tracer:
        tracer.reset()

    t_ready = time.monotonic()
    calibrate()
    setup_cal = [calibrate() for _ in range(CAL_SETUP_REPEATS)]
    if setup_only:
        with open(result_path, "w") as fh:
            json.dump({"t_ready": t_ready, "setup_cal": setup_cal}, fh)
        return

    seconds = plan["seconds"]
    latencies, starts, outputs = [], [], []
    cal_at, cal_s = [], []

    def calibrate_now():
        t = time.perf_counter()
        cal_s.append(calibrate())
        cal_at.append(t)

    # whole rounds, as many as come nearest to the run length
    timed, rounds = 0.0, 0
    while rounds == 0 or (timed * (1.0 + 0.5 / rounds) < seconds
                          and time.monotonic() - t_ready < 2.0 * seconds):
        rounds += 1
        for op in ops:
            if not cal_at or time.perf_counter() - cal_at[-1] >= CAL_EVERY_S:
                calibrate_now()
            if tracer:
                tracer.op = len(latencies)
            t0 = time.perf_counter()
            out = run(op)
            dt = time.perf_counter() - t0
            timed += dt
            latencies.append(dt)
            starts.append(t0)
            if "files" in op and "stdout" in out:
                out["files_ok"] = _files_ok(op["files"], out["stdout"])
            outputs.append(out)
    calibrate_now()

    result = {
        "t_ready": t_ready,
        "setup_cal": setup_cal,
        "latencies": latencies,
        "starts": starts,
        "cal_at": cal_at,
        "cal_s": cal_s,
        "outputs": outputs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        tracer.write_jsonl(plan["trace_path"])
        result["layers"] = tracer.metrics()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv)
