"""fluxline benchmark: runs one workload and prints its metrics as JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fluxline checkout; the program is imported from its
`src` directory. The inputs come from the seed. Expected answers are
computed here, by `oracles`, before any timing starts. The timed operations
run in a fresh worker process (worker.py) that imports fluxline with the
BLAS/OpenMP pools pinned to one thread. With --trace 0 further worker
processes, 3 to 12 of them, stop after their warm-ups, to sample the set-up
time. With --trace 1 the worker wraps fluxline's public functions
(tracer.py) and the per-layer metrics are printed instead of the end-to-end
ones.

Every time is scaled to the host's speed, because the host's virtual CPU
changes speed by 10 to 40% within minutes (README, "Scaling to the host's
speed"). The worker times a fixed calibration task that does not touch
fluxline between operations. Each latency is multiplied by CAL_NOMINAL_S
over the median calibration time around it, so it reads as seconds on a
host that runs the calibration task in CAL_NOMINAL_S. Set-up times are
scaled by calibrations made at the end of set-up.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Exit code 0 when a result was printed; 2 when the checkout holds no program
or a worker failed.
"""
import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# processes that only set up, to sample setup_s: at least MIN of them, and
# more until they have taken PROBE_S seconds, at most MAX
SETUP_PROBES_MIN, SETUP_PROBES_MAX, SETUP_PROBE_S = 3, 12, 3.0
# every run, worker processes included, ends within this many seconds
DEADLINE_S = 170.0
# the calibration task's time on the host the figures are scaled to, and how
# far around an operation calibrations are taken into its scale
CAL_NOMINAL_S = 0.016
CAL_WINDOW_S = 1.0

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class WorkerError(Exception):
    pass


def _spawn(plan_path, result_path, deadline, setup_only=False):
    """Run worker.py once; returns its result with "setup_s" added."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("FLUXLINE_THREADS", None)
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker ran past the run's deadline")
    if code != 0:
        raise WorkerError(f"worker exited with code {code}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = (result["t_ready"] - start) * _speed(result["setup_cal"])
    return result


def _speed(calibrations):
    """Factor that scales a time measured alongside these calibrations."""
    return CAL_NOMINAL_S / statistics.median(calibrations)


def _scaled_latencies(result):
    """Each latency scaled by the calibrations made within CAL_WINDOW_S of it.

    The worker calibrates before the first operation and after the last one,
    so the last calibration before an operation and the first one after it
    always exist, and are always taken.
    """
    at, cal = result["cal_at"], result["cal_s"]
    out = []
    for t0, dt in zip(result["starts"], result["latencies"]):
        lo = min(bisect.bisect_right(at, t0) - 1, bisect.bisect_left(at, t0 - CAL_WINDOW_S))
        hi = max(bisect.bisect_left(at, t0 + dt),
                 bisect.bisect_right(at, t0 + dt + CAL_WINDOW_S) - 1)
        out.append(dt * _speed(cal[lo:hi + 1]))
    return out


def _check(ops, outputs):
    """(failed, correct): failed operations, and whether all others passed."""
    failed, correct, reported = 0, True, set()
    for i, out in enumerate(outputs):
        op = ops[i % len(ops)]
        try:
            ok = op.check(out)
        except (KeyError, TypeError, ValueError):
            ok = False
        if ok:
            continue
        failed += 1
        if not op.known_fault:
            correct = False
        if i % len(ops) not in reported:
            reported.add(i % len(ops))
            label = "known fault" if op.known_fault else "WRONG ANSWER"
            print(f"{label}: {op.kind} {json.dumps(op.spec)[:300]} -> "
                  f"{json.dumps(out)[:300]}", file=sys.stderr)
    return failed, correct


def run(name, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        setup, ops = workloads.build(name, seed, tmp)
        plan = {
            "setup": setup,
            "round": [op.spec for op in ops],
            "seconds": seconds,
            "trace_path": str(OUT / f"trace-{name}.jsonl") if trace else None,
        }
        plan_path = tmp / "plan.json"
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        setups = []
        probe_end = time.monotonic() + SETUP_PROBE_S
        while not trace and len(setups) < SETUP_PROBES_MAX and (
                len(setups) < SETUP_PROBES_MIN or time.monotonic() < probe_end):
            setups.append(_spawn(plan_path, tmp / "setup.json", deadline,
                                 setup_only=True)["setup_s"])
        result = _spawn(plan_path, tmp / "result.json", deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append(result["setup_s"])

    lat = _scaled_latencies(result)
    failed, correct = _check(ops, result["outputs"])
    ops_per_s = len(lat) / sum(lat)
    if trace:
        values = dict(result["layers"], **{"traced.ops_per_s": ops_per_s})
        units = {k: u for k, (u, _) in metric_units().items()}
    else:
        values = {
            "ops_per_s": ops_per_s,
            "op_p50_s": statistics.median(lat),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END
    print(f"{name} seed {seed}: {len(lat)} operations in {len(lat) // len(ops)} rounds "
          f"of {len(ops)}, {sum(result['latencies']):.2f} s timed, {failed} failed; "
          f"calibration task {statistics.median(result['cal_s']):.5f} s (median of "
          f"{len(result['cal_s'])}, nominal {CAL_NOMINAL_S}); scaled median latency "
          "by position in the round: " + " ".join(
              f"{statistics.median(lat[i::len(ops)]):.4g}" for i in range(len(ops))),
          file=sys.stderr)
    return {
        "correct": correct,
        "attempted": len(lat),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fluxline" / "__init__.py").is_file():
        print(f"error: no fluxline sources under {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
