"""List the lines of src/fluxline/ that a run never executes.

    python3 tools/unexecuted_lines.py [PYTEST_ARG ...]
    python3 tools/unexecuted_lines.py --rounds

The first form runs the Tier-1 suite in this process, through
`pytest.main` from the repository's root with any arguments passed on (a
`--deselect`, a `-k`). The second runs, instead, one round of each
benchmark workload for seeds 0, 1 and 2, built as tools/cli_corpus.py
builds them, with the exact polygon linking oracle stubbed: every
command line through `fluxline.cli.main` and every probe through
`field.vector_potential`, as bench/worker.py runs them.

Either way it prints, module by module, the executable lines that the run
never reached: the line numbers of every code object compiled from the
module (`code.co_lines()`, nested functions and classes included) less
those a trace saw. The trace is the standard library's own, `sys.settrace`
and `threading.settrace`, so threads that the run starts are traced too;
it follows only frames whose code lies in src/fluxline/, and fluxline is
imported under it, so its module-level lines count. Traced, Tier-1 runs
at about half its untraced speed.
"""
import contextlib
import io
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fluxline"
SEEDS = (0, 1, 2)


def executable(path):
    """The line numbers of every code object compiled from the file."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # a module's first instruction stands on line 0, which no trace reports
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced(run):
    """{file name: the lines run() executed}, of the files in PACKAGE."""
    seen, prefix = {}, str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event in ("call", "line"):
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set())
        return local(frame, event, arg)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return seen


def tier1(args):
    import pytest

    os.chdir(ROOT)
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                        *args])
    print(f"pytest exited {int(code)}", file=sys.stderr)


def rounds():
    """One round of each workload per seed, its answers left unchecked."""
    sys.path[:0] = [str(ROOT / "bench")]
    import workloads

    import fluxline
    from fluxline import cli

    workloads.oracles.polygon_linking = lambda a, b: 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.NAMES:
            for seed in SEEDS:
                work = Path(tmp) / f"{name}-{seed}"
                work.mkdir()
                setup, ops = workloads.build(name, seed, work)
                line = setup.get("probe_line")
                if line:
                    line = fluxline.FluxLine(fluxline.make_circle(
                        (0.0, 0.0, 0.0), line["radius"], (0.0, 0.0, 1.0), line["samples"]),
                        line["flux"])
                for op in ops:
                    with contextlib.suppress(Exception, SystemExit), \
                            contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        if "argv" in op.spec:
                            cli.main(op.spec["argv"])
                        else:
                            fluxline.field.vector_potential(line, op.spec["point"], threads=1)


def main(argv):
    # and so for the subprocesses that tests start, as Tier-1's own PYTHONPATH=src
    sys.path[:0] = [str(ROOT / "src")]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    if argv[:1] == ["--rounds"]:
        seen = traced(rounds)
    else:
        seen = traced(lambda: tier1(argv))
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable(path) - seen.get(str(path), set()))
        total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} lines never run:"
                  f" {', '.join(map(str, missed))}")
    print(f"{total} lines never run")


if __name__ == "__main__":
    main(sys.argv[1:])
