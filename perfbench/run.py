"""Benchmark of perturblab: time to solution, set-up time and peak memory.

    python3 perfbench/run.py --workload spectrum|contour|session \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  Each operation is one perturblab command line, run in this process
through perturblab.cli.main(argv) on input files generated from --seed,
and its artifacts are checked against references computed apart from the
program (see checks.py).  The run repeats whole rounds of the workload's
operations for about --seconds seconds.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.  With
--trace 0 the metrics are setup_s, solve_s and peak_rss_mb; with --trace 1
the program is wrapped in spans (spans.py) and the metrics are per layer.
Times are CPU seconds scaled to a reference machine speed (calibrate.py).
"""

import os

# one BLAS/OpenMP thread, pinned before numpy is first imported: on a
# small machine the first threaded LAPACK call alone can cost a second
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
#: fresh interpreters whose set-up time is measured; setup_s is the median
SETUP_PROBES = 7
#: rounds a run makes however long they take, so each operation time is a
#: median of at least three repeats
MIN_ROUNDS = 3
#: wall seconds of operation per calibration kernel timed after it, so the
#: kernels sample the machine's speed evenly over the run
CALIBRATE_EVERY = 0.1
#: calibration kernels timed before each set-up probe, and as many after it
PROBE_CALIBRATIONS = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("spectrum", "contour", "session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", metavar="DIR", default=None,
                    help=argparse.SUPPRESS)  # set up in DIR, print READY, exit
    return ap.parse_args(argv)


def require_sources():
    if not (SRC / "perturblab" / "cli.py").is_file():
        sys.exit(f"run.py: no perturblab sources under {SRC}")


def import_program():
    """perturblab.cli from ./src of this checkout, and nowhere else."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import perturblab.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "perturblab":
        sys.exit(f"run.py: perturblab imported from {cli.__file__}")
    return cli


def call(cli, argv, out):
    """One operation: (exit code, CPU seconds, wall seconds, captured stderr).

    The CPU time is that of this process, whose one thread runs the program:
    it leaves out the time the host ran other work on this core (the kernel
    accounts steal time apart).  The drift of the core's speed that is left
    is taken out by the calibration kernels (calibrate.py).
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        w0, c0 = time.perf_counter(), time.process_time()
        code = cli.main(["--quiet", "--out", str(out)] + list(argv))
        cpu, wall = time.process_time() - c0, time.perf_counter() - w0
    return code, cpu, wall, err.getvalue().strip()


def read_artifacts(out):
    """{file name: JSON "result" object or list of CSV rows}."""
    art = {}
    for path in sorted(Path(out).rglob("*")):
        if path.suffix == ".json":
            art[path.name] = json.loads(path.read_text())["result"]
        elif path.suffix == ".csv":
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            art[path.name] = [[float(v) for v in row] for row in rows]
    return art


def set_up(workload, seed, work):
    """Import the program, write the inputs and warm every command kind up."""
    cli = import_program()
    import workloads

    wl = workloads.build(workload, seed, work)
    for i, argv in enumerate(wl.warmups):
        code, _, _, err = call(cli, argv, Path(work) / "warmup" / str(i))
        if code != 0:
            sys.exit(f"run.py: warm-up {argv} exited {code}: {err}")
    return cli, wl


def probe_setup_time(args, work, scale):
    """(scaled, CPU, wall) seconds a fresh interpreter takes from its launch
    until it is set up; the CPU time is the one it reports itself, scaled by
    the calibration kernels timed right before and after it."""
    before = scale.take(PROBE_CALIBRATIONS)
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe", str(work)]
    elapsed = None
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        for line in proc.stdout:
            if line.startswith("READY "):
                elapsed = (float(line.split()[1]), time.perf_counter() - t0)
                break
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
    if elapsed is None or proc.returncode != 0:
        sys.exit(f"run.py: set-up probe exited {proc.returncode}")
    cpu, wall = elapsed
    after = scale.take(PROBE_CALIBRATIONS)
    return scale.to_reference(cpu, before + after), cpu, wall


@dataclass
class Tally:
    times: list            # scaled seconds of each operation, one per round
    cpus: list             # its CPU seconds
    walls: list            # its wall seconds
    notes: dict = field(default_factory=dict)   # operation -> why it failed
    attempted: int = 0
    failed: int = 0        # non-zero exit or a failed check
    wrong: int = 0         # exit 0 but a failed check
    rounds: int = 0


def measure(cli, wl, seconds, out_root, scale, tracer=None):
    """Whole rounds of every operation until the next round would overrun
    the time, after at least MIN_ROUNDS of them.  Each operation's CPU time
    is scaled by the calibration kernels timed right around it: one before,
    and one after for each CALIBRATE_EVERY seconds it took (at least one)."""
    tally = Tally(*([[] for _ in wl.ops] for _ in range(3)))
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i, op in enumerate(wl.ops):
            out = out_root / str(i)
            shutil.rmtree(out, ignore_errors=True)
            if tracer is not None:
                tracer.op = tally.rounds * len(wl.ops) + i
            before = scale.take()
            code, cpu, wall, err = call(cli, op.argv, out)
            after = scale.take(max(1, int(wall / CALIBRATE_EVERY)))
            tally.times[i].append(scale.to_reference(cpu, before + after))
            tally.cpus[i].append(cpu)
            tally.walls[i].append(wall)
            tally.attempted += 1
            if code != 0:
                tally.failed += 1
                tally.notes[op.name] = f"exit {code}: " + (
                    err.splitlines()[-1] if err else "")
                continue
            problems = op.check(read_artifacts(out))
            if problems:
                tally.failed += 1
                tally.wrong += 1
                tally.notes[op.name] = "; ".join(problems)
        tally.rounds += 1
        now = time.perf_counter()
        if (tally.rounds >= MIN_ROUNDS
                and now - start + (now - round_start) > seconds):
            break
    if tracer is not None:
        tracer.op = -1
    return tally


def environment():
    import mpmath
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg.CONFIG["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "numpy_blas": blas(numpy.__config__),
        "scipy_blas": blas(scipy.__config__),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def median_sum(per_op):
    """Sum over operations of the median over rounds."""
    return sum(statistics.median(ts) for ts in per_op)


def main(argv=None):
    args = parse_args(argv)
    if args.probe:
        set_up(args.workload, args.seed, args.probe)
        # CPU time since this process was forked: interpreter start included
        print(f"READY {time.process_time()!r}", flush=True)
        return 0
    require_sources()
    import calibrate

    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        scale = calibrate.Scale()
        # setup_s is an end-to-end metric: the traced run does not probe
        setup = [] if args.trace else [
            probe_setup_time(args, work / f"probe{k}", scale)
            for k in range(SETUP_PROBES)]
        cli, wl = set_up(args.workload, args.seed, work / "main")
        tracer = None
        if args.trace:
            import spans
            tracer = spans.install()
        scale.samples.clear()
        tally = measure(cli, wl, args.seconds, work / "out", scale, tracer)
        solve = median_sum(tally.times)
        if tracer is None:
            metrics = {
                "setup_s": (statistics.median(s for s, _, _ in setup), "s"),
                "solve_s": (solve, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                                .ru_maxrss / 1024.0, "MB"),
            }
        else:
            layers = spans.layer_metrics(tracer, len(wl.ops), tally.rounds)
            metrics = {}
            for name, value in layers.items():
                unit = spans.METRICS[name]
                metrics[name] = (value * scale.factor() if unit in ("s", "us")
                                 else value, unit)
            metrics["trace.solve_s"] = (solve, "s")
            trace_file = BENCH / "work" / f"trace-{args.workload}-{args.seed}.npz"
            tracer.save(trace_file)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "env": environment(), "rounds": tally.rounds,
        "setup_probes_scaled_cpu_wall_s": setup,
        "solve_cpu_s": median_sum(tally.cpus),
        "solve_wall_s": median_sum(tally.walls),
        "solve_scale": scale.factor()}))
    for op, ts, cs, ws in zip(wl.ops, tally.times, tally.cpus, tally.walls):
        print(f"op {statistics.median(ts):10.6f} s  cpu {statistics.median(cs):10.6f}"
              f" s  wall {statistics.median(ws):10.6f} s  {op.name}"
              + (f"  FAILED {tally.notes[op.name]}"
                 if op.name in tally.notes else ""))
    if tracer is not None:
        print(f"spans written to {trace_file.relative_to(BENCH.parent)}")
    print(json.dumps({
        "correct": tally.wrong == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
