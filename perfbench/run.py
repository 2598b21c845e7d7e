"""orthokit benchmark: time from parameters to a checked verdict.

    python3 perfbench/run.py --workload big-sets --seed 1 --seconds 25 --trace 0

Runs one workload (big-sets, half-dim, power-scan or deciders; see
cases.py and README.md) in this process, single-threaded, against the
orthokit sources in ``src/`` of the checkout it sits in.  The last line
of stdout is one JSON object: ``correct``, ``attempted`` (cases run),
``failed`` (cases whose verdict was wrong) and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs one untraced pass fewer (at least one), then one pass
with every layer's entry point wrapped (tracing.py), and reports the
per-layer metrics and the tracing overhead; the spans are written to
``perfbench/out/``.
"""

import os

# no extra threads in the workload process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCH = ROOT / "BENCHMARK.json"

# set-up is also timed in this many fresh processes before the passes and
# as many after them, so the samples fall in different spells of the box
SETUP_SAMPLES = 3

# The shared box's speed swings for minutes at a time, and pure-Python work
# slows with it by up to 1.8x.  A fixed pure-Python loop, timed every
# PROBE_EVERY_S while a case runs and once after it, reads that speed.  The
# case times of pure-Python workloads are scaled to a box on which the loop
# takes PROBE_REF_S, a typical reading on the reference box (2 cores,
# Python 3.11).
PROBE_LOOPS = 100_000
PROBE_REF_S = 0.005
PROBE_EVERY_S = 0.25


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("big-sets", "half-dim", "power-scan", "deciders"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure as many whole passes of the workload as fit "
                         "in this many seconds at its median pass length "
                         "(at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_orthokit():
    """Put this checkout's orthokit sources first on the import path."""
    if not (SRC / "orthokit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no orthokit sources at {SRC}")
    sys.path.insert(0, str(SRC))


def environment():
    import numpy
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(pages / 2 ** 20),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def probe_loop():
    """Seconds the box takes now for PROBE_LOOPS steps of a Python loop."""
    t0 = time.perf_counter()
    x = 0
    for j in range(PROBE_LOOPS):
        x += j
    return time.perf_counter() - t0


class SpeedProbe:
    """Scales case times to the reference box's speed.

    While a case runs, a SIGALRM handler in the main thread times
    probe_loop every PROBE_EVERY_S; after the case, the fastest of three
    more tries is read.  The handler's own time is taken off the case's
    time, which is then multiplied by PROBE_REF_S times the mean of
    1 / reading: the work the case did at the speeds read, over the
    reference speed."""

    def __init__(self):
        self.readings, self.stolen = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.readings.append(probe_loop())
        self.stolen += time.perf_counter() - t0

    def start(self):
        self.first, self.stolen = len(self.readings), 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self, elapsed):
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed -= self.stolen
        self.readings.append(min(probe_loop() for _ in range(3)))
        mine = self.readings[self.first:]
        return elapsed * PROBE_REF_S * statistics.mean(1 / r for r in mine)


def run_pass(cases, probe=None, tracer=None):
    """One pass over the cases: per-case seconds and the failed names.
    With a SpeedProbe, the seconds are scaled to the reference speed."""
    times, failed = {}, []
    for case in cases:
        gc.collect()
        span = contextlib.nullcontext()
        if tracer:
            tracer.install()
            span = tracer.root("case", case.name)
        if probe:
            probe.start()
        t0 = time.perf_counter()
        try:
            with span:
                out = case.run()
        except Exception:
            traceback.print_exc()
            failed.append(case.name)
            continue
        finally:
            times[case.name] = time.perf_counter() - t0
            if probe:
                times[case.name] = probe.stop(times[case.name])
            if tracer:
                tracer.uninstall()
        try:
            ok = bool(case.gate(out))
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            failed.append(case.name)
        del out
    return times, failed


def setup_samples(args):
    """Set-up seconds measured in fresh processes, one after another."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def main(argv=None):
    args = parse_args(argv)
    load_orthokit()
    os.environ.pop("ORTHOKIT_CHECKPOINT_DIR", None)
    import cases as workloads
    import tracing
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        return measure(args, workloads, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workloads, tracing, workdir):
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    cases = workloads.setup(args.workload, args.seed, workdir)
    setup_s = time.perf_counter() - START
    if tracer:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cases {len(cases)}")
    print("env " + json.dumps(env))
    passes, failed = [], []
    count = max(1, int(args.seconds // workloads.PASS_S[args.workload]))
    if tracer:
        # the traced pass takes the place of one untraced pass
        count = max(1, count - 1)
    setups = [setup_s] if tracer else [setup_s] + setup_samples(args)
    probe = None
    if args.workload in workloads.PYTHON_BOUND and not tracer:
        probe = SpeedProbe()
    for _ in range(count):
        times, bad = run_pass(cases, probe)
        passes.append(times)
        failed += bad
    attempted = len(cases) * len(passes)
    # contention on a shared box only ever slows a case down, so each case
    # counts at its fastest pass
    per_case = {name: min(t[name] for t in passes) for name in passes[0]}
    wall = sum(per_case.values())
    heaviest = max(per_case, key=per_case.get)

    if tracer:
        traced, bad = run_pass(cases, tracer=tracer)
        failed += bad
        attempted += len(cases)
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.wall_s"] = sum(traced.values())
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "env": env, "untraced_wall_s": wall,
                           "case_s": traced, "metrics": metrics})
        print(f"spans {len(tracer.spans)} written to {path}")
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups += setup_samples(args)
        # contention only ever slows set-up down too
        metrics = {
            "setup_s": min(setups),
            "wall_s": wall,
            "max_case_s": per_case[heaviest],
            "peak_rss_mb": peak,
        }
        for name in sorted(per_case, key=per_case.get, reverse=True):
            print(f"case {per_case[name]:10.4f} s  {name}")
        print(f"setup samples (s): {' '.join(f'{s:.4f}' for s in setups)}")
        print(f"passes {len(passes)}; heaviest case: {heaviest}")
        if probe:
            print(f"case times scaled to a probe of {PROBE_REF_S * 1e3:g} ms; "
                  f"{len(probe.readings)} readings, median "
                  f"{statistics.median(probe.readings) * 1e3:.3f} ms")

    # report exactly the metrics BENCHMARK.json declares, in its order
    declared = json.loads(BENCH.read_text())["per_layer" if tracer else "end_to_end"]
    metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_cases':32s} {len(failed)} of {attempted} cases")
    for name in failed:
        print(f"FAILED {name}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
