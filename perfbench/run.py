"""scottlab benchmark: one workload, run as a closed loop for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  One
process sends one operation after another (for cli-session each operation
is a fresh interpreter).  Whole passes over the workload's operations are
repeated until S seconds have gone by.  The last line of standard output is
one JSON object: correct, attempted, failed and the metrics, which are the
end-to-end ones with --trace 0 and the per-layer ones with --trace 1.  See
README.md in this directory.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
NAMES = ("cli-session", "scott-nonmagnetic", "scott-magnetic")  # known before scottlab is imported
SETUP_PROBES = 4  # set-ups repeated in fresh interpreters; setup_s is the median of 1 + 4


def limit_threads() -> None:
    """BLAS and OpenMP get no more threads than this process may run on."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            cur = int(os.environ.get(var, n))
        except ValueError:
            cur = n
        os.environ[var] = str(max(1, min(cur, n)))


class Outcome:
    """Counts over every operation attempted in the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []

    def record(self, op, error=None, why=None) -> None:
        """error: the operation raised; why: its check found the output wrong."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"[{op.name}] failed: {error}", file=sys.stderr)
        elif why is not None and op.known_fault:
            self.failed += 1
        elif why is not None:
            self.wrong.append(f"{op.name}: {why}")

    @property
    def correct(self) -> bool:
        return not self.wrong


def run_pass(wl, tr, outcome: Outcome) -> float:
    """Run every operation once; return the summed time of the operations alone."""
    elapsed = 0.0
    for op in wl.operations():
        t = time.perf_counter()
        try:
            with tr.span("op." + op.name) if tr else nullcontext():
                result = op.run(tr)
        except Exception:
            elapsed += time.perf_counter() - t
            outcome.record(op, error=traceback.format_exc(limit=3))
            continue
        elapsed += time.perf_counter() - t
        try:
            why = op.check(result)
        except Exception as exc:
            why = f"check raised {exc!r}"
        outcome.record(op, why=why)
    wl.end_pass()
    return elapsed


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-probe"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-400:]}")
    return float(proc.stdout.split()[-1])


def parse(argv):
    p = argparse.ArgumentParser(description="scottlab benchmark")
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "scottlab" / "__init__.py").is_file():
        print(f"perfbench: no scottlab package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    limit_threads()
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def measure(args, work: Path) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    setup_problems = wl.setup()
    setup_own = time.perf_counter() - T0
    if args.setup_probe:
        print(setup_own)
        return 0

    outcome = Outcome()
    outcome.wrong += [f"set-up: {p}" for p in setup_problems]
    tr = None
    if args.trace:
        import layers
        import tracer
        tr = tracer.Tracer()

    # with --trace 1, untraced and traced passes alternate so the overhead is measured
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(plain) > len(traced)
        if trace_this:
            layers.install(tr)
        try:
            dt = run_pass(wl, tr if trace_this else None, outcome)
        finally:
            if trace_this:
                tr.restore()
        (traced if trace_this else plain).append(dt)
        if time.perf_counter() - start >= args.seconds and (traced or not args.trace):
            break

    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced passes "
          + " ".join(f"{x:.3f}" for x in plain) + " s"
          + (f"; {len(traced)} traced " + " ".join(f"{x:.3f}" for x in traced) + " s"
             if traced else ""))
    for w in outcome.wrong:
        print(f"WRONG {w}", file=sys.stderr)

    if args.trace:
        base = statistics.median(plain)
        overhead = 100.0 * (statistics.median(traced) - base) / base
        metrics = layers.metrics(tr.spans, tr.counters, len(traced), overhead)
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{args.workload}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "passes": len(traced),
            "spans": [list(s) for s in tr.spans], "counters": dict(tr.counters)}))
    else:
        setups = [setup_own] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        print(f"pass_s median of {len(plain)} passes; setup_s median of "
              + " ".join(f"{x:.3f}" for x in setups) + " s")
        metrics = {
            "pass_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": wl.peak_rss_kb() / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
