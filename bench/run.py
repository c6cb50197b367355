"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload sweep-f4 --seed 1 --seconds 12 --trace 0

Run from any directory; autrep is imported from the `src` directory next
to this one.  The process sets up the workload (imports and inputs), runs
whole rounds of its pipeline calls until --seconds have passed, checks the
last round's outputs, and prints as its last line of standard output

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: setup_s (median of
several set-ups), run_s (pipeline seconds of one round, see
`pipeline_seconds`) and peak_rss_mib; both times are corrected for the
host's speed while they were taken (see `hostspeed`).  With --trace 1
rounds alternate between unwrapped and wrapped module functions; the
metrics are the per-layer ones from the wrapped rounds plus the tracing
overhead, and the spans go to bench/out/trace-<workload>-seed<seed>.jsonl.
--full selects the headline acceptance sizes instead of the default round
sizes.
"""

import hostspeed

# Set-up is timed from the sampler's start, at the top of the script.
SAMPLER = hostspeed.Sampler()
if __name__ == "__main__":
    SAMPLER.start()
SETUP_MARK = SAMPLER.mark()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("sweep-f4", "ps2-axis", "ps2-lengths", "steer-walk")
# setup_s is the median of this process's set-up and this many more, each
# in a fresh child process that sets up the same workload and exits.
SETUP_REPEATS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--full", action="store_true")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cap_threads() -> None:
    """numpy's BLAS and OpenMP pools get at most one thread per usable core."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.full:
        cmd.append("--full")
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def measure(wl, seconds: float, tracer, sampler):
    """Whole rounds until `seconds` have passed; with a tracer, odd rounds
    run wrapped and at least one round of each kind runs.  Returns the last
    round's results, every round's fingerprint, and every round's
    (wrapped?, {operation: seconds at reference speed}, {operation: wall seconds})."""
    rounds: list[tuple[bool, dict[str, float], dict[str, float]]] = []
    prints = []
    res = None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        op_s: dict[str, float] = {}
        wall_s: dict[str, float] = {}

        def timed(op, fn, *args):
            mark = sampler.mark()
            out = fn(*args)
            wall_s[op], op_s[op] = sampler.corrected(mark)
            return out

        res = None  # free the previous round before the next one allocates
        with tracer.active() if traced else contextlib.nullcontext():
            res = wl.run_round(timed)
        rounds.append((traced, op_s, wall_s))
        prints.append(wl.fingerprint(res))
        if (time.perf_counter() - start >= seconds
                and (tracer is None or len(rounds) >= 2)):
            return res, prints, rounds


def pipeline_seconds(rounds, ops, traced: bool) -> float:
    """One round's pipeline time at reference speed: each operation's median
    over the rounds of one kind, summed."""
    kind = [op_s for t, op_s, _ in rounds if t == traced]
    return sum(statistics.median(r[op] for r in kind) for op in ops)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "autrep" / "__init__.py").is_file():
        sys.exit(f"error: autrep sources not found under {SRC}")
    cap_threads()
    sys.path.insert(0, str(SRC))
    work = OUT / f"{args.workload}-{os.getpid()}"
    import workloads
    wl = workloads.build(args.workload, args.seed, args.full, str(work))
    _, setup_s = SAMPLER.corrected(SETUP_MARK)
    SAMPLER.stop()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_REPEATS)]

    import spans
    tracer = spans.Tracer() if args.trace else None
    work.mkdir(parents=True, exist_ok=True)
    try:
        SAMPLER.start()
        res, prints, rounds = measure(wl, args.seconds, tracer, SAMPLER)
        SAMPLER.stop()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors = wl.check(res)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for fp in prints for op in wl.ops
                 if errors[op] or fp[op] != prints[-1][op])
    attempted = len(prints) * len(wl.ops)
    correct = not any(errors.values()) and all(fp == prints[-1] for fp in prints)
    for op, errs in errors.items():
        for e in errs:
            print(f"CHECK FAILED {op}: {e}", file=sys.stderr)
    plain = pipeline_seconds(rounds, wl.ops, False)
    print(f"{args.workload} seed {args.seed}: {len(prints)} rounds of "
          f"{[round(sum(w.values()), 3) for _, _, w in rounds]} wall s, "
          f"{[round(sum(r.values()), 3) for _, r, _ in rounds]} s at reference speed, "
          f"run_s {plain:.4f}, "
          f"setups {[round(s, 3) for s in setups]} s, headline {json.dumps(wl.headline(res))}",
          file=sys.stderr)

    if tracer is None:
        values = {"setup_s": statistics.median(setups), "run_s": plain,
                  "peak_rss_mib": peak_rss_mib}
    else:
        values = tracer.metrics()
        wrapped = pipeline_seconds(rounds, wl.ops, True)
        values["trace.overhead_s"] = wrapped - plain
        values["trace.overhead_pct"] = 100.0 * (wrapped - plain) / plain
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(path))
        print(f"tracing overhead {wrapped - plain:+.4f} s per round "
              f"({values['trace.overhead_pct']:+.2f}%); spans in {path}", file=sys.stderr)
    metrics = {k: {"value": v, "unit": "MiB" if k == "peak_rss_mib" else unit_of(k)}
               for k, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        SAMPLER.stop()
    sys.exit(code)
