"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; homoperad is imported from that tree's
``src``.  With ``--trace 0`` the run repeats whole rounds of the workload
for about S seconds and reports the end-to-end metrics, with times scaled
to nominal host speed (see hostclock.py).  With ``--trace 1`` it runs one
round with every layer wrapped and reports the per-layer metrics.  The
last line of stdout is one JSON object; the exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

from hostclock import HostClock

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
SETUPS = 5  # set-ups per untraced run; setup_s is their median


def import_homoperad():
    """Import homoperad afresh from this tree; a copy found elsewhere is
    refused, since it is not the code under test."""
    for name in [n for n in sys.modules if n == "homoperad" or n.startswith("homoperad.")]:
        del sys.modules[name]
    import homoperad

    if os.path.dirname(os.path.dirname(os.path.abspath(homoperad.__file__))) != SRC:
        raise ImportError(f"homoperad imported from {homoperad.__file__}, not {SRC}")


def setup(cls, seed, clock):
    """Import homoperad and load the inputs; returns (workload, seconds)."""
    t0, s0 = time.perf_counter(), clock.spent
    import_homoperad()
    workload = cls(seed)
    return workload, time.perf_counter() - t0 - (clock.spent - s0)


def traced(workload, path):
    """One round with every layer wrapped; returns (rounds, metrics) and
    writes every span and count to ``path``."""
    from layers import Tracer

    tracer = Tracer()
    tracer.attach()
    gc.collect()
    r = workload.round()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(tracer.dump(), f, indent=1, sort_keys=True)
    return [r], tracer.metrics(r.seconds, r.output_bytes)


def measured(workload, seconds, clock, setup_times, setup_speed):
    """Whole rounds for about ``seconds``; returns (rounds, metrics)."""
    rounds = []
    start = time.perf_counter()
    while True:
        gc.collect()
        rounds.append(workload.round(clock))
        last = rounds[-1].end - rounds[-1].start
        if time.perf_counter() - start + last > seconds:
            break
    walls = [r.seconds * clock.speed(r.start, r.end) for r in rounds]
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times) * setup_speed, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }
    print(
        f"{len(rounds)} rounds; homoperad seconds per round, as measured: "
        + " ".join(f"{r.seconds:.3f}" for r in rounds)
        + "; at nominal host speed: "
        + " ".join(f"{w:.3f}" for w in walls)
        + f"; {len(clock.speeds)} speed samples"
    )
    return rounds, metrics


def main(argv=None) -> int:
    sys.path.insert(0, SRC)
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    cls = workloads.WORKLOADS[args.workload]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")

    clock = HostClock()
    if not args.trace:
        clock.start()
    try:
        t0 = time.perf_counter()
        setup_times = []
        for _ in range(1 if args.trace else SETUPS):
            workload, dt = setup(cls, args.seed, clock)
            setup_times.append(dt)
        if args.trace:
            path = os.path.join(workloads.OUT, f"trace-{args.workload}-{args.seed}.json")
            rounds, metrics = traced(workload, path)
        else:
            setup_speed = clock.speed(t0, time.perf_counter())
            rounds, metrics = measured(workload, args.seconds, clock, setup_times, setup_speed)
    except (ImportError, OSError) as e:
        print(f"error: cannot set up {args.workload}: {e}", file=sys.stderr)
        return 2
    finally:
        clock.stop()

    problems = [p for r in rounds for p in r.problems]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"attempted {attempted}, failed {failed}, problems {len(problems)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
