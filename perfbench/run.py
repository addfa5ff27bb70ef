"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--break-dedup", action="store_true",
                        help="turn server deduplication off, to show that the checks fail")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rmaws", "__init__.py")):
        print(f"error: no rmaws sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import layers
    import metrics
    import spans
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    # The bench process and the server it starts (which inherits this)
    # share one CPU. On the reference VM, with both free to move between
    # its two CPUs, throughput spread 0.2-0.3 over interleaved runs and
    # the tail up to 0.74; pinned, both stayed at 0.05-0.07.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.trace:
        # Untraced first: the wrappers stay installed once the traced
        # pass has put them in.
        plain = workload.measure(args.seed, args.seconds, break_dedup=args.break_dedup)
        tracer = spans.Tracer()
        layers.install(tracer)
        m = workload.measure(args.seed, args.seconds, tracer=tracer,
                             break_dedup=args.break_dedup)
        untraced = plain.main.ops / plain.main.wall_s
        traced = m.main.ops / m.main.wall_s
        print(f"tracing overhead on {workload.name}: throughput_rps {untraced:.1f} untraced, "
              f"{traced:.1f} traced, {(1 - traced / untraced) * 100:.1f}% lower when traced")
        result = metrics.per_layer(m)
        m.problems = plain.problems + m.problems
        executions = result["server.core.executions_per_identity"]["value"]
        if executions != 1.0:
            m.problems.append(f"{executions:g} executions per identity, not 1")
        m.attempted += plain.attempted
        m.failed += plain.failed
    else:
        m = workload.measure(args.seed, args.seconds, break_dedup=args.break_dedup)
        result = metrics.end_to_end(workload, m)
        print(metrics.tail(workload, m.main)[1])
    for problem in sorted(set(m.problems))[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not m.problems, "attempted": m.attempted,
                      "failed": m.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
