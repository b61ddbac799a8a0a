"""One measured run of one workload in a fresh interpreter.

run.py starts this script; it is not meant to be run by hand. It imports
the package from the checkout's src/, sets the workload up, runs the seeded
stream closed-loop (one client, one thread) and checks every output against
the recorded one. The last line of stdout is a JSON object with the raw
measurements.

Modes:
  setup    set up, then report the time of the first op and exit
  measure  run until --seconds have passed, untraced
  trace    run exactly --ops ops with the tracing wrappers installed

In setup and measure mode the host speed probe (hostspeed.py) runs from
the first line on, and times are reported both as wall seconds and as
reference seconds. Trace mode runs no probe.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hostspeed import HostSpeed  # noqa: E402

# the probe starts before the package is imported, so it covers set-up
HOST = HostSpeed()
HOST.start()

import workloads  # noqa: E402  (needs the src path)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--expected", type=Path, required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    tracer = None
    if args.mode == "trace":
        HOST.stop()
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.expected, args.work_dir)
    workload.setup()
    workload.load_expected()
    stream = workload.stream(args.seed)
    op = next(stream)
    first_op = time.monotonic()
    clock = time.perf_counter
    setup_end, setup_probe_s = clock(), HOST.spent
    if args.mode == "setup":
        HOST.stop()
        workload.finish()
        print(json.dumps({
            "first_op": first_op,
            "setup_probe_s": setup_probe_s,
            "setup_factor": HOST.factor(0.0, setup_end),
        }))
        return 0

    spans: list[tuple[float, float, float]] = []  # start, end, probe time inside
    failures: list[str] = []
    start, start_probe_s = clock(), HOST.spent
    deadline = start + args.seconds
    while True:
        if tracer is not None:
            tracer.op = len(spans)
        probe_s = HOST.spent
        t0 = clock()
        try:
            got = workload.execute(op)
        except Exception as exc:  # an unexpected exception fails the op
            got = f"raised {type(exc).__name__}: {exc}"
        t1 = clock()
        spans.append((t0, t1, HOST.spent - probe_s))
        if len(spans) == workload.RSS_AT_OPS:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        want = workload.expected(op)
        if got != want:
            failures.append(f"op {len(spans) - 1} {op!r}: got {got!r}, want {want!r}")
        if args.mode == "trace" and len(spans) >= args.ops:
            break
        if args.mode == "measure" and clock() >= deadline:
            break
        op = next(stream)
    end = clock()
    wall = end - start - (HOST.spent - start_probe_s)
    if len(spans) < workload.RSS_AT_OPS:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures.extend(workload.finish())

    result = {
        "first_op": first_op,
        "ops": len(spans),
        "failed": len(failures),
        "failures": failures[:5],
        "wall": wall,
        "rss_kib": rss_kib,
        "rss_ops": min(len(spans), workload.RSS_AT_OPS),
    }
    if tracer is None:
        HOST.stop()
        result["setup_probe_s"] = setup_probe_s
        result["setup_factor"] = HOST.factor(0.0, setup_end)
        result["ref_wall"] = wall * HOST.factor(start, end)
        result["wall_latencies"] = [t1 - t0 - p for t0, t1, p in spans]
        result["latencies"] = [(t1 - t0 - p) * HOST.factor(t0, t1) for t0, t1, p in spans]
        result["probe_median_s"] = statistics.median(HOST.durations)
    else:
        units = tracing.metric_units()
        result["per_layer"] = {k: [v, units[k]] for k, v in tracer.metrics().items()}
        if args.spans is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
