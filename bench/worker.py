"""One workload process: set up, run passes, check every output, report.

    python3 bench/worker.py --root DIR --workload NAME --seed N --seconds S \
        --out-dir DIR [--spans FILE --layer-metrics NAME,...]

Prints one JSON object as its last line of standard output.  Untraced, it
runs passes while the next would end, by the length of the last one, less
than half a pass after ``--seconds`` (at least one pass), with the speed
probe of speed.py running from before set-up to the end: every item's
``[label, latency_s, error]`` and ``setup_s`` are normalized wall times, and
``raw_setup_s`` and ``raw_pass_s`` the wall times as measured.
Traced (with ``--spans``), it installs the wrappers of tracing.py, traces one
set-up and one pass without the probe, reports the named per-layer metrics
and writes every span to ``--spans``; its times are raw.  With ``--setup-only`` it reports
``setup_s`` and ``raw_setup_s`` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import speed
from speed import SpeedProbe
from tracing import Tracer
from workloads import WORKLOADS


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true", help="set up, report setup_s and exit")
    parser.add_argument("--spans", default=None, help="trace, and write the spans to this file")
    parser.add_argument("--layer-metrics", default="", help="comma-separated per-layer metric names")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(args.root, "src"))
    workload = WORKLOADS[args.workload](args.root, args.seed, args.out_dir)
    report = {"items": [], "pass_s": []}

    if args.spans:
        import tiltbench  # noqa: F401 - the wrappers need the modules loaded

        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
        workload.setup()
        tracer.enabled = False
    else:
        probe = SpeedProbe()
        probe.start()
        start = time.perf_counter()
        workload.setup()
        setup = (start, time.perf_counter())
        if args.setup_only:
            time.sleep(speed.PAD_S)
            probe.stop()
            report = {"setup_s": probe.normalize(*setup), "raw_setup_s": setup[1] - setup[0]}
            sys.stdout.write(json.dumps(report) + "\n")
            return

    report["checks"] = workload.check()

    if args.spans:
        tracer.enabled = True
        start = time.perf_counter()
        items = workload.run_pass()
        end = time.perf_counter()
        tracer.enabled = False
        report["items"].append([[label, e - s, error] for label, s, e, error in items])
        report["pass_s"].append(end - start)
        report["layers"] = tracer.layer_metrics(args.layer_metrics.split(","))
        report["unattributed_s"] = (end - start) - tracer.root_time(start, end)
        report["span_count"] = len(tracer.spans)
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    else:
        passes = []
        start = time.perf_counter()
        while True:
            before = time.perf_counter()
            items = workload.run_pass()
            after = time.perf_counter()
            passes.append(items)
            report["pass_s"].append(after - before)
            if after - start + (after - before) / 2 >= args.seconds:
                break
        # the last samples must cover the padding after the last item
        time.sleep(speed.PAD_S)
        probe.stop()
        report["setup_s"] = probe.normalize(*setup)
        report["raw_setup_s"] = setup[1] - setup[0]
        report["items"] = [[[label, probe.normalize(s, e), error] for label, s, e, error in items]
                           for items in passes]
        report["raw_pass_s"] = report.pop("pass_s")
        report["pass_s"] = [sum(latency for _, latency, _ in items) for items in report["items"]]
        report["speed"] = probe.summary()

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
