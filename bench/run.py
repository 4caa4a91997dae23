"""tiltbench's benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: corpus-cli, end-scaling,
module-decomp, stable-queries (see workloads.py).

``--trace 0`` measures the end-to-end metrics in SETUPS fresh processes run
one after another, each set up once and then given S / SETUPS seconds of
passes, and then in up to EXTRA_SETUPS processes that only set up.  ``--trace 1`` runs one untraced process for S / 2 seconds and then
one traced process that traces one set-up and one pass, and reports the
per-layer metrics.

Times are normalized by the speed probe of speed.py, which takes the
drifting speed of a shared virtual machine out of them (see there).  Every
request of a pass is asked again in every pass, so each request has one
latency sample per pass of the run.  A request's latency is the median of
its samples; the query percentiles are taken over these per-request
latencies, and pass time is their sum.  Set-up time and memory are medians
over the processes.  The results file also holds the raw wall times.

Every output is checked.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines before
it print each metric with its unit.  A results file with the environment and
every sample goes to bench/out/.  The exit code is 1 when an output failed
its gate and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3
# More processes that only set up, while they have taken less than
# EXTRA_SETUP_S in all: cheap set-ups are measured often, costly ones once more.
EXTRA_SETUPS = 8
EXTRA_SETUP_S = 2.0
DEADLINE_S = 170  # the whole run must end within 180 s


def percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_sha(root):
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root):
    """sha256 over src/tiltbench/*.py, to name the code in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "tiltbench")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_worker(root, args, out_dir, seconds, deadline, traced=None, spans=None, setup_only=False):
    cmd = [
        sys.executable,
        os.path.join(BENCH, "worker.py"),
        "--root", root,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--out-dir", out_dir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd += ["--spans", spans, "--layer-metrics", ",".join(traced)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for another process")
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    for needed in ("src/tiltbench/__init__.py", "corpus/golden"):
        if not os.path.exists(os.path.join(root, needed)):
            sys.stderr.write(f"error: {needed} not found; run from the root of a tiltbench checkout\n")
            return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    try:
        setups = []
        if args.trace:
            workers = [run_worker(root, args, out_dir, args.seconds / 2, deadline)]
            traced = run_worker(root, args, out_dir, 0, deadline,
                                traced=[m["name"] for m in spec["per_layer"]], spans=stem + "-spans.json")
        else:
            workers = [run_worker(root, args, out_dir, args.seconds / SETUPS, deadline)
                       for _ in range(SETUPS)]
            traced = None
            spent = 0.0
            while spent < EXTRA_SETUP_S and len(setups) < EXTRA_SETUPS:
                before = time.monotonic()
                setups.append(run_worker(root, args, out_dir, 0, deadline, setup_only=True))
                spent += time.monotonic() - before
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    everyone = workers + ([traced] if traced else [])
    items = [item for w in everyone for items in w["items"] for item in items]
    checks = [c for w in everyone for c in w["checks"]]
    failures = [f"{label}: {error}" for label, _, error in items if error]
    failures += [f"{label}: {error}" for label, error in checks if error]
    attempted = len(items) + len(checks)
    passes = [p for w in workers for p in w["pass_s"]]
    samples = {}
    for w in workers:
        for pass_items in w["items"]:
            for label, latency, _ in pass_items:
                samples.setdefault(label, []).append(latency)
    latency = {label: statistics.median(xs) for label, xs in samples.items()}

    end_to_end = {
        "pass_s": sum(latency.values()),
        "setup_s": statistics.median(w["setup_s"] for w in workers + setups),
        "query_p50_ms": percentile(latency.values(), 0.5) * 1e3,
        "query_p90_ms": percentile(latency.values(), 0.9) * 1e3,
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
    }
    if traced:
        values = dict(traced["layers"])
        raw_passes = [p for w in workers for p in w["raw_pass_s"]]
        values["trace.overhead_ratio"] = traced["pass_s"][0] / statistics.median(raw_passes)
        values["trace.unattributed_s"] = traced["unattributed_s"]
    else:
        values = end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if traced else "end_to_end"]}

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "samples": {
            "processes": len(workers),
            "setups": len(workers) + len(setups),
            "passes": len(passes),
            "requests": len(latency),
            "latency_samples": sum(len(xs) for xs in samples.values()),
            "beyond_p90": sum(1 for x in latency.values() if x * 1e3 > end_to_end["query_p90_ms"]),
            "speed": [w["speed"] for w in workers],
        },
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "end_to_end": end_to_end,
        "metrics": metrics,
        "workers": [
            {k: w[k] for k in ("setup_s", "raw_setup_s", "pass_s", "raw_pass_s", "peak_rss_mb", "checks")
             if k in w}
            for w in everyone
        ],
        "setup_only": setups,
        "latencies_s": samples,
    }
    if traced:
        results["span_count"] = traced["span_count"]
    with open(stem + ".json", "w") as fh:
        json.dump(results, fh, indent=1)

    for name, m in metrics.items():
        print(f"{name:52s} {m['value']:>16.6f} {m['unit']}")
    print(f"{'fail_ratio':52s} {results['fail_ratio']:>16.6f} 1  ({len(failures)}/{attempted})")
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
