#!/usr/bin/env python3
"""Benchmark command: build the analyzer and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is built from source with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench; a no-op
when up to date), then perfbench/src runs the workload. The last line on
stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the workload untraced and then traced, reports the per-layer metrics of the
traced run plus trace.overhead_frac (traced over untraced wall time of the
timed phase, minus one), and writes the spans next to the build.

Exit status is non-zero, with no result line, when the build or the run
fails or the metrics do not match BENCHMARK.json.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

_child = None


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def run_child(cmd, timeout, capture):
    """Run cmd to completion (killed after `timeout`); return (code, stdout)."""
    global _child
    _child = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                              stderr=sys.stderr, text=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
        return _child.returncode, out or ""
    except subprocess.TimeoutExpired:
        log("timed out after %d s: %s" % (timeout, " ".join(cmd)))
        return -1, ""
    finally:
        if _child.poll() is None:
            _child.kill()
            _child.wait()
        _child = None


def on_signal(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    sys.exit(128 + signum)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        code, _ = run_child(["cmake", "-S", HERE, "-B", bdir,
                             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                            BUILD_TIMEOUT_S, capture=False)
        if code != 0:
            return None
    code, _ = run_child(["cmake", "--build", bdir, "--target", "perfbench",
                         "-j", jobs], BUILD_TIMEOUT_S, capture=False)
    binary = os.path.join(bdir, "perfbench")
    return binary if code == 0 and os.path.exists(binary) else None


def run_binary(binary, args, trace, spans=None):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if trace else "0", "--scale", str(args.scale)]
    if spans:
        cmd += ["--spans", spans]
    code, out = run_child(cmd, RUN_TIMEOUT_S, capture=True)
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if code != 0 or not lines:
        log("workload run failed (exit %s)" % code)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("unreadable result line: " + lines[-1][:200])
        return None


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    # Accepted for the benchmark command's interface; a run's length is set
    # by its fixed edit and request counts, not by this.
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", type=float, default=1.0,
                   help="design scale; below 1 only for smoke tests")
    args = p.parse_args()
    signal.signal(signal.SIGTERM, on_signal)

    try:
        expected = expected_metrics(args.trace == 1)
    except (OSError, ValueError, KeyError) as e:
        log("cannot read BENCHMARK.json: %s" % e)
        return 1
    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        log("build failed")
        return 1

    if args.trace == 0:
        result = run_binary(binary, args, trace=False)
    else:
        untraced = run_binary(binary, args, trace=False)
        spans = os.path.join(bdir, "spans-%s-%d.json" % (args.workload, args.seed))
        result = run_binary(binary, args, trace=True, spans=spans)
        if untraced is not None and result is not None:
            base = untraced["phase_s"]
            overhead = result["phase_s"] / base - 1.0 if base else 0.0
            result["metrics"]["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
            result["correct"] = result["correct"] and untraced["correct"]
            result["errors"] += untraced["errors"]
            log("spans written to " + spans)
        else:
            result = None
    if result is None:
        return 1

    for err in result.get("errors", []):
        log("check failed: " + err)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        log("metrics differ from BENCHMARK.json: missing %s, unexpected %s" % (
            sorted(set(expected) - set(got)),
            sorted(k for k in got if expected.get(k) != got[k])))
        return 1
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": result["metrics"]}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
