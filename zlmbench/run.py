#!/usr/bin/env python3
"""ZipfLM benchmark: build the binary from source, run one workload.

Run from the root of a source tree:

    python3 zlmbench/run.py --workload word_zipf_g4 --seed 1 --seconds 30 --trace 0

Prints the binary's metric lines, then as the last line one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports
every end_to_end metric of BENCHMARK.json, --trace 1 every per_layer
metric (from an extra traced pass, which also writes a Chrome trace).
Exits non-zero, without a result line, when a correctness check fails
or the source tree is missing.

Two more modes:

    python3 zlmbench/run.py --self-test
        reduced-size runs: every metric is printed with its unit, and
        each correctness check trips on a deliberately diverged output.
    python3 zlmbench/run.py --compare DIR_A DIR_B
        medians and quartiles of two sets of saved records, refused when
        their host/build fingerprints differ.

Build tree, traces and saved records live under $CARGO_TARGET_DIR
(default .bench_build) in the source tree.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("char_rhn_g1", "word_zipf_g4", "serve_zipf")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("zlmbench: " + msg, file=sys.stderr)
    sys.exit(code)


def out_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "zlmbench")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e), 2)


def build():
    """Configure once, then build the binary incrementally."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no ZipfLM source tree (CMakeLists.txt, src/) at " + ROOT, 2)
    build_dir = os.path.join(out_root(), "build")
    binary = os.path.join(build_dir, "zlmbench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "zlmbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return binary


def run_binary(binary, workload, seed, seconds, trace, diverge=None):
    """Run the binary once; return (exit code, stdout lines, record)."""
    out_dir = os.path.join(out_root(), "out")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", out_dir]
    if diverge:
        cmd += ["--diverge", diverge]
    # Own session, so a timeout takes the forked ranks down too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(err)
    lines = out.splitlines()
    record = None
    for line in lines:
        if line.startswith("RECORD "):
            record = json.loads(line[len("RECORD "):])
    return proc.returncode, lines, record


def select_metrics(spec, record, trace):
    """The metrics this mode reports, checked against BENCHMARK.json."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    have = record["metrics"]
    out = {}
    for m in wanted:
        got = have.get(m["name"])
        if got is None:
            fail("metric %s missing from the record" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        value = got["value"]
        if value is None or not math.isfinite(value):
            fail("metric %s is not a finite number" % m["name"])
        if not trace and value <= 0:
            fail("end-to-end metric %s reads %r" % (m["name"], value))
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def save_record(record):
    rec_dir = os.path.join(out_root(), "records")
    os.makedirs(rec_dir, exist_ok=True)
    name = "%s_seed%d_trace%d.json" % (record["workload"], record["seed"],
                                       1 if record["trace"] else 0)
    with open(os.path.join(rec_dir, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)


def run(args):
    spec = load_spec()
    if args.workload not in WORKLOADS:
        fail("unknown workload %r" % args.workload, 2)
    binary = build()
    code, lines, record = run_binary(binary, args.workload, args.seed,
                                     args.seconds, args.trace)
    for line in lines:
        if not line.startswith("RECORD "):
            print(line)
    if record is None or code not in (0, 3):
        fail("binary exited with code %d and no record" % code)
    if not record["correct"] or code != 0:
        fail("correctness check failed: %s" % "; ".join(record["failures"]),
             3)
    result = {
        "correct": True,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": select_metrics(spec, record, args.trace),
    }
    if result["attempted"] < 1:
        fail("no operation attempted")
    save_record(record)
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    print(json.dumps(result))


def self_test():
    """Reduced-size runs of every workload and every check."""
    spec = load_spec()
    binary = build()
    problems = []
    for workload in WORKLOADS:
        code, _, record = run_binary(binary, workload, 7, 2, True)
        if code != 0 or record is None or not record["correct"]:
            problems.append("%s: clean run failed (code %d)" % (workload, code))
            continue
        for m in spec["end_to_end"] + spec["per_layer"]:
            got = record["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                problems.append("%s: %s not printed with unit %s"
                                % (workload, m["name"], m["unit"]))
        trace = record["notes"].get("trace", "")
        if not os.path.isfile(os.path.join(ROOT, trace)):
            problems.append("%s: no trace file %r" % (workload, trace))
    for workload, diverge, check in (
            ("char_rhn_g1", "nonfinite", "finite_loss"),
            ("word_zipf_g4", "nonfinite", "finite_loss"),
            ("word_zipf_g4", "oracle", "socket_equals_oracle"),
            ("serve_zipf", "replay", "serve_replay")):
        code, _, record = run_binary(binary, workload, 7, 2, False, diverge)
        tripped = (code == 3 and record is not None
                   and not record["correct"] and
                   any(f.startswith(check + ":")
                       for f in record["failures"]))
        print("self-test %-13s --diverge %-9s -> %s %s"
              % (workload, diverge, check,
                 "tripped" if tripped else "DID NOT TRIP"))
        if not tripped:
            problems.append("%s: %s did not trip on --diverge %s"
                            % (workload, check, diverge))
    for p in problems:
        print("self-test FAILED: " + p, file=sys.stderr)
    if problems:
        sys.exit(1)
    print("self-test passed: %d metrics on %d workloads, 4 checks trip"
          % (len(spec["end_to_end"]) + len(spec["per_layer"]),
             len(WORKLOADS)))


def load_records(directory):
    records = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                records.append(json.load(f))
    return records


def compare(dir_a, dir_b):
    """Median and quartiles per workload and metric of two record sets."""
    sets = [load_records(dir_a), load_records(dir_b)]
    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for s in sets for r in s}
    if len(prints) != 1:
        fail("records carry %d different fingerprints; not comparable:\n  %s"
             % (len(prints), "\n  ".join(sorted(prints))))
    for workload in WORKLOADS:
        for trace in (False, True):
            rows = [[r for r in s if r["workload"] == workload
                     and r["trace"] == trace] for s in sets]
            if not rows[0] or not rows[1]:
                continue
            print("%s (trace %d): %d vs %d runs" % (workload, trace,
                                                    len(rows[0]),
                                                    len(rows[1])))
            for name in rows[0][0]["metrics"]:
                cols = []
                for rs in rows:
                    v = [r["metrics"][name]["value"] for r in rs
                         if name in r["metrics"]]
                    q = (statistics.quantiles(v, n=4) if len(v) > 1
                         else [v[0]] * 3)
                    cols.append("%12.4f [%10.4f %10.4f]" % (q[1], q[0], q[2]))
                print("  %-30s %s   %s" % (name, cols[0], cols[1]))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    args = p.parse_args()
    if args.self_test:
        self_test()
    elif args.compare:
        compare(*args.compare)
    elif args.workload:
        run(args)
    else:
        p.error("--workload, --self-test or --compare is required")


if __name__ == "__main__":
    main()
