#!/usr/bin/env python3
"""Repository benchmark: build the simulator, run one workload, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The driver (perfbench/driver.cc) is built
from ../src in Release mode under $CARGO_TARGET_DIR (default
.bench_build)/perfbench. The workloads and metrics are described in
BENCHMARK.json at the repository root.

--trace 0 measures the end-to-end metrics with tracing off; --trace 1
runs the traced layer driver and reports the per-layer metrics. Either
way the run is checked: the DRAM protocol checker on one run per
mechanism, request conservation, repeated runs bit-identical to the
first, and (--trace 1) traced runs identical to untraced ones. Any
failure sets "correct" to false and the exit code to 1.

Host times (setup_s, sim_mcycles_per_s) are scaled to reference
seconds by a fixed probe loop timed between the measured runs, which
cancels much of the host's own speed drift; the raw values are in the
report and in its context line.

The human-readable report goes to standard output; its last line is
the JSON result {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Set-up is timed in the measuring process and again in fresh processes
# (the alone-IPC baselines are cached per process): at least
# MIN_EXTRA_SETUPS more, at most MAX_EXTRA_SETUPS, adding more only while
# they have taken under EXTRA_SETUP_BUDGET_S. The median is scaled to
# reference seconds with the measuring run's host_scale (driver.cc,
# kProbeRefS).
MIN_EXTRA_SETUPS = 2
MAX_EXTRA_SETUPS = 8
EXTRA_SETUP_BUDGET_S = 4.0

# Every driver process of one run must finish within this many seconds
# of the first one starting (the build is not counted).
RUN_BUDGET_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure and build the driver; return its path or exit 2."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    cmds = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"] + gen)
    cmds.append(["cmake", "--build", out, "-j", str(jobs())])
    # Keep the compiler's temporary files inside the build directory.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as f:
        for cmd in cmds:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                f.close()
                with open(log_path) as r:
                    sys.stderr.write(r.read()[-4000:])
                log("perfbench: build failed (log: %s)" % log_path)
                sys.exit(2)
    return os.path.join(out, "perfbench_driver")


def jobs():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def commit_id():
    """The git commit when there is one, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for d, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        for name in sorted(files):
            path = os.path.join(d, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_driver(driver, args, deadline):
    """Run the driver; return (exit code, report lines, context, result)."""
    try:
        r = subprocess.run([driver] + args, capture_output=True, text=True,
                           timeout=max(1.0, deadline - time.monotonic()),
                           cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out: %s" % " ".join(args))
        return 124, [], {}, None
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    context, result, report = {}, None, []
    for line in lines:
        if line.startswith("{\"context\""):
            context = json.loads(line)["context"]
        elif line.startswith("{\"attempted\""):
            result = json.loads(line)
        else:
            report.append(line)
    return r.returncode, report, context, result


def run_benchmark(workload, seed, seconds, trace, scale=None, inject=None):
    """One benchmark run. Returns (result dict or None, report lines,
    driver exit code)."""
    driver = build()
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    common = ["--workload", workload, "--seed", str(seed),
              "--jobs", str(jobs())]
    if scale is not None:
        common += ["--scale", str(scale)]

    deadline = time.monotonic() + RUN_BUDGET_S
    setups = []
    spent = 0.0
    # setup_s is an end-to-end metric, so --trace 1 needs no extra set-ups.
    while not trace and len(setups) < MAX_EXTRA_SETUPS and (
            len(setups) < MIN_EXTRA_SETUPS or spent < EXTRA_SETUP_BUDGET_S):
        t0 = time.monotonic()
        code, _, _, res = run_driver(
            driver, common + ["--seconds", "1", "--trace", "0",
                              "--setup-only"], deadline)
        spent += time.monotonic() - t0
        if code != 0 or res is None:
            return None, [], code or 1
        setups.append(res["metrics"]["setup_raw_s"]["value"])

    args = common + ["--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        args += ["--spans", os.path.join(
            build_dir(), "spans-%s-%d.json" % (workload, seed))]
    if inject:
        args += ["--inject", inject]
    code, report, context, res = run_driver(driver, args, deadline)
    if res is None:
        return None, report, code or 1

    measured = res["metrics"]
    setups.append(measured["setup_raw_s"]["value"])
    scale = measured["host_scale"]["value"]
    measured["setup_s"]["value"] = statistics.median(setups) * scale
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"] or \
                not math.isfinite(got["value"]):
            log("perfbench: metric %s missing or malformed" % m["name"])
            return None, report, 1
        metrics[m["name"]] = got
    context.update({"nproc": jobs(), "commit": commit_id(),
                    "host_scale": scale, "setup_raw_samples_s": setups,
                    "setup_raw_median_s": statistics.median(setups)})
    if "sim_raw_mcycles_per_s" in measured:
        context["sim_raw_mcycles_per_s"] = \
            measured["sim_raw_mcycles_per_s"]["value"]
    report.append("context: " + json.dumps(context, sort_keys=True))
    result = {
        "correct": code == 0 and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return result, report, code


def self_test():
    """Short-mode check of the benchmark itself."""
    spec = load_spec()
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)
        log("  %s %s" % ("ok  " if cond else "FAIL", what))

    for w in spec["workloads"]:
        for trace in (0, 1):
            res, _, code = run_benchmark(w["name"], 7, 0.5, trace,
                                         scale=0.05)
            expect(res is not None and code == 0 and res["correct"],
                   "%s --trace %d runs clean" % (w["name"], trace))
            want = spec["per_layer"] if trace else spec["end_to_end"]
            expect(res is not None and
                   {k: v["unit"] for k, v in res["metrics"].items()} ==
                   {m["name"]: m["unit"] for m in want},
                   "%s --trace %d prints every metric with its unit"
                   % (w["name"], trace))

    first = spec["workloads"][0]["name"]
    res, report, code = run_benchmark(first, 7, 0.5, 1, scale=0.05,
                                      inject="signature")
    expect(res is not None and code == 1 and not res["correct"] and
           res["failed"] >= 1 and
           any("traced run differs" in line for line in report),
           "a corrupted traced signature is caught and counted")
    res, report, code = run_benchmark(first, 7, 0.5, 0, scale=0.05,
                                      inject="violation")
    expect(res is not None and code == 1 and not res["correct"] and
           res["failed"] >= 1 and
           any("checker:" in line for line in report),
           "a seeded protocol violation is caught and counted")
    log("perfbench self-test: %s" %
        ("passed" if not problems else "%d failed" % len(problems)))
    return 0 if not problems else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if a.self_test:
        return self_test()
    names = [w["name"] for w in load_spec()["workloads"]]
    if a.workload not in names:
        p.error("--workload must be one of %s" % ", ".join(names))
    if a.seconds <= 0:
        p.error("--seconds must be positive")

    res, report, code = run_benchmark(a.workload, a.seed, a.seconds,
                                      bool(a.trace))
    for line in report:
        print(line)
    if res is None:
        log("perfbench: no result (driver exit code %d)" % code)
        return 2
    print(json.dumps(res), flush=True)
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
