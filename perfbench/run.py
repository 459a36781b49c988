#!/usr/bin/env python3
"""End-to-end benchmark of the AccelWattch repository (see README.md).

    python3 perfbench/run.py --workload memo_hot --seed 1 --seconds 10 --trace 0

Builds perfbench/awbench from the checkout's sources into .bench_build/
(or $CARGO_TARGET_DIR), runs one workload in fresh processes with private
caches and pinned thread counts, checks the outputs, and prints every
metric with its unit. The last stdout line is the result object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (and writes a Chrome
trace of the benchmark's spans under .bench_build/traces/).
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

WORKLOADS = ("memo_hot", "sim_cold", "dup_burst", "calibrate")

# Metric name -> unit. Every workload reports every metric; README.md
# says what each one means on each workload.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "mape_mean_pct": "%",
    "mape_max_pct": "%",
}

# End-to-end figures too unsteady on a shared host to gate on (README.md,
# "Steadiness") lead the per-layer set.
PER_LAYER = {
    "req_per_s": "1/s",
    "goodput_rps": "1/s",
    "latency_p99_ms": "ms",
    "calibrate_s": "s",
    "peak_rss_mb": "MB",
    "service.protocol.request_encode_us": "us",
    "service.protocol.request_decode_us": "us",
    "service.protocol.content_key_us": "us",
    "service.protocol.response_encode_us": "us",
    "service.protocol.response_decode_us": "us",
    "service.estimator.memo_lookup_us": "us",
    "service.estimator.memo_hit_ratio": "ratio",
    "service.estimator.run_ms": "ms",
    "service.client.residual_us": "us",
    "service.server.e2e_p50_ms": "ms",
    "service.server.e2e_p99_ms": "ms",
    "service.server.queue_wait_p50_ms": "ms",
    "service.server.queue_wait_p99_ms": "ms",
    "service.server.sim_p50_ms": "ms",
    "service.server.admitted": "count",
    "service.server.memo_hits": "count",
    "service.server.coalesced": "count",
    "service.server.shed": "count",
    "service.server.degraded": "count",
    "service.server.deadline": "count",
    "service.server.sessions": "count",
    "service.server.coalesce_ratio": "ratio",
    "failed_frac": "ratio",
    "degraded_frac": "ratio",
    "dup_burst.sched_lag_p99_ms": "ms",
    "dup_burst.retries": "count",
    "trace.tracegen_us": "us",
    "sim.gpusim.run_ms": "ms",
    "sim.gpusim.minst_per_s": "Minst/s",
    "sim.gpusim.issued_insts": "count",
    "sim.gpusim.cycles": "count",
    "sim.shard.barrier_frac": "ratio",
    "core.power_model.evaluate_us": "us",
    "core.result_cache.store_us": "us",
    "core.result_cache.fetch_us": "us",
    "core.calibration.constant_power_s": "s",
    "core.calibration.static_power_s": "s",
    "hw.nvml.ubench_measure_s": "s",
    "core.calibration.variant_sass_s": "s",
    "core.calibration.variant_ptx_s": "s",
    "core.calibration.variant_hw_s": "s",
    "core.calibration.variant_hybrid_s": "s",
    "core.tuner.qp_newton_iters": "count",
    "workloads.validation_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}

# Set-up is timed from outside: fresh processes set up and exit before
# the measured one (at least SETUP_SPAWNS, more while they are quick),
# and setup_s is the median of all of them.
SETUP_SPAWNS = 3
SETUP_SPAWNS_MAX = 20
SETUP_BUDGET_S = 2.0
RUN_TIMEOUT_S = 170


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def fail(log, msg):
    """die() with the tail of a child's stderr log."""
    with open(log) as f:
        sys.stderr.write(f.read()[-4000:])
    die(msg)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build(jobs):
    """Configure once, then (re)build awbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("the repository sources (src/) are not in this checkout")
    cmake_dir = os.path.join(build_dir(), "cmake")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "awbench",
                  "-j", str(jobs)])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            die("build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "awbench")


class Child:
    """One awbench process: stdout lines with arrival times."""

    def __init__(self, cmd, env, log_path):
        self.lines = []
        self.ready_s = None
        self.log = open(log_path, "w")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, env=env, text=True)
        self.reader = threading.Thread(target=self._read)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            if line.strip() == "READY" and self.ready_s is None:
                self.ready_s = time.perf_counter() - self.t0
            self.lines.append(line.rstrip("\n"))

    def finish(self, timeout):
        try:
            rc = self.proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            rc = None
        self.reader.join()
        self.log.close()
        return rc


def netns_prefix():
    """Command prefix that starts a process in a fresh network namespace.

    memo_hot opens ~10^5 loopback connections per run, and each leaves a
    socket in TIME_WAIT for 60 s. In a shared namespace the next run
    inherits that backlog and connects slower, so a run's throughput
    would depend on what ran before it. A private namespace (unprivileged,
    via a user namespace) starts every run clean. Without one, runs share
    the host's namespace and this is reported.
    """
    cmd = ["unshare", "--user", "--map-root-user", "--net", "--"]
    try:
        ok = subprocess.run(cmd + ["true"], stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL).returncode == 0
    except OSError:
        ok = False
    return cmd if ok else []


def fingerprint(threads, sim_threads, seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "none"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, env=env)
        if p.returncode == 0:
            rev = p.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"seed": str(seed), "nproc": str(os.cpu_count()), "cpu": cpu,
            "kernel": platform.release(), "git_rev": rev,
            "src_sha1": digest.hexdigest()[:16],
            "AW_THREADS": str(threads), "AW_SIM_THREADS": str(sim_threads)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()

    nproc = os.cpu_count() or 1
    exe = build(min(4, nproc))

    # Pinned thread counts: 2 for the pipeline pool (on a shared 4-vCPU
    # host a 4-thread pool swung 2x with the neighbours' load, 2 threads
    # about 25%), and 1 for the sharded simulator: the daemon's 2 workers
    # then never run more simulation threads than 2, and with 2 sim
    # threads each, sim_cold ran 15% slower and twice as unsteady. Every
    # other AW_* knob is removed, so the program runs with its defaults.
    threads = min(2, nproc)
    sim_threads = 1
    env = {k: v for k, v in os.environ.items() if not k.startswith("AW_")}
    env["AW_THREADS"] = str(threads)
    env["AW_SIM_THREADS"] = str(sim_threads)

    run_root = os.path.join(build_dir(), "runs",
                            "%s-%d-%d" % (args.workload, args.seed,
                                          os.getpid()))
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, "%s-seed%d.trace.json" %
                             (args.workload, args.seed))

    netns = netns_prefix()

    def cmd(workdir, setup_only):
        c = netns + [exe, "--workload", args.workload,
                     "--seed", str(args.seed),
                     "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--workdir", workdir]
        if args.trace:
            c += ["--trace-out", trace_out]
        if setup_only:
            c.append("--setup-only")
        return c

    setup = []
    try:
        k = 0
        while not args.trace and (k < SETUP_SPAWNS or (
                k < SETUP_SPAWNS_MAX and sum(setup) < SETUP_BUDGET_S)):
            wd = os.path.join(run_root, "setup%d" % k)
            os.makedirs(wd, exist_ok=True)
            log = os.path.join(run_root, "setup%d.log" % k)
            ch = Child(cmd(wd, True), env, log)
            if ch.finish(60) != 0 or ch.ready_s is None:
                fail(log, "set-up process %d failed" % k)
            setup.append(ch.ready_s)
            shutil.rmtree(wd, ignore_errors=True)
            k += 1

        wd = os.path.join(run_root, "main")
        os.makedirs(wd, exist_ok=True)
        log = os.path.join(run_root, "main.log")
        ch = Child(cmd(wd, False), env, log)
        rc = ch.finish(RUN_TIMEOUT_S - (time.perf_counter() - started))
        if rc != 0 or ch.ready_s is None or not ch.lines:
            fail(log, "workload process failed (exit %s)" % rc)
        setup.append(ch.ready_s)
        try:
            result = json.loads(ch.lines[-1])
        except ValueError:
            die("workload printed no result")
    finally:
        shutil.rmtree(run_root, ignore_errors=True)

    for line in ch.lines[:-1]:
        if line != "READY":
            print(line)
    for key, value in fingerprint(threads, sim_threads, args.seed).items():
        print("info %-22s %s" % (key, value))
    print("info %-22s %s" % ("network_namespace",
                             "private" if netns else "shared"))
    for key, value in result["info"].items():
        print("info %-22s %s" % (key, value))
    for problem in result["problems"]:
        print("problem %s" % problem)

    measured = dict(result["metrics"])
    if args.trace:
        wanted = PER_LAYER
        print("info %-22s %s" % ("trace_file", trace_out))
    else:
        wanted = END_TO_END
        measured["setup_s"] = statistics.median(setup)
        print("info %-22s %s" % ("setup_samples_s",
                                 " ".join("%.4f" % s for s in setup)))
    metrics = {}
    for name, unit in wanted.items():
        if name not in measured and not args.trace:
            die("workload did not report " + name)
        # A layer a workload never reaches reports 0 in the traced run.
        value = float(measured.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print("metric %-38s %14.6g %s" % (name, value, unit))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
