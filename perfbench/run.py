#!/usr/bin/env python3
"""The repo benchmark: build the system from source, run one workload, print
its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. It configures and builds perfbench/
(which compiles ../src and ../tools/codesign_cli.cpp) into .bench_build/,
runs the `perfbench` binary, and prints as its last stdout line one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
of BENCHMARK.json with --trace 0, the per-layer ones with --trace 1. A host
fingerprint line precedes it, and the whole result is also written to
.bench_out/. perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import re
import signal
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("serve_advise", "sweep_grid")
# Per-layer metrics of layers a workload never reaches, by name prefix: the
# traced run reports them as 0. Any other declared metric must be measured.
NOT_REACHED = {
    "serve_advise": (),
    "sweep_grid": ("serve.", "advisor.render_advise_us", "advisor.search_us"),
}
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "serve" / "ops.cpp").is_file() or not (
        ROOT / "tools" / "codesign_cli.cpp"
    ).is_file():
        fail(f"no system sources under {ROOT} (src/, tools/): nothing to build")
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD), *gen,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
           "--target", "perfbench", "codesign", "perfbench_selftest"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def cmake_cache(key):
    try:
        text = (BUILD / "CMakeCache.txt").read_text()
    except OSError:
        return ""
    m = re.search(rf"^{key}:[A-Z]+=(.*)$", text, re.M)
    return m.group(1) if m else ""


def host_fingerprint(load_before, load_after):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    online = os.sysconf("SC_NPROCESSORS_ONLN")
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return {
        "cpu_model": cpu,
        "online_cpus": online,
        "load_avg_before": load_before,
        "load_avg_after": load_after,
        # The benchmark keeps one idle-priority spinner per CPU, and they
        # count in the load average: a run is busy when more than `online`
        # tasks besides them wanted a CPU.
        "busy": max(load_before[0], load_after[0]) > 2 * online,
        "compiler": compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_commit": commit,
    }


def run_child(cmd):
    """Run `cmd` in its own process group, echoing its stdout; returns
    (exit code, last stdout line)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(signum, _frame):
        # The workload and the servers it spawned share its process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    last = ""
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if last:
                print(last, flush=True)
            last = line
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, last


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    build()
    if args.selftest:
        sys.exit(subprocess.run([str(BUILD / "perfbench_selftest")]).returncode)
    if args.workload is None:
        fail("--workload is required")

    OUT.mkdir(exist_ok=True)
    load_before = list(os.getloadavg())
    code, last = run_child([
        str(BUILD / "perfbench"), f"--workload={args.workload}",
        f"--seed={args.seed}", f"--seconds={args.seconds}",
        f"--trace={args.trace}", f"--codesign={BUILD / 'codesign'}",
        f"--out-dir={OUT}"])
    load_after = list(os.getloadavg())
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        print(last)
        fail(f"workload {args.workload} failed (exit {code})")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics, absent = {}, []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace or not m["name"].startswith(
                    NOT_REACHED[args.workload]):
                fail(f"metric {m['name']} was not measured")
            absent.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["value"] is None:
            fail(f"{m['name']} has no finite value")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} measured in {got['unit']}, declared {m['unit']}")
        metrics[m["name"]] = got
    if absent:
        print(f"not on {args.workload}'s path (reported as 0): "
              + ", ".join(absent))

    print("measured:")
    for name, got in sorted(result["metrics"].items()):
        bounded = " (bounded)" if name in metrics and not args.trace else ""
        print(f"  {name} = {got['value']} {got['unit']}{bounded}")
    host = host_fingerprint(load_before, load_after)
    print("host: " + json.dumps(host))
    if host["busy"]:
        print(f"WARNING: load average above the {host['online_cpus']} online "
              "CPUs (besides the benchmark's idle spinners) during this run; "
              "its timings are suspect")
    final = {"correct": bool(result["correct"]) and code == 0,
             "attempted": int(result["attempted"]),
             "failed": int(result["failed"]), "metrics": metrics}
    record = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds, "trace": args.trace,
                                  "host": host, "result": final,
                                  "all_metrics": result["metrics"]}, indent=1))
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
