#!/usr/bin/env python3
"""Builds and runs the Swala end-to-end benchmark.

    python3 swalabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 swalabench/run.py --test      # the benchmark's own unit tests

Run from the root of a checkout. The benchmark is compiled from the
checkout's sources into $CARGO_TARGET_DIR (default .bench_build), then
swala_bench runs in its own process group with a private directory under
.bench_tmp. Whatever happens, the group is killed and the directory removed
before this script exits; a process that outlived the run is an error. The
last line of stdout is the result JSON, printed only when the run succeeded.
"""
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "swalabench")
TARGETS = ["swalad", "adl_cgi", "trace_node", "swala_bench"]
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("swalabench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Swala sources (src/) next to swalabench/; run from a full checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def group_alive(pgid, proc):
    proc.poll()  # reap swala_bench itself, so its zombie does not count
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def stop_group(pgid, proc):
    """SIGTERM the group, give it two seconds, then SIGKILL."""
    for sig, wait in ((signal.SIGTERM, 2.0), (signal.SIGKILL, 2.0)):
        if not group_alive(pgid, proc):
            return
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + wait
        while time.monotonic() < deadline and group_alive(pgid, proc):
            time.sleep(0.02)


def run_bench(args):
    build_dir = build(TARGETS)
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    work_dir = os.path.join(tmp_root, "run-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [os.path.join(build_dir, "swala_bench")] + args + [
        "--bin-dir", build_dir, "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    pgid = proc.pid

    def on_signal(signo, _frame):
        stop_group(pgid, proc)
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.exit(128 + signo)

    for signo in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(signo, on_signal)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(pgid, proc)
        shutil.rmtree(work_dir, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    # swala_bench stops its nodes itself; anything still in its process group
    # now (a node, a CGI child) leaked. Give exiting processes a moment.
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline and group_alive(pgid, proc):
        time.sleep(0.02)
    leaked = group_alive(pgid, proc)
    stop_group(pgid, proc)
    shutil.rmtree(work_dir, ignore_errors=True)
    text = out.decode(errors="replace")
    if proc.returncode != 0:
        sys.stdout.write(text)
        fail("swala_bench exited with %d" % proc.returncode, proc.returncode or 1)
    if leaked:
        fail("processes outlived the run")
    sys.stdout.write(text)


def main():
    if sys.argv[1:] == ["--test"]:
        build_dir = build(["swalabench_test"])
        sys.exit(subprocess.run([os.path.join(build_dir, "swalabench_test")]).returncode)
    run_bench(sys.argv[1:])


if __name__ == "__main__":
    main()
