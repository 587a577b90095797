#!/usr/bin/env python3
"""Run one benchmark workload, building the program and the benchmark first.

Usage, from the repository root:

    python3 perfbench/run.py --workload syn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The build (sbt, offline) lands in .bench_build/perfbench and is redone only
when a source or build file changes. The last line of standard output is the
result JSON: {"correct", "attempted", "failed", "metrics"}; the line before it
records the run's environment and sample counts. --self-test runs every
workload on a tiny input and checks each metric of BENCHMARK.json, then
checks that the bound replay catches a corrupted node signature.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
RUN_TIMEOUT_S = 170
# A fixed-size heap and the throughput collector: heap resizing and
# concurrent collection add run-to-run noise to single-threaded latencies.
JVM_FLAGS = ["-Xms3g", "-Xmx3g", "-XX:+UseParallelGC"]

# Module opens that spark-submit adds on JDK 17 (the root build's list).
OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar",
    )
]

_children = []


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _stop_children(signum=None, frame=None):
    for p in _children:
        if p.poll() is None:
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            p.wait()
    if signum is not None:
        sys.exit(128 + signum)


def source_stamp():
    """SHA-256 over every file the build reads from this checkout."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(BENCH, "src"),
             os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for r in roots:
        paths = [r] if os.path.isfile(r) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(r) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_child(cmd, cwd, timeout):
    """Run cmd in its own process group; return (exit code, stdout)."""
    p = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, start_new_session=True, text=True)
    _children.append(p)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop_children()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return p.returncode, out


def build(stamp):
    """Compile the program and the benchmark; return the runtime classpath."""
    cp_file = os.path.join(BUILD, "classpath.txt")
    stamp_file = os.path.join(BUILD, "stamp")
    if os.path.isfile(cp_file) and os.path.isfile(stamp_file):
        with open(stamp_file) as f:
            if f.read().strip() == stamp:
                with open(cp_file) as g:
                    return g.read().strip()
    os.makedirs(BUILD, exist_ok=True)
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           f"-Dsbt.global.base={os.path.join(BUILD, 'sbt-global')}",
           "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    code, out = run_child(cmd, BENCH, 840)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or "classes" not in lines[-1]:
        sys.stderr.write(out)
        fail(f"build failed (exit {code})")
    cp = lines[-1].strip()
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return cp


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def java_cmd(cp, work, main, args):
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return [java, *JVM_FLAGS, *OPENS, f"-Djava.io.tmpdir={tmp}", "-cp", cp, main, *args]


def run_workload(cp, stamp, workload, seed, seconds, trace, entities=None):
    """Run one workload; return its stdout lines, the last being the result."""
    work = os.path.join(BUILD, "work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--work-dir", work,
            "--git-sha", git_sha(), "--source-sha", stamp]
    if entities is not None:
        args += ["--entities", str(entities)]
    try:
        code, out = run_child(java_cmd(cp, work, "perfbench.Main", args), ROOT, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail(f"workload {workload} exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(out)
        fail("the last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    return lines, result


def self_test(cp, stamp):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, r = run_workload(cp, stamp, w["name"], 1, 1, trace, entities=300)
            env = json.loads(lines[-2])["env"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in r["metrics"].items()}
            tag = f"{w['name']} trace={trace}"
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                                f"units {[n for n in want if n in got and got[n] != want[n]]}")
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append(f"{tag}: correct={r['correct']} failed={r['failed']} attempted={r['attempted']} "
                                f"(tie order only: {env['failed_tie_order_only']}, unsound: {env.get('unsound', 'n/a')})")
            if trace == 1 and r["metrics"]["error_rate"]["value"] != 0:
                problems.append(f"{tag}: error_rate is {r['metrics']['error_rate']['value']}")
            print(f"{tag}: {len(got)} metrics, attempted {r['attempted']}, failed {r['failed']}")
    work = os.path.join(BUILD, "work", str(os.getpid()))
    code, out = run_child(java_cmd(cp, work, "perfbench.SelfTest", []), ROOT, RUN_TIMEOUT_S)
    shutil.rmtree(work, ignore_errors=True)
    print(out, end="")
    if code != 0:
        problems.append("the bound replay check failed")
    for p in problems:
        print(f"FAIL {p}")
    if problems:
        sys.exit(1)
    print("self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not os.path.isdir(PROGRAM_SOURCES):
        fail(f"the program's sources ({os.path.relpath(PROGRAM_SOURCES, ROOT)}) are missing; "
             "run from a full checkout", code=2)
    for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(s, _stop_children)
    stamp = source_stamp()
    cp = build(stamp)
    if a.self_test:
        self_test(cp, stamp)
        return
    lines, _ = run_workload(cp, stamp, a.workload, a.seed, a.seconds, a.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
