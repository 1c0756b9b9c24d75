#!/usr/bin/env python3
"""Run one HABIT benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload build-sar --seed 1 --seconds 10 --trace 0

Builds the program and the benchmark runner from source with sbt on first
use (outputs go to .bench_build/), then starts the runner in a fresh JVM. The
runner prints readable lines and, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics. This script
checks that the metric names match BENCHMARK.json and passes the runner's
exit code on.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(BUILD, "target", "classpath.txt")
STAMP = os.path.join(BUILD, "stamp.txt")
SOURCES = [os.path.join(ROOT, "src", "main"), os.path.join(BENCH, "src"),
           os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# A fixed heap and the throughput collector keep run-to-run noise down;
# Spark on Java 17 needs the modules below opened to it.
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:+IgnoreUnrecognizedVMOptions",
            "-Djdk.reflect.useDirectMethodHandle=false",
            "-Dio.netty.tryReflectionSetAccessible=true",
            "-Djava.io.tmpdir=" + os.path.join(BUILD, "tmp")] + [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_stamp():
    h = hashlib.sha256()
    for src in SOURCES:
        paths = [src] if os.path.isfile(src) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(src) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_bounded(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def spark_home():
    """SPARK_HOME, or the distribution that holds spark-submit on the PATH."""
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    submit = shutil.which("spark-submit")
    if not submit:
        fail("set SPARK_HOME to a Spark distribution")
    return os.path.dirname(os.path.dirname(os.path.realpath(submit)))


def build():
    for src in SOURCES:
        if not os.path.exists(src):
            fail("missing %s: run from the root of a source checkout" % os.path.relpath(src, ROOT))
    stamp = source_stamp()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP) and open(STAMP).read() == stamp:
        return
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ, SPARK_HOME=spark_home())
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true "
                   "-Dsbt.repository.config=%s -Dsbt.offline=true -Xmx2g"
                   % os.path.expanduser("~/.sbt/repositories"))
    with open(os.path.join(BUILD, "build.log"), "wb") as log:
        code, _ = run_bounded(["sbt", "--batch", "-Dsbt.log.noformat=true",
                               "-Dsbt.server.autostart=false", "writeClasspath"],
                              BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=log,
                              stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
    if code != 0 or not os.path.exists(CLASSPATH):
        with open(os.path.join(BUILD, "build.log"), errors="replace") as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        fail("build failed (see .bench_build/build.log)")
    with open(STAMP, "w") as fh:
        fh.write(stamp)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + a.workload)

    build()
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    cp = open(CLASSPATH).read().strip()
    cmd = ["java"] + JVM_OPTS + ["-cp", cp, "perfbench.Main", "--workload", a.workload,
                                 "--seed", str(a.seed), "--seconds", str(a.seconds),
                                 "--trace", a.trace]
    env = dict(os.environ)
    # Every core, shuffle partitions sized to bench-scale data (~80k rows),
    # and Spark bound to the loopback interface.
    env.update(SPARK_MASTER="local[*]", SPARK_SHUFFLE_PARTITIONS="8",
               SPARK_LOCAL_IP="127.0.0.1", SPARK_LOCAL_HOSTNAME="localhost")
    code, out = run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL)
    lines = out.decode(errors="replace").rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("runner printed no result line (exit code %d)" % code)
    want = [m["name"] for m in spec["per_layer" if a.trace == "1" else "end_to_end"]]
    if sorted(result.get("metrics", {})) != sorted(want):
        fail("metrics %s do not match BENCHMARK.json %s" % (sorted(result["metrics"]), sorted(want)))
    print(lines[-1])
    sys.exit(code)


if __name__ == "__main__":
    main()
