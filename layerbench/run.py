#!/usr/bin/env python3
"""Layered end-to-end benchmark of the PAR-TDBHT pipeline.

Run from the root of a checkout:

    python3 layerbench/run.py --workload crop5k-p1 --seed 117 --seconds 12 --trace 0

The first run builds the program and the benchmark from source with sbt
(layerbench/build.sbt); later runs reuse the build while no source changes.
Each run is one benchmark JVM (repro.layerbench.Main). The last line of
standard output is the result object; the full record of the run, spans
included, is written to layerbench/out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
WORK = os.path.join(BENCH, "work")
OUT = os.path.join(BENCH, "out")
TARGET = os.path.join(BENCH, "target")
CLASSPATH = os.path.join(TARGET, "classpath.txt")
STAMP = os.path.join(TARGET, "sources.sha256")

HEAP = "2g"          # fixed -Xms/-Xmx and collector, so heap sizing does not vary
RUN_LIMIT_S = 170    # a run that does not build ends within 180 s
BUILD_LIMIT_S = 700

# Spark needs these on JDK 17; spark-submit would add them itself.
JDK_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar"]
]


def fail(msg):
    print("layerbench: " + msg, file=sys.stderr)
    sys.exit(1)


def sources_digest():
    h = hashlib.sha256()
    files = []
    for top in (PROGRAM_SRC, os.path.join(BENCH, "src")):
        for d, _, fs in os.walk(top):
            files += [os.path.join(d, f) for f in fs if f.endswith(".scala")]
    files += [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_bounded(cmd, limit_s, **kw):
    """Run cmd in its own process group; kill the group if it outlives limit_s."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=max(1.0, limit_s))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not end within %.0f s" % (cmd[0], limit_s))
    return proc.returncode, out


def build():
    digest = sources_digest()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as fh:
            if fh.read().strip() == digest:
                return
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt is not on PATH")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if not os.path.isdir(os.path.join(env.get("SPARK_HOME", ""), "jars")):
        fail("SPARK_HOME must name a Spark binary distribution (with a jars/ directory)")
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true",
           "-Dsbt.global.base=" + os.path.join(WORK, "sbt-global"), "writeClasspath"]
    # sbt's log goes to stderr so that standard output ends with the result.
    code, _ = run_bounded(cmd, BUILD_LIMIT_S, cwd=BENCH, env=env, stdout=sys.stderr)
    if code != 0 or not os.path.exists(CLASSPATH):
        fail("build failed (sbt exit code %s)" % code)
    with open(STAMP, "w") as fh:
        fh.write(digest + "\n")


def measure(args):
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()
    # Pre-touching the fixed heap keeps first-use page faults out of the timings.
    cmd = [java, "-XX:+UseG1GC", "-XX:+AlwaysPreTouch", "-Xms" + HEAP, "-Xmx" + HEAP, "-XX:-UsePerfData",
           "-Djava.io.tmpdir=" + os.path.join(WORK, "tmp"),
           "-Dlog4j2.configurationFile=" + os.path.join(BENCH, "log4j2.properties")] + \
        JDK_OPENS + ["-cp", cp, "repro.layerbench.Main", "--work", WORK] + args
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(WORK, "spark-local"))
    code, out = run_bounded(cmd, RUN_LIMIT_S, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail("benchmark JVM exited with code %s" % code)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark JVM printed no result")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()
    if not os.path.isdir(os.path.join(PROGRAM_SRC, "repro", "core")):
        fail("no program sources at %s; run from the root of a full checkout" % PROGRAM_SRC)
    for d in (WORK, os.path.join(WORK, "tmp"), OUT):
        os.makedirs(d, exist_ok=True)
    build()
    record = os.path.join(OUT, "%s-seed%d-trace%d.json" % (a.workload, a.seed, a.trace))
    for line in measure(["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                         "--trace", str(a.trace), "--out", record]):
        print(line)


if __name__ == "__main__":
    main()
