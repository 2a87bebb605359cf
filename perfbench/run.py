#!/usr/bin/env python3
"""RECEIPT benchmark: builds the benchmark against this checkout's sources,
runs one workload in a fresh JVM and prints the result as the last line of
standard output.

    python3 perfbench/run.py --workload TrU --seed 0 --seconds 15 --trace 0

Workloads: TrU, EnU, Vsides (see perfbench/README.md). With
--trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer ones. The full report (samples, spans, provenance) is written to
perfbench/out/. Exits non-zero if any decomposition fails or differs from
BUP's tips.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CLASSPATH = HERE / "target" / "bench-classpath.txt"
BUILD_TIMEOUT_S = 850
# Reference and benchmark JVMs together must end within this many seconds.
RUN_BUDGET_S = 172
HEAP = "3g"
# Sequential BUP's lazy heap holds ~2.5 GB of stale entries on TrU.
REFERENCE_HEAP = "6g"


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    roots = [ROOT / "src" / "main" / "scala", HERE / "src" / "main"]
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for r in roots:
        files += sorted(p for p in r.rglob("*") if p.is_file())
    return files


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or None


def build(stamp):
    """Compiles with sbt unless the classpath of this exact source tree is
    already recorded; returns the runtime classpath."""
    if CLASSPATH.exists():
        lines = CLASSPATH.read_text().splitlines()
        if len(lines) == 2 and lines[0] == stamp:
            return lines[1]
    env = dict(os.environ, COURSIER_MODE="offline")
    if "SPARK_HOME" not in env:
        # a Spark distribution on PATH: <home>/bin/spark-submit next to <home>/jars
        homes = [Path(d).parent for d in env.get("PATH", "").split(os.pathsep)
                 if (Path(d) / "spark-submit").exists() and (Path(d).parent / "jars").is_dir()]
        if homes:
            env["SPARK_HOME"] = str(homes[0])
    env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " -Dsbt.offline=true -Dsbt.boot.lock=false"
                       f" -Djava.io.tmpdir={OUT / 'tmp'}").strip()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    print("perfbench: building with sbt", file=sys.stderr)
    r = run_child(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
                   "export Runtime/fullClasspath"], BUILD_TIMEOUT_S, env=env,
                  capture=True)
    out = r[1]
    cp = [l for l in out.splitlines() if "target" in l and ":" in l and " " not in l.strip()]
    if r[0] != 0 or not cp:
        sys.stderr.write(out[-4000:])
        die("sbt build failed", 1)
    CLASSPATH.parent.mkdir(parents=True, exist_ok=True)
    CLASSPATH.write_text(f"{stamp}\n{cp[-1].strip()}\n")
    return cp[-1].strip()


def run_child(cmd, timeout, env=None, capture=False):
    """Runs `cmd` to completion (killing it on timeout or when this script is
    terminated) and returns (exit code, captured stdout)."""
    child = subprocess.Popen(cmd, cwd=HERE, env=env, text=True,
                             stdout=subprocess.PIPE if capture else sys.stderr,
                             stderr=subprocess.STDOUT if capture else None)
    try:
        out, _ = child.communicate(timeout=timeout)
        return child.returncode, out or ""
    except subprocess.TimeoutExpired:
        die(f"{cmd[0]} did not finish within {timeout:.0f} s", 1)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this mode."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in json.loads(spec.read_text())[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()

    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        die(f"no RECEIPT sources under {ROOT / 'src/main/scala'}; run from a full checkout")
    signal.signal(signal.SIGTERM, lambda *_: die("terminated", 143))

    stamp = source_hash()
    cp = build(stamp)
    OUT.mkdir(parents=True, exist_ok=True)
    report = OUT / f"report-{a.workload}-seed{a.seed}-trace{a.trace}.json"
    if report.exists():
        report.unlink()
    tmp = f"-Djava.io.tmpdir={OUT / 'tmp'}"
    deadline = time.monotonic() + RUN_BUDGET_S
    rc, _ = run_child(["java", f"-Xmx{REFERENCE_HEAP}", tmp, "-cp", cp, "perfbench.Reference",
                       "ensure", a.workload, str(a.seed), str(OUT / "ref-cache")],
                      deadline - time.monotonic())
    if rc != 0:
        die("could not compute BUP's reference tips", 1)
    # Spark (Vsides' traced run) binds to the loopback interface only.
    env = dict(os.environ, SPARK_LOCAL_IP="127.0.0.1", SPARK_LOCAL_HOSTNAME="localhost")
    # A fixed, pre-touched heap keeps first-touch page faults out of the timings.
    rc, _ = run_child(["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+AlwaysPreTouch",
                       tmp, "-cp", cp, "perfbench.Bench",
                       "--workload", a.workload, "--seed", str(a.seed),
                       "--seconds", str(a.seconds), "--trace", str(a.trace),
                       "--work-dir", str(OUT)], deadline - time.monotonic(), env=env)
    if not report.exists():
        die(f"benchmark JVM exited with {rc} and wrote no report", 1)
    rep = json.loads(report.read_text())

    want = expected_metrics(a.trace)
    got = {k: v["unit"] for k, v in rep["metrics"].items()}
    if want is not None and want != got:
        die(f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(want.items())}", 3)

    prov = dict(rep["provenance"], commit=git_commit(), source_sha256=stamp,
                nproc=os.cpu_count(), sample_counts=rep["sample_counts"],
                report=str(report.relative_to(ROOT)))
    if a.trace:
        prov["tracing_overhead_ms"] = rep["tracing_overhead_ms"]
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"correct": rep["correct"], "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": rep["metrics"]}))
    sys.exit(0 if rc == 0 and rep["correct"] else 1)


if __name__ == "__main__":
    main()
