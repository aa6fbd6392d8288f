#!/usr/bin/env python3
"""Build and run the starvation-lab benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload threshold --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

The first form builds perfbench/perfbench.exe with dune (build output goes
to stderr), then runs one workload; the last line of stdout is the JSON
result.  The second runs every workload named in BENCHMARK.json at smoke
size, traced and untraced, and fails unless each emits exactly the metric
names BENCHMARK.json lists, each with its unit.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def build():
    """Build the benchmark binary; dune's output goes to stderr."""
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if proc.returncode != 0 or not os.path.exists(os.path.join(ROOT, EXE)):
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def ocaml_config():
    try:
        out = subprocess.run(["ocamlfind", "ocamlopt", "-config"], cwd=ROOT,
                             capture_output=True, text=True, timeout=60).stdout
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", "unknown"
    conf = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    return conf.get("version", "unknown"), conf.get("flambda", "unknown")


def source_digest():
    """SHA-256 over the sources the binary is built from."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(files):
                if f == "dune" or f.endswith((".ml", ".mli")):
                    path = os.path.join(dirpath, f)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def stamp():
    version, flambda = ocaml_config()
    return json.dumps({
        "commit": commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "ocaml": version,
        "flambda": flambda,
    }, separators=(",", ":"))


def run(args, extra=(), capture=False):
    cmd = [os.path.join(ROOT, EXE), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--stamp", stamp(), *extra]
    return subprocess.run(cmd, cwd=ROOT, timeout=900,
                          capture_output=capture, text=capture)


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = 0
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[kind]}
            args = argparse.Namespace(workload=w["name"], seed=1, seconds=1,
                                      trace=trace)
            proc = run(args, extra=["--smoke"], capture=True)
            problems = []
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                result = None
                problems.append(f"exit {proc.returncode}, no JSON result")
            if result is not None:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if result.get("correct") is not True:
                    problems.append("correct is not true")
                if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
                    problems.append("attempted < 1")
                got = result.get("metrics", {})
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                if missing:
                    problems.append(f"missing {missing}")
                if extra:
                    problems.append(f"extra {extra}")
                for name, m in got.items():
                    if not NAME.match(name):
                        problems.append(f"bad name {name!r}")
                    if name in want and m.get("unit") != want[name]:
                        problems.append(f"{name}: unit {m.get('unit')!r}, want {want[name]!r}")
                    if not isinstance(m.get("value"), (int, float)):
                        problems.append(f"{name}: value {m.get('value')!r}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"selftest {w['name']} --trace {trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not (args.selftest or args.workload):
        p.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        return selftest()
    return run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
