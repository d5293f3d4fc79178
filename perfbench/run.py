#!/usr/bin/env python3
"""Build and run the time-to-verdict benchmark.

Measure one workload (the last stdout line is the JSON result):
    python3 perfbench/run.py --workload railcab-serve --seed 1 --seconds 10 --trace 0

Run a result set (one output file per workload and seed, plus
summary.json with each metric's median and quartiles) and print the
spread of every metric:
    python3 perfbench/run.py series --out results/parent --runs 10

Compare two result sets:
    python3 perfbench/run.py compare --parent results/parent --change results/change

Run from the root of the repository. The benchmark builds itself from
source with cargo (release profile) into $CARGO_TARGET_DIR, by default
`.bench_build`, and exits non-zero without a result when the build fails.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["railcab-serve", "railcab-durable", "counter-loop", "ticker-verify"]


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the benchmark binary; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def capture(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def environment():
    """The stamp every result carries: toolchain, machine and build."""
    rev = capture(["git", "-C", ROOT, "rev-parse", "HEAD"]) or "unknown (not a git checkout)"
    return {
        "git_rev": rev,
        "rustc": capture(["rustc", "-V"]) or "unknown",
        "nproc": os.cpu_count(),
        "profile": "release",
    }


def measure(binary, argv):
    print("# env " + json.dumps(environment()), flush=True)
    return subprocess.run([binary] + argv).returncode


def last_json(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def series(argv):
    opts = {"--out": None, "--runs": "10", "--seconds": "10", "--first-seed": "1",
            "--trace": "0", "--workloads": ",".join(WORKLOADS)}
    it = iter(argv)
    for flag in it:
        if flag not in opts:
            print(f"perfbench series: unknown flag {flag}", file=sys.stderr)
            return 2
        opts[flag] = next(it, None)
    if not opts["--out"]:
        print("perfbench series: --out DIR is required", file=sys.stderr)
        return 2
    os.makedirs(opts["--out"], exist_ok=True)
    first = int(opts["--first-seed"])
    status = 0
    summary = {"env": environment(), "runs": int(opts["--runs"]),
               "seconds": float(opts["--seconds"]), "trace": opts["--trace"] == "1",
               "workloads": {}}
    for workload in opts["--workloads"].split(","):
        values = {}
        for seed in range(first, first + int(opts["--runs"])):
            args = ["--workload", workload, "--seed", str(seed),
                    "--seconds", opts["--seconds"], "--trace", opts["--trace"]]
            done = subprocess.run([sys.executable, os.path.abspath(__file__)] + args,
                                  capture_output=True, text=True)
            path = os.path.join(opts["--out"], f"{workload}-seed{seed}.out")
            with open(path, "w") as f:
                f.write(done.stdout)
            result = last_json(done.stdout) if done.returncode == 0 else None
            if result is None or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED (exit {done.returncode})", flush=True)
                status = 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = summary["workloads"].setdefault(workload, {})
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) >= 2 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(vals)}
            print(f"{workload:<16} {name:<32} n={len(vals):<3} median={med:<14.6g} "
                  f"q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.4f}", flush=True)
    with open(os.path.join(opts["--out"], "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    return status


def main():
    argv = sys.argv[1:]
    binary = build()
    if binary is None:
        return 2
    if argv[:1] == ["series"]:
        return series(argv[1:])
    if argv[:1] == ["compare"]:
        return subprocess.run([binary] + argv).returncode
    return measure(binary, argv)


if __name__ == "__main__":
    sys.exit(main())
