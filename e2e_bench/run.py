#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 e2e_bench/run.py --workload stream|reconfig|admit|drill \\
        --seed N --seconds S --trace 0|1

Builds e2e_bench/ (and the rtcf library from src/) into
$CARGO_TARGET_DIR/e2e_bench, default .bench_build/e2e_bench, then runs
the benchmark binary. Its output is passed through; the last line is the
JSON result, reduced to the metrics BENCHMARK.json declares (the only list
of metric names). Exits non-zero when the build fails, the run fails its
output checks, or the result misses a declared end-to-end metric or
reports an undeclared layer.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream", "reconfig", "admit", "drill")
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2e_bench: " + message, file=sys.stderr)
    sys.exit(2)


def parse(argv):
    args = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or set(args) != {"--workload", "--seed", "--seconds",
                                      "--trace"}:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    if args["--workload"] not in WORKLOADS:
        fail("unknown workload " + args["--workload"])
    if args["--trace"] not in ("0", "1"):
        fail("--trace takes 0 or 1")
    try:
        int(args["--seed"])
        if not 0 < float(args["--seconds"]) <= 120:
            raise ValueError
    except ValueError:
        fail("--seed takes an integer, --seconds a number in (0, 120]")
    return args


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "dist",
                                       "node_runtime.hpp")):
        fail("rtcf sources not found next to e2e_bench/ (need src/)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "e2e_bench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT):
                log.close()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: " + log_path + ")")
    return os.path.join(build_dir, "e2e_bench")


def declared_metrics(trace):
    """The metrics BENCHMARK.json declares for this kind of run: its
    end_to_end list for --trace 0, its per_layer list for --trace 1."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def select(metrics, declared, trace):
    """Reduces the binary's metrics to the declared set. An end-to-end run
    prints more metrics than are bounded; each declared one must be there.
    A traced run may report only declared layers; a layer its workload
    does not run reads 0."""
    for name, unit in declared.items():
        if name in metrics and metrics[name]["unit"] != unit:
            fail("metric %s has unit %s, BENCHMARK.json says %s" %
                 (name, metrics[name]["unit"], unit))
    if trace == "1":
        unknown = sorted(set(metrics) - set(declared))
        if unknown:
            fail("per-layer metrics not in BENCHMARK.json: %s" % unknown)
        return {name: metrics.get(name, {"value": 0, "unit": unit})
                for name, unit in declared.items()}
    missing = sorted(set(declared) - set(metrics))
    if missing:
        fail("end-to-end metrics not reported: %s" % missing)
    return {name: metrics[name] for name in declared}


def main():
    args = parse(sys.argv[1:])
    declared = declared_metrics(args["--trace"])
    binary = build()
    cmd = [binary]
    for key in ("--workload", "--seed", "--seconds", "--trace"):
        cmd += [key, args[key]]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    out = proc.stdout.decode("utf-8", "replace")
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(lines[-1] + "\n")
        fail("no JSON result line (exit code %d)" % proc.returncode)
    result["metrics"] = select(result["metrics"], declared, args["--trace"])
    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
