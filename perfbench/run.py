#!/usr/bin/env python3
"""Repository benchmark: JSON job lines -> api::JobQueue, timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload gpm-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                # every workload in turn
    python3 perfbench/run.py --bless        # re-pin every reference

The script builds perfbench/ (the library from src/ plus the scperf
program) into $CARGO_TARGET_DIR or .bench_build, generates the
workload's job lines from --seed, pins every SC_* knob to its default,
runs scperf, and prints every metric by name with its unit. The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a separate traced run. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
REFS = os.path.join(BENCH, "refs")
PROCESS_TIMEOUT_S = 170
SETUP_REPEATS = 5  # processes whose set-up time gives setup_s's median
PLAN_PASSES = 40   # generated passes; scperf wraps around if it needs more

# ------------------------------------------------------------ workloads


def gpm_job(app, dataset, mode, substrate=None, root_stride=1, arch=None):
    job = {"version": 1, "workload": "gpm", "app": app, "dataset": dataset,
           "mode": mode}
    if substrate:
        job["substrate"] = substrate
    if arch:
        job["arch"] = arch
    if root_stride != 1:
        job["options"] = {"root_stride": root_stride}
    return job


def fsm_job(dataset, min_support, mode, substrate=None):
    job = {"version": 1, "workload": "fsm", "dataset": dataset,
           "min_support": min_support, "mode": mode}
    if substrate:
        job["substrate"] = substrate
    return job


def tensor_job(workload, dataset, mode, stride, algorithm=None):
    job = {"version": 1, "workload": workload, "dataset": dataset,
           "mode": mode}
    if algorithm:
        job["algorithm"] = algorithm
    if mode == "run":
        job["substrate"] = "cpu"
    if stride != 1:
        job["options"] = {"stride": stride}
    return job


# gpm-sweep: Fig. 12/13-style architecture ladder on a warm store.
SWEEP_APPS = ["T", "TC", "4C"]
SWEEP_GRAPHS = ["W", "F"]
SWEEP_ROOT_STRIDE = 8
# arch.sus starts above every trace's peak live-stream pressure (3 for
# TC/4C), so admission accepts every ladder point.
SWEEP_SUS = [4, 6, 8, 16]
SWEEP_BANDWIDTH = [16, 64]
SWEEP_POINTS_PER_PASS = 4
# Passes in which every pair visits every ladder point once.
SWEEP_CYCLE = len(SWEEP_SUS) * len(SWEEP_BANDWIDTH) // SWEEP_POINTS_PER_PASS


def sweep_pairs():
    return [(a, g) for a in SWEEP_APPS for g in SWEEP_GRAPHS]


def sweep_ladder():
    return [(s, b) for s in SWEEP_SUS for b in SWEEP_BANDWIDTH]


def sweep_sc_job(app, graph, point):
    sus, bw = point
    return gpm_job(app, graph, "run", "sparsecore", SWEEP_ROOT_STRIDE,
                   {"sus": sus, "bandwidth": bw})


def sweep_cpu_job(app, graph):
    return gpm_job(app, graph, "run", "cpu", SWEEP_ROOT_STRIDE)


def gpm_sweep(rng, pool):
    header = {"workload": "gpm-sweep", "in_flight": 1, "cold_passes": False,
              "cycle_passes": SWEEP_CYCLE, "graphs": SWEEP_GRAPHS,
              "warm": [json.dumps(gpm_job(a, g, "run", None,
                                          SWEEP_ROOT_STRIDE))
                       for a, g in sweep_pairs()],
              "warmup": [json.dumps(sweep_cpu_job(a, g))
                         for a, g in sweep_pairs()]}
    if pool:
        return header, [[sweep_sc_job(a, g, p) for a, g in sweep_pairs()
                         for p in sweep_ladder()] +
                        [sweep_cpu_job(a, g) for a, g in sweep_pairs()]]
    # Each pair walks its own seeded permutation of the ladder, so the
    # points of one cycle of passes are distinct and cover the ladder.
    walks = {pair: rng.sample(sweep_ladder(), len(sweep_ladder()))
             for pair in sweep_pairs()}
    passes = []
    for p in range(PLAN_PASSES):
        jobs = []
        for pair in sweep_pairs():
            walk = walks[pair]
            for k in range(SWEEP_POINTS_PER_PASS):
                point = walk[(p * SWEEP_POINTS_PER_PASS + k) % len(walk)]
                jobs.append(sweep_sc_job(*pair, point))
            jobs.append(sweep_cpu_job(*pair))
        rng.shuffle(jobs)
        passes.append(jobs)
    return header, passes


# gpm-cold: every key captured, compiled and replayed from an empty
# store; each compare job is followed by a run-mode sibling. The root
# strides size every key's cold compare job to roughly 0.1 s on a
# 4-core 2.1 GHz Xeon, so the latency distribution has no gap at its
# median.
COLD_GPM_KEYS = [
    ("T", "C", 1), ("T", "E", 1), ("T", "B", 1), ("T", "G", 1),
    ("T", "F", 4), ("T", "W", 4),
    ("TC", "C", 1), ("TC", "E", 3), ("TC", "B", 3), ("TC", "G", 2),
    ("TC", "F", 16), ("TC", "W", 24),
    ("4C", "C", 1), ("4C", "E", 4), ("4C", "B", 3), ("4C", "G", 1),
    ("4C", "F", 32), ("4C", "W", 24),
]
COLD_FSM_KEYS = [("C", 300), ("E", 1000)]


def cold_key_jobs(key, substrate):
    if key[0] == "fsm":
        _, dataset, support = key
        return [fsm_job(dataset, support, "compare"),
                fsm_job(dataset, support, "run", substrate)]
    app, graph, rs = key
    return [gpm_job(app, graph, "compare", None, rs),
            gpm_job(app, graph, "run", substrate, rs)]


def gpm_cold(rng, pool):
    keys = COLD_GPM_KEYS + [("fsm", d, s) for d, s in COLD_FSM_KEYS]
    header = {"workload": "gpm-cold", "in_flight": 2, "cold_passes": True,
              "cycle_passes": 2,
              "graphs": sorted({g for _, g, _ in COLD_GPM_KEYS}),
              "labeled": sorted({d for d, _ in COLD_FSM_KEYS}), "warm": [],
              "warmup": [json.dumps(cold_key_jobs(k, "sparsecore")[0])
                         for k in keys]}
    if pool:
        jobs = []
        for key in keys:
            compare, run_sc = cold_key_jobs(key, "sparsecore")
            jobs += [compare, run_sc, cold_key_jobs(key, "cpu")[1]]
        return header, [jobs]
    # Half of the keys (drawn by the seed) start with a cpu sibling and
    # every key alternates, so each pass holds the same number of cpu
    # and sparsecore siblings and two passes cover both for every key.
    cpu_first = set(rng.sample(range(len(keys)), len(keys) // 2))
    passes = []
    for p in range(PLAN_PASSES):
        jobs = []
        for i in rng.sample(range(len(keys)), len(keys)):
            cpu = (i in cpu_first) == (p % 2 == 0)
            jobs += cold_key_jobs(keys[i], "cpu" if cpu else "sparsecore")
        passes.append(jobs)
    return header, passes


# tensor-values: the value path (S_VINTER loads, S_VMERGE writes).
TENSOR_MATRICES = ["C", "E", "G"]
TENSOR_SPMSPM = [("inner", 32), ("outer", 1), ("gustavson", 1)]
TENSOR_TTV = ("Ch", [4, 16])
TENSOR_TTM = ("U", [64, 256])


def tensor_pool():
    jobs = []
    for mode in ["compare", "run"]:
        for m in TENSOR_MATRICES:
            for algorithm, stride in TENSOR_SPMSPM:
                jobs.append(tensor_job("spmspm", m, mode, stride, algorithm))
        for stride in TENSOR_TTV[1]:
            jobs.append(tensor_job("ttv", TENSOR_TTV[0], mode, stride))
        for stride in TENSOR_TTM[1]:
            jobs.append(tensor_job("ttm", TENSOR_TTM[0], mode, stride))
    return jobs


def tensor_values(rng, pool):
    header = {"workload": "tensor-values", "in_flight": 1,
              "cold_passes": False, "matrices": TENSOR_MATRICES,
              "tensors": [TENSOR_TTV[0], TENSOR_TTM[0]], "warm": [],
              "warmup": [json.dumps(j) for j in tensor_pool()
                         if j["mode"] == "compare"]}
    if pool:
        return header, [tensor_pool()]
    return header, [rng.sample(tensor_pool(), len(tensor_pool()))
                    for _ in range(PLAN_PASSES)]


WORKLOADS = {"gpm-sweep": gpm_sweep, "gpm-cold": gpm_cold,
             "tensor-values": tensor_values}

# ----------------------------------------------------------------- build


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "perfbench")


def newest_source_mtime():
    newest = 0.0
    for top in ["src", "perfbench"]:
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                if name.endswith((".cc", ".hh", ".txt")):
                    newest = max(newest, os.path.getmtime(
                        os.path.join(dirpath, name)))
    return newest


def build():
    """Configure and build scperf; returns its path (exits on failure)."""
    out = build_dir()
    binary = os.path.join(out, "scperf")
    if (os.path.exists(binary) and
            os.path.getmtime(binary) >= newest_source_mtime()):
        return binary
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    for cmd in (["cmake", "-S", BENCH, "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", out, "-j", jobs, "--target", "scperf"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return binary


def source_digest():
    h = hashlib.sha256()
    for top in ["src", "perfbench"]:
        for dirpath, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    # Only this directory's own repository; git would otherwise look
    # for one in the parent directories.
    if os.path.exists(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    return "unknown (not a git checkout)"

# ------------------------------------------------------------------- run


def host_threads(nproc):
    """SC_HOST_THREADS so that one thread computes at a time.

    The global pool's one worker runs every job, compare legs one after
    the other, while the submitting thread waits; further jobs in
    flight wait in the queue's scheduler."""
    return min(2, nproc)


def knob_env(nproc):
    env = dict(os.environ)
    for name in list(env):
        if name.startswith("SC_"):
            del env[name]
    # Every knob pinned to its default; SC_VERIFY=0 is the default of
    # this (NDEBUG) build type.
    env.update({
        "SC_REPLAY": "auto",
        "SC_VERIFY": "0",
        "SC_FORCE_KERNEL": "auto",
        "SC_FORCE_SETINDEX": "auto",
        "SC_ARTIFACT_CACHE": "on",
        "SC_ARTIFACT_CACHE_BYTES": str(1 << 30),
        "SC_JOB_SCHED": "affinity",
        "SC_HOST_THREADS": str(host_threads(nproc)),
        "SC_BENCH_SMOKE": "0",
    })
    return env


def write_plan(workload, seed, pool):
    rng = random.Random(seed)
    header, passes = WORKLOADS[workload](rng, pool)
    plan_dir = os.path.join(build_dir(), "plans")
    os.makedirs(plan_dir, exist_ok=True)
    path = os.path.join(plan_dir, "%s-%s.jsonl" % (
        workload, "pool" if pool else "seed%d" % seed))
    with open(path, "w") as f:
        f.write(json.dumps(header) + "\n")
        n = 0
        for p, jobs in enumerate(passes):
            for job in jobs:
                job = dict(job, id="p%d-%d" % (p, n))
                n += 1
                f.write(json.dumps({"pass": p, "job": job}) + "\n")
    return path


def run_scperf(binary, args, env):
    try:
        r = subprocess.run([binary] + args, capture_output=True, text=True,
                           env=env, cwd=ROOT, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: scperf timed out: " + " ".join(args))
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        sys.exit("perfbench: scperf failed (%d)" % r.returncode)
    lines = r.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def bless(binary, nproc):
    os.makedirs(REFS, exist_ok=True)
    for workload in WORKLOADS:
        plan = write_plan(workload, 0, pool=True)
        out = os.path.join(REFS, workload + ".json")
        _, result = run_scperf(binary, ["--plan", plan, "--bless", out],
                               knob_env(nproc))
        print("%s: %d references in %s" % (workload, result["blessed"],
                                           os.path.relpath(out, ROOT)))


def run_workload(binary, workload, args, nproc):
    """Run one workload; prints its report and returns its result."""
    plan = write_plan(workload, args.seed, pool=False)
    env = knob_env(nproc)
    refs = os.path.join(REFS, workload + ".json")
    run_args = ["--plan", plan, "--refs", refs,
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        chrome = os.path.join(build_dir(), "traces",
                              "%s-seed%d.json" % (workload, args.seed))
        os.makedirs(os.path.dirname(chrome), exist_ok=True)
        run_args += ["--chrome", chrome]
    text, result = run_scperf(binary, run_args, env)

    if args.trace:
        metrics = result["per_layer"]
    else:
        # setup_s: median over this run's set-up and SETUP_REPEATS - 1
        # set-up-only processes of the same plan.
        setups = [result["setup_s"]]
        for _ in range(SETUP_REPEATS - 1):
            _, r = run_scperf(binary, ["--plan", plan, "--setup-only"], env)
            setups.append(r["setup_s"])
        metrics = dict(result["end_to_end"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    provenance = dict(result["provenance"], commit=commit(),
                      source_digest=source_digest(), nproc=nproc,
                      workload=workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace,
                      passes=result["passes"],
                      tail_samples=result["tail_samples"])
    print("\n".join(text))
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for name, m in metrics.items():
        print("metric %-34s %16.6g %s" % (name, m["value"], m["unit"]))
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--bless", action="store_true",
                    help="re-pin perfbench/refs from the current build")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no sparsecore sources under " + ROOT)

    nproc = len(os.sched_getaffinity(0))
    binary = build()
    if args.bless:
        bless(binary, nproc)
        return

    if args.workload != "all":
        out = run_workload(binary, args.workload, args, nproc)
    else:
        # Every workload in turn; metric names get a workload prefix.
        out = {"attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            r = run_workload(binary, workload, args, nproc)
            out["attempted"] += r["attempted"]
            out["failed"] += r["failed"]
            for name, m in r["metrics"].items():
                out["metrics"][workload + "/" + name] = m
    print(json.dumps({"correct": out["failed"] == 0 and out["attempted"] > 0,
                      **out}))


if __name__ == "__main__":
    main()
