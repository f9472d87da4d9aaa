#!/usr/bin/env python3
"""Build and run the serving benchmark.

One run:
    python3 servebench/run.py --workload warm-repeat --seed 1 --seconds 10 --trace 0

builds the benchmark (and the library it measures) from source with CMake,
runs one workload, and prints every metric with its unit. The last stdout
line is the result object {"correct", "attempted", "failed", "metrics"};
the line before it carries the run metadata. Each result is also saved with
its metadata under .bench_out/.

Proof modes (run from the repository root):
    python3 servebench/run.py --smoke
        every workload briefly, traced and untraced: checks the output
        schema against BENCHMARK.json, the oracle (zero failed requests)
        and each workload's premise in the per-layer numbers.
    python3 servebench/run.py --repeat 10 [--workload NAME] [--first-seed S]
        ten seeds per workload; prints each end-to-end metric's median and
        quartile spread as a share of the median, against its bound.
"""
import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_NAME = os.path.basename(BENCH_DIR)
ROOT = os.getcwd()
WORKLOADS = ["encode-sweep", "warm-repeat", "new-designs"]
RUN_TIMEOUT_S = 170
# Relative on purpose: the routed backends' socket paths under it (traced
# warm-repeat) are their ids on the router's hash ring, which must not
# depend on the checkout path.
OUT_DIR = ".bench_out"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, BENCH_NAME)


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    bdir = build_dir()
    out = sys.stderr
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=out, stderr=out)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target", "servebench"],
                   check=True, stdout=out, stderr=out)
    return os.path.join(bdir, "servebench")


def cpu_info():
    """(model name, flags) of the first CPU in /proc/cpuinfo."""
    info = {}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                info.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    return info.get("model name", platform.processor() or "unknown"), info.get("flags", "")


def source_commit():
    """git HEAD when available, else a digest of the measured sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0:
            return "git:" + head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", BENCH_NAME):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources:" + h.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Run one workload; returns (result dict, metadata dict)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", OUT_DIR]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        if echo:
            print("\n".join(lines))
        raise RuntimeError(f"servebench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    meta = {}
    for line in lines[:-1]:
        if line.startswith("meta: "):
            meta = json.loads(line[len("meta: "):])
        elif line.startswith("windows: "):
            meta["windows"] = line[len("windows: "):]
        elif line.startswith("unscaled: "):
            meta["unscaled"] = {k: float(v) for k, v in
                                (kv.split("=") for kv in line[len("unscaled: "):].split())}
    model, flags = cpu_info()
    meta.update({"cpu_model": model, "cpu_flags": flags, "commit": source_commit(),
                 "host": platform.node(), "unix_time": int(time.time())})
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json"), "w") as f:
        json.dump({"meta": meta, "result": result}, f, indent=1)
    if echo:
        print("\n".join(l for l in lines[:-1] if not l.startswith("meta: ")))
        print("meta: " + json.dumps(meta))
        print(json.dumps(result))
    return result, meta


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_schema(result, expected):
    """Problems with one result object against the metric list it must carry."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(want))}")
    for name, m in metrics.items():
        if name in want and (m.get("unit") != want[name] or
                             not isinstance(m.get("value"), (int, float))):
            problems.append(f"metric {name}: {m}")
    return problems


def check_premise(workload, metrics):
    """The traced run must confirm what each workload is meant to stress.

    The cache ratios are the server's own counters over the wire pass; the
    layer times come from the in-process replay.
    """
    v = {k: m["value"] for k, m in metrics.items()}
    problems = []
    layers = ("netlist.parse_ms", "graph.build_ms", "sim.simulate_ms", "sim.delta_decode_ms",
              "atlas.encode_ms", "atlas.heads_ms", "serve.protocol.codec_ms")
    times = {k: v[k] for k in layers}
    design_hits = v["serve.feature_cache.design_hit_ratio"]
    embedding_hits = v["serve.feature_cache.embedding_hit_ratio"]
    if workload == "encode-sweep":
        if max(times, key=times.get) != "atlas.encode_ms":
            problems.append(f"atlas.encode_ms is not the largest layer time: {times}")
        if embedding_hits != 0:
            problems.append(f"server embedding hit ratio {embedding_hits}, expected 0")
    if workload == "warm-repeat":
        if embedding_hits != 1:
            problems.append(f"server embedding hit ratio {embedding_hits}, expected 1")
        if v["atlas.encode_ms"] != 0:
            problems.append("warm replay ran the encoder")
    if workload == "new-designs":
        if design_hits != 0:
            problems.append(f"server design hit ratio {design_hits}, expected 0")
        if not (v["netlist.parse_ms"] + v["graph.build_ms"] + v["sim.simulate_ms"] >
                v["atlas.encode_ms"]):
            problems.append("parse + graph + sim does not exceed encode")
    # Off warm-repeat this holds by construction (no router, hop reported
    # as 0); on warm-repeat it checks that the hop was measured.
    if (v["router.hop_ms"] > 0) != (workload == "warm-repeat"):
        problems.append(f"router.hop_ms = {v['router.hop_ms']}")
    return problems


def smoke(binary, seed):
    spec = load_spec()
    bad = 0
    for w in WORKLOADS:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, _ = run_once(binary, w, seed, 1, trace, echo=False)
            problems = check_schema(result, expected)
            if trace == 1 and not problems:
                problems = check_premise(w, result["metrics"])
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {w:13s} trace={trace} attempted={result['attempted']:5d} {status}")
            bad += bool(problems)
    return 1 if bad else 0


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def repeat(binary, runs, workloads, first_seed, seconds):
    """Nonzero when a spread reaches its bound or any run failed a request."""
    spec = load_spec()
    worst = 0.0
    bad_runs = 0
    for w in workloads:
        samples, unscaled = {}, {}
        for i in range(runs):
            result, meta = run_once(binary, w, first_seed + i, seconds, 0, echo=False)
            if not result["correct"] or result["failed"]:
                bad_runs += 1
                print(f"{w} seed {first_seed + i}: correct={result['correct']} "
                      f"failed={result['failed']}")
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
            for name, value in meta.get("unscaled", {}).items():
                unscaled.setdefault(name, []).append(value)
        for m in spec["end_to_end"]:
            med, s = spread(samples[m["name"]])
            ratio = s / m["bound"]
            worst = max(worst, ratio)
            flag = "ok" if ratio < 1 / 3 else ("WIDE" if ratio < 1 else "OVER")
            raw = ""
            if m["name"] in unscaled:
                raw = "  unscaled iqr/median {1:7.4f}".format(*spread(unscaled[m["name"]]))
            print(f"{w:13s} {m['name']:16s} median {med:11.4f} {m['unit']:4s} "
                  f"iqr/median {s:7.4f} bound {m['bound']:.2f} ({ratio:5.2f} of bound) {flag}"
                  f"{raw}", flush=True)
    if bad_runs:
        print(f"{bad_runs} run(s) with failed requests")
    return 0 if worst < 1 and not bad_runs else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="timed phase length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--repeat", type=int, default=0, metavar="N")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if not (args.smoke or args.repeat or args.workload):
        ap.error("give --workload, --smoke or --repeat")
    try:
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        binary = build()
        if args.smoke:
            return smoke(binary, args.seed)
        if args.repeat:
            workloads = [args.workload] if args.workload else WORKLOADS
            return repeat(binary, args.repeat, workloads, args.first_seed, args.seconds)
        run_once(binary, args.workload, args.seed, args.seconds, args.trace)
        return 0
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError,
            OSError, ValueError) as e:
        print(f"servebench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
