"""planepart benchmark: one workload, one seed, end to end or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload roundtrip_batch --seed 1 --seconds 40 --trace 0

Each pass runs in a fresh single-threaded worker process (worker.py), one
process at a time.  With --trace 0 the run repeats passes, each on new inputs
from the seed, until --seconds have gone by, and reports the end-to-end
metrics as medians over them.  With --trace 1 it runs pass 0 untraced and
then traced, checks that both give the same output digest, and reports the
per-layer metrics of the traced pass.  Every output is checked outside the
timed sections.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from inputs import WORKLOADS
from oracle import p2_mod
from tracer import LAYERS

HERE = pathlib.Path(__file__).resolve().parent

# Metric names and units are those BENCHMARK.json declares.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Layers that must record calls in each workload; every other layer is
# bypassed there and must record none.
ACTIVE = {
    "roundtrip_batch": set(LAYERS),
    "exact_table": {"exact.table"},
}

SETUP_PROBES = 16      # extra fresh interpreters that only import planepart
TIME_LIMIT_S = 160     # start no pass that could end past this


class BenchError(Exception):
    pass


def run_worker(root, workdir, workload, seed, pass_index, trace, flags, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(pass_index),
           "--trace", str(trace), "--workdir", str(workdir), *flags]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker pass {pass_index} ran past {timeout:.0f} s") from err
    if proc.returncode != 0:
        raise BenchError(f"worker pass {pass_index} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_residues(passes) -> list[str]:
    """Compare exact values the passes report mod p with the product oracle."""
    pairs = [pair for p in passes for pair in p.get("residues", [])]
    if not pairs:
        return []
    oracle = p2_mod(max(n for n, _ in pairs))
    bad = sorted({n for n, r in pairs if oracle[n] != r})
    return [f"p2({n}) disagrees with the product oracle" for n in bad[:5]]


def end_to_end(passes, probes) -> dict:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "call_s.p50": statistics.median(s for p in passes for s in p["call_s"]),
        "setup_s": statistics.median([p["setup_s"] for p in passes] + probes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def per_layer(workload, plain, traced, still_wrong) -> tuple[dict, list[str]]:
    metrics = dict(traced["layers"]["metrics"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics["ledger_miss"] = plain.get("ledger_miss", 0)
    metrics["known_wrong"] = still_wrong
    problems = []
    calls = traced["layers"]["calls"]
    for layer in LAYERS:
        n = calls.get(layer, 0)
        if layer in ACTIVE[workload] and n == 0:
            problems.append(f"layer {layer} should work in {workload} but recorded no calls")
        if layer not in ACTIVE[workload] and n != 0:
            problems.append(f"layer {layer} is bypassed in {workload} but recorded {n} calls")
    if plain["digest"] != traced["digest"]:
        problems.append("traced and untraced passes gave different outputs")
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    # on SIGTERM, unwind: subprocess.run kills and reaps the running worker
    # and the finally clause below removes the work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = pathlib.Path.cwd()
    if not (root / "src" / "planepart" / "__init__.py").is_file():
        print(f"error: no src/planepart under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    (root / ".bench_work").mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(dir=root / ".bench_work"))
    try:
        def worker(pass_index, trace=0, *flags):
            left = TIME_LIMIT_S + 10 - (time.monotonic() - start)
            return run_worker(root, workdir, args.workload, args.seed,
                              pass_index, trace, flags, left)

        if args.trace:
            passes = [worker(0), worker(0, 1)]
            # how many of the n roundtrip_batch never draws (known_wrong.json)
            # p2_estimate still rounds wrong
            still_wrong = (worker(0, 0, "--known-wrong")["known_wrong"]
                           if args.workload == "roundtrip_batch" else 0)
        else:
            # half the set-up probes before the passes and half after, so
            # that they sample the machine's load at both ends of the run
            probes = [worker(0, 0, "--probe")["setup_s"] for _ in range(SETUP_PROBES // 2)]
            passes = []
            t0 = time.monotonic()
            while True:
                t = time.monotonic()
                passes.append(worker(len(passes)))
                now = time.monotonic()
                if (now - t0 >= args.seconds
                        or now - start + (now - t) > TIME_LIMIT_S):
                    break
            probes += [worker(0, 0, "--probe")["setup_s"]
                       for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass

    problems = [msg for p in passes for _, msg in p["failures"]]
    problems += check_residues(passes)
    failed = sum(len({op for op, _ in p["failures"]}) for p in passes)
    attempted = sum(len(p["call_s"]) for p in passes)
    if args.trace:
        metrics, layer_problems = per_layer(args.workload, *passes, still_wrong)
        problems += layer_problems
        units = PER_LAYER
    else:
        metrics = end_to_end(passes, probes)
        units = END_TO_END
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}")
    for p in passes:
        print(f"  pass inputs {json.dumps(p['inputs'])}  wall {p['wall_s']:.3f} s")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>14.6g} {units[name]}")
    untraced = passes[:1] if args.trace else passes
    misses = sum(p.get("ledger_miss", 0) for p in untraced)
    estimates = sum(p.get("estimates", 0) for p in untraced)
    print(f"  {'ops':28s} {attempted:>14d} count")
    print(f"  {'ops_failed':28s} {failed:>14d} count")
    print(f"  {'ledger_miss':28s} {misses:>14d} of {estimates} estimate calls")
    for msg in problems:
        print(f"  FAILED: {msg}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
