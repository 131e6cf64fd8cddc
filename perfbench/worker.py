"""One pass of one workload, in a fresh interpreter.

run.py starts this script once per pass, with PYTHONPATH pointing at the
checkout's src/, so the library's module caches start cold as they do for a
command-line user.  It times the import of planepart (set-up), then the
workload's calls one by one (the timed section), then checks every output
outside the timed section.  It prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import resource
import sys
import time

from inputs import WORKLOADS, known_wrong, make_inputs
from oracle import PRIME


def _roundtrip_batch(pp, inputs, workdir):
    from mpmath import mp
    ns = inputs["ns"]
    paths = [workdir / f"roundtrip_{i}.json" for i in range(len(ns))]

    def roundtrip(n, path):
        argv = ["--quiet", "--json", str(path), "estimate", str(n), "--with-exact"]
        return lambda: pp.cli.main(argv)

    def check(results):
        failures, outputs, residues, misses = [], [], [], 0
        for op, (n, path, code) in enumerate(zip(ns, paths, results)):
            if code is None:
                continue
            if code != 0:
                failures.append((op, f"n={n}: exit code {code}"))
                continue
            out = json.loads(path.read_text())["outputs"]
            if out["n"] != n or out["rounded"] != out["exact"]:
                failures.append((op, f"n={n}: rounded != exact (actual_error "
                                     f"{out['actual_error']}, estimated_error "
                                     f"{out['estimated_error']})"))
            with mp.workdps(30):
                misses += abs(mp.mpf(out["actual_error"])) > mp.mpf(out["estimated_error"])
            residues.append([n, int(out["exact"]) % PRIME])
            outputs.append(out)
        return {"failures": failures, "outputs": outputs, "ledger_miss": misses,
                "estimates": len(ns), "residues": residues}

    return [roundtrip(n, p) for n, p in zip(ns, paths)], check


def _exact_table(pp, inputs, workdir):
    N = inputs["N"]

    def check(results):
        if results[0] is None:
            return {"failures": [], "outputs": None}
        values = results[0].values
        failures = [] if len(values) == N + 1 else [(0, f"table has {len(values)} entries")]
        residues = [[n, v % PRIME] for n, v in enumerate(values)]
        digest = hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()
        return {"failures": failures, "outputs": [N, digest], "residues": residues}

    return [lambda: pp.exact.p2_exact_table(N)], check


def _still_wrong(pp) -> int:
    """How many of the known-wrong n p2_estimate still rounds wrong."""
    ns = known_wrong()
    if not ns:
        return 0
    table = pp.exact.p2_exact_table(max(ns))
    return sum(pp.circle.p2_estimate(n).rounded != table[n] for n in ns)


PLANS = {
    "roundtrip_batch": _roundtrip_batch,
    "exact_table": _exact_table,
}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=pathlib.Path, required=True)
    ap.add_argument("--probe", action="store_true",
                    help="only time the import of planepart")
    ap.add_argument("--known-wrong", action="store_true",
                    help="only count the known-wrong n that still round wrong")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    import planepart
    import planepart.cli
    setup_s = time.perf_counter() - start
    src = (pathlib.Path.cwd() / "src").resolve()
    if src not in pathlib.Path(planepart.__file__).resolve().parents:
        sys.exit(f"planepart was imported from {planepart.__file__}, not from {src}")
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return
    if args.known_wrong:
        print(json.dumps({"known_wrong": _still_wrong(planepart)}))
        return

    inputs = make_inputs(args.workload, args.seed, args.pass_index)
    calls, check = PLANS[args.workload](planepart, inputs, args.workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(planepart)
    results, call_s, raised = [], [], []
    begin = time.perf_counter()
    for call in calls:
        t0 = time.perf_counter()
        try:
            results.append(call())
        except Exception as err:  # an operation that raises counts as failed
            results.append(None)
            raised.append((len(results) - 1, f"{type(err).__name__}: {err}"))
        call_s.append(time.perf_counter() - t0)
    wall_s = time.perf_counter() - begin
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = {}
    if tracer is not None:
        tracer.uninstall()
        layers = {"metrics": tracer.metrics(), "calls": dict(tracer.calls)}

    verdict = check(results)
    verdict["failures"] += raised
    outputs = verdict.pop("outputs")
    verdict["digest"] = hashlib.sha256(
        json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    print(json.dumps({"inputs": inputs, "setup_s": setup_s, "wall_s": wall_s,
                      "call_s": call_s, "rss_mb": rss_kb / 1024, "layers": layers,
                      **verdict}))


if __name__ == "__main__":
    main()
