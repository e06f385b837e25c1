"""ghcert benchmark: end-to-end and per-layer numbers for three workloads.

    python3 perfbench/run.py --workload rank_ladder --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the program runs from `src/`.
The load is one client in a closed loop: each request starts after the
previous one ends, one at a time, from this single client process. Every
ghcert call runs in a child process (`child.py`); this process only makes
inputs from the seed, times, and checks outputs. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 adds one traced pass
over the same inputs after the untraced ones and reports the per-layer
metrics, the tracing overhead and whether all passes gave the same outputs;
its spans go to .perfbench_out/. See README.md for what each number means.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import spans  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("rank_ladder", "same_g_batch", "oracle_ladder")
SETUP_SPAWNS = 9
MIN_PASSES = 2
RUN_LIMIT_S = 170  # every run ends well inside the 180 s a run may take


class Budget:
    """The time a run has left; child processes are killed when it is out."""

    def __init__(self, seconds):
        self.end = perf_counter() + seconds

    def left(self):
        return self.end - perf_counter()


class Child:
    """Spawns child.py processes, one at a time, and collects their results."""

    def __init__(self, work, trace, budget):
        self.work, self.trace, self.budget = work, trace, budget
        self.n = 0
        self.maxrss_kb = 0
        self.dumps = []  # trace files written by children
        self.ready_s = []  # spawn-to-ready seconds of each process

    def run(self, mode, request, **spec):
        self.n += 1
        base = self.work / f"p{self.n}"
        spec.update(mode=mode, request=request, result=f"{base}.result.json",
                    trace=f"{base}.spans.jsonl" if self.trace else None)
        Path(f"{base}.spec.json").write_text(json.dumps(spec))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), f"{base}.spec.json"],
                env=env, cwd=self.work, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, self.budget.left()))
        except subprocess.TimeoutExpired:
            return None, "timed out"
        try:
            result = json.loads(Path(spec["result"]).read_text())
        except (OSError, ValueError):
            return None, f"exit {proc.returncode}: {proc.stderr[-500:]}"
        self.ready_s.append(result["ready"] - start)
        self.maxrss_kb = max(self.maxrss_kb, result["maxrss_kb"])
        if self.trace:
            self.dumps.append(spec["trace"])
        return result, None


class Op:
    """One certify, verify or oracle-compare request and its check."""

    def __init__(self, kind, key, req=None, output=None, error=None):
        self.kind, self.key = kind, key
        self.seconds = req["seconds"] if req else 0.0
        self.probe = req["probe"] if req else []
        self.output = output
        self.error = req["error"] if req and req["error"] else error


def _json(text):
    try:
        return json.loads(text)
    except (TypeError, ValueError):
        return None


def _cli_op(child, kind, key, argv, check):
    result, error = child.run("cli", key, argv=argv)
    if result is None:
        return Op(kind, key, error=error)
    req = result["requests"][0]
    op = Op(kind, key, req)
    if op.error is None:
        op.output, op.error = check(req)
    return op


def pass_rank_ladder(child, cases):
    ops = []
    for name, raw, expected in cases:
        inp = child.work / f"{name}.json"
        cert = child.work / f"{name}.cert.json"
        inp.write_text(json.dumps(raw))

        def check_cert(req, expected=expected, cert=cert):
            if req["exit"] != 0:
                return None, f"exit {req['exit']}"
            text = cert.read_text()
            return text, _verdict_error(_json(text), expected, None)

        op = _cli_op(child, "certify", name, ["certify", str(inp), "--out", str(cert)],
                     check_cert)
        ops.append(op)
        if op.error is None:
            ops.append(_cli_op(child, "verify", name, ["verify", str(cert), str(inp)],
                               _check_valid))
    return ops


def _check_valid(req):
    rep = _json(req["stdout"]) or {}
    if req["exit"] != 0 or rep.get("valid") is not True:
        return None, f"verify rejected: exit {req['exit']} {rep.get('reasons')}"
    return None, None


def _verdict_error(cert, expected, reduced):
    kind = ((cert or {}).get("verdict") or {}).get("kind")
    if kind != expected:
        return f"verdict {kind}, expected {expected}"
    if reduced is not None and (cert.get("reduction") is not None) != reduced:
        return f"reduction {cert.get('reduction')}, expected one: {reduced}"
    return None


def pass_oracle_ladder(child, cases):
    ops = []
    for name, raw, nu, degrees in cases:
        key = f"{name}@{nu}"
        inp = child.work / f"{name}.json"
        inp.write_text(json.dumps(raw))

        def check(req):
            rep = _json(req["stdout"]) or {}
            if req["exit"] != 0 or rep.get("match") is not True:
                return None, f"oracle mismatch: exit {req['exit']} diff {rep.get('diff')}"
            return req["stdout"], None

        # a nu with a leading minus must be passed as --nu=-1,1 (argparse)
        ops.append(_cli_op(child, "oracle", key,
                           ["oracle-compare", str(inp), f"--nu={nu}", f"--degrees={degrees}"],
                           check))
    return ops


def pass_same_g_batch(child, cases):
    items = [{"id": name, "input": raw} for name, raw, _, _ in cases]
    result, error = child.run("batch", "batch", items=items)
    if result is None:
        return [Op("certify", name, error=error) for name, _, _, _ in cases]
    reqs = iter(result["requests"])
    ops = []
    for name, _, expected, reduced in cases:
        req = next(reqs)
        op = Op("certify", name, req, output=req["cert"])
        ops.append(op)
        if op.output is None:
            continue
        op.error = _verdict_error(_json(op.output), expected, reduced)
        req = next(reqs)  # the child verifies every certificate it made
        vop = Op("verify", name, req)
        if vop.error is None and req["valid"] is not True:
            vop.error = f"verify rejected: {req['reasons']}"
        ops.append(vop)
    return ops


PASSES = {"rank_ladder": pass_rank_ladder, "same_g_batch": pass_same_g_batch,
          "oracle_ladder": pass_oracle_ladder}
CASES = {"rank_ladder": inputs.rank_ladder, "same_g_batch": inputs.same_g_batch,
         "oracle_ladder": inputs.oracle_ladder}


def digest(ops):
    """SHA-256 over every output (certificates; oracle reports), in the
    canonical order of the requests, so the seeded shuffle does not matter."""
    h = hashlib.sha256()
    for op in sorted((op for op in ops if op.output is not None), key=lambda o: o.key):
        h.update(op.key.encode() + b"\0" + op.output.encode())
    return h.hexdigest()


def run_pass(workload, cases, work, trace, budget):
    """One pass over `cases`; returns its ops, the Child that ran them (for
    memory and spans) and the pass's wall seconds."""
    child = Child(work, trace, budget)
    start = perf_counter()
    ops = PASSES[workload](child, cases)
    return ops, child, perf_counter() - start


def measure_setup(work, budget):
    child = Child(work, False, budget)
    for i in range(SETUP_SPAWNS):
        child.run("setup", f"setup{i}")
    return child.ready_s


def total(ops):
    return sum(op.seconds for op in ops if op.error is None)


def fastest(passes, cost=lambda op: op.seconds):
    """(kind, key) -> the least cost of that request over the passes.

    On a shared machine a request now and then runs slowed by other load;
    the fastest of its passes is the steadier estimate of its cost."""
    best = {}
    for ops in passes:
        for op in ops:
            if op.error is None:
                k, v = (op.kind, op.key), cost(op)
                best[k] = min(best.get(k, v), v)
    return best


def ref_cost(passes):
    """A request's cost in reference loops: its seconds over the median
    loop time its speed probe saw. A request too short for 5 probe samples
    uses the median of the whole run."""
    # every request that succeeded has at least one sample
    samples = [x for ops in passes for op in ops if op.error is None for x in op.probe]
    run_ref = statistics.median(samples) if samples else None

    def cost(op):
        return op.seconds / (statistics.median(op.probe) if len(op.probe) >= 5 else run_ref)

    return cost


def tail(values):
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def report(workload, passes, setup_s, maxrss_kb):
    """Human-readable lines on stdout; returns the end-to-end metrics."""
    all_ops = [op for ops in passes for op in ops]
    attempted = len(all_ops)
    failed = sum(op.error is not None for op in all_ops)
    best = fastest(passes)
    by_kind = {k: [v for (kind, _), v in best.items() if kind == k]
               for k in ("certify", "verify", "oracle")}
    print(f"workload {workload}: {len(passes)} passes, {attempted} operations, {failed} failed")
    for op in passes[0]:
        times = " ".join(f"{o.seconds:8.4f}" for ops in passes for o in ops
                         if (o.kind, o.key) == (op.kind, op.key))
        status = "ok" if op.error is None else "FAILED " + op.error.strip().splitlines()[-1]
        print(f"  {op.kind:8s} {op.key:24s} {times} s  {status}")
    for op in all_ops:
        if op.error is not None and op not in passes[0]:
            print(f"  FAILED {op.kind} {op.key}: {op.error.strip().splitlines()[-1]}")
    for kind in ("certify", "verify", "oracle"):
        if by_kind[kind]:
            print(f"  {kind}_s = {sum(by_kind[kind]):.4f} s ({len(by_kind[kind])} requests)")
    samples = [op.seconds for op in all_ops if op.kind == "certify" and op.error is None]
    if samples:
        print(f"  certify_p50_s = {statistics.median(samples):.4f} s (n = {len(samples)})")
        t = tail(samples)
        print("  certify_tail_s = " + (f"{t[1]:.4f} s at p{t[0]:.1f}, n = {len(samples)}"
                                       if t else f"n/a (n = {len(samples)} < 11)"))
    print(f"  failed_frac = {failed / attempted:.4f} ({failed} of {attempted})")
    metrics = {
        "total_s": sum(best.values()),
        "total_ref": sum(fastest(passes, ref_cost(passes)).values()),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": maxrss_kb / 1024.0,
    }
    print(f"  total_s = {metrics['total_s']:.6f} s")
    for m in SPEC["end_to_end"]:
        print(f"  {m['name']} = {metrics[m['name']]:.6f} {m['unit']}")
    return attempted, failed, metrics


def trace_report(dumps, untraced, traced):
    busy, counters = {}, {}
    for path in dumps:
        sp, cnt = spans.read_dump(path)
        for name, value in spans.self_times(sp).items():
            busy[name] = busy.get(name, 0.0) + value
        spans.merge_counters(counters, cnt)
    layer = spans.layer_metrics(busy, counters)
    layer["trace.overhead_s"] = total(traced) - statistics.mean(total(ops) for ops in untraced)
    for kind in ("certify", "verify", "oracle"):
        t0 = statistics.mean(sum(op.seconds for op in ops if op.kind == kind)
                             for ops in untraced)
        t1 = sum(op.seconds for op in traced if op.kind == kind)
        if t0:
            print(f"  tracing overhead on {kind}_s: {t1 - t0:+.4f} s "
                  f"({t1:.4f} traced, {t0:.4f} untraced)")
    for name in sorted(layer):
        print(f"  {name} = {layer[name]}")
    return layer


def write_spans(dumps, path):
    with open(path, "w") as out:
        for proc, dump in enumerate(dumps):
            with open(dump) as fh:
                for line in fh:
                    rec = json.loads(line)
                    rec["proc"] = proc
                    out.write(json.dumps(rec) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "ghcert" / "cli.py").is_file():
        print(f"error: no ghcert sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    budget = Budget(RUN_LIMIT_S)
    # one CPU for this process and its children: on a shared host each core
    # has its own neighbours, so all requests of a run see the same ones
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        cases = CASES[args.workload](args.seed)
        setup_s = measure_setup(work, budget)
        print(f"seed {args.seed}: {len(cases)} inputs; "
              f"closed loop, 1 client, requests one at a time")
        passes, maxrss_kb = [], 0
        deadline = perf_counter() + args.seconds
        while True:
            ops, child, took = run_pass(args.workload, cases, work, False, budget)
            passes.append(ops)
            maxrss_kb = max(maxrss_kb, child.maxrss_kb)
            if len(passes) >= MIN_PASSES and (args.trace or perf_counter() + took > deadline):
                break
        digests = {digest(ops) for ops in passes}
        attempted, failed, metrics = report(args.workload, passes, setup_s, maxrss_kb)
        if args.trace:
            traced, child, _ = run_pass(args.workload, cases, work, True, budget)
            path = OUT / f"spans_{args.workload}_seed{args.seed}.jsonl"
            write_spans(child.dumps, path)
            print(f"  spans written to {path.relative_to(ROOT)}")
            digests.add(digest(traced))
            attempted += len(traced)
            failed += sum(op.error is not None for op in traced)
            metrics = trace_report(child.dumps, passes, traced)
        print(f"  output digest: {' '.join(sorted(digests))}")
        correct = failed == 0 and len(digests) == 1
        listed = SPEC["per_layer" if args.trace else "end_to_end"]
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in listed},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
