"""Cold certify + verify of one input in one ambient type, through
`ghcert.cli.main` in process: k = sl2 on the first simple root, or with
--principal the principal sl2 (e = sum of the e_{alpha_i}), or with
--levi the Levi subalgebra on the listed simple roots, with t spanned by
their h_i or, adding --full, by every h_i (a full Levi; the builders of
tests/conftest.py).  --seed N passes the same option to `certify`, which
then shuffles each shell of its regular-element search.

    for t in F4 E6 E7 E8; do PYTHONPATH=src python3 tools/sl2_rungs.py $t; done
    for t in F4 E6 E7 E8; do PYTHONPATH=src python3 tools/sl2_rungs.py $t --principal; done
    PYTHONPATH=src python3 tools/sl2_rungs.py E6 --levi 0,2,3
    PYTHONPATH=src python3 tools/sl2_rungs.py E7 --levi 0 --full
    PYTHONPATH=src python3 tools/sl2_rungs.py E7 --levi 0 --full --seed 3

`build_s` is one `build_algebra` from an empty algebra cache, the first
layer of every request.  `certify` is timed around the call, from an empty
algebra cache; the cache is emptied again before `verify` is timed. Prints
one JSON line: the input, the seconds of the build, the exit codes, the
seconds of each command, `valid` from `verify`, the sha256 of the
certificate bytes and the process's peak RSS.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import tempfile
import time

import ghcert.algebra
from ghcert.cli import main

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from conftest import levi, principal_sl2  # noqa: E402


def sl2_on_alpha1(L, algebra):
    alpha1 = tuple(int(i == 0) for i in range(L.rank))
    rows = [0] + [L.index[(kind, alpha1)] for kind in ("e", "f")]
    unit = [[int(j == i) for j in range(L.dim)] for i in rows]
    return {"algebra": algebra, "subalgebra_generators": unit, "cartan_t": unit[:1]}


def rung(algebra, workdir, kind="sl2", nodes=None, full=False, seed=None):
    ghcert.algebra._build_cached.cache_clear()
    start = time.perf_counter()
    L = ghcert.algebra.build_algebra(algebra)
    build_s = round(time.perf_counter() - start, 4)
    if kind == "principal":
        spec = principal_sl2(algebra)
    elif kind == "levi":
        spec = levi(algebra, nodes, full=full)
    else:
        spec = sl2_on_alpha1(L, algebra)
    inp, cert = os.path.join(workdir, "in.json"), os.path.join(workdir, "cert.json")
    with open(inp, "w") as fh:
        json.dump(spec, fh)
    row = {"algebra": algebra,
           "input": kind if nodes is None else f"{'full ' * full}levi {nodes}",
           "build_s": build_s}
    seeded = []
    if seed is not None:
        row["seed"] = seed
        seeded = ["--seed", str(seed)]
    printed = io.StringIO()
    for cmd, argv in (("certify", ["certify", inp, "--out", cert, *seeded]),
                      ("verify", ["verify", cert, inp])):
        ghcert.algebra._build_cached.cache_clear()
        start = time.perf_counter()
        with contextlib.redirect_stdout(printed):
            code = main(argv)
        row[cmd + "_s"] = round(time.perf_counter() - start, 3)
        row[cmd + "_exit"] = code
        if code:
            break
    else:
        row["valid"] = json.loads(printed.getvalue())["valid"]
        with open(cert, "rb") as fh:
            row["sha256"] = hashlib.sha256(fh.read()).hexdigest()
    row["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return row


if __name__ == "__main__":
    args = sys.argv[1:]
    kind, nodes, seed = "sl2", None, None
    if "--principal" in args:
        kind = "principal"
    elif "--levi" in args:
        kind = "levi"
        nodes = [int(x) for x in args[args.index("--levi") + 1].split(",")]
    if "--seed" in args:
        seed = int(args[args.index("--seed") + 1])
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(rung(args[0], tmp, kind, nodes, "--full" in args, seed)))
