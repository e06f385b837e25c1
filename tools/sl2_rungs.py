"""Cold certify + verify of k = sl2 on the first simple root of one ambient
type, through `ghcert.cli.main` in process.

    for t in F4 E6 E7 E8; do PYTHONPATH=src python3 tools/sl2_rungs.py $t; done

`certify` is timed around the call, from an empty algebra cache; the cache
is emptied again before `verify` is timed. Prints one JSON line: the exit
codes, the seconds of each command, `valid` from `verify`, the sha256 of
the certificate bytes and the process's peak RSS.
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


def rung(algebra, workdir):
    L = ghcert.algebra.build_algebra(algebra)
    alpha1 = tuple(int(i == 0) for i in range(L.rank))
    rows = [0] + [L.index[(kind, alpha1)] for kind in ("e", "f")]
    unit = [[int(j == i) for j in range(L.dim)] for i in rows]
    spec = {"algebra": algebra, "subalgebra_generators": unit, "cartan_t": unit[:1]}
    inp, cert = os.path.join(workdir, "in.json"), os.path.join(workdir, "cert.json")
    with open(inp, "w") as fh:
        json.dump(spec, fh)
    row = {"algebra": algebra}
    printed = io.StringIO()
    for cmd, argv in (("certify", ["certify", inp, "--out", cert]),
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
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(rung(sys.argv[1], tmp)))
