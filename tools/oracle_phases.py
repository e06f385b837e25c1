"""Cold per-phase times of one `oracle-compare` request of the benchmark's
`oracle_ladder` workload, in process.

    for i in 0 1 2 3 4 5 6; do PYTHONPATH=src python3 tools/oracle_phases.py $i; done

The argument is the index of the request in the workload's canonical order
(`perfbench/inputs.py`, `_oracle_cases`). Each run is one fresh interpreter,
so every cache starts empty; imports are not timed. The phases follow
`cmd_oracle_compare`: parse + adapted Borel, the Kostant side at each degree,
`construct_module` (the basis and the columns of the simple root vectors
e_i and f_i of the adapted Borel), the other action columns of n (each a
commutator of columns already built), the complex (`ce_cohomology`: its
weight blocks, their checks and ranks) and the m-decompositions. Prints one
JSON line: the request, the seconds of each phase and their total, the
module dimension, the cochain dimension 2^dim n * dim W, whether the two
sides match, and the process's peak RSS.
"""

import json
import os
import resource
import sys
import time
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import inputs  # noqa: E402
from ghcert.certify import adapted_borel, parse_input  # noqa: E402
from ghcert.cli import _parse_degrees, _parse_nu  # noqa: E402
from ghcert.kostant import kostant_cohomology  # noqa: E402
from ghcert.oracle import (  # noqa: E402
    _n_roots,
    _root_labels,
    ce_cohomology,
    construct_module,
    decompose_as_m_module,
)


def phases(index):
    name, raw, nu_text, degrees_text = inputs._oracle_cases()[index]
    row = {"case": name, "nu": nu_text, "degrees": degrees_text}
    secs = {}
    clock = [time.perf_counter()]

    def lap(phase):
        now = time.perf_counter()
        secs[phase] = round(now - clock[0], 4)
        clock[0] = now

    fr, _, _, borel = adapted_borel(parse_input(raw))
    L = fr.L
    nu = _parse_nu(nu_text, L.rank)
    lap("parse_borel")
    degrees = _parse_degrees(degrees_text)
    kostant = {r: kostant_cohomology(L, borel, nu, r) for r in degrees}
    lap("kostant")
    W = construct_module(L, borel, nu)
    lap("construct_module")
    n_roots = _n_roots(borel)
    for label in _root_labels(L, n_roots):
        W.action(label)
    lap("columns")
    coh = ce_cohomology(L, borel, W)
    lap("complex")
    decomps = {r: decompose_as_m_module(L, borel, coh.get(r, {})) for r in degrees}
    lap("decompose")
    row["seconds"] = secs
    row["total_s"] = round(sum(secs.values()), 4)
    row["module_dim"] = W.dim
    row["cochain_dim"] = 2 ** len(n_roots) * W.dim
    row["match"] = all(
        dict(decomps[r]) == Counter(s.gamma.coords for s in kostant[r].summands)
        for r in degrees
    )
    row["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return row


if __name__ == "__main__":
    print(json.dumps(phases(int(sys.argv[1]))))
