"""Self-checks of the benchmark itself (not of ghcert).

    python3 perfbench/selfcheck.py

Run from the root of a source checkout. Checks that
1. the root systems built in inputs.py match the program's;
2. same_g_batch gives the same inputs for the same seed, and other inputs
   for other seeds;
3. every generated input parses, and its expected verdict agrees with
   `is_ideal` plus the ideal reduction;
4. a traced pass gives the same output digest as an untraced pass.
Exits 1 if any check fails.
"""

import sys
import tempfile
from pathlib import Path

import run  # puts perfbench/ on sys.path and locates src/

sys.path.insert(0, str(run.SRC))

import inputs  # noqa: E402
from ghcert.algebra import build_algebra  # noqa: E402
from ghcert.certify import parse_input  # noqa: E402
from ghcert.embedding import is_ideal, make_embedding, split_off_contained_ideals  # noqa: E402
from ghcert.rootsystem import root_system  # noqa: E402

SEEDS = range(1, 6)
failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL {what}")


def check_roots():
    for alg in inputs.LADDER_ALGEBRAS + ("A1", "A2", "B2", "A1xA1", inputs.BATCH_ALGEBRA):
        ours, theirs = inputs.Roots(alg), root_system(alg)
        check(ours.positive == theirs.positive_roots, f"positive roots of {alg}")
        for c in ours.positive:
            check(tuple(ours.coroot(c)) == theirs.coroot_coeffs(c), f"coroot of {c} in {alg}")


def check_determinism():
    for seed in SEEDS:
        check(inputs.same_g_batch(seed) == inputs.same_g_batch(seed),
              f"same_g_batch seed {seed} repeats")
    draws = {repr(inputs.same_g_batch(seed)) for seed in SEEDS}
    check(len(draws) == len(SEEDS), "same_g_batch differs between seeds")


def expected_by_program(raw):
    """(verdict, reduced) as is_ideal and the ideal reduction decide them."""
    pin = parse_input(raw)
    L = build_algebra(pin.algebra)
    emb = make_embedding(L, pin.generators, pin.cartan_t)
    if is_ideal(L, emb.k):
        return inputs.IDEAL, False
    return inputs.WITNESS, split_off_contained_ideals(L, emb.k, emb.t) is not None


def check_expectations():
    cases = [(n, raw, v, None) for n, raw, v in inputs.rank_ladder(0)]
    cases += [(n, raw, inputs.WITNESS, None) for n, raw, _, _ in inputs.oracle_ladder(0)]
    for seed in SEEDS:
        cases += inputs.same_g_batch(seed)
    for name, raw, verdict, reduced in cases:
        got_verdict, got_reduced = expected_by_program(raw)
        check(got_verdict == verdict, f"{name}: expected {verdict}, program says {got_verdict}")
        if reduced is not None:
            check(got_reduced == reduced, f"{name}: expected reduction {reduced}")
    print(f"checked the expected verdicts of {len(cases)} inputs")


def check_trace_digest():
    small = {
        "rank_ladder": [c for c in inputs.rank_ladder(0) if c[0] in inputs.STANDING],
        "oracle_ladder": [c for c in inputs.oracle_ladder(0) if c[2] in ("2,1", "2,-1")],
        "same_g_batch": inputs.same_g_batch(0)[:3],
    }
    run.OUT.mkdir(exist_ok=True)
    for workload, cases in small.items():
        with tempfile.TemporaryDirectory(dir=run.OUT) as work:
            budget = run.Budget(run.RUN_LIMIT_S)
            plain, _, _ = run.run_pass(workload, cases, Path(work), False, budget)
            traced, _, _ = run.run_pass(workload, cases, Path(work), True, budget)
        errors = [op.error for op in plain + traced if op.error]
        check(not errors, f"{workload}: no failed operations ({errors[:1]})")
        check(run.digest(plain) == run.digest(traced),
              f"{workload}: traced and untraced digests agree")


def main():
    check_roots()
    check_determinism()
    check_expectations()
    check_trace_digest()
    print("FAILED" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
