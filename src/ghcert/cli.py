"""Command-line interface.

Exit codes: 0 = a verdict was produced (any verdict), 1 = certificate
rejected by `verify`, 2 = invalid input, 3 = internal invariant violation
or any other unexpected error, 4 = a search/size cap was exceeded.
"""

import argparse
import json
import sys
from fractions import Fraction

from ghcert.certify import (
    adapted_borel,
    canonical_json,
    certify,
    enc_vec,
    front,
    parse_input,
    verify_certificate,
)
from ghcert.errors import (
    DimCapExceeded,
    GhcError,
    InputInvalid,
    LengthOutOfRange,
    NonDominant,
    PipelineError,
    SearchTooLarge,
)
from ghcert.kostant import kostant_cohomology, m_weyl_dimension
from ghcert.oracle import compare_kostant_vs_oracle
from ghcert.weights import Weight


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputInvalid(f"cannot read {path}: {exc}")


def _emit(data, out_path=None):
    text = canonical_json(data) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_nu(text, rank):
    parts = text.split(",")
    if len(parts) != rank:
        raise InputInvalid(f"nu needs {rank} coordinates, got {len(parts)}")
    try:
        return Weight("g", tuple(Fraction(p) for p in parts))
    except (ValueError, ZeroDivisionError):
        raise InputInvalid(f"bad nu {text!r}")


def _parse_degrees(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            return list(range(int(lo), int(hi) + 1))
        except ValueError:
            raise InputInvalid(f"bad degree range {text!r}")
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise InputInvalid(f"bad degrees {text!r}")


def cmd_certify(args):
    raw = _load_json(args.input)
    pin = parse_input(raw)
    if args.seed is not None:
        pin.seed = args.seed
    cert = certify(pin, raw, oracle_check=args.oracle_check)
    _emit(cert, args.out)
    return 0


def cmd_check_ideal(args):
    raw = _load_json(args.input)
    _emit({"is_ideal": front(parse_input(raw)).ideal})
    return 0


def cmd_kostant(args):
    raw = _load_json(args.k_spec)
    pin = parse_input(raw)
    if raw["algebra"] != args.type:
        raise InputInvalid(
            f"--type {args.type} does not match k-spec algebra {raw['algebra']}"
        )
    fr, _, _, borel = adapted_borel(pin)
    L = fr.L
    nu = _parse_nu(args.nu, L.rank)
    try:
        dec = kostant_cohomology(L, borel, nu, args.degree)
    except (NonDominant, LengthOutOfRange) as exc:
        raise InputInvalid(str(exc))
    _emit(
        {
            "degree": dec.degree,
            "summands": [
                {
                    "gamma": enc_vec(s.gamma.coords),
                    "dim": m_weyl_dimension(borel, s.gamma),
                }
                for s in dec.summands
            ],
            "total_dim": dec.total_dim,
        }
    )
    return 0


def cmd_oracle_compare(args):
    pin = parse_input(_load_json(args.input))
    fr, _, _, borel = adapted_borel(pin)
    L = fr.L
    nu = _parse_nu(args.nu, L.rank)
    degrees = _parse_degrees(args.degrees)
    try:
        rep = compare_kostant_vs_oracle(L, borel, nu, degrees, dim_cap=pin.dim_cap)
    except (NonDominant, LengthOutOfRange) as exc:
        raise InputInvalid(str(exc))
    _emit(
        {
            "match": rep.match_with_kostant,
            "degrees": rep.degrees,
            "decompositions": {
                str(r): [[enc_vec(w), m] for w, m in rep.m_decompositions[r]]
                for r in rep.degrees
            },
            "cohomology": {
                str(r): [[enc_vec(w), d] for w, d in sorted(rep.cohomology[r].items())]
                for r in rep.degrees
            },
            "diff": {
                str(r): {
                    side: [[enc_vec(w), m] for w, m in entries]
                    for side, entries in d.items()
                }
                for r, d in rep.diff.items()
            },
        }
    )
    return 0


def cmd_verify(args):
    cert = _load_json(args.report)
    raw = _load_json(args.input)
    ok, reasons = verify_certificate(cert, raw)
    _emit({"valid": ok, "reasons": reasons})
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="ghc",
        description="Decide the ideal/non-ideal dichotomy for an embedded "
        "reductive subalgebra and certify the existence witness.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("certify", help="run the full pipeline and emit a certificate")
    c.add_argument("input")
    c.add_argument("--out", default=None)
    c.add_argument("--oracle-check", action="store_true")
    c.add_argument("--seed", type=int, default=None)
    c.set_defaults(fn=cmd_certify)

    c = sub.add_parser("check-ideal", help="report whether k is an ideal of g")
    c.add_argument("input")
    c.set_defaults(fn=cmd_check_ideal)

    c = sub.add_parser("kostant", help="cohomology decomposition at one degree")
    c.add_argument("--type", required=True)
    c.add_argument("--nu", required=True)
    c.add_argument("--k-spec", required=True, dest="k_spec")
    c.add_argument("--degree", required=True, type=int)
    c.set_defaults(fn=cmd_kostant)

    c = sub.add_parser("oracle-compare", help="brute-force check of the formula")
    c.add_argument("input")
    c.add_argument("--nu", required=True)
    c.add_argument("--degrees", required=True)
    c.set_defaults(fn=cmd_oracle_compare)

    c = sub.add_parser("verify", help="recheck a certificate against its input")
    c.add_argument("report")
    c.add_argument("input")
    c.set_defaults(fn=cmd_verify)
    return p


def _exit_code(exc: GhcError) -> int:
    cause = exc.cause if isinstance(exc, PipelineError) else exc
    if isinstance(cause, (SearchTooLarge, DimCapExceeded)):
        return 4
    if isinstance(cause, InputInvalid):
        return 2
    return 3


def _join_nu(argv):
    """Rewrite `--nu VALUE` as `--nu=VALUE`, so that a weight with a
    leading minus sign such as `-1,1` is not taken for an option."""
    out = []
    it = iter(argv)
    for arg in it:
        if arg == "--nu":
            value = next(it, None)
            out.append(arg if value is None else f"--nu={value}")
        else:
            out.append(arg)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_nu(argv))
    try:
        return args.fn(args)
    except GhcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except Exception as exc:
        # a bug, not a verdict: keep exit 1 for "certificate rejected"
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
