"""Command-line interface.

Exit codes: 0 = a verdict was produced (any verdict), 1 = certificate
rejected by `verify`, 2 = invalid input, 3 = internal invariant violation
or any other unexpected error, 4 = a search/size cap was exceeded.
"""

import json
import sys
from types import SimpleNamespace

from ghcert.borel import m_rho
from ghcert.certify import (
    _SEARCH_MINIMUMS,
    adapted_borel,
    canonical_json,
    certify,
    enc_vec,
    front,
    parse_input,
    read_q,
    verify_certificate,
)
from ghcert.errors import (
    DimCapExceeded,
    GhcError,
    InputInvalid,
    InvalidCartanType,
    LengthOutOfRange,
    NonDominant,
    NoRegularFound,
    PipelineError,
    SearchTooLarge,
)
from ghcert.kostant import check_degrees, kostant_cohomology
from ghcert.oracle import compare_kostant_vs_oracle
from ghcert.rootsystem import CartanType
from ghcert.weights import Weight


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # not UTF-8 or not JSON is a ValueError; nesting too deep, a RecursionError
    except (OSError, ValueError, RecursionError) as exc:
        raise InputInvalid(f"cannot read {path}: {exc}")


def _emit(data, out_path=None):
    text = canonical_json(data) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputInvalid(f"cannot write {out_path}: {exc}")
    else:
        sys.stdout.write(text)


def _parse_nu(text, rank):
    parts = text.split(",")
    if len(parts) != rank:
        raise InputInvalid(f"nu needs {rank} coordinates, got {len(parts)}")
    nu = [read_q(p) for p in parts]
    if None in nu:
        raise InputInvalid(f"bad nu {text!r}")
    return Weight("g", tuple(nu))


def _parse_degrees(text):
    """The degrees named by "a..b" (a range, kept lazy: `check_degrees`
    stops at the first degree past the number of positive roots) or by
    "a,b,..."."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            degrees = range(int(lo), int(hi) + 1)
        except ValueError:
            raise InputInvalid(f"bad degree range {text!r}")
        if not degrees:
            raise InputInvalid(f"empty degree range {text!r}")
        return degrees
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise InputInvalid(f"bad degrees {text!r}")


def cmd_certify(args):
    low = _SEARCH_MINIMUMS["seed"]  # the minimum of the input's search.seed
    if args.seed is not None and args.seed < low:
        raise InputInvalid(f"certify: --seed {args.seed} is less than {low}")
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
    try:
        ctype = CartanType.parse(args.type)
    except InvalidCartanType as exc:
        raise InputInvalid(f"--type: {exc}")
    if str(ctype) != pin.algebra:
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
    # the dimension of each summand, by Weyl's formula for m
    rho_m = m_rho(borel).coords
    dims = [L.rs.weyl_dimension(g.coords, borel.m_pos_roots, rho_m) for g in dec.summands]
    _emit(
        {
            "degree": dec.degree,
            "summands": [
                {"gamma": enc_vec(g.coords), "dim": d} for g, d in zip(dec.summands, dims)
            ],
            "total_dim": sum(dims),
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
        check_degrees(L, borel, nu, degrees)
        kostant = [kostant_cohomology(L, borel, nu, r) for r in degrees]
        rep = compare_kostant_vs_oracle(L, borel, nu, kostant, dim_cap=pin.dim_cap)
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


USAGE = """\
usage:
  ghc certify <input.json> [--out report.json] [--oracle-check] [--seed N]
  ghc check-ideal <input.json>
  ghc kostant --type A2 --nu 1,1 --k-spec <input.json> --degree r
  ghc oracle-compare <input.json> --nu a,b --degrees 0..q
  ghc verify <report.json> <input.json>

Decide the ideal/non-ideal dichotomy for an embedded reductive subalgebra
and certify the existence witness. -h or --help prints this text.
"""


def cmd_help(args):
    sys.stdout.write(USAGE)
    return 0


# command: (positionals, value options, flags, required options). A value
# option maps to the type of its value; an option --k-spec is read into the
# attribute k_spec; command oracle-compare runs cmd_oracle_compare.
COMMANDS = {
    "certify": (("input",), {"--out": str, "--seed": int}, ("--oracle-check",), ()),
    "check-ideal": (("input",), {}, (), ()),
    "kostant": ((), {"--type": str, "--nu": str, "--k-spec": str, "--degree": int}, (),
                ("--type", "--nu", "--k-spec", "--degree")),
    "oracle-compare": (("input",), {"--nu": str, "--degrees": str}, (), ("--nu", "--degrees")),
    "verify": (("report", "input"), {}, (), ()),
}


def _dest(option):
    return option[2:].replace("-", "_")


def parse_argv(argv):
    """(handler, arguments) for an argv; raises InputInvalid on a malformed
    one. A value option takes the next token as its value, whatever it
    looks like, or is written --opt=value; the last of a repeated option
    wins."""
    if not argv:
        raise InputInvalid("no command given (ghc --help lists them)")
    if argv[0] in ("-h", "--help"):
        return cmd_help, None
    if argv[0] not in COMMANDS:
        raise InputInvalid(f"unknown command {argv[0]!r} (ghc --help lists them)")
    command = argv[0]
    positionals, options, flags, required = COMMANDS[command]
    args = {_dest(o): None for o in options}
    args.update({_dest(f): False for f in flags})
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        if token in ("-h", "--help"):
            return cmd_help, None
        if name in options:
            if not eq:
                value = next(tokens, None)
                if value is None:
                    raise InputInvalid(f"{command}: {name} needs a value")
            try:
                args[_dest(name)] = options[name](value)
            except ValueError:
                raise InputInvalid(f"{command}: {name} needs an integer, got {value!r}")
        elif token in flags:
            args[_dest(token)] = True
        elif name in flags:
            raise InputInvalid(f"{command}: {name} takes no value")
        elif token.startswith("-"):
            raise InputInvalid(f"{command}: unknown option {name}")
        elif len(given) < len(positionals):
            given.append(token)
        else:
            raise InputInvalid(f"{command}: unexpected argument {token!r}")
    missing = [f"<{p}>" for p in positionals[len(given):]]
    missing += [o for o in required if args[_dest(o)] is None]
    if missing:
        raise InputInvalid(f"{command}: missing {' '.join(missing)}")
    args.update(zip(positionals, given))
    return globals()["cmd_" + command.replace("-", "_")], SimpleNamespace(**args)


def _exit_code(exc: GhcError) -> int:
    cause = exc.cause if isinstance(exc, PipelineError) else exc
    if isinstance(cause, (SearchTooLarge, DimCapExceeded, NoRegularFound)):
        return 4
    if isinstance(cause, InputInvalid):
        return 2
    return 3


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        fn, args = parse_argv(argv)
        return fn(args)
    except GhcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except Exception as exc:
        # a bug, not a verdict: keep exit 1 for "certificate rejected"
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
