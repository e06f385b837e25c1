import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ghcert.algebra import build_algebra
from ghcert.certify import (
    canonical_json,
    certify,
    dec_q,
    enc_q,
    input_hash,
    parse_input,
    verify_certificate,
)
from ghcert.cli import main
from ghcert.errors import InputInvalid

from conftest import CASES, REDUCTION, problem, unit

F = Fraction


def test_rational_round_trip():
    for x in [F(0), F(3), F(-7, 2), F(22, 7)]:
        assert dec_q(enc_q(x)) == x
    assert dec_q(5) == F(5)
    assert dec_q("4/6") == F(2, 3)
    with pytest.raises(InputInvalid):
        dec_q("1/0")
    with pytest.raises(InputInvalid):
        dec_q("spam")


def test_parse_input_defaults():
    pin = parse_input(CASES["a1_t"])
    assert pin.algebra == "A1"
    assert pin.seed == 0 and pin.max_coeff == 5 and pin.cond2_cap == 24


def test_parse_input_schema_violations():
    with pytest.raises(InputInvalid):
        parse_input({"algebra": "A1"})
    with pytest.raises(InputInvalid):
        parse_input(problem("Z9", [unit(3, 0)], [unit(3, 0)]))
    with pytest.raises(InputInvalid):
        parse_input(problem("A1", [unit(4, 0)], [unit(4, 0)]))


def test_parse_input_accepts_every_optional_key():
    raw = dict(
        CASES["a1_t"],
        search={"max_coeff": 0, "max_scale": 1, "max_height": 1, "seed": 0,
                "caps": {"cond2": 1, "dim": 1}},
        mode="check-ideal",
    )
    raw["cartan_t"] = [["1/1", 0, "0"]]
    pin = parse_input(raw)
    assert (pin.max_coeff, pin.max_scale, pin.max_height, pin.seed) == (0, 1, 1, 0)
    assert (pin.cond2_cap, pin.dim_cap, pin.mode) == (1, 1, "check-ideal")


def _with(path, value):
    """CASES["a1_t"] with the value at `path` (a tuple of keys) replaced."""
    raw = json.loads(json.dumps(CASES["a1_t"]))
    node = raw
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return raw


@pytest.mark.parametrize(
    "raw, where",
    [
        ([], "$: not an object"),
        ({"algebra": "A1", "cartan_t": [[1, 0, 0]]}, "'subalgebra_generators'"),
        (_with(("extra",), 1), "$: unexpected key 'extra'"),
        (_with(("algebra",), 1), "$.algebra"),
        (_with(("subalgebra_generators",), "h"), "$.subalgebra_generators"),
        (_with(("cartan_t",), [1, 0, 0]), "$.cartan_t[0]"),
        (_with(("cartan_t",), [[1, 0.5, 0]]), "$.cartan_t[0][1]"),
        (_with(("cartan_t",), [[1, None, 0]]), "$.cartan_t[0][1]"),
        (_with(("subalgebra_generators",), [[True, 0, 0]]), "$.subalgebra_generators[0][0]"),
        (_with(("search",), []), "$.search: not an object"),
        (_with(("search", "depth"), 1), "$.search: unexpected key 'depth'"),
        (_with(("search", "caps", "time"), 1), "$.search.caps: unexpected key"),
        (_with(("search", "max_coeff"), -1), "$.search.max_coeff"),
        (_with(("search", "max_scale"), 0), "$.search.max_scale"),
        (_with(("search", "max_height"), 0), "$.search.max_height"),
        (_with(("search", "seed"), -1), "$.search.seed"),
        (_with(("search", "caps", "cond2"), 0), "$.search.caps.cond2"),
        (_with(("search", "caps", "dim"), 0), "$.search.caps.dim"),
        (_with(("search", "max_coeff"), 5.0), "$.search.max_coeff: 5.0 is not an integer"),
        (_with(("search", "seed"), True), "$.search.seed: True is not an integer"),
        (_with(("search", "caps", "dim"), "9"), "$.search.caps.dim"),
        (_with(("mode",), "prove"), "$.mode"),
    ],
)
def test_parse_input_schema_rules(raw, where):
    with pytest.raises(InputInvalid) as info:
        parse_input(raw)
    assert str(info.value).startswith("input does not match schema: ")
    assert where in str(info.value)


def test_certify_ideal_case():
    raw = CASES["a1a1_factor"]
    cert = certify(parse_input(raw), raw)
    assert cert["verdict"]["kind"] == "IdealNoModule"
    assert cert["ideal"]["complement_dim"] == 3  # [TRIVIAL] the other factor
    assert cert["witness"] is None
    ok, reasons = verify_certificate(cert, raw)
    assert ok, reasons


def test_certify_witness_case():
    raw = CASES["a2_principal"]
    cert = certify(parse_input(raw), raw)
    assert cert["verdict"]["kind"] == "ExistsWitness"
    wit = cert["witness"]
    assert wit["dims"]["r"] == 2 and wit["dims"]["s"] == 1  # [DERIVED]
    assert wit["vanishing"]["holds"]
    ok, reasons = verify_certificate(cert, raw)
    assert ok, reasons


def test_certificate_deterministic():
    raw = CASES["b2_sl2"]
    a = canonical_json(certify(parse_input(raw), raw))
    b = canonical_json(certify(parse_input(raw), raw))
    assert a == b


@pytest.mark.parametrize("algebra", ["A3", "B3", "C3", "D4", "F4", "E6", "E7", "E8"])
def test_round_trip_higher_rank(algebra):
    # k = sl2 on the first simple root alpha_1
    L = build_algebra(algebra)
    alpha1 = tuple(int(i == 0) for i in range(L.rank))
    gens = [unit(L.dim, L.index[(kind, alpha1)]) for kind in ("e", "f")]
    raw = problem(algebra, [unit(L.dim, 0)] + gens, [unit(L.dim, 0)])
    cert = certify(parse_input(raw), raw)
    assert cert["verdict"]["kind"] == "ExistsWitness"
    ok, reasons = verify_certificate(cert, raw)
    assert ok, reasons
    assert canonical_json(certify(parse_input(raw), raw)) == canonical_json(cert)


def test_reductivity_battery_runs_once(monkeypatch):
    """One closure of k and one reductivity battery per certify and per
    verify, whether called through ghcert.embedding or a name imported
    from it."""
    import ghcert.certify
    import ghcert.embedding

    calls = {"verify_reductive": [], "close_generators": []}

    def counting(name):
        fn = getattr(ghcert.embedding, name)

        def counted(*args):
            calls[name].append(args)
            return fn(*args)

        return counted

    for name in calls:
        wrapped = counting(name)
        monkeypatch.setattr(ghcert.embedding, name, wrapped)
        monkeypatch.setattr(ghcert.certify, name, wrapped, raising=False)

    def counts():
        return {name: len(c) for name, c in calls.items()}

    once = {"verify_reductive": 1, "close_generators": 1}
    # no simple ideal of A2 lies in k; REDUCTION splits one off
    for raw, reduced in ((CASES["a2_principal"], False), (REDUCTION, True)):
        for c in calls.values():
            c.clear()
        cert = certify(parse_input(raw), raw)
        assert (cert["reduction"] is not None) == reduced
        assert counts() == once
        for c in calls.values():
            c.clear()
        ok, reasons = verify_certificate(cert, raw)
        assert ok, reasons
        assert counts() == once


def test_front_runs_on_sparse_rows_and_integer_ranks(monkeypatch):
    """Certify and verify make no dense bracket call, and no row reduction
    does Fraction arithmetic: every elimination runs on the integer
    `Echelon`, which only divides by its pivots when it reads off the
    canonical rows.  The sparse bracket and those canonical rows still run."""
    import ghcert.linalg
    from ghcert.algebra import LieAlgebra
    from ghcert.linalg import Echelon

    linalg_dir = os.path.dirname(ghcert.linalg.__file__)
    dense, sparse, canonical, in_linalg = [], [], [], []
    bracket, bracket_sparse = LieAlgebra.bracket, LieAlgebra.bracket_sparse
    canonical_rows = Echelon.canonical_rows

    def watched(op):
        orig = getattr(Fraction, op)

        def arithmetic(*a):
            caller = sys._getframe(1).f_code
            if os.path.dirname(caller.co_filename) == linalg_dir:
                in_linalg.append((caller.co_name, op))
            return orig(*a)

        return arithmetic

    for name in ("add", "sub", "mul", "truediv", "floordiv", "mod"):
        for op in (f"__{name}__", f"__r{name}__"):
            monkeypatch.setattr(Fraction, op, watched(op))
    monkeypatch.setattr(LieAlgebra, "bracket", lambda *a: dense.append(a) or bracket(*a))
    monkeypatch.setattr(
        LieAlgebra, "bracket_sparse", lambda *a: sparse.append(a) or bracket_sparse(*a)
    )
    monkeypatch.setattr(
        Echelon, "canonical_rows", lambda self: canonical.append(self) or canonical_rows(self)
    )
    for raw in (*CASES.values(), REDUCTION):
        cert = certify(parse_input(raw), raw)
        ok, reasons = verify_certificate(cert, raw)
        assert ok, reasons
    assert dense == [] and in_linalg == []
    assert sparse and canonical


def test_verify_rejects_wrong_input():
    raw = CASES["a1_t"]
    cert = certify(parse_input(raw), raw)
    ok, reasons = verify_certificate(cert, CASES["a2_torus"])
    assert not ok and "$.input_hash" in reasons


def test_verify_rejects_tampered_r():
    raw = CASES["a2_principal"]
    cert = json.loads(canonical_json(certify(parse_input(raw), raw)))
    cert["witness"]["dims"]["r"] = 3
    ok, reasons = verify_certificate(cert, raw)
    assert not ok and reasons == ["$.witness.dims.r"]


def test_verify_rejects_perturbed_mu():
    raw = CASES["a2_principal"]
    cert = json.loads(canonical_json(certify(parse_input(raw), raw)))
    cert["witness"]["mu"] = ["-9/1"]
    ok, reasons = verify_certificate(cert, raw)
    assert not ok and reasons == ["$.witness.mu[0]"]


def test_reduction_path():
    raw = REDUCTION
    cert = certify(parse_input(raw), raw)
    assert cert["verdict"]["kind"] == "ExistsWitness"
    assert cert["reduction"]["reduced_algebra"] == "A1"
    ok, reasons = verify_certificate(cert, raw)
    assert ok, reasons


def test_non_reductive_input_rejected():
    # borel subalgebra of the first sl2: closed but Killing-degenerate
    raw = problem("A2", [unit(8, 0), unit(8, 2)], [unit(8, 0)])
    with pytest.raises(InputInvalid):
        certify(parse_input(raw), raw)


def test_input_hash_key_order_independent():
    a = {"algebra": "A1", "subalgebra_generators": [[1, 0, 0]], "cartan_t": [[1, 0, 0]]}
    b = {"cartan_t": [[1, 0, 0]], "algebra": "A1", "subalgebra_generators": [[1, 0, 0]]}
    assert input_hash(a) == input_hash(b)


# -- CLI ----------------------------------------------------------------


def test_cli_certify_and_verify(write_input, tmp_path, capsys):
    inp = write_input("in.json", CASES["a1_t"])
    out = str(tmp_path / "report.json")
    assert main(["certify", inp, "--out", out]) == 0
    assert main(["verify", out, inp]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True


def test_cli_certify_byte_identical(write_input, tmp_path):
    inp = write_input("in.json", CASES["a2_principal"])
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["certify", inp, "--out", out1]) == 0
    assert main(["certify", inp, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_cli_check_ideal(write_input, capsys):
    inp = write_input("in.json", CASES["a1a1_factor"])
    assert main(["check-ideal", inp]) == 0
    assert json.loads(capsys.readouterr().out) == {"is_ideal": True}


def test_cli_kostant(write_input, capsys):
    inp = write_input("in.json", CASES["a2_torus"])
    rc = main(["kostant", "--type", "A2", "--nu", "1,1", "--k-spec", inp,
               "--degree", "1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degree"] == 1 and len(payload["summands"]) == 2


def test_cli_oracle_compare(write_input, capsys):
    inp = write_input("in.json", CASES["a1_t"])
    rc = main(["oracle-compare", inp, "--nu", "2", "--degrees", "0..1"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["match"] is True


def test_cli_degree_out_of_range_is_invalid_input(write_input, capsys):
    inp = write_input("in.json", CASES["a1_t"])  # A1 has one positive root
    for degree in ("2", "-1"):
        argv = ["kostant", "--type", "A1", "--nu", "1", "--k-spec", inp,
                f"--degree={degree}"]
        assert main(argv) == 2
        assert f"length {degree} not in [0, 1]" in capsys.readouterr().err
    for degrees in ("0..2", "-1"):
        assert main(["oracle-compare", inp, "--nu", "1", f"--degrees={degrees}"]) == 2
        assert "not in [0, 1]" in capsys.readouterr().err


def _no_module(*args, **kwargs):
    raise AssertionError("the oracle built a module")


def test_cli_oracle_empty_degree_range_is_invalid_input(write_input, monkeypatch, capsys):
    """A range with its ends reversed names no degree; comparing nothing is
    refused rather than reported as a match."""
    import ghcert.oracle

    monkeypatch.setattr(ghcert.oracle, "construct_module", _no_module)
    inp = write_input("in.json", CASES["b2_sl2"])
    assert main(["oracle-compare", inp, "--nu", "1,0", "--degrees", "3..1"]) == 2
    assert capsys.readouterr().err == "error: empty degree range '3..1'\n"


def test_cli_empty_t_with_nonzero_k_is_invalid_input(write_input, capsys):
    """t = 0 centralizes all of k, so it is no Cartan subalgebra of k != 0."""
    inp = write_input("in.json", problem("A2", [unit(8, 0), unit(8, 2), unit(8, 5)], []))
    assert main(["certify", inp]) == 2
    assert capsys.readouterr().err == (
        "error: stage 'make_embedding': t (dim 0) is not self-centralizing "
        "in k (centralizer dim 4)\n"
    )


def test_cli_oracle_degree_range_checked_before_module(write_input, monkeypatch, capsys):
    import ghcert.oracle

    monkeypatch.setattr(ghcert.oracle, "construct_module", _no_module)
    inp = write_input("in.json", CASES["b2_sl2"])
    assert main(["oracle-compare", inp, "--nu=3,-1", "--degrees=0..9"]) == 2
    assert "length 5 not in [0, 4]" in capsys.readouterr().err


def test_cli_oracle_n_cap_checked_before_module(write_input, monkeypatch, capsys):
    """t = h in A5: n is spanned by all 15 positive roots, over the cap."""
    import ghcert.oracle

    monkeypatch.setattr(ghcert.oracle, "construct_module", _no_module)
    cartan = [unit(35, i) for i in range(5)]
    inp = write_input("in.json", problem("A5", cartan, cartan))
    assert main(["oracle-compare", inp, "--nu=0,0,0,0,0", "--degrees=0..1"]) == 4
    assert capsys.readouterr().err == "error: dim n = 15 exceeds cap 12\n"


def test_cli_negative_nu_as_separate_argument(write_input, capsys):
    """A weight with a leading minus sign is a value, not an option, and
    gives the same output as the `--nu=VALUE` form."""
    inp = write_input("in.json", CASES["g2_sl2"])
    runs = [
        ["oracle-compare", inp, "NU", "--degrees", "0..1"],
        ["kostant", "--type", "G2", "NU", "--k-spec", inp, "--degree", "1"],
    ]
    for argv in runs:
        outs = []
        for nu in (["--nu", "-1,1"], ["--nu=-1,1"]):
            i = argv.index("NU")
            assert main(argv[:i] + nu + argv[i + 1:]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
    assert json.loads(outs[0])["total_dim"] > 0
    # parsed, then rejected as not b-dominant rather than as an option
    argv = ["kostant", "--type", "G2", "--nu", "-1,2", "--k-spec", inp,
            "--degree", "1"]
    assert main(argv) == 2
    assert "b-dominant" in capsys.readouterr().err


def test_cli_exit_code_invalid_input(write_input, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["certify", str(bad)]) == 2
    inp = write_input("in.json", {"algebra": "A1"})
    assert main(["certify", inp]) == 2


def test_cli_non_utf8_file_is_invalid_input(write_input, tmp_path, capsys):
    """An input or a report that is not UTF-8 is unreadable input."""
    inp = write_input("in.json", CASES["a1_t"])
    latin = tmp_path / "latin1.json"
    latin.write_bytes('{"algebra": "A1", "note": "\u00e9"}'.encode("latin-1"))
    assert main(["certify", str(latin)]) == 2
    assert main(["verify", str(latin), inp]) == 2
    err = capsys.readouterr().err
    assert err.count("error: cannot read") == 2 and "internal" not in err


def test_cli_deeply_nested_json_is_invalid_input(tmp_path, capsys):
    """Nesting past the parser's recursion limit is unreadable input."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["certify", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "internal" not in err


def test_cli_unwritable_out_is_invalid_input(write_input, tmp_path, capsys):
    inp = write_input("in.json", CASES["a1_t"])
    out = tmp_path / "missing" / "report.json"
    assert main(["certify", inp, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}") and "internal" not in err
    assert not out.parent.exists()


def test_cli_kostant_type_is_compared_as_an_algebra(write_input, capsys):
    """--type and the k-spec's algebra are compared as parsed algebras, so
    the two spellings of a product match; an unparsable --type is invalid
    input."""
    cartan = [unit(6, 0), unit(6, 1)]
    inp = write_input("in.json", problem("A1×A1", cartan, cartan))
    argv = ["kostant", "--nu", "1,1", "--k-spec", inp, "--degree", "1", "--type"]
    assert main(argv + ["A1xA1"]) == 0
    assert json.loads(capsys.readouterr().out)["degree"] == 1
    assert main(argv + ["A2"]) == 2
    assert "does not match k-spec algebra A1×A1" in capsys.readouterr().err
    assert main(argv + ["Q1"]) == 2
    assert capsys.readouterr().err == "error: --type: cannot parse factor 'Q1'\n"


def test_cli_integral_float_is_invalid_input(write_input, capsys):
    data = json.loads(json.dumps(CASES["a2_torus"]))
    data["search"] = {"max_coeff": 5.0}
    inp = write_input("in.json", data)
    assert main(["certify", inp]) == 2
    assert "$.search.max_coeff" in capsys.readouterr().err


def test_cli_t_not_in_k_exits_2(write_input, capsys):
    inp = write_input("in.json", problem("A2", [unit(8, 2)], [unit(8, 0)]))
    assert main(["certify", inp]) == 2
    assert "stage 'make_embedding': t is not contained in k" in capsys.readouterr().err


def test_cli_exit_code_internal_error(write_input, monkeypatch, capsys):
    import ghcert.cli

    def boom(args):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(ghcert.cli, "cmd_certify", boom)
    inp = write_input("in.json", CASES["a1_t"])
    assert main(["certify", inp]) == 3
    err = capsys.readouterr().err
    assert err == "error: internal: RuntimeError: unexpected\n"


def test_cli_exit_code_cap_exceeded(write_input, capsys):
    data = json.loads(json.dumps(CASES["a2_torus"]))
    data["search"] = {"caps": {"cond2": 1}}
    inp = write_input("in.json", data)
    assert main(["certify", inp]) == 4


def test_cli_verify_rejects_tampered(write_input, tmp_path, capsys):
    inp = write_input("in.json", CASES["a1_t"])
    out = str(tmp_path / "report.json")
    assert main(["certify", inp, "--out", out]) == 0
    cert = json.loads(open(out).read())
    cert["witness"]["nu"] = ["2/1"]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(cert))
    assert main(["verify", str(tampered), inp]) == 1


def test_cli_kostant_non_object_spec(write_input, capsys):
    inp = write_input("in.json", [])
    rc = main(["kostant", "--type", "A1", "--nu", "1", "--k-spec", inp,
               "--degree", "1"])
    assert rc == 2
    assert "input does not match schema: $: not an object" in capsys.readouterr().err


def test_cli_seed_override(write_input, tmp_path):
    inp = write_input("in.json", CASES["a2_torus"])
    out = str(tmp_path / "r.json")
    assert main(["certify", inp, "--out", out, "--seed", "3"]) == 0
    cert = json.loads(open(out).read())
    assert cert["verdict"]["kind"] == "ExistsWitness"


def test_cli_negative_seed_override_exits_2(write_input, tmp_path, capsys):
    # the same minimum as "search": {"seed": -1} in the input, which exits 2
    inp = write_input("in.json", CASES["a2_torus"])
    out = tmp_path / "r.json"
    assert main(["certify", inp, "--out", str(out), "--seed", "-1"]) == 2
    assert "--seed -1 is less than 0" in capsys.readouterr().err
    assert not out.exists()
    seeded = write_input("seeded.json", {**CASES["a2_torus"], "search": {"seed": -1}})
    assert main(["certify", seeded, "--out", str(out)]) == 2
    assert main(["certify", inp, "--out", str(out), "--seed=0"]) == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "no command given"),
        (["bogus"], "unknown command 'bogus'"),
        (["certify"], "certify: missing <input>"),
        (["verify", "IN"], "verify: missing <input>"),
        (["check-ideal", "IN", "IN"], "check-ideal: unexpected argument"),
        (["certify", "IN", "--deg", "1"], "certify: unknown option --deg"),
        (["certify", "IN", "--oracle-check=1"], "--oracle-check takes no value"),
        (["certify", "IN", "--seed"], "certify: --seed needs a value"),
        (["certify", "IN", "--seed", "x"], "--seed needs an integer, got 'x'"),
        (["kostant", "--type", "A2", "--nu", "1,1", "--k-spec", "IN", "--degree=one"],
         "--degree needs an integer, got 'one'"),
        (["kostant", "--type", "A2", "--nu", "1,1", "--k-spec", "IN"],
         "kostant: missing --degree"),
        (["oracle-compare", "IN", "--degrees", "0..1"], "oracle-compare: missing --nu"),
    ],
)
def test_cli_usage_error_returns_2(argv, message, write_input, capsys):
    inp = write_input("in.json", CASES["a2_torus"])
    assert main([inp if a == "IN" else a for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and message in out.err


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["certify", "--help"],
                                  ["kostant", "--type", "A2", "-h"]])
def test_cli_help_returns_0(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage:\n") and "ghc oracle-compare" in out.out
    assert out.err == ""


def test_cli_options_in_any_order_last_wins(write_input, tmp_path):
    inp = write_input("in.json", CASES["a2_torus"])
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["certify", inp, "--seed", "3", "--out", out1]) == 0
    assert main(["certify", "--out=unused", "--seed=0", "--seed=3", "--out", out2, inp]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_cli_import_leaves_out_argparse_and_gettext():
    """Building an argparse parser costs a cold request several ms (the
    first gettext lookups import locale); the command table needs neither."""
    code = ("import sys, ghcert.cli; "
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
