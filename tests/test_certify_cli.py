import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import ghcert.algebra
import ghcert.certify
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

from conftest import (
    CASES,
    REDUCTION,
    borel_from_case,
    levi,
    principal_sl2,
    problem,
    sl2_on_alpha1,
    unit,
)

F = Fraction


NOT_P_OVER_Q = ["0.5", "1e3", " 1", "1 ", "+1", "1/-2", "1_0", "\u0661"]


def test_rational_round_trip():
    """An input rational is an int, or a string of an integer or "p/q", not
    necessarily in lowest terms; nothing else that `Fraction` reads (a
    point, an exponent, surrounding space, a sign on q, an underscore, a
    non-ASCII digit)."""
    for x in [F(0), F(3), F(-7, 2), F(22, 7)]:
        assert dec_q(enc_q(x)) == x
    assert dec_q(5) == F(5)
    assert dec_q("4/6") == F(2, 3)
    assert [dec_q(s) for s in ("-3", "-0/5", "007")] == [-3, 0, 7]
    for s in ["1/0", "spam"] + NOT_P_OVER_Q:
        with pytest.raises(InputInvalid, match="bad rational"):
            dec_q(s)


def test_cli_nu_is_integers_or_p_over_q(write_input, capsys):
    """--nu takes the forms of an input rational, and nothing else."""
    inp = write_input("in.json", CASES["a2_torus"])
    argv = ["kostant", "--type", "A2", "--k-spec", inp, "--degree", "1", "--nu"]
    assert main(argv + ["2/2,1"]) == 0
    capsys.readouterr()
    for s in NOT_P_OVER_Q:
        assert main(argv + [f"{s},1"]) == 2
        assert capsys.readouterr().err == f"error: bad nu '{s},1'\n"


def _elapsed(run):
    """(run(), seconds it took)."""
    start = time.perf_counter()
    out = run()
    return out, time.perf_counter() - start


@pytest.mark.parametrize("huge", ["1e5000", "1e10000000"])
def test_huge_exponent_rationals_are_refused_at_once(huge, write_input, tmp_path, capsys):
    """A rational written with an exponent is malformed wherever it
    appears, and is refused before its digits are built: in a certificate
    (exit 1), in --nu and in an input (exit 2)."""
    inp = write_input("in.json", CASES["a1_t"])
    out = tmp_path / "cert.json"
    assert main(["certify", inp, "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    cert["witness"]["t_coeffs"] = [huge]
    out.write_text(json.dumps(cert))
    capsys.readouterr()
    rc, seconds = _elapsed(lambda: main(["verify", str(out), inp]))
    assert (rc, seconds < 1) == (1, True)
    assert "$.witness.t_coeffs[0]" in capsys.readouterr().out
    spec = write_input("a2.json", CASES["a2_torus"])
    rc, seconds = _elapsed(lambda: main(
        ["kostant", "--type", "A2", "--nu", f"{huge},0", "--k-spec", spec, "--degree", "1"]
    ))
    assert (rc, seconds < 1) == (2, True)
    assert capsys.readouterr().err == f"error: bad nu '{huge},0'\n"
    raw = problem("A1", [[huge, 0, 0]], [unit(3, 0)])
    rc, seconds = _elapsed(lambda: main(["certify", write_input("huge.json", raw)]))
    assert (rc, seconds < 1) == (2, True)
    assert "bad rational" in capsys.readouterr().err


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
    assert (pin.cond2_cap, pin.dim_cap) == (1, 1)


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


def _certify_file(write_input, tmp_path, raw, name="cert.json"):
    inp = write_input("in.json", raw)
    out = str(tmp_path / name)
    assert main(["certify", inp, "--out", out]) == 0
    with open(out, "rb") as fh:
        return inp, out, fh.read()


@pytest.mark.parametrize("algebra", ["E7", "E8"])
def test_round_trip_principal_sl2(algebra, write_input, tmp_path, capsys):
    """Condition (2) over the 3.98e10 (E7) and 1.06e19 (E8) submultisets of
    n's t-weights is decided at the singles and the two sides of t* = Q."""
    inp, out, first = _certify_file(write_input, tmp_path, principal_sl2(algebra))
    assert json.loads(first)["verdict"]["kind"] == "ExistsWitness"
    capsys.readouterr()
    assert main(["verify", out, inp]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    assert _certify_file(write_input, tmp_path, principal_sl2(algebra), "again.json")[2] == first


# the sha256 of certificates made by the exhaustive walk of count tuples
@pytest.mark.parametrize("raw, sha256", [
    (principal_sl2("F4"), "372b4ac31bfbda3b72dbde7d4eac0e77b6ee74e02703f35521e9dc1e29ee37c8"),
    (principal_sl2("E6"), "4e950311c7845da199c92a333a209b70dd0053d800b493db9cd66ba5ee76f35f"),
    (levi("E6", [0, 2, 3]), "ce4f79c958ccadec3ed77e55c296503312022c2d41ab15f79eaf85eda8aef9d8"),
], ids=["principal_F4", "principal_E6", "levi_E6_023"])
def test_frontier_certificates_unchanged(raw, sha256, write_input, tmp_path):
    assert hashlib.sha256(_certify_file(write_input, tmp_path, raw)[2]).hexdigest() == sha256


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
    """Certify and verify make no dense bracket call and no dense row
    reduction (`rref_in_place`), and no row reduction does Fraction
    arithmetic: every elimination runs on the integer `Echelon`, which only
    divides by its pivots when it reads off the canonical rows.  The sparse
    bracket and those canonical rows still run."""
    import ghcert.linalg
    import ghcert.linalg.matrix
    from ghcert.algebra import LieAlgebra
    from ghcert.linalg import Echelon

    linalg_dir = os.path.dirname(ghcert.linalg.__file__)
    dense, sparse, canonical, in_linalg, rref_calls = [], [], [], [], []
    bracket, bracket_sparse = LieAlgebra.bracket, LieAlgebra.bracket_sparse
    rref_in_place = ghcert.linalg.matrix.rref_in_place
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
    monkeypatch.setattr(
        ghcert.linalg.matrix, "rref_in_place", lambda m: rref_calls.append(m) or rref_in_place(m)
    )
    for raw in (*CASES.values(), REDUCTION):
        cert = certify(parse_input(raw), raw)
        ok, reasons = verify_certificate(cert, raw)
        assert ok, reasons
    assert dense == [] and in_linalg == [] and rref_calls == []
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
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


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


# sha256 of `ghc kostant` stdout at nu = rho_b, degrees 0..|Phi+| concatenated
KOSTANT_STDOUT_SHA256 = {
    "a1_t": "5d5513946a1ae25dff26faa280a6119590d94132b2350437a2a06b3ab11ed4c2",
    "a2_principal": "8b4050977ba0c11d3b67cf695935ff288f8afdcba04cb83ff58a40d8f35aba92",
    "a2_torus": "8b4050977ba0c11d3b67cf695935ff288f8afdcba04cb83ff58a40d8f35aba92",
    "a3_sl2": "18ff7f9639d79203a69950c37d677dbd60969914c06ff82e9f24a54538f114e9",
    "b2_sl2": "770e8fcc033baa35177de097b93bd0f2f1965aa25a12631b35770079db6cab52",
    "g2_sl2": "3a3b7317a862f7b237e31eab78586c08465a4cd93b470cdfdb9c94fbf1ab2250",
    "g2_sl2_rung": "be9e0cde970fba0386eee0126fbf4a9d554f948a301f0005c11e7cb713c7c20f",
}


@pytest.mark.parametrize("name", sorted(KOSTANT_STDOUT_SHA256))
def test_cli_kostant_stdout_pinned(name, write_input, capsys):
    # g2_sl2_rung: k = sl2 on alpha_1 of G2, the rung of tools/sl2_rungs.py
    raw = sl2_on_alpha1("G2") if name == "g2_sl2_rung" else CASES[name]
    L, _, _, _, borel = borel_from_case(raw)
    inp = write_input("in.json", raw)
    nu = ",".join(str(x) for x in borel.rho.coords)
    outs = []
    for r in range(len(L.rs.positive_roots) + 1):
        argv = ["kostant", "--type", raw["algebra"], "--nu", nu, "--k-spec", inp,
                "--degree", str(r)]
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    if name == "b2_sl2":
        # a summand of dimension 4 and an empty degree above dim n = 3
        assert outs[1] == (
            '{"degree":1,"summands":[{"dim":4,"gamma":["0/1","3/1"]}],"total_dim":4}\n'
        )
        assert outs[4] == '{"degree":4,"summands":[],"total_dim":0}\n'
    digest = hashlib.sha256("".join(outs).encode()).hexdigest()
    assert digest == KOSTANT_STDOUT_SHA256[name]


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
    # a huge upper end is not materialised: the range stops at degree 2
    for degrees in ("0..2", "-1", f"0..{10**30}"):
        assert main(["oracle-compare", inp, "--nu", "1", f"--degrees={degrees}"]) == 2
        assert "not in [0, 1]" in capsys.readouterr().err


def test_cli_oracle_degree_range_checked_before_kostant(write_input, monkeypatch, capsys):
    """A range past |Phi+| is refused before any Kostant sum, with the
    message the first degree out of range gives; a non-dominant nu still
    reports that first."""
    import ghcert.cli

    calls = []
    monkeypatch.setattr(ghcert.cli, "kostant_cohomology", lambda *args: calls.append(args))
    inp = write_input("in.json", CASES["a1_t"])
    for nu, err in (("1", "error: length 2 not in [0, 1]\n"),
                    ("-1", "error: nu = (-1,) is not b-dominant integral\n")):
        assert main(["oracle-compare", inp, "--nu", nu, f"--degrees=0..{10**30}"]) == 2
        assert capsys.readouterr().err == err
    assert calls == []


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


def test_cli_exhausted_max_height_exits_4(write_input, tmp_path, capsys):
    """No h with coefficients in {-1, 0, 1} is regular on E6's full Levi
    on alpha_1. certify, kostant and oracle-compare, which all search for
    h, exit 4 (a search cap), and verify still rejects a recorded h that is
    not regular with exit 1."""
    raw = levi("E6", [0], full=True)
    capped = write_input("capped.json", dict(raw, search={"max_height": 1}))
    assert main(["certify", capped]) == 4
    assert main(["kostant", "--type", "E6", "--nu", "0,0,0,0,0,0", "--k-spec", capped,
                 "--degree", "0"]) == 4
    assert main(["oracle-compare", capped, "--nu=0,0,0,0,0,0", "--degrees=0..0"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: stage 'choose_regular': no regular element with integer "
                   "coefficients up to 1; raise max_height"] * 3
    inp, out = write_input("in.json", raw), str(tmp_path / "cert.json")
    assert main(["certify", inp, "--out", out]) == 0
    cert = json.loads(Path(out).read_text())
    cert["witness"]["t_coeffs"] = ["0/1"] * 6
    Path(out).write_text(json.dumps(cert))
    assert main(["verify", out, inp]) == 1
    assert "$.witness.t_coeffs: h is not regular" in capsys.readouterr().out


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
    # t = h: condition (2) takes the 3 singles, over 2^1
    data = json.loads(json.dumps(CASES["a2_torus"]))
    data["search"] = {"caps": {"cond2": 1}}
    inp = write_input("in.json", data)
    assert main(["certify", inp]) == 4
    # a 2-torus of A3: 6 singles on 6 lines of the plane and 12 regions, so
    # 18 over 2^4; the 63 submultisets they cover fit in 2^5 only by the work
    torus = problem("A3", [unit(15, 0), unit(15, 1)], [unit(15, 0), unit(15, 1)])
    for cap, code in ((4, 4), (5, 0)):
        torus["search"] = {"caps": {"cond2": cap}}
        assert main(["certify", write_input("torus.json", torus)]) == code
    assert "18 singles and regions exceed the 2^4 cap" in capsys.readouterr().err


def test_cli_cond2_cap_refuses_before_the_regular_search(write_input, monkeypatch, capsys):
    """E8's Levi on {0, 2, 3, 4, 5, 6}: the count from the t-grading alone
    is over the default cap, so certify exits 4 without searching for h."""
    def no_search(*args, **kwargs):
        raise AssertionError("searched for h")

    monkeypatch.setattr(ghcert.certify, "choose_regular", no_search)
    inp = write_input("in.json", levi("E8", [0, 2, 3, 4, 5, 6]))
    assert main(["certify", inp]) == 4
    assert capsys.readouterr().err == (
        "error: stage 'check_cond2_cap': 61934852 singles and regions exceed the 2^24 cap\n"
    )


def test_cli_kostant_and_oracle_compare_have_no_cond2_cap(write_input, capsys):
    """Only certify and verify run condition (2), so only they check its cap."""
    data = json.loads(json.dumps(CASES["a2_torus"]))
    data["search"] = {"caps": {"cond2": 1}}
    inp = write_input("in.json", data)
    assert main(["certify", inp]) == 4
    assert main(["kostant", "--type", "A2", "--nu", "0,0", "--k-spec", inp,
                 "--degree", "1"]) == 0
    assert main(["oracle-compare", inp, "--nu=0,0", "--degrees=0..1"]) == 0


def test_cond2_cap_counted_once_per_pipeline(monkeypatch):
    """certify and verify each count condition (2)'s work once, however
    many nu candidates the search evaluates: here nu = 0 is made to fail."""
    import ghcert.genericity

    calls = {"cap": 0, "nu": 0}
    count_cap, evaluate = ghcert.genericity.check_cond2_cap, ghcert.genericity.evaluate_genericity

    def counted_cap(*args, **kwargs):
        calls["cap"] += 1
        return count_cap(*args, **kwargs)

    def first_fails(*args, **kwargs):
        calls["nu"] += 1
        report = evaluate(*args, **kwargs)
        report.integral = report.integral and calls["nu"] > 1
        return report

    monkeypatch.setattr(ghcert.genericity, "check_cond2_cap", counted_cap)
    monkeypatch.setattr(ghcert.genericity, "evaluate_genericity", first_fails)
    raw = CASES["a3_sl2"]
    cert = certify(parse_input(raw), raw)
    assert cert["witness"]["nu"] != ["0/1"] * 3
    assert calls["cap"] == 1 and calls["nu"] > 1
    assert verify_certificate(cert, raw) == (True, [])
    assert calls["cap"] == 2


def test_r_zero_refused_ahead_of_the_cond2_cap():
    """r = 0 is refused (exit 2) before condition (2)'s cap (exit 4): here
    k is made to hold every nonzero weight space and the cap is 2^1."""
    from ghcert.certify import front, search
    from ghcert.errors import PipelineError

    data = json.loads(json.dumps(CASES["a2_torus"]))
    data["search"] = {"caps": {"cond2": 1}}
    fr = front(parse_input(data))
    grading = fr.emb.grading
    grading.k_dims = {w: len(idxs) for w, idxs in grading.blocks.items()}
    with pytest.raises(PipelineError) as exc:
        search(fr)
    assert isinstance(exc.value.cause, InputInvalid)
    assert str(exc.value) == "stage 't_grading': r = dim(n ∩ k_perp) is zero"


def test_cli_vanishing_failure_is_an_invariant_violation(write_input, monkeypatch, capsys):
    """nu + rho_b is regular and r > 0, so a gamma equal to nu means
    Kostant's enumeration is wrong: exit 3, not an input fault."""
    from ghcert.kostant import CohomologyDecomposition

    monkeypatch.setattr(ghcert.certify, "kostant_cohomology",
                        lambda L, borel, nu, degree: CohomologyDecomposition(degree, [nu]))
    inp = write_input("in.json", CASES["a1_t"])
    assert main(["certify", inp]) == 3
    assert capsys.readouterr().err == (
        "error: stage 'verify_vanishing': vanishing fails on generic nu\n"
    )


def test_cli_verify_rejects_tampered(write_input, tmp_path, capsys):
    inp = write_input("in.json", CASES["a1_t"])
    out = str(tmp_path / "report.json")
    assert main(["certify", inp, "--out", out]) == 0
    cert = json.loads(Path(out).read_text())
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
    cert = json.loads(Path(out).read_text())
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
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_cli_import_leaves_out_argparse_hashlib_and_dataclasses():
    """Building an argparse parser costs a cold request several ms (the
    first gettext lookups import locale); the command table needs neither.
    hashlib loads OpenSSL's libcrypto to hash one input, and dataclasses
    (with inspect) generates code for records that plain classes spell out."""
    heavy = {"argparse", "gettext", "hashlib", "_hashlib", "dataclasses", "inspect"}
    code = f"import sys, ghcert.cli; print(sorted({heavy!r} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", sorted(CASES))
def test_input_hash_is_the_sha256_of_the_canonical_json(name):
    raw = CASES[name]
    assert input_hash(raw) == hashlib.sha256(canonical_json(raw).encode()).hexdigest()


def test_wrong_vector_length_exits_2_before_the_algebra_is_built(
    monkeypatch, write_input, capsys
):
    """dim g comes from the Cartan type in closed form, so a one-entry vector
    naming A400 (dim 160800) is refused without building the algebra."""

    def refuse(*args):
        raise AssertionError("build_algebra called")

    for module in (ghcert.algebra, ghcert.certify):
        monkeypatch.setattr(module, "build_algebra", refuse)
    inp = write_input("in.json", problem("A400", [[1]], [[1]]))
    assert main(["certify", inp]) == 2
    assert "vector length 1 != dim g = 160800 for A400" in capsys.readouterr().err


def test_sl2_rungs_tool_runs_a_full_levi():
    """`tools/sl2_rungs.py --levi ... --full` round-trips a full Levi (t = h)
    through certify and verify in a child process, and `--seed 1` reaches
    certify's seeded search."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    rows = []
    for extra in ([], ["--seed", "1"]):
        proc = subprocess.run(
            [sys.executable, str(root / "tools" / "sl2_rungs.py"), "B3", "--levi", "0", "--full",
             *extra],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        rows.append(json.loads(proc.stdout))
    for row in rows:
        assert row["input"] == "full levi [0]"
        assert (row["certify_exit"], row["verify_exit"], row["valid"]) == (0, 0, True)
    assert "seed" not in rows[0] and rows[1]["seed"] == 1
    assert rows[0]["sha256"] != rows[1]["sha256"]
    raw = levi("B3", [0], full=True)
    pin = parse_input(raw)
    pin.seed = 1
    assert rows[1]["sha256"] == hashlib.sha256(
        (canonical_json(certify(pin, raw)) + "\n").encode()).hexdigest()
