"""Verification by re-derivation: a certificate is valid only if it equals,
byte for byte, the certificate that its input and its recorded witness
choices determine. Every rejection is `valid: false` and exit 1."""

import contextlib
import functools
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghcert.certify
import ghcert.oracle
from ghcert.certify import canonical_json, certify, parse_input, verify_certificate
from ghcert.cli import main
from ghcert.errors import GenericNuNotFound

from conftest import CASES, REDUCTION


def raw_input(name):
    return REDUCTION if name == "reduction" else CASES[name]


@functools.cache
def certificate(name, oracle_check=False):
    raw = raw_input(name)
    return canonical_json(certify(parse_input(raw), raw, oracle_check=oracle_check))


def cli_verify(cert, raw):
    """Exit code and stdout payload of `ghc verify` on a certificate."""
    with tempfile.TemporaryDirectory() as d:
        report, inp = os.path.join(d, "report.json"), os.path.join(d, "in.json")
        with open(report, "w") as fh:
            json.dump(cert, fh)
        with open(inp, "w") as fh:
            json.dump(raw, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["verify", report, inp])
    return rc, json.loads(out.getvalue())


def _set(path, value):
    def tamper(cert):
        node = cert
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return cert

    return tamper


def _delete(path):
    def tamper(cert):
        node = cert
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return cert

    return tamper


def _forge_inconclusive(cert):
    cert["verdict"] = {"kind": "Inconclusive", "reason": "search bounds exhausted"}
    cert["witness"] = None
    return cert


# (tampering of the b2_sl2 certificate, the reasons verify gives)
TAMPERINGS = {
    "spectrum": (_set(("witness", "spectrum", 0, 1), 2), ["$.witness.spectrum[0][1]"]),
    "dims.g": (_set(("witness", "dims", "g"), 11), ["$.witness.dims.g"]),
    "cond2_ok": (_set(("witness", "genericity", "cond2_ok"), False),
                 ["$.witness.genericity.cond2_ok"]),
    "true as 1": (_set(("witness", "genericity", "integral"), 1),
                  ["$.witness.genericity.integral"]),
    "oracle_match": (_set(("witness", "oracle_match"), True), ["$.witness.oracle_match"]),
    "extra key": (_set(("extra",), 1), ["$.extra"]),
    "tool_version": (_set(("tool_version",), "0.2.0"), ["$.tool_version"]),
    "missing gammas": (_delete(("witness", "vanishing", "gammas")),
                       ["$.witness.vanishing.gammas"]),
    "short nu": (_set(("witness", "nu"), ["0/1"]), ["$.witness.nu: 1 entries, expected 2"]),
    "non-dominant nu": (_set(("witness", "nu"), ["-1/1", "0/1"]), ["b-dominant"]),
    "non-generic nu": (_set(("witness", "nu"), ["-2/1", "1/1"]), ["is not generic"]),
    "unreduced rational": (_set(("witness", "nu", 0), "0/2"),
                           ["$.witness.nu[0]: '0/2' is not"]),
    "t_coeffs not an array": (_set(("witness", "t_coeffs"), "x"),
                              ["$.witness.t_coeffs: not an array"]),
    "t_coeffs not regular": (_set(("witness", "t_coeffs"), ["0/1"]),
                             ["$.witness.t_coeffs: h is not regular"]),
    "unknown verdict": (_set(("verdict", "kind"), "Maybe"), ["$.verdict.kind: 'Maybe'"]),
    "array": (lambda cert: [cert], ["$: not an object"]),
    "hash mismatch": (_set(("input_hash",), "0" * 64), ["$.input_hash"]),
    "forged Inconclusive": (_forge_inconclusive,
                            ["$.verdict.kind", "$.verdict.reason", "$.witness"]),
}


@pytest.mark.parametrize("name", sorted(TAMPERINGS))
def test_tampered_certificate_is_rejected(name):
    tamper, expected = TAMPERINGS[name]
    raw = CASES["b2_sl2"]
    cert = tamper(json.loads(certificate("b2_sl2")))
    ok, reasons = verify_certificate(cert, raw)
    assert not ok
    assert len(reasons) == len(expected)
    for reason, part in zip(reasons, expected):
        assert part in reason, reasons
    assert cli_verify(cert, raw) == (1, {"valid": False, "reasons": reasons})


def test_oracle_check_round_trip(monkeypatch):
    raw = CASES["a1_t"]
    cert = json.loads(certificate("a1_t", oracle_check=True))
    assert cert["witness"]["oracle_checked"] is True
    assert cert["witness"]["oracle_match"] is True

    calls, kostant_calls = [], []
    oracle = ghcert.certify.compare_kostant_vs_oracle
    kostant = ghcert.certify.kostant_cohomology

    def counted(*args, **kwargs):
        calls.append(args)
        return oracle(*args, **kwargs)

    def kostant_counted(*args):
        kostant_calls.append(args)
        return kostant(*args)

    monkeypatch.setattr(ghcert.certify, "compare_kostant_vs_oracle", counted)
    # counted wherever the name was imported, the oracle included
    for module in (ghcert.certify, ghcert.oracle):
        monkeypatch.setattr(module, "kostant_cohomology", kostant_counted, raising=False)
    assert verify_certificate(cert, raw) == (True, [])
    assert len(calls) == 1  # verify re-runs the oracle
    # on the decomposition derive holds, not a second one
    assert len(kostant_calls) == 1
    calls.clear()
    assert verify_certificate(json.loads(certificate("a1_t")), raw) == (True, [])
    assert not calls  # and only when the certificate says it was run

    flipped = dict(cert, witness=dict(cert["witness"], oracle_match=False))
    assert verify_certificate(flipped, raw) == (False, ["$.witness.oracle_match"])
    # derived without the oracle, so its oracle_match is null
    unchecked = dict(cert, witness=dict(cert["witness"], oracle_checked=False))
    assert verify_certificate(unchecked, raw) == (False, ["$.witness.oracle_match"])
    assert cli_verify(unchecked, raw)[0] == 1


def test_inconclusive_round_trip(monkeypatch, write_input, tmp_path, capsys):
    def gives_up(*args, **kwargs):
        raise GenericNuNotFound("no generic nu within the bounds")

    # a search that gives up, in certify and again in verify
    monkeypatch.setattr(ghcert.certify, "find_generic_nu", gives_up)
    inp = write_input("in.json", CASES["b2_sl2"])
    out = str(tmp_path / "report.json")
    assert main(["certify", inp, "--out", out]) == 0
    cert = json.loads(Path(out).read_text())
    assert cert["verdict"] == {"kind": "Inconclusive", "reason": "search bounds exhausted"}
    assert cert["witness"] is None
    assert main(["verify", out, inp]) == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True, "reasons": []}


def test_invalid_input_still_exits_2(write_input, tmp_path, capsys):
    """Only a failure of the input itself is not a rejection."""
    rep = tmp_path / "report.json"
    rep.write_text(certificate("a2_principal"))
    not_reductive = {"algebra": "A2", "subalgebra_generators": [[1, 0, 0, 0, 0, 0, 0, 0],
                     [0, 0, 1, 0, 0, 0, 0, 0]], "cartan_t": [[1, 0, 0, 0, 0, 0, 0, 0]]}
    for raw in ([], {"algebra": "A2"}, not_reductive):
        assert main(["verify", str(rep), write_input("in.json", raw)]) == 2


# -- property: any one mutation of a valid certificate is rejected --------

PROPERTY_CASES = ("a2_principal", "a1a1_factor", "reduction")

JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from(["0/1", "1/1", "-1/1", "2/1", "1/2", "2/4", "x"]),
    st.text(max_size=3),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


def _nodes(value, path=()):
    """(path, node) for every node of a JSON value, the root included."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


@st.composite
def mutated_certificates(draw):
    name = draw(st.sampled_from(PROPERTY_CASES))
    cert = json.loads(certificate(name))
    nodes = list(_nodes(cert))
    kind = draw(st.sampled_from(["change a leaf", "add a key", "remove a key"]))
    if kind == "change a leaf":
        path, old = draw(st.sampled_from(
            [(p, v) for p, v in nodes if p and not (isinstance(v, (dict, list)) and v)]
        ))
        new = draw(JSON_VALUES.filter(lambda v: canonical_json(v) != canonical_json(old)))
        _set(path, new)(cert)
    elif kind == "add a key":
        _, node = draw(st.sampled_from([(p, v) for p, v in nodes if isinstance(v, dict)]))
        key = draw(st.text(min_size=1, max_size=3).filter(lambda k: k not in node))
        node[key] = draw(JSON_VALUES)
    else:
        _, node = draw(st.sampled_from([(p, v) for p, v in nodes if isinstance(v, dict) and v]))
        del node[draw(st.sampled_from(sorted(node)))]
    return name, cert


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mutated_certificates())
def test_any_one_mutation_is_rejected(case):
    name, cert = case
    ok, reasons = verify_certificate(cert, raw_input(name))
    assert not ok and reasons
    assert cli_verify(cert, raw_input(name)) == (1, {"valid": False, "reasons": reasons})
