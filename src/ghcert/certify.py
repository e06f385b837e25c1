"""End-to-end decision pipeline: parse a problem description, decide the
ideal/non-ideal dichotomy, and emit a self-contained JSON certificate that
can be re-verified without repeating any search.
"""

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from ghcert import genericity
from ghcert.algebra import build_algebra
from ghcert.borel import build_borel
from ghcert.embedding import (
    close_generators,
    choose_regular,
    is_ideal,
    killing_perp,
    make_embedding,
    regular_from_coeffs,
    split_off_contained_ideals,
)
from ghcert.errors import (
    GenericNuNotFound,
    GhcError,
    HashMismatch,
    InputInvalid,
    PipelineError,
)
from ghcert.genericity import (
    evaluate_genericity,
    find_generic_nu,
    induced_form_on_tstar,
)
from ghcert.kostant import kostant_cohomology, verify_vanishing
from ghcert.oracle import compare_kostant_vs_oracle
from ghcert.parabolic import build_parabolic, rho_vectors
from ghcert.rootsystem import CartanType
from ghcert.weights import Weight

TOOL_VERSION = "0.1.0"

_MODES = ("certify", "kostant", "oracle-compare", "check-ideal")
_SEARCH_MINIMUMS = {"max_coeff": 0, "max_scale": 1, "max_height": 1, "seed": 0}
_CAPS_MINIMUMS = {"cond2": 1, "dim": 1}


def _schema_error(path, reason):
    return InputInvalid(f"input does not match schema: {path}: {reason}")


def _check_keys(obj, path, allowed, required=()):
    if not isinstance(obj, dict):
        raise _schema_error(path, "not an object")
    for key in required:
        if key not in obj:
            raise _schema_error(path, f"missing required key {key!r}")
    for key in obj:
        if key not in allowed:
            raise _schema_error(path, f"unexpected key {key!r}")


def _check_integers(obj, path, minimums):
    for key, low in minimums.items():
        if key in obj:
            x = obj[key]
            # bool is a subclass of int, and 5.0 is a float: neither is an integer
            if type(x) is not int:
                raise _schema_error(f"{path}.{key}", f"{x!r} is not an integer")
            if x < low:
                raise _schema_error(f"{path}.{key}", f"{x} is less than {low}")


def _check_schema(data):
    """The shape of a problem input: keys, types, integer minimums."""
    _check_keys(
        data, "$", ("algebra", "subalgebra_generators", "cartan_t", "search", "mode"),
        required=("algebra", "subalgebra_generators", "cartan_t"),
    )
    if not isinstance(data["algebra"], str):
        raise _schema_error("$.algebra", "not a string")
    for key in ("subalgebra_generators", "cartan_t"):
        if not isinstance(data[key], list):
            raise _schema_error(f"$.{key}", "not an array")
        for i, vec in enumerate(data[key]):
            if not isinstance(vec, list):
                raise _schema_error(f"$.{key}[{i}]", "not an array")
            for j, x in enumerate(vec):
                if not (isinstance(x, str) or type(x) is int):
                    raise _schema_error(
                        f"$.{key}[{i}][{j}]", f"{x!r} is not a string or an integer"
                    )
    search = data.get("search", {})
    _check_keys(search, "$.search", (*_SEARCH_MINIMUMS, "caps"))
    _check_integers(search, "$.search", _SEARCH_MINIMUMS)
    caps = search.get("caps", {})
    _check_keys(caps, "$.search.caps", _CAPS_MINIMUMS)
    _check_integers(caps, "$.search.caps", _CAPS_MINIMUMS)
    if data.get("mode", "certify") not in _MODES:
        raise _schema_error("$.mode", f"{data['mode']!r} is not one of {', '.join(_MODES)}")


def enc_q(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def dec_q(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputInvalid(f"bad rational {s!r}: {exc}") from None
    raise InputInvalid(f"bad rational {s!r}")


def enc_vec(v):
    return [enc_q(x) for x in v]


def dec_vec(v):
    return [dec_q(x) for x in v]


@dataclass
class ProblemInput:
    algebra: str
    generators: list  # coordinate vectors in the ambient Chevalley basis
    cartan_t: list
    max_coeff: int = genericity.DEFAULT_MAX_COEFF
    max_scale: int = genericity.DEFAULT_MAX_SCALE
    max_height: int = 6
    seed: int = 0
    cond2_cap: int = genericity.DEFAULT_COND2_CAP
    dim_cap: int = 5000
    mode: str = "certify"


def parse_input(data: dict) -> ProblemInput:
    _check_schema(data)
    try:
        ctype = CartanType.parse(data["algebra"])
    except GhcError as exc:
        raise InputInvalid(str(exc))
    L = build_algebra(ctype)
    gens = [dec_vec(v) for v in data["subalgebra_generators"]]
    t_rows = [dec_vec(v) for v in data["cartan_t"]]
    for v in gens + t_rows:
        if len(v) != L.dim:
            raise InputInvalid(
                f"vector length {len(v)} != dim g = {L.dim} for {ctype}"
            )
    search = data.get("search", {})
    caps = search.get("caps", {})
    return ProblemInput(
        algebra=str(ctype),
        generators=gens,
        cartan_t=t_rows,
        max_coeff=search.get("max_coeff", genericity.DEFAULT_MAX_COEFF),
        max_scale=search.get("max_scale", genericity.DEFAULT_MAX_SCALE),
        max_height=search.get("max_height", 6),
        seed=search.get("seed", 0),
        cond2_cap=caps.get("cond2", genericity.DEFAULT_COND2_CAP),
        dim_cap=caps.get("dim", 5000),
        mode=data.get("mode", "certify"),
    )


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def input_hash(data: dict) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except GhcError as exc:
        raise PipelineError(name, exc) from exc


def _prepare(pin: ProblemInput):
    """Shared front of the pipeline: algebra, closure, reductivity check
    (run once, inside make_embedding)."""
    L = build_algebra(pin.algebra)
    k = _stage("close_generators", close_generators, L, pin.generators)
    emb = _stage("make_embedding", make_embedding, L, [list(r) for r in k.rows], pin.cartan_t)
    report = emb.checks
    if not report.passed:
        raise InputInvalid(
            "subalgebra is not reductive in g "
            f"(closed={report.bracket_closed}, killing={report.killing_nondegenerate_on_k}, "
            f"toral={report.toral_action_semisimple})"
        )
    return L, emb


def certify(pin: ProblemInput, raw_input: dict, oracle_check: bool = False) -> dict:
    cert = {
        "tool_version": TOOL_VERSION,
        "input_hash": input_hash(raw_input),
        "verdict": None,
        "reduction": None,
        "ideal": None,
        "witness": None,
    }
    L, emb = _prepare(pin)
    if _stage("is_ideal", is_ideal, L, emb.k):
        comp = _stage("killing_perp", killing_perp, L, emb.k)
        cert["verdict"] = {"kind": "IdealNoModule", "reason": None}
        cert["ideal"] = {
            "complement_dim": comp.dim,
            "complement_basis": [enc_vec(r) for r in comp.rows],
        }
        return cert

    reduction = _stage(
        "split_off_contained_ideals", split_off_contained_ideals, L, emb.k, emb.t
    )
    if reduction is not None:
        cert["reduction"] = {
            "removed_factors": list(reduction.removed_factors),
            "reduced_algebra": str(reduction.algebra.ctype),
        }
        L = reduction.algebra
        emb = make_embedding(
            L, [list(r) for r in reduction.k.rows], [list(r) for r in reduction.t.rows]
        )

    reg = _stage("choose_regular", choose_regular, L, emb, seed=pin.seed,
                 max_height=pin.max_height)
    pd = _stage("build_parabolic", build_parabolic, L, emb, reg)
    if pd.r <= 0:
        raise PipelineError(
            "build_parabolic", InputInvalid("r = dim(n ∩ k_perp) is zero")
        )
    rv = _stage("rho_vectors", rho_vectors, L, emb, pd)
    borel = build_borel(L, [reg.h[i] for i in range(L.rank)])
    form = _stage("induced_form_on_tstar", induced_form_on_tstar, L, emb)
    try:
        nu, mu, greport = _stage(
            "find_generic_nu",
            find_generic_nu,
            L, emb, pd, rv, borel, form,
            max_coeff=pin.max_coeff,
            max_scale=pin.max_scale,
            cond2_cap=pin.cond2_cap,
        )
    except PipelineError as exc:
        if isinstance(exc.cause, GenericNuNotFound):
            cert["verdict"] = {
                "kind": "Inconclusive",
                "reason": "search bounds exhausted",
            }
            return cert
        raise
    vanishing = _stage("verify_vanishing", verify_vanishing, L, borel, nu, pd.r)
    dec = kostant_cohomology(L, borel, nu, pd.r)

    oracle_match = None
    if oracle_check:
        rep = _stage(
            "compare_kostant_vs_oracle",
            compare_kostant_vs_oracle,
            L, borel, nu, [pd.r], dim_cap=pin.dim_cap,
        )
        oracle_match = rep.match_with_kostant

    cert["verdict"] = {"kind": "ExistsWitness", "reason": None}
    cert["witness"] = {
        "h": enc_vec(reg.h),
        "t_coeffs": enc_vec(reg.t_coeffs),
        "spectrum": [[enc_q(v), m] for v, m in reg.g_spectrum],
        "dims": {
            "g": L.dim,
            "k": emb.k.dim,
            "t": emb.t.dim,
            "m": pd.m.dim,
            "n": pd.n.dim,
            "r": pd.r,
            "s": pd.s,
        },
        "rho": enc_vec(rv.rho.coords),
        "rho_n": enc_vec(rv.rho_n.coords),
        "rho_n_perp": enc_vec(rv.rho_n_perp.coords),
        "nu": enc_vec(nu.coords),
        "mu": enc_vec(mu.coords),
        "genericity": {
            "integral": greport.integral,
            "dominant": greport.dominant,
            "cond1_ok": greport.cond1_ok,
            "cond1_violations": [enc_vec(v) for v in greport.cond1_violations],
            "cond2_ok": greport.cond2_ok,
            "cond2_witness": [[enc_vec(wc), c] for wc, c in greport.cond2_witness] if greport.cond2_witness else None,
            "enumerated_count": greport.enumerated_count,
        },
        "vanishing": {
            "degree": pd.r,
            "holds": bool(vanishing),
            "gammas": [enc_vec(s.gamma.coords) for s in dec.summands],
        },
        "oracle_checked": bool(oracle_check),
        "oracle_match": oracle_match,
    }
    if not vanishing:
        raise PipelineError(
            "verify_vanishing", InputInvalid("vanishing fails on generic nu")
        )
    return cert


def verify_certificate(cert: dict, raw_input: dict):
    """Recheck every recorded equality/inequality without searching.

    Returns (ok, reasons); reasons lists every failed check."""
    reasons = []
    if cert.get("input_hash") != input_hash(raw_input):
        raise HashMismatch("certificate does not belong to this input")
    pin = parse_input(raw_input)
    L, emb = _prepare(pin)
    verdict = (cert.get("verdict") or {}).get("kind")

    if verdict == "IdealNoModule":
        if not is_ideal(L, emb.k):
            reasons.append("k is not an ideal")
        comp = killing_perp(L, emb.k)
        rec = cert.get("ideal") or {}
        if rec.get("complement_dim") != comp.dim:
            reasons.append("complement dimension mismatch")
        return (not reasons), reasons

    if verdict == "Inconclusive":
        if is_ideal(L, emb.k):
            reasons.append("Inconclusive verdict on an ideal input")
        return (not reasons), reasons

    if verdict != "ExistsWitness":
        return False, [f"unknown verdict {verdict!r}"]
    if is_ideal(L, emb.k):
        return False, ["ExistsWitness verdict on an ideal"]

    reduction = split_off_contained_ideals(L, emb.k, emb.t)
    if reduction is not None:
        rec = cert.get("reduction") or {}
        if rec.get("removed_factors") != list(reduction.removed_factors):
            reasons.append("reduction record mismatch")
        L = reduction.algebra
        emb = make_embedding(
            L, [list(r) for r in reduction.k.rows], [list(r) for r in reduction.t.rows]
        )
    elif cert.get("reduction") is not None:
        reasons.append("certificate records a reduction that does not occur")

    w = cert.get("witness") or {}
    try:
        coeffs = dec_vec(w["t_coeffs"])
        rec_h = dec_vec(w["h"])
        nu = Weight("g", tuple(dec_vec(w["nu"])))
        rec_mu = tuple(dec_vec(w["mu"]))
        degree = int(w["vanishing"]["degree"])
        dims = w["dims"]
    except (KeyError, TypeError, ValueError) as exc:
        return False, [f"malformed witness: {exc}"]

    reg = regular_from_coeffs(L, emb, coeffs)
    if reg is None:
        return False, ["recorded h is not regular"]
    if list(reg.h) != rec_h:
        reasons.append("recorded h does not match t_coeffs")
    pd = build_parabolic(L, emb, reg)
    if pd.r != dims.get("r") or pd.s != dims.get("s"):
        reasons.append("r/s mismatch")
    if pd.m.dim != dims.get("m") or pd.n.dim != dims.get("n"):
        reasons.append("m/n dimension mismatch")
    if pd.r <= 0:
        reasons.append("r is not positive")
    rv = rho_vectors(L, emb, pd)
    for name, rec, got in [
        ("rho", w.get("rho"), rv.rho.coords),
        ("rho_n", w.get("rho_n"), rv.rho_n.coords),
        ("rho_n_perp", w.get("rho_n_perp"), rv.rho_n_perp.coords),
    ]:
        if rec is None or tuple(dec_vec(rec)) != tuple(got):
            reasons.append(f"{name} mismatch")
    borel = build_borel(L, [reg.h[i] for i in range(L.rank)])
    form = induced_form_on_tstar(L, emb)
    greport = evaluate_genericity(L, emb, pd, rv, form, nu, cond2_cap=pin.cond2_cap)
    if tuple(greport.mu.coords) != rec_mu:
        reasons.append("mu mismatch")
    if not greport.passed:
        detail = ""
        if not greport.cond2_ok:
            detail = f" (condition 2 fails on {greport.cond2_witness})"
        reasons.append("genericity fails on recorded nu/mu" + detail)
    rec_g = w.get("genericity") or {}
    if rec_g.get("enumerated_count") != greport.enumerated_count:
        reasons.append("enumerated_count mismatch")
    if degree != pd.r:
        reasons.append("vanishing degree is not r")
    else:
        dec = kostant_cohomology(L, borel, nu, pd.r)
        gammas = sorted(tuple(s.gamma.coords) for s in dec.summands)
        rec_gammas = sorted(tuple(dec_vec(v)) for v in w["vanishing"]["gammas"])
        if gammas != rec_gammas:
            reasons.append("Kostant summands mismatch")
        if not verify_vanishing(L, borel, nu, pd.r):
            reasons.append("vanishing fails")
        if not w["vanishing"].get("holds"):
            reasons.append("certificate does not claim vanishing")
    return (not reasons), reasons
