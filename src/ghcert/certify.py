"""End-to-end decision pipeline: parse a problem description, decide the
ideal/non-ideal dichotomy, and emit a self-contained JSON certificate.

One derivation builds the certificate from the input and the witness
choices (the coefficients of the regular element h in t, and the weight
nu). `certify` makes those choices by a bounded search; `verify_certificate`
reads them back from the certificate, derives it again and compares the two
byte for byte. Only an `Inconclusive` certificate, which records no choices,
makes verification repeat the (deterministic) search.
"""

import json
from fractions import Fraction

# hashlib loads OpenSSL's libcrypto to hash one input; the interpreter's own
# SHA-256 module is far lighter to import (the pattern of the stdlib's random)
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from ghcert import genericity
from ghcert.algebra import LieAlgebra, build_algebra
from ghcert.borel import BorelData, build_borel
from ghcert.embedding import (
    DEFAULT_MAX_HEIGHT,
    EmbeddedSubalgebra,
    Reduction,
    RegularElement,
    choose_regular,
    is_ideal,
    make_embedding,
    regular_from_coeffs,
    split_off_contained_ideals,
    t_grading,
)
from ghcert.errors import (
    GenericNuNotFound,
    GhcError,
    InputInvalid,
    InvariantViolation,
    NoRegularFound,
    PipelineError,
)
from ghcert.genericity import (
    GenericityReport,
    evaluate_genericity,
    find_generic_nu,
    induced_form_on_tstar,
)
from ghcert.kostant import check_coset_cap, kostant_cohomology
from ghcert.linalg import exact
from ghcert.oracle import DEFAULT_DIM_CAP, compare_kostant_vs_oracle
from ghcert.parabolic import ParabolicData, RhoVectors, build_parabolic, rho_vectors
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
    """x as a "p/q" string in lowest terms; a float raises InvariantViolation."""
    x = exact(x)
    return f"{x.numerator}/{x.denominator}"


def dec_q(s):
    """An input rational, in normal form: an int when integral."""
    if type(s) is int:
        return s
    if isinstance(s, str):
        try:
            return exact(Fraction(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputInvalid(f"bad rational {s!r}: {exc}") from None
    raise InputInvalid(f"bad rational {s!r}")


def enc_vec(v):
    return [enc_q(x) for x in v]


def dec_vec(v):
    return [dec_q(x) for x in v]


class ProblemInput:
    __slots__ = ("algebra", "generators", "cartan_t", "max_coeff", "max_scale",
                 "max_height", "seed", "cond2_cap", "dim_cap")

    def __init__(self, algebra: str, generators: list, cartan_t: list, max_coeff: int,
                 max_scale: int, max_height: int, seed: int, cond2_cap: int, dim_cap: int):
        self.algebra = algebra
        self.generators = generators  # coordinate vectors in the ambient Chevalley basis
        self.cartan_t = cartan_t
        self.max_coeff, self.max_scale, self.max_height = max_coeff, max_scale, max_height
        self.seed, self.cond2_cap, self.dim_cap = seed, cond2_cap, dim_cap


def parse_input(data: dict) -> ProblemInput:
    _check_schema(data)
    try:
        ctype = CartanType.parse(data["algebra"])
    except GhcError as exc:
        raise InputInvalid(str(exc))
    # dim g in closed form: a malformed input naming a large type is refused
    # before its algebra is built
    dim = ctype.dim
    gens = [dec_vec(v) for v in data["subalgebra_generators"]]
    t_rows = [dec_vec(v) for v in data["cartan_t"]]
    for v in gens + t_rows:
        if len(v) != dim:
            raise InputInvalid(f"vector length {len(v)} != dim g = {dim} for {ctype}")
    search = data.get("search", {})
    caps = search.get("caps", {})
    return ProblemInput(
        algebra=str(ctype),
        generators=gens,
        cartan_t=t_rows,
        max_coeff=search.get("max_coeff", genericity.DEFAULT_MAX_COEFF),
        max_scale=search.get("max_scale", genericity.DEFAULT_MAX_SCALE),
        max_height=search.get("max_height", DEFAULT_MAX_HEIGHT),
        seed=search.get("seed", 0),
        cond2_cap=caps.get("cond2", genericity.DEFAULT_COND2_CAP),
        dim_cap=caps.get("dim", DEFAULT_DIM_CAP),
    )


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def input_hash(data: dict) -> str:
    return sha256(canonical_json(data).encode()).hexdigest()


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except GhcError as exc:
        raise PipelineError(name, exc) from exc


class Front:
    """The pipeline before any witness choice. `L` and `emb` hold g, k and t
    after closure and the reductivity check; when k is not an ideal, they
    are taken after splitting off the simple ideals of g that k contains."""

    __slots__ = ("pin", "L", "emb", "ideal", "reduction")

    def __init__(self, pin: ProblemInput, L: LieAlgebra, emb: EmbeddedSubalgebra,
                 ideal: bool, reduction: Reduction | None = None):
        self.pin, self.L, self.emb = pin, L, emb
        self.ideal, self.reduction = ideal, reduction


def front(pin: ProblemInput) -> Front:
    """Shared front of the pipeline: algebra, closure and reductivity check
    (each run once, inside make_embedding), the ideal test and the reduction."""
    L = build_algebra(pin.algebra)
    emb = _stage("make_embedding", make_embedding, L, pin.generators, pin.cartan_t)
    report = emb.checks
    if not report.passed:
        raise InputInvalid(
            "subalgebra is not reductive in g "
            f"(closed={report.bracket_closed}, killing={report.killing_nondegenerate_on_k}, "
            f"toral={report.toral_action_semisimple})"
        )
    if _stage("is_ideal", is_ideal, L, emb.k):
        return Front(pin, L, emb, ideal=True)
    reduction = _stage(
        "split_off_contained_ideals", split_off_contained_ideals, L, emb.k, emb.t
    )
    if reduction is not None:
        # k ∩ rest is a subalgebra and the split checks hold, so the
        # reduced pair keeps the checks of the full input
        L = reduction.algebra
        grading = _stage("t_grading", t_grading, L, reduction.k, reduction.t)
        emb = EmbeddedSubalgebra(reduction.k, reduction.t, emb.checks, grading)
    return Front(pin, L, emb, ideal=False, reduction=reduction)


def _adapted(fr: Front, coeffs=None):
    """(reg, pd, borel) at h = sum coeffs[i] t_i or, when coeffs is None, at
    the h that choose_regular finds: the one place where h is picked."""
    if coeffs is None:
        reg = _stage("choose_regular", choose_regular, fr.L, fr.emb,
                     seed=fr.pin.seed, max_height=fr.pin.max_height)
    else:
        reg = regular_from_coeffs(fr.L, fr.emb, coeffs)
        if reg is None:
            raise NoRegularFound("$.witness.t_coeffs: h is not regular")
    pd = _stage("build_parabolic", build_parabolic, fr.L, fr.emb, reg)
    return reg, pd, build_borel(fr.L, [reg.h[i] for i in range(fr.L.rank)])


def adapted_borel(pin: ProblemInput):
    """The front up to the Borel adapted to the searched regular element, as
    the `kostant` and `oracle-compare` commands use it: (front, reg, pd, borel)."""
    fr = front(pin)
    if fr.ideal:
        raise InputInvalid("k is an ideal of g, so no witness Borel is adapted to it")
    return (fr, *_adapted(fr))


class Witness:
    """The witness choices, `reg.t_coeffs` and `nu`, with what they determine."""

    __slots__ = ("reg", "pd", "rv", "borel", "nu", "greport")

    def __init__(self, reg: RegularElement, pd: ParabolicData, rv: RhoVectors,
                 borel: BorelData, nu: Weight, greport: GenericityReport):
        self.reg, self.pd, self.rv, self.borel = reg, pd, rv, borel
        self.nu, self.greport = nu, greport


def _witness(fr: Front, coeffs=None, nu: Weight | None = None) -> Witness:
    """The witness at h = sum coeffs[i] t_i, or choose_regular's h, and at
    nu, or find_generic_nu's first generic nu.  r = 0 (exit 2), then
    condition (2)'s cap and Kostant's coset count (exit 4) are refused
    first: none depends on h.  r is the t-grading's (`TGrading`), and so is
    m = g_0, whose roots are those of t-weight 0; so W_m and the walk's
    length min(r, dim n - r) are known before h is chosen."""
    L, emb, pin = fr.L, fr.emb, fr.pin
    grading = emb.grading
    if grading.r == 0:
        raise PipelineError("t_grading", InputInvalid("r = dim(n ∩ k_perp) is zero"))
    _stage("check_cond2_cap", genericity.check_cond2_cap, grading, pin.cond2_cap,
           equal_rank=emb.t.dim == L.rank)
    zero = grading.blocks[(0,) * emb.t.dim]
    dim_n = (L.dim - len(zero)) // 2
    m_roots = [L.basis[i][1] for i in zero if L.basis[i][0] == "e"]
    _stage("check_coset_cap", check_coset_cap, L.rs, m_roots, min(grading.r, dim_n - grading.r))
    reg, pd, borel = _adapted(fr, coeffs)
    rv = _stage("rho_vectors", rho_vectors, L, emb, pd)
    form = _stage("induced_form_on_tstar", induced_form_on_tstar, L, emb)
    if nu is None:
        nu, greport = _stage(
            "find_generic_nu",
            find_generic_nu,
            L, emb, pd, rv, borel, form,
            max_coeff=pin.max_coeff,
            max_scale=pin.max_scale,
        )
    else:
        greport = _stage("evaluate_genericity", evaluate_genericity, L, emb, pd, rv, form, nu)
    return Witness(reg, pd, rv, borel, nu, greport)


def search(fr: Front) -> Witness | None:
    """The witness choices by deterministic bounded search: h by
    choose_regular, nu by find_generic_nu. None when k is an ideal (there is
    nothing to choose) or when the search gives up (`Inconclusive`)."""
    if fr.ideal:
        return None
    try:
        return _witness(fr)
    except PipelineError as exc:
        if isinstance(exc.cause, GenericNuNotFound):
            return None
        raise


def derive(fr: Front, raw_input: dict, witness: Witness | None,
           oracle_check: bool = False) -> dict:
    """The certificate that the input and the witness choices determine.

    Without a witness it is `IdealNoModule` when k is an ideal and
    `Inconclusive` otherwise. Raises when the witness proves nothing."""
    cert = {
        "tool_version": TOOL_VERSION,
        "input_hash": input_hash(raw_input),
        "verdict": None,
        "reduction": None,
        "ideal": None,
        "witness": None,
    }
    L, emb = fr.L, fr.emb
    if fr.ideal:
        # k is a sum of simple ideals, and distinct simple ideals are
        # Killing-orthogonal, so k_perp is the sum of the others: their
        # basis vectors, in basis order
        comp = sorted(
            i for ideal in L.simple_ideal_subspaces()
            if not emb.k.contains_subspace(ideal) for i in ideal.pivot_rows
        )
        cert["verdict"] = {"kind": "IdealNoModule", "reason": None}
        cert["ideal"] = {
            "complement_dim": len(comp),
            "complement_basis": [enc_vec(L.basis_vector(L.basis[i])) for i in comp],
        }
        return cert
    if fr.reduction is not None:
        cert["reduction"] = {
            "removed_factors": list(fr.reduction.removed_factors),
            "reduced_algebra": str(L.ctype),
        }
    if witness is None:
        cert["verdict"] = {"kind": "Inconclusive", "reason": "search bounds exhausted"}
        return cert

    w = witness
    reg, pd, rv, borel, nu, greport = w.reg, w.pd, w.rv, w.borel, w.nu, w.greport
    if not greport.passed:
        raise PipelineError(
            "evaluate_genericity", InvariantViolation(f"nu = {enc_vec(nu.coords)} is not generic")
        )
    dec = _stage("kostant_cohomology", kostant_cohomology, L, borel, nu, pd.r)
    if not dec.omits(nu):
        raise PipelineError(
            "verify_vanishing", InvariantViolation("vanishing fails on generic nu")
        )
    oracle_match = None
    if oracle_check:
        rep = _stage(
            "compare_kostant_vs_oracle",
            compare_kostant_vs_oracle,
            L, borel, nu, [dec], dim_cap=fr.pin.dim_cap,
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
        "mu": enc_vec(greport.mu.coords),
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
            "holds": True,
            "gammas": [enc_vec(g.coords) for g in dec.summands],
        },
        "oracle_checked": bool(oracle_check),
        "oracle_match": oracle_match,
    }
    return cert


def certify(pin: ProblemInput, raw_input: dict, oracle_check: bool = False) -> dict:
    fr = front(pin)
    return derive(fr, raw_input, search(fr), oracle_check)


# -- verification by re-derivation ---------------------------------------

_VERDICTS = ("ExistsWitness", "IdealNoModule", "Inconclusive")
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean"}


def _malformed(path, reason):
    return InputInvalid(f"{path}: {reason}")


def _field(obj, path, key, kind):
    if not isinstance(obj, dict):
        raise _malformed(path, "not an object")
    if key not in obj:
        raise _malformed(path, f"missing key {key!r}")
    if type(obj[key]) is not kind:
        raise _malformed(f"{path}.{key}", f"not {_JSON_TYPES[kind]}")
    return obj[key]


def _rationals(obj, path, key, n):
    """The n rationals at obj[key], each a "p/q" string in lowest terms."""
    strings = _field(obj, path, key, list)
    if len(strings) != n:
        raise _malformed(f"{path}.{key}", f"{len(strings)} entries, expected {n}")
    out = []
    for i, s in enumerate(strings):
        try:
            x = Fraction(s) if type(s) is str else None
        except (ValueError, ZeroDivisionError):
            x = None
        if x is None or enc_q(x) != s:
            raise _malformed(f"{path}.{key}[{i}]", f'{s!r} is not a "p/q" string in lowest terms')
        out.append(exact(x))
    return out


def _recorded_witness(fr: Front, cert):
    """(witness, oracle_check) from the choices that `cert` records. A
    certificate without witness choices gets the search run again."""
    kind = _field(_field(cert, "$", "verdict", dict), "$.verdict", "kind", str)
    if kind not in _VERDICTS:
        raise _malformed("$.verdict.kind", f"{kind!r} is not a verdict")
    if kind != "ExistsWitness" or fr.ideal:
        return search(fr), False
    w = _field(cert, "$", "witness", dict)
    coeffs = _rationals(w, "$.witness", "t_coeffs", fr.emb.t.dim)
    nu = Weight("g", tuple(_rationals(w, "$.witness", "nu", fr.L.rank)))
    oracle_check = _field(w, "$.witness", "oracle_checked", bool)
    return _witness(fr, coeffs, nu), oracle_check


def _differing_paths(got, want, path="$"):
    """The JSON paths at which `got` differs from `want`."""
    if isinstance(got, dict) and isinstance(want, dict):
        return [
            p
            for key in sorted(got.keys() | want.keys())
            for p in (
                _differing_paths(got[key], want[key], f"{path}.{key}")
                if key in got and key in want
                else [f"{path}.{key}"]
            )
        ]
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        return [
            p
            for i, (a, b) in enumerate(zip(got, want))
            for p in _differing_paths(a, b, f"{path}[{i}]")
        ]
    return [] if type(got) is type(want) and got == want else [path]


def verify_certificate(cert: dict, raw_input: dict):
    """Derive the certificate again from the input and the witness choices
    that `cert` records, and compare the two byte for byte.

    Returns (ok, reasons). A rejection names each JSON path at which `cert`
    differs from the derived certificate, or says why its choices cannot be
    read or prove nothing. Only a failing input raises: one that does not
    parse, or whose subalgebra is not reductive."""
    fr = front(parse_input(raw_input))
    try:
        # choices made for another input are not worth deriving from
        if _field(cert, "$", "input_hash", str) != input_hash(raw_input):
            return False, ["$.input_hash"]
        ours = derive(fr, raw_input, *_recorded_witness(fr, cert))
    except GhcError as exc:
        return False, [str(exc)]
    if canonical_json(cert) == canonical_json(ours):
        return True, []
    return False, _differing_paths(cert, ours)
