"""Acceptance suite: each test maps to one numbered criterion of the
project contract and runs at desk scale with exact arithmetic."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ghcert.algebra import build_algebra
from ghcert.borel import build_borel
from ghcert.certify import canonical_json, certify, parse_input
from ghcert.cli import main
from ghcert.genericity import TStarForm, check_condition_2
from ghcert.kostant import kostant_cohomology, verify_vanishing
from ghcert.oracle import ce_cohomology, check_module_relations, construct_module
from ghcert.weights import Weight

from conftest import (
    CASES,
    ORACLE_CASES,
    assert_condition_2_matches_brute_force,
    borel_from_case,
    compare_at,
    fraction_det,
    killing,
)

F = Fraction


def w(*coords):
    return Weight("g", tuple(F(x) for x in coords))


# -- criterion 1: structure-constant integrity ---------------------------


@pytest.mark.parametrize("ctype", ["A1", "A2", "B2", "G2", "A1xA1"])
def test_criterion_1_structure_constants(ctype):
    L = build_algebra(ctype)
    vecs = [L.basis_vector(lab) for lab in L.basis]
    for i in range(L.dim):
        for j in range(i, L.dim):
            ab = L.bracket(vecs[i], vecs[j])
            assert ab == [-x for x in L.bracket(vecs[j], vecs[i])]
    for i, j, k in itertools.combinations(range(L.dim), 3):
        x, y, z = vecs[i], vecs[j], vecs[k]
        total = [
            a + b + c
            for a, b, c in zip(
                L.bracket(x, L.bracket(y, z)),
                L.bracket(y, L.bracket(z, x)),
                L.bracket(z, L.bracket(x, y)),
            )
        ]
        assert all(v == 0 for v in total)
    for i, j, k in itertools.product(range(L.dim), repeat=3):
        x, y, z = vecs[i], vecs[j], vecs[k]
        assert killing(L, L.bracket(x, y), z) == killing(L, x, L.bracket(y, z))
    assert fraction_det(L.killing_matrix) != 0


# -- criteria 2 + 3: Kostant vs oracle, Euler identity -------------------


@pytest.mark.parametrize("case,nu,degrees", ORACLE_CASES)
def test_criterion_2_kostant_oracle_agreement(case, nu, degrees):
    L, emb, reg, pd, borel = borel_from_case(CASES[case])
    rep = compare_at(L, borel, w(*nu), degrees)
    assert rep.match_with_kostant, rep.diff
    if case == "a2_torus":
        counts = [sum(m for _, m in rep.m_decompositions[r]) for r in degrees]
        assert counts == [1, 2, 2, 1]  # [DERIVED] Weyl length histogram


def test_criterion_2_principal_witness_degree():
    raw = CASES["a2_principal"]
    cert = certify(parse_input(raw), raw)
    nu = Weight("g", tuple(F(x) for x in map(Fraction, cert["witness"]["nu"])))
    L, emb, reg, pd, borel = borel_from_case(raw)
    assert pd.r == 2
    rep = compare_at(L, borel, nu, [pd.r])
    assert rep.match_with_kostant


@pytest.mark.parametrize("case,nu,degrees", ORACLE_CASES)
def test_criterion_3_euler_identity(case, nu, degrees):
    """Per weight w, sum_q (-1)^q dim H^q_w = sum_q (-1)^q dim C^q_w, with
    dim C^q_w counted from the module's weights and n's roots: the sum over
    q-subsets S of n's roots of mult_W(w + sum_{alpha in S} alpha)."""
    L, emb, reg, pd, borel = borel_from_case(CASES[case])
    W = construct_module(L, borel, w(*nu))
    coh = ce_cohomology(L, borel, W)
    mult = Counter(x.coords for x in W.weight_of_basis)
    n_roots = [L.rs.root_to_weight(c) for c in borel.pos_roots if c not in borel.m_pos_roots]
    R = len(n_roots)
    shifts = [
        [tuple(map(sum, zip(*S))) if S else (0,) * L.rank
         for S in itertools.combinations(n_roots, q)]
        for q in range(R + 1)
    ]
    weights = {
        tuple(x - y for x, y in zip(mu, s)) for mu in mult for sq in shifts for s in sq
    }
    assert set(coh) == set(range(R + 1))
    assert {wt for q in coh for wt in coh[q]} <= weights
    for wt in weights:
        lhs = sum((-1) ** q * coh[q].get(wt, 0) for q in range(R + 1))
        rhs = sum(
            (-1) ** q * mult[tuple(x + y for x, y in zip(wt, s))]
            for q in range(R + 1)
            for s in shifts[q]
        )
        assert lhs == rhs


# -- criterion 4: theorem dichotomy on the suite -------------------------


def test_criterion_4_dichotomy(write_input, tmp_path):
    expected = {
        "a1a1_factor": "IdealNoModule",
        "a1_t": "ExistsWitness",
        "a2_torus": "ExistsWitness",
        "a2_principal": "ExistsWitness",
        "b2_sl2": "ExistsWitness",
    }
    for name, verdict in expected.items():
        raw = CASES[name]
        cert = certify(parse_input(raw), raw)
        assert cert["verdict"]["kind"] == verdict, name
        if verdict == "ExistsWitness":
            assert cert["witness"]["dims"]["r"] > 0
            g = cert["witness"]["genericity"]
            assert g["integral"] and g["dominant"]
            assert g["cond1_ok"] and g["cond2_ok"]
        # re-verified through the CLI
        inp = write_input(f"{name}.json", raw)
        out = str(tmp_path / f"{name}.report.json")
        assert main(["certify", inp, "--out", out]) == 0
        assert main(["verify", out, inp]) == 0


# -- criterion 5: vanishing at r, non-vanishing at 0 ---------------------


@pytest.mark.parametrize(
    "case", ["a1_t", "a2_torus", "a2_principal", "b2_sl2"]
)
def test_criterion_5_vanishing(case):
    raw = CASES[case]
    cert = certify(parse_input(raw), raw)
    nu = Weight(
        "g", tuple(Fraction(x) for x in cert["witness"]["nu"])
    )
    r = cert["witness"]["dims"]["r"]
    L, emb, reg, pd, borel = borel_from_case(raw)
    assert verify_vanishing(L, borel, nu, r)
    assert not verify_vanishing(L, borel, nu, 0)
    dec0 = kostant_cohomology(L, borel, nu, 0)
    assert [g.coords for g in dec0.summands] == [nu.coords]


# -- criterion 6: condition-(2) engine ----------------------------------


def test_criterion_6_condition_2_vs_brute_force_200():
    rng = random.Random(2024)
    ran = 0
    while ran < 200:
        dim = rng.randint(1, 2)
        a = [[F(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
        g = [
            [sum(a[i][k] * a[j][k] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]
        if fraction_det(g) == 0 or any(
            fraction_det([row[: k + 1] for row in g[: k + 1]]) <= 0 for k in range(dim)
        ):
            continue
        form = TStarForm(g)
        S = {}
        total = 0
        target = rng.randint(1, 12)
        while total < target:
            wt = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
            if all(x == 0 for x in wt):
                continue
            m = rng.randint(1, 3)
            S[wt] = S.get(wt, 0) + m
            total += m
        mu = Weight("t", tuple(F(rng.randint(-6, 6)) for _ in range(dim)))
        rho = Weight("t", tuple(F(rng.randint(-4, 4), 2) for _ in range(dim)))
        ex = check_condition_2(form, mu, rho, S)
        assert_condition_2_matches_brute_force(ex, form, mu, rho, S)
        ran += 1


# -- criterion 7: module construction soundness --------------------------


CRITERION_7_WEIGHTS = [
    ("A1", (0,)), ("A1", (2,)), ("A1", (5,)),
    ("A2", (1, 0)), ("A2", (0, 1)), ("A2", (1, 1)), ("A2", (2, 0)),
    ("B2", (1, 0)), ("B2", (0, 1)), ("B2", (1, 1)),
]


@pytest.mark.parametrize("ctype,nu", CRITERION_7_WEIGHTS)
def test_criterion_7_module_soundness(ctype, nu):
    L = build_algebra(ctype)
    borel = build_borel(L, [F(1)] * L.rank)
    lam = w(*nu)
    W = construct_module(L, borel, lam)
    assert W.dim == L.rs.weyl_dimension(lam.coords, borel.pos_roots, borel.rho.coords)
    assert check_module_relations(L, W)


# -- criterion 8: reproducibility ---------------------------------------


def test_criterion_8_reproducibility(write_input, tmp_path):
    raw = json.loads(json.dumps(CASES["a2_principal"]))
    raw["search"] = {"seed": 0}
    inp = write_input("in.json", raw)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["certify", inp, "--out", out1]) == 0
    assert main(["certify", inp, "--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()

    cert = json.loads(Path(out1).read_text())
    assert main(["verify", out1, inp]) == 0

    def tampered(mutate):
        c = json.loads(canonical_json(cert))
        mutate(c)
        p = tmp_path / "mut.json"
        p.write_text(json.dumps(c))
        return str(p)

    mutants = [
        lambda c: c["witness"]["dims"].update(r=5),
        lambda c: c["witness"].update(nu=["3/1", "0/1"]),
        lambda c: c["witness"].update(mu=["-4/1"]),
        lambda c: c["witness"].update(t_coeffs=["0/1"]),
        lambda c: c["verdict"].update(kind="IdealNoModule"),
    ]
    for mutate in mutants:
        assert main(["verify", tampered(mutate), inp]) != 0
