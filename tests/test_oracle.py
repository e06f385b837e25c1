import functools
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcert import oracle
from ghcert.algebra import build_algebra
from ghcert.borel import build_borel
from ghcert.errors import (
    ComplexInconsistent,
    DimCapExceeded,
    InvariantViolation,
    NonDominant,
    NotAnMCharacter,
)
from ghcert.linalg import Echelon
from ghcert.oracle import (
    ce_cohomology,
    check_module_relations,
    construct_module,
    decompose_as_m_module,
)
from ghcert.weights import Weight

from conftest import (
    CASES,
    ORACLE_CASES,
    borel_from_case,
    compare_at,
    fraction_rref,
    fraction_weyl_dimension,
    weight_to_root_coords,
    weyl_act,
)

F = Fraction


def w(*coords):
    return Weight("g", tuple(F(x) for x in coords))


def std_borel(ctype):
    L = build_algebra(ctype)
    return L, build_borel(L, [F(1)] * L.rank)


def test_sl2_string():
    L, borel = std_borel("A1")
    W = construct_module(L, borel, w(3))
    assert W.dim == 4  # [TRIVIAL] sl2 string of highest weight 3
    eigs = sorted(x.coords[0] for x in W.weight_of_basis)
    assert eigs == [F(-3), F(-1), F(1), F(3)]


def test_a2_defining_and_adjoint():
    L, borel = std_borel("A2")
    assert construct_module(L, borel, w(1, 0)).dim == 3  # [TRIVIAL] defining rep
    W = construct_module(L, borel, w(1, 1))
    assert W.dim == 8  # [TRIVIAL] adjoint rep
    wts = Counter(x.coords for x in W.weight_of_basis)
    assert wts[(F(0), F(0))] == 2  # adjoint: Cartan plus the six roots
    assert sum(wts.values()) == 8


# criterion-7 style sweep: ten dominant weights across three types
DIM_CASES = [
    ("A1", (0,)), ("A1", (1,)), ("A1", (4,)),
    ("A2", (1, 0)), ("A2", (0, 2)), ("A2", (1, 1)), ("A2", (2, 1)),
    ("B2", (1, 0)), ("B2", (0, 1)), ("B2", (1, 1)),
]


@pytest.mark.parametrize("ctype,nu", DIM_CASES)
def test_dimension_matches_weyl_formula(ctype, nu):
    L, borel = std_borel(ctype)
    lam = w(*nu)
    W = construct_module(L, borel, lam)
    assert W.dim == L.rs.weyl_dimension(lam.coords, borel.pos_roots, borel.rho.coords)
    assert check_module_relations(L, W)


def test_highest_weight_vector_annihilated():
    L, borel = std_borel("A2")
    W = construct_module(L, borel, w(1, 1))
    hw = [i for i, x in enumerate(W.weight_of_basis) if x.coords == (F(1), F(1))]
    assert len(hw) == 1
    col = hw[0]
    for c in L.rs.positive_roots:
        assert W.action(("e", c))[col] == {}


def test_nondominant_rejected():
    L, borel = std_borel("A2")
    with pytest.raises(NonDominant):
        construct_module(L, borel, w(-1, 0))


def test_dim_cap():
    L, borel = std_borel("A2")
    with pytest.raises(DimCapExceeded):
        construct_module(L, borel, w(3, 3), dim_cap=10)


def test_ce_trivial_coefficients_a1():
    L, borel = std_borel("A1")
    W = construct_module(L, borel, w(0))
    coh = ce_cohomology(L, borel, W)
    assert coh[0] == {(F(0),): 1}  # [TRIVIAL] invariants of the trivial module
    assert coh[1] == {(F(-2),): 1}  # [DERIVED] H^1(n, C) = n* of weight -alpha


def test_ce_borel_histogram_a2():
    L, borel = std_borel("A2")
    W = construct_module(L, borel, w(0, 0))
    coh = ce_cohomology(L, borel, W)
    # [DERIVED] matches the Weyl length histogram degree by degree
    assert [sum(coh[q].values()) for q in range(4)] == [1, 2, 2, 1]


def test_h0_is_the_highest_weight_line():
    L, borel = std_borel("A2")
    W = construct_module(L, borel, w(1, 1))
    coh = ce_cohomology(L, borel, W)
    assert coh[0] == {(F(1), F(1)): 1}


def test_decompose_single_irreducible():
    L = build_algebra("A2")
    borel = build_borel(L, [F(1), F(-1)])  # m = sl2 along alpha1+alpha2
    # character of the 3-dim m-module with highest weight (1,1)
    char = {(F(1), F(1)): 1, (F(0), F(0)): 1, (F(-1), F(-1)): 1}
    assert decompose_as_m_module(L, borel, char) == [((F(1), F(1)), 1)]


def test_decompose_abelian_m_is_weight_list():
    L, borel = std_borel("A2")
    char = {(F(1), F(0)): 2, (F(0), F(3)): 1}
    out = dict(decompose_as_m_module(L, borel, char))
    assert out == {(F(1), F(0)): 2, (F(0), F(3)): 1}


def test_decompose_rejects_non_character():
    L = build_algebra("A2")
    borel = build_borel(L, [F(1), F(-1)])
    with pytest.raises(NotAnMCharacter):
        decompose_as_m_module(L, borel, {(F(1), F(1)): 1})


@pytest.mark.parametrize(
    "ctype,lam1,lam2",
    [("A2", (1, 0), (1, 1)), ("B2", (0, 1), (1, 1)), ("G2", (1, 0), (0, 1)),
     # rank 3 with zero coordinates: of the shifted weights mu + rho, many lie
     # on walls and some take three reflections to reach the chamber
     ("A3", (2, 0, 2), (0, 1, 0)), ("B3", (0, 0, 2), (0, 2, 0)),
     ("C3", (1, 0, 1), (0, 0, 2))],
)
def test_decompose_sum_of_g_characters(ctype, lam1, lam2):
    L = build_algebra(ctype)
    m_is_g = build_borel(L, [F(0)] * L.rank)
    regular = build_borel(L, [F(5**i) for i in range(L.rank)])
    assert regular.m_pos_roots == ()
    char = Counter()
    for lam, mult in ((lam1, 1), (lam2, 2)):
        W = construct_module(L, regular, regular.apply_wb(w(*lam)))
        for x in W.weight_of_basis:
            char[x.coords] += mult
    assert decompose_as_m_module(L, m_is_g, char) == sorted(
        [(w(*lam1).coords, 1), (w(*lam2).coords, 2)]
    )


def test_decompose_rejects_negative_multiplicity():
    # invariant under the Weyl group of sl2, but ch V(2) - ch V(0)
    L = build_algebra("A1")
    with pytest.raises(NotAnMCharacter):
        decompose_as_m_module(
            L, build_borel(L, [F(0)]), {(F(2),): 1, (F(-2),): 1}
        )


def test_compare_matches_on_nonabelian_levi():
    L = build_algebra("A2")
    borel = build_borel(L, [F(1), F(-1)])
    nu = borel.apply_wb(w(1, 1))
    rep = compare_at(L, borel, nu, range(3))
    assert rep.match_with_kostant
    assert rep.diff == {}


def test_compare_b2_nonabelian_levi():
    L = build_algebra("B2")
    borel = build_borel(L, [F(1), F(0)])
    nu = borel.apply_wb(w(1, 0))
    rep = compare_at(L, borel, nu, range(4))
    assert rep.match_with_kostant


# -- the weight-blocked complex against a dense reference ---------------


def n_labels(L, n_roots):
    return [
        ("e", c) if c in L.rs.root_index else ("f", tuple(-x for x in c))
        for c in n_roots
    ]


def dense_differentials(L, W, n_roots):
    """Full matrices of d_q on the basis (S, m), S running over the
    q-subsets of n's basis in lexicographic order and m over W's basis."""
    R = len(n_roots)
    labels = n_labels(L, n_roots)
    act = [W.action(lab) for lab in labels]
    nbrack = {}
    for a, b in itertools.combinations(range(R), 2):
        z = L.bracket(L.basis_vector(labels[a]), L.basis_vector(labels[b]))
        comp = {k: z[L.index[labels[k]]] for k in range(R)}
        nbrack[(a, b)] = {k: c for k, c in comp.items() if c != 0}
    bases = [
        [(S, m) for S in itertools.combinations(range(R), q) for m in range(W.dim)]
        for q in range(R + 1)
    ]
    index = [{bm: i for i, bm in enumerate(bq)} for bq in bases]
    out = []
    for q in range(R):
        d = [[F(0)] * len(bases[q]) for _ in bases[q + 1]]
        for col, (S, m) in enumerate(bases[q]):
            for k in range(R):
                if k in S:
                    continue
                T = tuple(sorted(S + (k,)))
                for r in range(W.dim):
                    d[index[q + 1][(T, r)]][col] += (
                        (-1) ** T.index(k) * act[k][m].get(r, 0)
                    )
            for k in S:
                rest = tuple(x for x in S if x != k)
                sgn_k = (-1) ** sum(1 for x in rest if x < k)
                for (a, b), comp in nbrack.items():
                    if k not in comp or a in rest or b in rest:
                        continue
                    T = tuple(sorted(rest + (a, b)))
                    sgn = (-1) ** (T.index(a) + T.index(b)) * sgn_k
                    d[index[q + 1][(T, m)]][col] += sgn * comp[k]
        out.append(d)
    return bases, out


def cochain_weight(L, W, n_roots, S, m):
    """wt(m) - sum_{k in S} alpha_k, in fundamental coordinates."""
    return tuple(
        x - sum(L.rs.root_to_weight(n_roots[k])[i] for k in S)
        for i, x in enumerate(W.weight_of_basis[m].coords)
    )


@pytest.mark.parametrize("case,nu", [("b2_sl2", (2, -1)), ("g2_sl2", (-1, 1))])
def test_blocked_differentials_match_dense_reference(case, nu):
    """The weight blocks split the dense basis by weight, and their columns
    are D times the dense differentials, D the least common denominator of
    n's action columns."""
    L, _, _, _, borel = borel_from_case(CASES[case])
    W = construct_module(L, borel, w(*nu))
    n_roots = oracle._n_roots(borel)
    bases, dense = dense_differentials(L, W, n_roots)
    index = [{cell: i for i, cell in enumerate(bq)} for bq in bases]
    entries = [c for lab in n_labels(L, n_roots) for col in W.action(lab)
               for c in col.values()]
    D = math.lcm(*(F(c).denominator for c in entries))
    seen = [[] for _ in bases]
    blocked = [{} for _ in dense]
    for wt, cells, columns in oracle._weight_blocks(L, borel, W):
        for q, cq in enumerate(cells):
            assert cq == sorted(cq)
            assert all(cochain_weight(L, W, n_roots, S, m) == wt for S, m in cq)
            seen[q].extend(cq)
        for q, cols in enumerate(columns):
            assert len(cols) == len(cells[q])
            for cell, col in zip(cells[q], cols):
                for row, c in col.items():
                    blocked[q][(index[q + 1][cells[q + 1][row]], index[q][cell])] = c
    assert [sorted(sq) for sq in seen] == bases
    for q, d in enumerate(dense):
        expected = {
            (row, col): D * c
            for row, line in enumerate(d)
            for col, c in enumerate(line)
            if c != 0
        }
        assert expected  # every d_q of these complexes is nonzero
        assert blocked[q] == expected


@pytest.mark.parametrize("case,nu,degrees", ORACLE_CASES)
def test_ce_cohomology_matches_dense_fraction_ranks(case, nu, degrees):
    """h^q_w = dim C^q_w - rank d_q - rank d_(q-1), the ranks those of the
    dense reference's weight-w blocks, taken in Fractions."""
    L, _, _, _, borel = borel_from_case(CASES[case])
    W = construct_module(L, borel, w(*nu))
    n_roots = oracle._n_roots(borel)
    bases, dense = dense_differentials(L, W, n_roots)
    by_weight = [{} for _ in bases]  # per degree: weight -> dense indices
    for q, bq in enumerate(bases):
        for i, (S, m) in enumerate(bq):
            by_weight[q].setdefault(cochain_weight(L, W, n_roots, S, m), []).append(i)

    def rank(q, wt):
        if not 0 <= q < len(dense):
            return 0
        cols = by_weight[q].get(wt, [])
        sub = [[dense[q][r][c] for c in cols] for r in by_weight[q + 1].get(wt, [])]
        return len(fraction_rref(sub)[1])

    expected = {}
    for q, blocks in enumerate(by_weight):
        expected[q] = {}
        for wt, cells in blocks.items():
            h = len(cells) - rank(q, wt) - rank(q - 1, wt)
            if h:
                expected[q][wt] = h
    assert ce_cohomology(L, borel, W) == expected


def test_tampered_action_breaks_d_squared():
    L, _, _, _, borel = borel_from_case(CASES["b2_sl2"])
    W = construct_module(L, borel, w(2, -1))
    cols = W.action(n_labels(L, oracle._n_roots(borel))[0])
    col, row = next((c, r) for c in range(W.dim) for r in cols[c])
    cols[col][row] *= 2  # still weight-preserving, no longer a representation
    with pytest.raises(ComplexInconsistent, match="d compose d"):
        ce_cohomology(L, borel, W)


def test_action_across_weights_is_rejected():
    L, _, _, _, borel = borel_from_case(CASES["b2_sl2"])
    W = construct_module(L, borel, w(2, -1))
    # a root vector cannot map a weight vector to itself
    W.action(n_labels(L, oracle._n_roots(borel))[0])[0][0] = F(1)
    with pytest.raises(ComplexInconsistent, match="mixes weights"):
        ce_cohomology(L, borel, W)


def test_oracle_phases_tool_runs_request_0():
    """`tools/oracle_phases.py` times the oracle phase by phase; a smoke run
    on the first `oracle_ladder` request keeps it in step with the oracle."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / "oracle_phases.py"), "0"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    row = json.loads(proc.stdout)
    assert row["match"] is True
    assert row["cochain_dim"] == 2 ** 3 * row["module_dim"]  # b2_sl2: dim n = 3


# -- the lazy sparse action ---------------------------------------------


def test_oracle_builds_only_the_n_columns(monkeypatch):
    L, _, _, _, borel = borel_from_case(CASES["b2_sl2"])
    built, eager = [], []
    construct = oracle.construct_module

    def spy(*args, **kwargs):
        W = construct(*args, **kwargs)
        eager.extend(W._columns)
        build = W._build_columns

        def record(label):
            built.append(label)
            return build(label)

        W._build_columns = record
        return W

    monkeypatch.setattr(oracle, "construct_module", spy)
    rep = compare_at(L, borel, w(2, -1), range(5))
    assert rep.match_with_kostant
    simple = borel.simple_roots
    # the simple root vectors' columns come with the module, both signs
    assert sorted(eager) == sorted(
        n_labels(L, simple) + n_labels(L, [tuple(-x for x in c) for c in simple])
    )
    # every other n column once, through b-positive columns only: no
    # Cartan column, no b-negative one, none twice
    n = set(n_labels(L, oracle._n_roots(borel)))
    positive = set(n_labels(L, borel.pos_roots))
    assert len(built) == len(set(built))
    assert n - set(eager) <= set(built) <= positive - set(eager)
    assert n - set(eager)  # some n column is not simple
    assert len(n) < L.dim - L.rank


def test_n_column_leaving_the_module_is_rejected(monkeypatch):
    """A simple column, the first or the last f_i column with a term, gets
    a term on the highest-weight vector, off its weight.  The e-images
    below read it, and the module grows past the Weyl dimension.  A
    dependent candidate's coordinates are the marks of its remainder, each
    basis vector j marked in key aug + j past every e-image key."""
    L, _, _, _, borel = borel_from_case(CASES["b2_sl2"])
    aug = construct_module(L, borel, w(2, -1)).dim * len(borel.simple_roots)
    reduce = Echelon.reduce
    combinations = []

    def record(self, vec):
        rem = reduce(self, vec)
        if rem and min(rem) >= aug:
            combinations.append({k: x for k, x in rem.items() if k != max(vec)})
        return rem

    monkeypatch.setattr(Echelon, "reduce", record)
    construct_module(L, borel, w(2, -1))
    nonempty = [i for i, comb in enumerate(combinations) if comb]
    for target in (nonempty[0], nonempty[-1]):
        calls = []

        def corrupt_one(self, vec):
            rem = reduce(self, vec)
            if rem and min(rem) >= aug:
                if len(calls) == target:
                    # one more lam * b_0 on the side of the basis vectors
                    rem = {**rem, aug: rem.get(aug, 0) + rem[max(vec)]}
                calls.append(rem)
            return rem

        monkeypatch.setattr(Echelon, "reduce", corrupt_one)
        with pytest.raises(InvariantViolation, match="leaves the constructed module"):
            compare_at(L, borel, w(2, -1), range(5))
        assert len(calls) > target


def test_non_integral_structure_constant_is_rejected(monkeypatch):
    L, borel = std_borel("A2")
    monkeypatch.setattr(L, "structure", lambda i, j: {0: F(1, 2)})
    with pytest.raises(InvariantViolation, match="structure constant 1/2"):
        construct_module(L, borel, w(1, 1))


def dense_relations_hold(L, W):
    """The matrix form of check_module_relations: action([x,y]) equals the
    commutator of the dense action matrices, over all basis pairs."""
    d = W.dim
    mats = []
    for label in L.basis:
        mat = [[F(0)] * d for _ in range(d)]
        for col, entries in enumerate(W.action(label)):
            for row, c in entries.items():
                mat[row][col] = c
        mats.append(mat)
    for i, j in itertools.combinations(range(L.dim), 2):
        lhs = [[F(0)] * d for _ in range(d)]
        for k, z in L.structure(i, j).items():
            for r in range(d):
                for c in range(d):
                    lhs[r][c] += z * mats[k][r][c]
        a, b = mats[i], mats[j]
        for r in range(d):
            for c in range(d):
                comm = sum(a[r][k] * b[k][c] - b[r][k] * a[k][c] for k in range(d))
                if comm != lhs[r][c]:
                    return False
    return True


@pytest.mark.parametrize("ctype,nu", [("A2", (1, 1)), ("B2", (1, 0)), ("G2", (1, 0))])
def test_sparse_relations_match_dense_reference(ctype, nu):
    L, borel = std_borel(ctype)
    W = construct_module(L, borel, w(*nu))
    assert check_module_relations(L, W) is True
    assert dense_relations_hold(L, W) is True
    # doubling one entry of a root vector's action breaks the relations
    cols = W.action(("e", L.rs.positive_roots[0]))
    col, row = next((c, r) for c in range(W.dim) for r in cols[c])
    cols[col][row] *= 2
    assert check_module_relations(L, W) is False
    assert dense_relations_hold(L, W) is False


def test_non_integral_structure_constant_in_complex_is_rejected(monkeypatch):
    L, _, _, _, borel = borel_from_case(CASES["b2_sl2"])
    W = construct_module(L, borel, w(2, -1))
    labels = n_labels(L, oracle._n_roots(borel))
    for label in labels:
        W.action(label)  # the columns are built before the tampering
    n_idx = {L.index[label] for label in labels}
    structure = L.structure

    def halved(i, j):
        out = structure(i, j)
        if i in n_idx and j in n_idx:
            return {k: F(1, 2) for k in out}
        return out

    monkeypatch.setattr(L, "structure", halved)
    with pytest.raises(InvariantViolation, match="structure constant 1/2"):
        ce_cohomology(L, borel, W)


# -- the fraction-free echelon against a Fraction reference -------------


class FractionEchelon:
    """Reference: rows scaled to 1 at their least key in Fractions, each
    with the combination {ident: Fraction} of inserted vectors it equals,
    modulo the span of the untracked ones."""

    def __init__(self):
        self.rows = {}

    def reduce(self, vec):
        vec = {k: F(x) for k, x in vec.items() if x}
        comb = {}
        while vec and min(vec) in self.rows:
            row, row_comb = self.rows[min(vec)]
            f = vec[min(vec)]
            for k, x in row.items():
                vec[k] = vec.get(k, 0) - f * x
                if not vec[k]:
                    del vec[k]
            for k, x in row_comb.items():
                comb[k] = comb.get(k, 0) + f * x
        return vec, {k: x for k, x in comb.items() if x}

    def insert(self, vec, ident=None):
        rem, comb = self.reduce(vec)
        if not rem:
            return False
        inv = 1 / rem[min(rem)]
        comb = {k: -x * inv for k, x in comb.items()}
        if ident is not None:
            comb[ident] = inv
        self.rows[min(rem)] = ({k: x * inv for k, x in rem.items()}, comb)
        return True


sparse_vectors = st.dictionaries(
    st.integers(0, 5), st.integers(-6, 6).filter(bool), max_size=5
)


MARK = 100  # inserted vector j is marked in key MARK + j, past every key of sparse_vectors


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(sparse_vectors, st.booleans()), max_size=8),
    st.lists(st.lists(st.integers(-3, 3), min_size=8, max_size=8), max_size=4),
    st.lists(sparse_vectors, max_size=3),
)
def test_integer_echelon_matches_fraction_reference(inserted, mixes, probes):
    """The rank, the primitive rows and span membership against the
    Fraction reference; and the combination of tracked vectors that a
    vector in the span equals, read off identity marks as construct_module
    reads them: the remainder of {**vec, mark: 1} is lam * vec minus a
    combination of the rows, so once vec's own keys cancel, the marks left
    give lam * vec = -sum_j mark_j * inserted_j."""
    ech, marked, ref = Echelon(), Echelon(), FractionEchelon()
    for ident, (vec, tracked) in enumerate(inserted):
        ident = ident if tracked else None
        added = ref.insert(vec, ident)
        assert ech.insert(vec) == added
        rem = marked.reduce(vec if ident is None else {**vec, MARK + ident: 1})
        assert (rem != {} and min(rem) < MARK) == added
        if added:
            marked.add(rem)
        assert len(ech.rows) == len(marked.rows) == len(ref.rows)  # the rank
    for row in ech.rows.values():
        assert row[min(row)] > 0
        assert math.gcd(*row.values()) == 1
    # combinations of the inserted vectors lie in the span, the rest may not
    for mix in mixes:
        vec = {}
        for c, (v, _) in zip(mix, inserted):
            for k, x in v.items():
                vec[k] = vec.get(k, 0) + c * x
        probes = probes + [{k: x for k, x in vec.items() if x}]
    probe = MARK + len(inserted)
    for vec in probes:
        rem, comb = ref.reduce(vec)
        assert (ech.reduce(vec) != {}) == bool(rem)
        if not rem:
            marks = marked.reduce({**vec, probe: 1})
            assert min(marks) >= MARK
            lam = marks.pop(probe)
            assert lam > 0
            assert {j - MARK: F(-x, lam) for j, x in marks.items()} == comb


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(sparse_vectors, max_size=8))
def test_reduce_then_add_leaves_the_rows_of_insert(vecs):
    ech, ref = Echelon(), Echelon()
    for vec in vecs:
        rows = dict(ech.rows)
        rem = ech.reduce(vec)
        assert ech.rows == rows  # reduce leaves the rows alone
        assert ech.add(rem) == ref.insert(vec) == (rem != {})
        assert ech.rows == ref.rows


# -- the module in its own coordinates, against references --------------


WITNESS_CASES = [name for name in CASES if name != "a1a1_factor"]  # k an ideal


def lambdas01(rank):
    return list(itertools.product(range(2), repeat=rank))


def kostant_multiplicity(rs, lam, mu, weyl, partitions):
    """Kostant's multiplicity formula: the multiplicity of the weight mu in
    the simple module of standard highest weight lam is the sum over w in
    W of sign(w) P(w(lam + rho) - (mu + rho)), P the number of ways to
    write a vector as a sum of standard positive roots."""
    lam_rho = [x + 1 for x in lam]  # rho is (1, ..., 1) in fundamental coords
    mu_rho = [x + 1 for x in mu]
    total = 0
    for el in weyl:
        img = weyl_act(rs, el, lam_rho)
        diff = weight_to_root_coords(rs, [a - b for a, b in zip(img, mu_rho)])
        if all(x.denominator == 1 and x >= 0 for x in diff):
            total += (-1) ** el.length * partitions(tuple(int(x) for x in diff), 0)
    return total


def partition_function(pos):
    @functools.lru_cache(maxsize=None)
    def partitions(v, j):
        """Ways to write v as a sum of the roots pos[j:], with repetition."""
        if not any(v):
            return 1
        if j == len(pos):
            return 0
        total = 0
        while min(v) >= 0:
            total += partitions(v, j + 1)
            v = tuple(x - y for x, y in zip(v, pos[j]))
        return total

    return partitions


@pytest.mark.parametrize("case", WITNESS_CASES)
def test_module_relations_and_kostant_multiplicities(case):
    """The module at nu = w_b(lam), lam in {0,1}^rank, satisfies every
    bracket relation, and its weights carry the multiplicities of Kostant's
    formula for the standard highest weight lam: the weights of the simple
    module are the same whichever Borel reads its highest weight."""
    L, _, _, _, borel = borel_from_case(CASES[case])
    rs = L.rs
    weyl = [el for level in rs.weyl_by_length() for el in level]
    partitions = partition_function(rs.positive_roots)
    for lam in lambdas01(L.rank):
        W = construct_module(L, borel, borel.apply_wb(w(*lam)))
        assert check_module_relations(L, W), lam
        mults = Counter(x.coords for x in W.weight_of_basis)
        for mu, mult in mults.items():
            assert mult == kostant_multiplicity(rs, lam, mu, weyl, partitions), (lam, mu)
        # every weight with a positive multiplicity is there
        assert W.dim == rs.weyl_dimension(w(*lam).coords, rs.positive_roots, [1] * L.rank)


@pytest.mark.parametrize("case", ["g2_sl2", "a3_sl2"])
def test_compare_matches_at_every_degree(case):
    L, _, _, _, borel = borel_from_case(CASES[case])
    degrees = range(len(L.rs.positive_roots) + 1)
    for lam in lambdas01(L.rank):
        rep = compare_at(L, borel, borel.apply_wb(w(*lam)), degrees)
        assert rep.match_with_kostant and rep.diff == {}, lam


@pytest.mark.parametrize("case", sorted(set(CASES) - {"a1a1_factor"}))
def test_module_dims_match_fraction_weyl_formula(case):
    L, _, _, _, borel = borel_from_case(CASES[case])
    for lam in lambdas01(L.rank):
        nu = borel.apply_wb(w(*lam))
        dim = L.rs.weyl_dimension(nu.coords, borel.pos_roots, borel.rho.coords)
        assert construct_module(L, borel, nu).dim == dim
        assert dim == fraction_weyl_dimension(L.rs, nu.coords, borel.pos_roots, borel.rho.coords)
