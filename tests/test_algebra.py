import itertools
from fractions import Fraction

import pytest

from ghcert.algebra import Subspace, build_algebra
from ghcert.errors import DimensionMismatch

F = Fraction

INTEGRITY_TYPES = ["A1", "A2", "B2", "G2", "A1xA1"]


def basis_vecs(L):
    return [L.basis_vector(lab) for lab in L.basis]


@pytest.mark.parametrize("ctype", INTEGRITY_TYPES)
def test_antisymmetry_all_pairs(ctype):
    L = build_algebra(ctype)
    vecs = basis_vecs(L)
    for i in range(L.dim):
        for j in range(i, L.dim):
            ab = L.bracket(vecs[i], vecs[j])
            ba = L.bracket(vecs[j], vecs[i])
            assert all(x == -y for x, y in zip(ab, ba))


@pytest.mark.parametrize("ctype", INTEGRITY_TYPES)
def test_jacobi_all_triples(ctype):
    L = build_algebra(ctype)
    vecs = basis_vecs(L)
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


@pytest.mark.parametrize("ctype", INTEGRITY_TYPES)
def test_killing_invariance_all_triples(ctype):
    L = build_algebra(ctype)
    vecs = basis_vecs(L)
    for i, j, k in itertools.product(range(L.dim), repeat=3):
        x, y, z = vecs[i], vecs[j], vecs[k]
        assert L.killing(L.bracket(x, y), z) == L.killing(x, L.bracket(y, z))


@pytest.mark.parametrize("ctype", INTEGRITY_TYPES)
def test_killing_nondegenerate(ctype):
    from conftest import fraction_det

    L = build_algebra(ctype)
    assert fraction_det(L.killing_matrix) != 0


def dense_ad(L, i):
    """Matrix of ad(b_i) acting on coordinate columns."""
    m = [[0] * L.dim for _ in range(L.dim)]
    for j in range(L.dim):
        for k, c in L.structure(i, j).items():
            m[k][j] = c
    return m


@pytest.mark.parametrize("ctype", ["A1xA1", "B2", "G2", "A3", "B3", "C3"])
def test_killing_matrix_matches_dense_trace(ctype):
    # reference: tr(ad b_i ad b_j) from the dense ad matrices
    L = build_algebra(ctype)
    ads = [dense_ad(L, i) for i in range(L.dim)]
    dense = [
        [
            sum(
                (ads[i][r][k] * ads[j][k][r] for r in range(L.dim) for k in range(L.dim)),
                F(0),
            )
            for j in range(L.dim)
        ]
        for i in range(L.dim)
    ]
    assert L.killing_matrix == dense


def sparse_trace_killing(L):
    """tr(ad b_i ad b_j) = sum over (k, r) of c_{ir}^k c_{jk}^r, summed over
    the nonzero structure constants of each ad b_i."""
    ads = [
        {(k, r): c for r in range(L.dim) for k, c in L.structure(i, r).items()}
        for i in range(L.dim)
    ]
    km = [[F(0)] * L.dim for _ in range(L.dim)]
    for i in range(L.dim):
        for j in range(i, L.dim):
            b = ads[j]
            km[i][j] = km[j][i] = sum(
                (c * b[(r, k)] for (k, r), c in ads[i].items() if (r, k) in b), F(0)
            )
    return km


@pytest.mark.parametrize("ctype", ["D4", "F4", "E6", "B2xA1"])
def test_killing_matrix_matches_sparse_trace(ctype):
    L = build_algebra(ctype)
    km = sparse_trace_killing(L)
    assert L.killing_matrix == km
    # killing(x, y) reads only the support; check it on mixed vectors
    x = [F(i % 5 - 2, 1 + i % 3) for i in range(L.dim)]
    y = [F(3 - i % 7) for i in range(L.dim)]
    assert L.killing(x, y) == sum(
        x[i] * km[i][j] * y[j] for i in range(L.dim) for j in range(L.dim)
    )


def test_sl2_structure():
    L = build_algebra("A1")
    h = L.basis_vector(("h", 0))
    e = L.basis_vector(("e", (1,)))
    f = L.basis_vector(("f", (1,)))
    assert L.bracket(h, e) == [2 * x for x in e]
    assert L.bracket(h, f) == [-2 * x for x in f]
    assert L.bracket(e, f) == h


def test_a2_chevalley_constants():
    L = build_algebra("A2")
    e1 = L.basis_vector(("e", (1, 0)))
    e2 = L.basis_vector(("e", (0, 1)))
    e12 = L.basis_vector(("e", (1, 1)))
    # extraspecial pair gets N = p + 1 = 1 up to the standard sign
    b = L.bracket(e1, e2)
    assert b == e12 or b == [-x for x in e12]
    assert L.bracket(e2, e1) == [-x for x in b]


def test_g2_constant_magnitudes():
    # G2 has structure constants of magnitude up to 3
    L = build_algebra("G2")
    mags = set()
    for i in range(L.dim):
        for j in range(L.dim):
            for _, c in L.structure(i, j).items():
                mags.add(abs(c))
    assert F(3) in mags
    assert max(mags) == F(3)


def test_killing_values_match_dual_coxeter():
    # kappa(h_alpha, h_alpha) = 4 h_vee for sl2: ad h has eigenvalues
    # {2, 0, -2} so trace(ad h ad h) = 8
    L = build_algebra("A1")
    h = L.basis_vector(("h", 0))
    assert L.killing(h, h) == 8  # [DERIVED] trace of (ad h)^2 on sl2


def test_bracket_dimension_check():
    L = build_algebra("A1")
    with pytest.raises(DimensionMismatch):
        L.bracket([F(1)], L.zero())


def test_simple_ideal_subspaces():
    L = build_algebra("A1xA1")
    ideals = L.simple_ideal_subspaces()
    assert len(ideals) == 2
    assert all(sp.dim == 3 for sp in ideals)
    # each ideal is bracket-closed and absorbs the whole algebra
    for sp in ideals:
        for row in sp.rows:
            for lab in L.basis:
                img = L.bracket(list(row), L.basis_vector(lab))
                assert sp.contains(img)


def test_subspace_canonicalization():
    L = build_algebra("A1")
    a = Subspace.from_vectors([[F(2), F(0), F(0)]], 3)
    b = Subspace.from_vectors([[F(1), F(0), F(0)]], 3)
    assert a == b and a.dim == 1


# every type this file builds
BUILT_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "F4", "E6", "G2", "A1xA1", "B2xA1"]


@pytest.mark.parametrize("ctype", BUILT_TYPES)
def test_simple_ideal_subspaces_match_row_reduction(ctype):
    # reference: row-reduce the basis vectors of each factor, the Cartan
    # part of its nodes and the root vectors supported on them
    L = build_algebra(ctype)
    expected = []
    for fr in L.rs.factor_ranges:
        labels = [("h", i) for i in fr] + [
            (kind, c) for kind in ("f", "e") for c in L.rs.positive_roots
            if any(c[i] for i in fr)
        ]
        expected.append(Subspace.from_vectors([L.basis_vector(lab) for lab in labels], L.dim))
    assert L.simple_ideal_subspaces() == tuple(expected)
