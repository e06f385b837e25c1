"""The integer `build_borel` against the construction in `Fraction`s that it
replaced: w_b as a product of simple reflection matrices, the word that
sifts 2 rho_b (the sum of pos) back to 2 rho, the image of the standard
positive roots through w_b, and the half-sum of pos."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcert.algebra import build_algebra
from ghcert.borel import BorelData, build_borel
from ghcert.certify import _searched_regular, front, parse_input
from ghcert.weights import Weight

from conftest import (
    CASES,
    REDUCTION,
    act_on_root,
    is_normal,
    matvec,
    problem,
    simple_reflection_matrix,
    unit,
)

F = Fraction


def _indecomposables(pos):
    posset = set(pos)
    return tuple(
        c for c in pos
        if not any(a != c and tuple(x - y for x, y in zip(c, a)) in posset for a in pos)
    )


def root_value_on(L, h, c):
    return sum(F(h[i]) * f for i, f in enumerate(L.rs.root_to_weight(c)))


def reference_borel(L, h) -> BorelData:
    rs = L.rs
    pos = []
    for c in rs.positive_roots:
        pos.append(c if root_value_on(L, h, c) >= 0 else tuple(-x for x in c))
    pos = tuple(sorted(pos, key=lambda c: (abs(sum(c)), c)))
    lam = [sum(rs.root_to_weight(c)[i] for c in pos) for i in range(rs.rank)]
    word = []
    while any(x < 0 for x in lam):
        i = next(i for i in range(rs.rank) if lam[i] < 0)
        lam = list(rs.reflect_simple(i, lam))
        word.append(i)
        assert len(word) <= len(rs.positive_roots)
    w_b = [[F(int(r == c)) for c in range(rs.rank)] for r in range(rs.rank)]
    for i in word:
        m = simple_reflection_matrix(rs, i)
        w_b = [
            [sum(w_b[r][k] * m[k][c] for k in range(rs.rank)) for c in range(rs.rank)]
            for r in range(rs.rank)
        ]
    assert {act_on_root(rs, w_b, c) for c in rs.positive_roots} == set(pos)
    rho = Weight("g", tuple(matvec(w_b, [F(1)] * rs.rank)))
    half = tuple(sum(F(rs.root_to_weight(c)[i], 2) for c in pos) for i in range(rs.rank))
    assert half == rho.coords
    m_pos = tuple(c for c in pos if root_value_on(L, h, c) == 0)
    return BorelData(
        L=L,
        h=list(h),
        pos_roots=pos,
        simple_roots=_indecomposables(pos),
        w_b=tuple(tuple(row) for row in w_b),
        word=tuple(word),
        rho=rho,
        m_pos_roots=m_pos,
        m_simple_roots=_indecomposables(m_pos),
    )


def assert_parity(L, h):
    got = build_borel(L, h)
    assert got == reference_borel(L, h)
    # the field types that apply_wb, kostant and the certificate read: exact,
    # in normal form (integral, so ints), never float
    assert all(is_normal(x) for row in got.w_b for x in row)
    assert all(is_normal(x) for x in got.rho.coords)


def sl2_on_alpha1(algebra):
    L = build_algebra(algebra)
    alpha1 = tuple(int(i == 0) for i in range(L.rank))
    gens = [unit(L.dim, L.index[(kind, alpha1)]) for kind in ("e", "f")]
    return problem(algebra, [unit(L.dim, 0)] + gens, [unit(L.dim, 0)])


WITNESS_INPUTS = (
    [pytest.param(raw, id=name) for name, raw in CASES.items()]
    + [pytest.param(REDUCTION, id="reduction")]
    + [pytest.param(sl2_on_alpha1(t), id=f"{t}_sl2") for t in ("A3", "B3", "C3", "D4", "F4", "E6")]
)


@pytest.mark.parametrize("raw", WITNESS_INPUTS)
def test_build_borel_matches_fraction_reference_on_searched_h(raw):
    # the ideal case has no witness, but its front still searches an h
    fr = front(parse_input(raw))
    reg = _searched_regular(fr)
    assert_parity(fr.L, [reg.h[i] for i in range(fr.L.rank)])


TYPES = ("A2", "A3", "A4", "B3", "G2", "B3xA1")
coordinate = st.one_of(st.just(F(0)), st.fractions(min_value=-6, max_value=6, max_denominator=6))


@st.composite
def algebra_and_h(draw):
    L = build_algebra(draw(st.sampled_from(TYPES)))
    return L, draw(st.lists(coordinate, min_size=L.rank, max_size=L.rank))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(algebra_and_h())
def test_build_borel_matches_fraction_reference_on_drawn_h(drawn):
    assert_parity(*drawn)


def test_build_borel_h_all_zero_is_standard():
    L = build_algebra("B3xA1")
    borel = build_borel(L, [F(0)] * L.rank)
    assert borel.pos_roots == tuple(L.rs.positive_roots)
    assert borel.m_pos_roots == borel.pos_roots
    assert borel.w_b == tuple(tuple(F(int(r == c)) for c in range(L.rank)) for r in range(L.rank))
