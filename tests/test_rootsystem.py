import itertools
import random
from fractions import Fraction

import pytest

from ghcert.algebra import build_algebra
from ghcert.errors import InvalidCartanType, InvariantViolation, LengthOutOfRange, NonDominant
from ghcert.rootsystem import CartanType, root_system

from conftest import (
    act_on_root,
    fraction_weyl_dimension,
    root_ip,
    simple_reflection_matrix,
    weyl_act,
)

F = Fraction


def test_parse_and_str():
    assert str(CartanType.parse("A2")) == "A2"
    assert str(CartanType.parse("A1xA1")) == "A1xA1"
    assert CartanType.parse("B2").rank == 2
    with pytest.raises(InvalidCartanType):
        CartanType.parse("H3")
    with pytest.raises(InvalidCartanType):
        CartanType.parse("B1")


def test_positive_root_counts():
    # |phi+| per type
    for name, count in [("A1", 1), ("A2", 3), ("B2", 4), ("G2", 6),
                        ("A3", 6), ("A1xA1", 2), ("D4", 12)]:
        assert len(root_system(name).positive_roots) == count


def test_highest_root_heights():
    rs = root_system("G2")
    heights = sorted(sum(c) for c in rs.positive_roots)
    assert heights == [1, 1, 2, 3, 4, 5]


def test_weyl_orders():
    assert CartanType.parse("A2").weyl_order() == 6
    assert CartanType.parse("B2").weyl_order() == 8
    assert CartanType.parse("G2").weyl_order() == 12
    assert CartanType.parse("A1xA1").weyl_order() == 4


def test_weyl_length_histogram_a2():
    rs = root_system("A2")
    levels = rs.weyl_by_length()
    assert [len(lv) for lv in levels] == [1, 2, 2, 1]


def test_weyl_length_histogram_b2():
    rs = root_system("B2")
    levels = rs.weyl_by_length()
    assert [len(lv) for lv in levels] == [1, 2, 2, 2, 1]


# degrees of the basic invariants; the Weyl group's Poincare polynomial
# is the product over them of (1 + q + ... + q^(d-1))
INVARIANT_DEGREES = {
    "A1xA1": [2, 2],
    "A3": [2, 3, 4],
    "B3": [2, 4, 6],
    "C3": [2, 4, 6],
    "D4": [2, 4, 4, 6],
    "G2": [2, 6],
    "F4": [2, 6, 8, 12],
}


@pytest.mark.parametrize("ctype", sorted(INVARIANT_DEGREES))
def test_weyl_length_histogram_is_poincare_polynomial(ctype):
    poly = [1]
    for d in INVARIANT_DEGREES[ctype]:
        out = [0] * (len(poly) + d - 1)
        for i, c in enumerate(poly):
            for j in range(d):
                out[i + j] += c
        poly = out
    rs = root_system(ctype)
    levels = rs.weyl_by_length()
    assert [len(lv) for lv in levels] == poly
    rho = tuple(1 for _ in range(rs.rank))
    for r, level in enumerate(levels):
        for el in level:
            assert len(el.word) == r and weyl_act(rs, el, rho) == el.rho_image


def test_weyl_levels_are_stored():
    rs = root_system("B3")
    first = rs.weyl_elements_of_length(3)
    assert rs.weyl_elements_of_length(3) is first
    # extending to longer lengths keeps the stored shorter levels
    rs.weyl_elements_of_length(9)
    assert rs.weyl_elements_of_length(3) is first
    assert rs.weyl_by_length()[3] is first


def test_weyl_elements_of_length_range():
    rs = root_system("A2")
    with pytest.raises(LengthOutOfRange):
        rs.weyl_elements_of_length(4)
    with pytest.raises(LengthOutOfRange):
        rs.weyl_elements_of_length(-1)


def test_reflection_preserves_root_set():
    rs = root_system("B2")
    roots = set(rs.positive_roots) | {
        tuple(-x for x in c) for c in rs.positive_roots
    }
    for i in range(rs.rank):
        mat = simple_reflection_matrix(rs, i)
        for c in roots:
            assert act_on_root(rs, mat, c) in roots


def test_pairings_against_cartan_matrix():
    rs = root_system("G2")
    for i in range(rs.rank):
        for j in range(rs.rank):
            lam = [F(int(k == i)) for k in range(rs.rank)]
            alpha_j = tuple(int(k == j) for k in range(rs.rank))
            assert rs.pair_coroot(lam, alpha_j) == (1 if i == j else 0)


@pytest.mark.parametrize("ctype", ["A2", "B2", "G2", "A3", "B3"])
def test_chamber_walk_against_root_pairings(ctype):
    # lam is on a wall iff some root pairs to zero with it; otherwise the
    # walk is a reduced word, one reflection per positive root negative on lam
    rs = root_system(ctype)
    for lam in itertools.product(range(-3, 4), repeat=rs.rank):
        pairings = [rs.pair_coroot(lam, c) for c in rs.positive_roots]
        walk = rs.chamber_walk(lam, rs.simple_roots)
        if 0 in pairings:
            assert walk is None, lam
            continue
        img, word = walk
        assert all(x > 0 for x in img) and len(word) == sum(p < 0 for p in pairings)
        for i in word:
            lam = rs.reflect_simple(i, lam)
        assert lam == img


def standard_weyl_dimension(ctype, lam):
    rs = root_system(ctype)
    # rho, the half-sum of the positive roots, is (1, ..., 1) in fundamental coordinates
    return rs.weyl_dimension(lam, rs.positive_roots, [F(1)] * rs.rank)


def test_weyl_dimension_formula():
    assert standard_weyl_dimension("A1", [F(3)]) == 4
    assert standard_weyl_dimension("A2", [F(1), F(0)]) == 3
    assert standard_weyl_dimension("A2", [F(1), F(1)]) == 8
    assert standard_weyl_dimension("B2", [F(1), F(0)]) == 5
    assert standard_weyl_dimension("B2", [F(0), F(1)]) == 4
    assert standard_weyl_dimension("G2", [F(1), F(0)]) == 7


@pytest.mark.parametrize("lam", [[F(-1), F(2)], [F(1, 2), F(0)]])
def test_weyl_dimension_rejects_non_dominant_integral(lam):
    with pytest.raises(NonDominant):
        standard_weyl_dimension("A2", lam)


# the positive systems of A1 to E8: the standard one and those of Levis
WEYL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "D5", "G2", "F4", "E6", "E7", "E8"]


@pytest.mark.parametrize("ctype", WEYL_TYPES)
def test_weyl_dimension_matches_fraction_formula(ctype):
    """The integer formula against the Fraction one, at random dominant
    lambda, for the positive roots supported on a set J of simple roots
    (J = all of them first): rho_J is then half-integral."""
    rs = root_system(ctype)
    rng = random.Random(ctype)
    subsets = [set(range(rs.rank))] + [
        {i for i in range(rs.rank) if rng.random() < 0.6} for _ in range(4)
    ]
    for J in subsets:
        pos = [c for c in rs.positive_roots if all(i in J for i, x in enumerate(c) if x)]
        rho = [sum(F(rs.root_to_weight(c)[i], 2) for c in pos) for i in range(rs.rank)]
        for _ in range(3):
            lam = [rng.randint(0, 3) if i in J else rng.randint(-3, 3) for i in range(rs.rank)]
            got = rs.weyl_dimension(lam, pos, rho)
            assert type(got) is int
            assert got == fraction_weyl_dimension(rs, lam, pos, rho), (J, lam)


def test_weyl_dimension_refuses_a_bad_rho():
    rs = root_system("A1")
    with pytest.raises(InvariantViolation, match="not integral"):
        rs.weyl_dimension([0], rs.positive_roots, [F(1, 4)])
    # (2(lam + rho), alpha) / (2 rho, alpha) = 5/3 is not an integer
    with pytest.raises(InvariantViolation, match="Weyl dimension"):
        rs.weyl_dimension([1], rs.positive_roots, [F(3, 2)])


# every type the suite builds
BUILT_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "D5", "G2", "F4", "E6", "E7",
    "E8", "A1xA1", "A1xA2", "B2xA1", "B3xA1", "A2xA1xA1",
]


@pytest.mark.parametrize("ctype", BUILT_TYPES)
def test_cartan_type_dim_is_the_algebra_dim(ctype):
    assert CartanType.parse(ctype).dim == build_algebra(ctype).dim


def test_dominance():
    # a weight is dominant when every fundamental coordinate is >= 0; the
    # Weyl dimension formula accepts exactly those (integral) weights
    assert standard_weyl_dimension("A2", [F(1), F(0)]) == 3
    with pytest.raises(NonDominant):
        standard_weyl_dimension("A2", [F(-1), F(2)])


def test_root_ip_lengths():
    rs = root_system("B2")
    # short root has squared length 2, long root 4 in our normalization
    short = (0, 1)
    long_ = (1, 0)
    assert root_ip(rs, short, short) == 2
    assert root_ip(rs, long_, long_) == 4


@pytest.mark.parametrize(
    "ctype", ["A1", "A2", "A5", "B2", "B4", "C3", "D4", "D5", "G2", "F4", "E6", "E7", "E8", "B2xA1"]
)
def test_root_norm_table_matches_fraction_sum(ctype):
    rs = root_system(ctype)
    assert set(rs.root_norm2) == rs.root_set
    for c in rs.root_set:
        n2 = rs.root_norm2[c]
        assert type(n2) is int and n2 == root_ip(rs, c, c)
