from fractions import Fraction

import pytest

from ghcert.errors import InvalidCartanType, LengthOutOfRange, NonDominant
from ghcert.rootsystem import CartanType, root_system

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
            assert len(el.word) == r and rs.weyl_act(el, rho) == el.rho_image


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
        mat = rs.simple_reflection_matrix(i)
        for c in roots:
            assert tuple(rs.act_on_root(mat, c)) in roots


def test_pairings_against_cartan_matrix():
    rs = root_system("G2")
    for i in range(rs.rank):
        for j in range(rs.rank):
            lam = [F(int(k == i)) for k in range(rs.rank)]
            alpha_j = tuple(int(k == j) for k in range(rs.rank))
            assert rs.pair_coroot(lam, alpha_j) == (1 if i == j else 0)


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
    assert rs.root_ip(short, short) == 2
    assert rs.root_ip(long_, long_) == 4
