"""Seeded input generation for the three benchmark workloads.

Inputs are built from the documented input contract of ghcert (Chevalley
basis order: h_1..h_l, then e_a over positive roots sorted by (height, lex),
then f_a in the same order). The root systems are computed here from Cartan
matrices, independently of the program, so the program receives only the
generated JSON inputs. `selfcheck.py` compares these root systems with the
program's own.
"""

import random
from fractions import Fraction

IDEAL = "IdealNoModule"
WITNESS = "ExistsWitness"

# ambient algebra of the same_g_batch workload
BATCH_ALGEBRA = "B3xA1"


def _factor_cartan(family, rank):
    """Cartan matrix A[i][j] = <a_i^vee, a_j> and symmetrizers d of one factor,
    in the numbering ghcert documents: B_n has a_n short, G2 has a_1 short."""
    A = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    d = [1] * rank
    for i in range(rank - 1):
        A[i][i + 1] = A[i + 1][i] = -1
    if family == "B":
        A[rank - 1][rank - 2] = -2
        d = [2] * (rank - 1) + [1]
    elif family == "D":
        A[rank - 2][rank - 1] = A[rank - 1][rank - 2] = 0
        A[rank - 3][rank - 1] = A[rank - 1][rank - 3] = -1
    elif family == "G":
        A[0][1] = -3
        d = [1, 3]
    elif family != "A":
        raise ValueError(f"no Cartan matrix here for {family}{rank}")
    return A, d


class Roots:
    """Positive roots of a product of simple factors, in ghcert's basis order."""

    def __init__(self, algebra):
        self.algebra = algebra
        factors = [(p[0], int(p[1:])) for p in algebra.split("x")]
        self.rank = sum(r for _, r in factors)
        n = self.rank
        self.cartan = [[0] * n for _ in range(n)]
        self.d = [0] * n
        self.factor_nodes = []
        off = 0
        for fam, r in factors:
            A, d = _factor_cartan(fam, r)
            for i in range(r):
                self.d[off + i] = d[i]
                for j in range(r):
                    self.cartan[off + i][off + j] = A[i][j]
            self.factor_nodes.append(tuple(range(off, off + r)))
            off += r
        self.positive = self._positive_roots()
        self.dim = n + 2 * len(self.positive)

    def _positive_roots(self):
        n = self.rank
        simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        roots = set(simples)
        frontier = list(simples)
        while frontier:
            new = []
            for beta in frontier:
                for i in range(n):
                    # p = how far the a_i-string through beta reaches down
                    p, cur = 0, list(beta)
                    while True:
                        cur[i] -= 1
                        if tuple(cur) not in roots:
                            break
                        p += 1
                    pairing = sum(beta[j] * self.cartan[i][j] for j in range(n))
                    if p - pairing > 0:
                        up = list(beta)
                        up[i] += 1
                        if tuple(up) not in roots:
                            roots.add(tuple(up))
                            new.append(tuple(up))
            frontier = new
        return sorted(roots, key=lambda c: (sum(c), c))

    def e(self, root):
        return self.rank + self.positive.index(tuple(root))

    def f(self, root):
        return self.rank + len(self.positive) + self.positive.index(tuple(root))

    def coroot(self, root):
        """Coefficients of root^vee on the simple coroots h_i."""
        n = self.rank
        half_norm = Fraction(
            sum(root[i] * root[j] * self.d[i] * self.cartan[i][j]
                for i in range(n) for j in range(n)), 2)
        out = [Fraction(root[i] * self.d[i]) / half_norm for i in range(n)]
        if any(x.denominator != 1 for x in out):
            raise ValueError(f"{root} is not a root of {self.algebra}")
        return [int(x) for x in out]

    def simple(self, i):
        return tuple(int(j == i) for j in range(self.rank))

    def unit(self, *idx):
        v = [0] * self.dim
        for i in idx:
            v[i] = 1
        return v

    def h_vec(self, coeffs):
        return list(coeffs) + [0] * (self.dim - self.rank)


def problem(algebra, gens, t):
    return {"algebra": algebra, "subalgebra_generators": gens, "cartan_t": t}


def _unit(dim, *idx):
    v = [0] * dim
    for i in idx:
        v[i] = 1
    return v


# The five standing cases of the test suite, copied so that the benchmark
# does not depend on the tests.
STANDING = {
    "a1_t": problem("A1", [_unit(3, 0)], [_unit(3, 0)]),
    "a2_torus": problem("A2", [_unit(8, 0), _unit(8, 1)], [_unit(8, 0), _unit(8, 1)]),
    "a2_principal": problem(
        "A2", [_unit(8, 0, 1), _unit(8, 2, 3), _unit(8, 5, 6)], [_unit(8, 0, 1)]
    ),
    "a1a1_factor": problem("A1xA1", [_unit(6, 0), _unit(6, 3), _unit(6, 5)], [_unit(6, 0)]),
    "b2_sl2": problem("B2", [_unit(10, 0), _unit(10, 3), _unit(10, 7)], [_unit(10, 0)]),
}
STANDING_VERDICTS = {"a1a1_factor": IDEAL}


def sl2_on_root(algebra, root):
    """k = sl2 on the positive root `root`, with t spanned by its coroot."""
    R = Roots(algebra)
    h = R.h_vec(R.coroot(root))
    return problem(algebra, [h, R.unit(R.e(root)), R.unit(R.f(root))], [h])


LADDER_ALGEBRAS = ("A3", "B3", "G2", "A4", "D4")


def rank_ladder(seed):
    """(name, input, expected verdict) for every rung, in seeded order."""
    cases = [(n, p, STANDING_VERDICTS.get(n, WITNESS)) for n, p in STANDING.items()]
    for alg in LADDER_ALGEBRAS:
        R = Roots(alg)
        cases.append((f"{alg.lower()}_sl2", sl2_on_root(alg, R.simple(0)), WITNESS))
    random.Random(seed).shuffle(cases)
    return cases


# (name, input, nu, degrees) of every oracle-compare request; the degrees
# run over 0..dim n. b2_sl2's nu are w_b(1,1) and w_b(2,1). The G2 case is
# sl2 on the simple root that comes first in basis order, (0,1); there
# (-1,1) = w_b(1,0) is b-dominant.
def _oracle_cases():
    g2_sl2 = sl2_on_root("G2", (0, 1))
    return [
        ("b2_sl2", STANDING["b2_sl2"], "2,-1", "0..3"),
        ("b2_sl2", STANDING["b2_sl2"], "3,-1", "0..3"),
        ("a2_torus", STANDING["a2_torus"], "2,2", "0..3"),
        ("a2_torus", STANDING["a2_torus"], "3,2", "0..3"),
        ("a2_principal", STANDING["a2_principal"], "2,1", "0..3"),
        ("a2_principal", STANDING["a2_principal"], "2,2", "0..3"),
        ("g2_sl2", g2_sl2, "-1,1", "0..5"),
    ]


def oracle_ladder(seed):
    cases = _oracle_cases()
    random.Random(seed).shuffle(cases)
    return cases


def _levi(R, nodes, full):
    gens, t = [], []
    for i in range(R.rank):
        hi = R.h_vec([int(j == i) for j in range(R.rank)])
        if i in nodes or full:
            gens.append(hi)
            t.append(hi)
    for i in nodes:
        gens += [R.unit(R.e(R.simple(i))), R.unit(R.f(R.simple(i)))]
    return gens, t


def _whole_factors(R, nodes):
    """True iff `nodes` is a nonempty union of whole factors' node sets."""
    nodes = set(nodes)
    covered = set()
    for fn in R.factor_nodes:
        if set(fn) <= nodes:
            covered |= set(fn)
    return bool(nodes) and covered == nodes


def _contains_factor(R, nodes):
    return any(set(fn) <= set(nodes) for fn in R.factor_nodes)


def _levi_item(R, nodes, full):
    gens, t = _levi(R, nodes, full)
    ideal = not full and _whole_factors(R, nodes)
    reduced = not ideal and _contains_factor(R, nodes)
    name = ("levi_full" if full else "levi_ss") + "".join(map(str, nodes))
    return name, gens, t, ideal, reduced


def _torus_item(R, nodes):
    """The sub-torus of h spanned by the simple coroots h_i, i in `nodes`.

    Tori with random integer bases made the genericity search take 1 or
    several hundred candidates (0.8 s or 11-35 s per certify); no run that
    draws them stays steady."""
    t = [R.h_vec([int(j == i) for j in range(R.rank)]) for i in nodes]
    return "torus" + "".join(map(str, nodes)), [list(r) for r in t], t, False, False


def _sl2_item(R, root):
    p = sl2_on_root(R.algebra, root)
    # sl2 on a root is a whole simple factor only when that factor is A1
    ideal = any(len(fn) == 1 and root[fn[0]] for fn in R.factor_nodes)
    name = "sl2_" + "".join(map(str, root))
    return name, p["subalgebra_generators"], p["cartan_t"], ideal, False


def same_g_batch(seed):
    """A seeded draw of nine regular reductive subalgebras of BATCH_ALGEBRA
    (a product of a rank-3 factor and A1), as (name, input, expected
    verdict, expects a reduction), in seeded order.

    The mix is fixed and the seed fills it in: Levi semisimple parts, full
    Levis (t = h), sub-tori of h and sl2 on positive roots. The A1 factor
    and sl2 on the A1 root are ideals (IdealNoModule); two Levis contain the
    A1 factor and so take the ideal reduction. The seed picks the rank-3
    nodes, the coroots that span the tori, one sl2 root and the order. A
    free draw would let the work of a run swing with the seed; this one
    keeps it steady, so that totals of different seeds compare.
    """
    R = Roots(BATCH_ALGEBRA)
    big, small = (list(nodes) for nodes in R.factor_nodes)
    rng = random.Random(seed)

    def pick(k):
        return sorted(rng.sample(big, k))

    small_root = R.simple(small[0])
    others = [r for r in R.positive if r != small_root]
    items = [
        _levi_item(R, pick(1), False),
        _levi_item(R, pick(2) + small, False),
        _levi_item(R, small, False),
        _levi_item(R, pick(1), True),
        _levi_item(R, pick(1) + small, True),
        _torus_item(R, sorted(rng.sample(range(R.rank), 2))),
        _torus_item(R, sorted(rng.sample(range(R.rank), 3))),
        _sl2_item(R, rng.choice(others)),
        _sl2_item(R, small_root),
    ]
    rng.shuffle(items)
    return [(f"{i:02d}_{name}", problem(BATCH_ALGEBRA, gens, t), IDEAL if ideal else WITNESS, red)
            for i, (name, gens, t, ideal, red) in enumerate(items)]
