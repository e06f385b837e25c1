"""The Chevalley structure table: parity with the recursive construction it
replaced (the certificate bytes rest on every sign), the Chevalley
properties over every type the README claims, and the integrality check."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghcert.algebra
from ghcert.algebra import LieAlgebra, build_algebra
from ghcert.errors import InvariantViolation
from ghcert.rootsystem import CartanType, RootSystem

ROOT = Path(__file__).resolve().parent.parent


def _neg(c):
    return tuple(-x for x in c)


class ReferenceConstants:
    """N(alpha, beta) for the Chevalley basis of a root system, by recursion
    over root tuples: the extraspecial pair of each positive root gets
    N = p + 1, every other constant is derived on demand and memoised."""

    def __init__(self, rs):
        self.rs = rs
        self.pos_index = rs.root_index
        self.table = {}
        self.extraspecial = {}
        self._memo = {}
        self._fill()

    def _p(self, a, b):
        """Largest k with b - k*a a root."""
        k = 0
        cur = list(b)
        while True:
            for i in range(len(cur)):
                cur[i] -= a[i]
            if tuple(cur) in self.rs.root_set:
                k += 1
            else:
                return k

    def _fill(self):
        for gamma in self.rs.positive_roots:
            if sum(gamma) < 2:
                continue
            pairs = []
            for a in self.rs.positive_roots:
                ia = self.pos_index[a]
                b = tuple(g - x for g, x in zip(gamma, a))
                ib = self.pos_index.get(b)
                if ib is not None and ia < ib:
                    pairs.append((a, b))
            xi, eta = pairs[0]
            self.extraspecial[gamma] = (xi, eta)
            self.table[(xi, eta)] = self._p(xi, eta) + 1
            for a, b in pairs[1:]:
                self.table[(a, b)] = self._derive(a, b, xi, eta, gamma)

    def _derive(self, a, b, xi, eta, gamma):
        # Jacobi identity on (e_a, e_b, e_{-xi}) rearranged for N(a, b)
        t = self.n(b, _neg(xi)) * self.n(
            tuple(x - y for x, y in zip(b, xi)), a
        ) + self.n(_neg(xi), a) * self.n(tuple(x - y for x, y in zip(a, xi)), b)
        val, r = divmod(-t, self.n(gamma, _neg(xi)))
        assert not r
        return val

    def n(self, x, y):
        if x not in self.rs.root_set or y not in self.rs.root_set:
            return 0
        s = tuple(a + b for a, b in zip(x, y))
        if s not in self.rs.root_set:
            return 0
        key = (x, y)
        if key in self._memo:
            return self._memo[key]
        px = x in self.pos_index
        py = y in self.pos_index
        if px and py:
            if self.pos_index[x] < self.pos_index[y]:
                val = self.table[(x, y)]
            else:
                val = -self.table[(y, x)]
        elif not px and not py:
            val = -self.n(_neg(x), _neg(y))
        elif not px:
            val = -self.n(y, x)
        elif s in self.pos_index:
            # x positive, y negative, x+y positive: cycle through z = -(x+y)
            z = _neg(s)
            norm2 = self.rs.root_norm2
            val, r = divmod(self.n(y, z) * norm2[z], norm2[x])
            assert not r
        else:
            val = self.n(_neg(y), _neg(x))
        self._memo[key] = val
        return val


def reference_structure(L):
    """The bracket table of L's basis built from `ReferenceConstants` by
    scanning every pair of positive roots."""
    rs, index = L.rs, L.index
    nconst = ReferenceConstants(rs)
    table = {}

    def put(i, j, coords):
        if coords:
            table[(i, j)] = coords
            table[(j, i)] = {k: -v for k, v in coords.items()}

    for c in rs.positive_roots:
        f = rs.root_to_weight(c)
        ie, iff = index[("e", c)], index[("f", c)]
        for i in range(rs.rank):
            if f[i]:
                put(i, ie, {ie: f[i]})
                put(i, iff, {iff: -f[i]})
        co = rs.coroot_coeffs(c)
        put(ie, iff, {i: k for i, k in enumerate(co) if k})
    for a in rs.positive_roots:
        for b in rs.positive_roots:
            ia, ib = rs.root_index[a], rs.root_index[b]
            if ia < ib:
                s = tuple(x + y for x, y in zip(a, b))
                if s in rs.root_index:
                    nval = nconst.n(a, b)
                    put(index[("e", a)], index[("e", b)], {index[("e", s)]: nval})
                    put(index[("f", a)], index[("f", b)], {index[("f", s)]: -nval})
            if a != b:
                sdiff = tuple(x - y for x, y in zip(a, b))
                if sdiff in rs.root_set:
                    tgt = root_vector(L, sdiff)
                    put(index[("e", a)], index[("f", b)], {tgt: nconst.n(a, _neg(b))})
    return table


PARITY_TYPES = [
    "A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8",
    "A1xA1", "B2xA1", "B3xA1",
]
# every ambient type the README claims
CLAIMED_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8", "A1xA1"]


@pytest.mark.parametrize("ctype", PARITY_TYPES)
def test_structure_table_matches_recursive_reference(ctype):
    L = build_algebra(ctype)
    assert L._structure == reference_structure(L)
    assert all(type(c) is int for coords in L._structure.values() for c in coords.values())


def root_vector(L, c):
    """Basis index of the root vector of a root c, positive or negative."""
    if c in L.rs.root_index:
        return L.index[("e", c)]
    return L.index[("f", _neg(c))]


def constant(L, x, y):
    """N(x, y): [x_x, x_y] = N(x, y) x_(x+y), read off the table."""
    s = tuple(a + b for a, b in zip(x, y))
    coords = L.structure(root_vector(L, x), root_vector(L, y))
    assert set(coords) == {root_vector(L, s)}
    return coords[root_vector(L, s)]


def string_below(rs, x, y):
    """p: the largest k with y - k x a root."""
    p = 0
    while tuple(b - (p + 1) * a for a, b in zip(x, y)) in rs.root_set:
        p += 1
    return p


@pytest.mark.parametrize("ctype", CLAIMED_TYPES)
def test_chevalley_constants_are_plus_or_minus_p_plus_one(ctype):
    L = build_algebra(ctype)
    rs = L.rs
    roots = sorted(rs.root_set)
    count = 0
    for x, y in itertools.product(roots, repeat=2):
        s = tuple(a + b for a, b in zip(x, y))
        if s in rs.root_set:
            assert abs(constant(L, x, y)) == string_below(rs, x, y) + 1, (x, y)
            count += 1
        elif any(s):
            assert not L.structure(root_vector(L, x), root_vector(L, y))
    # every root sum found: twelve ordered pairs per positive triple
    triples = sum(
        1 for a, b in itertools.combinations(rs.positive_roots, 2)
        if tuple(p + q for p, q in zip(a, b)) in rs.root_index
    )
    assert count == 12 * triples


@pytest.mark.parametrize("ctype", CLAIMED_TYPES)
def test_extraspecial_pairs_get_p_plus_one(ctype):
    L = build_algebra(ctype)
    rs = L.rs
    seen = set()
    for a, b in itertools.combinations(rs.positive_roots, 2):
        s = tuple(p + q for p, q in zip(a, b))
        if s in rs.root_index and s not in seen:
            # the pairs come in root order of a, so the first is extraspecial
            seen.add(s)
            assert constant(L, a, b) == string_below(rs, a, b) + 1
    assert len(seen) == sum(1 for c in rs.positive_roots if sum(c) > 1)


@pytest.mark.parametrize("ctype", ["A3", "B3", "C3", "D4"])
def test_jacobi_on_root_vector_triples(ctype):
    L = build_algebra(ctype)
    labels = [("e", c) for c in L.rs.positive_roots] + [("f", c) for c in L.rs.positive_roots]
    idx = [L.index[lab] for lab in labels]

    def bracket(x, y):
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                for k, c in L.structure(i, j).items():
                    out[k] = out.get(k, 0) + a * b * c
        return {k: v for k, v in out.items() if v}

    for i, j, k in itertools.combinations(idx, 3):
        x, y, z = {i: 1}, {j: 1}, {k: 1}
        total = {}
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
            part = bracket(u, bracket(v, w))
            for m, c in part.items():
                total[m] = total.get(m, 0) + c
        assert not any(total.values()), (L.basis[i], L.basis[j], L.basis[k])


class HalfNorm(RootSystem):
    """A root system whose first positive root a has half its squared length,
    so the cyclic identity N(g, -b) = N(a, b) (a, a) / (g, g) stops being
    integral on g = a + b (the coroots stay integral)."""

    def __init__(self, ctype):
        super().__init__(ctype)
        self.root_norm2[self.positive_roots[0]] //= 2


def test_non_integral_structure_constant_is_rejected(monkeypatch):
    monkeypatch.setattr(ghcert.algebra, "RootSystem", HalfNorm)
    message = r"structure constant N\(\(1, 1\), -\(1, 0\)\) = 1/2"
    with pytest.raises(InvariantViolation, match=message):
        LieAlgebra(CartanType.parse("A2"))


def test_non_integral_structure_constant_is_rejected_under_O():
    script = (
        "import ghcert.algebra, test_structure_constants as t\n"
        "ghcert.algebra.RootSystem = t.HalfNorm\n"
        "try:\n"
        "    ghcert.algebra.LieAlgebra(t.CartanType.parse('A2'))\n"
        "except t.InvariantViolation as exc:\n"
        "    print('refused:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused: structure constant"), proc.stdout
