"""The exact normal form of the certify front: a value is an int when it is
integral and a Fraction only when its denominator exceeds 1. A float is
never a value: the normaliser and the certificate encoder refuse it with a
typed error, so `ghc certify` exits 3 instead of encoding it."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ghcert.certify
import ghcert.parabolic
from ghcert import oracle
from ghcert.algebra import LieAlgebra
from ghcert.certify import dec_q, enc_q, front, parse_input, search
from ghcert.cli import main
from ghcert.errors import ContextMismatch, InvariantViolation
from ghcert.kostant import kostant_cohomology
from ghcert.linalg import exact
from ghcert.parabolic import half_sum
from ghcert.weights import Weight

from conftest import CASES, REDUCTION, is_normal

ALL = {**CASES, "reduction": REDUCTION}


def normal(values):
    return all(is_normal(x) for x in values)


@pytest.mark.parametrize("name", sorted(ALL))
def test_front_and_witness_values_in_normal_form(name):
    pin = parse_input(ALL[name])
    assert normal(x for v in pin.generators + pin.cartan_t for x in v)
    fr = front(pin)
    L, emb = fr.L, fr.emb
    assert normal(
        c for i in range(L.dim) for j in range(L.dim) for c in L.structure(i, j).values()
    )
    assert normal(x for row in L.killing_matrix for x in row)
    assert normal(x for c in L.rs.positive_roots for x in L.rs.root_to_weight(c))
    assert normal(x for r in emb.k.rows + emb.t.rows for x in r)
    assert normal(x for row in L.killing_gram(list(emb.k.pivot_rows.values())) for x in row)
    assert normal(x for w in emb.grading.weights for x in w)
    if fr.ideal:
        # the Killing complement is spanned by the rows of the other factors
        ideals = L.simple_ideal_subspaces()
        assert normal(x for sp in ideals for r in sp.pivot_rows.values() for x in r.values())
        return
    w = search(fr)
    assert w is not None
    assert normal(w.reg.h) and normal(w.reg.t_coeffs)
    assert normal(v for v, _ in w.reg.g_spectrum)
    assert normal(x for row in w.borel.w_b for x in row)
    dec = kostant_cohomology(L, w.borel, w.nu, w.pd.r)
    weights = [w.nu, w.greport.mu, w.rv.rho, w.rv.rho_n, w.rv.rho_n_perp, w.borel.rho]
    weights += dec.summands
    assert normal(x for wt in weights for x in wt.coords)


def test_normaliser_and_encoder_refuse_floats():
    for bad in (0.5, 1.0):
        for make in (exact, enc_q, lambda x: Weight("g", (1, x)),
                     lambda x: half_sum({(x,): 1}, 1)):
            with pytest.raises(InvariantViolation, match="not an exact rational"):
                make(bad)
    # ints and Fractions encode as before
    assert enc_q(3) == enc_q(Fraction(3)) == "3/1"
    assert enc_q(Fraction(-7, 2)) == "-7/2"
    assert type(dec_q(5)) is int and type(dec_q("4/2")) is int
    assert dec_q("4/6") == Fraction(2, 3)


def test_guard_holds_under_python_O():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    code = ("from ghcert.certify import enc_q\n"
            "from ghcert.errors import InvariantViolation\n"
            "try:\n    enc_q(0.5)\nexcept InvariantViolation:\n    print('refused')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "refused"


def _certify_exit(write_input, tmp_path, raw):
    inp = write_input("in.json", raw)
    out = tmp_path / "cert.json"
    code = main(["certify", inp, "--out", str(out)])
    return code, out.exists()


def test_float_weight_exits_3(monkeypatch, write_input, tmp_path, capsys):
    """x / 2 on int sums is a float: the half-sums must stop certify with
    exit 3 rather than reach the certificate."""

    def float_half_sum(mults, dim):
        acc = [0] * dim
        for coords, mult in mults.items():
            for i, x in enumerate(coords):
                acc[i] += mult * x
        return Weight("t", tuple(x / 2 for x in acc))

    monkeypatch.setattr(ghcert.parabolic, "half_sum", float_half_sum)
    assert _certify_exit(write_input, tmp_path, CASES["b2_sl2"]) == (3, False)
    assert "not an exact rational" in capsys.readouterr().err


def test_float_reaching_the_encoder_exits_3(monkeypatch, write_input, tmp_path, capsys):
    """A float that slips past the normaliser (here 1.0 in a basis vector of
    the Killing complement, which Fraction would encode as "1/1") is refused
    by enc_q."""

    def with_float(self, label):
        v = self.zero()
        v[self.index[label]] = 1.0
        return v

    monkeypatch.setattr(LieAlgebra, "basis_vector", with_float)
    assert _certify_exit(write_input, tmp_path, CASES["a1a1_factor"]) == (3, False)
    assert "1.0 is not an exact rational" in capsys.readouterr().err


def test_oracle_reads_ints_as_they_are():
    assert oracle._as_int(7, "structure constant") == 7
    assert type(oracle._as_int(Fraction(6, 2), "structure constant")) is int
    with pytest.raises(InvariantViolation, match="structure constant 1/2 is not an integer"):
        oracle._as_int(Fraction(1, 2), "structure constant")
    with pytest.raises(InvariantViolation, match="not an exact rational"):
        oracle._as_int(2.0, "structure constant")


def test_weight_equality_and_mismatch_message():
    assert Weight("g", (Fraction(2), Fraction(1, 2))) == Weight("g", (2, Fraction(1, 2)))
    assert Weight("g", (1,)) != Weight("t", (1,))
    assert Weight("g", (1,)) != (1,)
    with pytest.raises(ContextMismatch) as exc:
        Weight("g", (1, 2)) + Weight("t", (1,))
    assert str(exc.value) == "cannot add Weight('g', (1, 2)) and Weight('t', (1,))"
