"""The sparse Macaulay system against its definition, and forms that
store zero coefficients."""

import importlib
import random

import pytest

import elimkit.ring as rg
from elimkit.determinants import det_bareiss
from elimkit.mpoly import DegreeSignature, MultiPoly, generic_system, monomials_of_degree
from elimkit.resultant import build_macaulay, gcp_resultant, resultant

ZS = rg.polyext(rg.ZZ, ("s",))


def reference_system(fs, sig):
    """(rows, row_slot, reduced) from the definition, on exponent tuples.

    Column p is the monomial gamma_p of degree nu, in descending grlex
    order.  Row p comes from the first f_i whose pure power X_i^{d_i}
    divides X^{gamma_p}; it holds the terms of X^{gamma_p - d_i e_i} f_i
    as {column of the term: coefficient}, zero coefficients left out.  p
    belongs to M' when two or more pure powers divide X^{gamma_p}.
    """
    ring = fs[0].ring
    cols = monomials_of_degree(sig.nvars, sig.critical_degree)
    position = {gamma: p for p, gamma in enumerate(cols)}
    rows, row_slot, reduced = [], [], []
    for p, gamma in enumerate(cols):
        dividing = [i for i, d in enumerate(sig.degrees) if gamma[i] >= d]
        i = dividing[0]
        shift = [g - (sig.degrees[i] if k == i else 0) for k, g in enumerate(gamma)]
        row = {}
        for beta, c in fs[i].terms.items():
            if not rg.val_is_zero(ring, c):
                row[position[tuple(a + b for a, b in zip(shift, beta))]] = c
        rows.append(row)
        row_slot.append(i + 1)
        if len(dividing) >= 2:
            reduced.append(p)
    return rows, row_slot, reduced


def dense(ring, rows, positions, t):
    """The submatrix on ``positions`` as list rows, t added on the diagonal."""
    zero, shift = rg.val_zero(ring), rg.val_from_int(ring, t)
    out = []
    for k, p in enumerate(positions):
        row = [rows[p].get(q, zero) for q in positions]
        row[k] = rg.val_add(ring, row[k], shift)
        out.append(row)
    return out


def random_payload(rnd, ring):
    if ring == ZS:
        return MultiPoly(rg.ZZ, 1, {e: c for e in ((0,), (1,)) if (c := rnd.randint(-3, 3))})
    return rnd.choice((0, 0, rnd.randint(-9, 9)))


def random_forms(rnd, ring, sig):
    """Random forms with their pure powers; the first one also stores a
    coefficient 0 (over Z[s], the zero polynomial) at another monomial."""
    fs = []
    for i, d in enumerate(sig.degrees):
        terms = {}
        for e in monomials_of_degree(sig.nvars, d):
            c = random_payload(rnd, ring)
            if not rg.val_is_zero(ring, c):
                terms[e] = c
        terms[tuple(d if k == i else 0 for k in range(sig.nvars))] = rg.val_from_int(ring, rnd.choice((-2, 1, 3)))
        if i == 0:
            terms[monomials_of_degree(sig.nvars, d)[-1]] = rg.val_zero(ring)
        fs.append(MultiPoly(ring, sig.nvars, terms))
    return fs


CASES = [
    ("ZZ-(2;3,3)", rg.ZZ, (3, 3)),
    ("ZZ-(3;2,2,3)", rg.ZZ, (2, 2, 3)),
    ("ZZ-(4;2,2,2,2)", rg.ZZ, (2, 2, 2, 2)),
    ("ZZ[s]-(3;2,2,2)", ZS, (2, 2, 2)),
    ("generic-(2;2,2)", None, (2, 2)),
    ("generic-(3;1,1,2)", None, (1, 1, 2)),
]


@pytest.mark.parametrize("ring, degrees", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_build_macaulay_against_definition(ring, degrees):
    """build_macaulay's rows, row_slot and reduced equal the definition's,
    and numerator_det(t), denominator_det(t) equal det_bareiss of the
    dense matrices assembled here, for t = 0, 1 and 3."""
    sig = DegreeSignature(len(degrees), degrees)
    if ring is None:
        ring, fs = generic_system(sig)
    else:
        fs = random_forms(random.Random(sum(degrees) + len(degrees)), ring, sig)
    want_rows, want_slots, want_reduced = reference_system(fs, sig)
    ms = build_macaulay(fs, sig)
    assert ms.row_slot == want_slots and ms.reduced == want_reduced
    assert len(ms.rows) == len(want_rows)
    for got, want in zip(ms.rows, want_rows):
        assert got.keys() == want.keys()
        assert all(rg.val_eq(ring, got[j], want[j]) for j in want)
    everything = range(len(want_rows))
    for t in (0, 1, 3):
        num = det_bareiss(ring, dense(ring, want_rows, everything, t))
        den = det_bareiss(ring, dense(ring, want_rows, want_reduced, t))
        assert rg.val_eq(ring, ms.numerator_det(t), num)
        assert rg.val_eq(ring, ms.denominator_det(t), den)
        # the system is sampled again on fresh rows
        assert rg.val_eq(ring, ms.numerator_det(t), num)


def cleaned(f):
    return MultiPoly(f.ring, f.nvars, {e: c for e, c in f.terms.items() if not rg.val_is_zero(f.ring, c)})


@pytest.mark.parametrize("ring", [rg.ZZ, rg.Zmod(12), ZS], ids=repr)
def test_stored_zero_coefficients(ring):
    """Forms that store coefficients equal to 0 have the resultant and the
    GCP resultant of the same forms without them; a form whose only
    stored coefficient is 0 gives 0."""
    sig = DegreeSignature(3, (2, 2, 2))
    rnd = random.Random(12)
    for _ in range(2):
        fs = random_forms(rnd, ring, sig)
        if ring.kind == rg.MODULAR:
            fs = [MultiPoly(ring, 3, {e: c % 12 for e, c in f.terms.items()}) for f in fs]
        clean = [cleaned(f) for f in fs]
        assert len(fs[0].terms) > len(clean[0].terms)
        for compute in (resultant, gcp_resultant):
            assert rg.val_eq(ring, compute(fs, sig).value, compute(clean, sig).value)
    for exponent in ((2, 0, 0), (1, 1, 0)):
        fs[0] = MultiPoly(ring, 3, {exponent: rg.val_zero(ring)})
        assert not fs[0].is_zero()
        for compute in (resultant, gcp_resultant):
            assert rg.val_is_zero(ring, compute(fs, sig).value)


@pytest.mark.parametrize("ring", [rg.ZZ, rg.Zmod(12), ZS], ids=repr)
def test_a_form_of_stored_zeros_builds_no_macaulay_system(ring, monkeypatch):
    """The zero shortcut of resultant and gcp_resultant reads the stored
    coefficients, so such a form gives 0 without a Macaulay system."""
    resultant_module = importlib.import_module("elimkit.resultant")
    calls = []
    build = resultant_module.build_macaulay
    monkeypatch.setattr(resultant_module, "build_macaulay", lambda *a: calls.append(1) or build(*a))
    sig = DegreeSignature(2, (2, 2))
    fs = random_forms(random.Random(13), ring, sig)
    fs[1] = MultiPoly(ring, 2, {(2, 0): rg.val_zero(ring), (1, 1): rg.val_zero(ring)})
    for compute in (resultant, gcp_resultant):
        assert rg.val_is_zero(ring, compute(fs, sig).value)
    assert calls == []
