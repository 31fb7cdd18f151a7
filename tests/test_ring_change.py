"""Values over Z/m are the values over Z reduced.

Every determinant behind the discriminants is a polynomial with integer
coefficients in its entries, so it commutes with Z -> Z/m, zero divisors
or not.  The fixed draws below once returned 0 or raised NotDivisible over
Z/12; the property test checks the same for every function built on a
determinant, on forms drawn over Z.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import elimkit.ring as rg
from elimkit.disc_hyper import disc_hyper, disc_hyper_basechange, disc_hyper_degree, disc_times_bar, quadric_disc
from elimkit.disc_points import (
    base_change_K,
    base_change_K_degree,
    base_change_K_fdegree,
    disc_points,
    disc_points_degree,
    linear_forms_disc,
)
from elimkit.errors import DivisionByZero, NotDivisible, PerturbationDegenerate
from elimkit.jacobian import hess_det, jac_full, jac_minor
from elimkit.mertens import lemmaA_product
from elimkit.mpoly import DegreeSignature, MultiPoly, evaluate_coefficients, lift_poly, monomials_of_degree
from elimkit.resultant import gcp_resultant, resultant

Z12 = rg.Zmod(12)
MODULI = (4, 7, 12)


def form(coeffs, n, d):
    """The form of degree d in n variables with these coefficients, in
    descending graded-lex order of the monomials."""
    return MultiPoly.from_terms(rg.ZZ, n, zip(monomials_of_degree(n, d), coeffs))


def random_form(rnd, n, d):
    """Coefficients in -9..9 with X1^d at 1, so no reduction mod m is zero."""
    return form([1] + [rnd.randint(-9, 9) for _ in monomials_of_degree(n, d)[1:]], n, d)


def reduced(value, ring):
    """A value computed over Z (or an extension of Z), mapped into ``ring``."""
    if isinstance(value, MultiPoly):
        return value.change_ring(ring)
    target = rg.join_extension(ring, value.ring.variables) if value.ring.kind == rg.POLYEXT else ring
    return rg.RingElement(target, rg.val_convert(value.ring, target, value.value))


def agrees(got, want):
    return got.eq(want) if isinstance(got, MultiPoly) else got == want


def down(fs, ring):
    return [f.change_ring(ring) for f in fs]


# -- the draws that failed over Z/12 -------------------------------------------

LINEAR_6 = DegreeSignature(6, (1,) * 5)


def test_jacobian_minor_that_came_out_zero():
    """J_1 of these five linear forms is -27 over Z, so 9 over Z/12; the
    payload elimination pivoted on 6 and returned 0."""
    rows = [
        [6, 5, 4, 4, 6, 5],
        [5, 6, 5, 5, 10, 6],
        [7, 4, 9, 5, 5, 4],
        [8, 3, 4, 8, 10, 6],
        [10, 7, 11, 2, 1, 4],
    ]
    fs = [form(r, 6, 1) for r in rows]
    assert jac_minor(fs, LINEAR_6, 1).terms == {(0,) * 6: -27}
    assert jac_minor(down(fs, Z12), LINEAR_6, 1).terms == {(0,) * 6: 9}


def test_jacobian_minors_of_linear_forms_over_z12():
    rnd = random.Random(0)
    for _ in range(40):
        fs = [form([rnd.randint(-9, 9) for _ in range(6)], 6, 1) for _ in range(5)]
        for i in (1, 6):
            want = jac_minor(fs, LINEAR_6, i)
            assert jac_minor(down(fs, Z12), LINEAR_6, i).eq(want.change_ring(Z12))


def test_linear_forms_disc_over_z12():
    """Zero divisors in the first column, where elimination pivots first."""
    rnd = random.Random(1)
    for _ in range(40):
        lines = [[form([rnd.randint(-9, 9), rnd.randint(-9, 9), 1], 3, 1) for _ in range(2)] for _ in range(2)]
        want = linear_forms_disc(lines)
        got = linear_forms_disc([down(slot, Z12) for slot in lines])
        assert got == reduced(want, Z12)


def test_disc_points_through_five_by_five_minors_over_z12():
    rnd = random.Random(7)
    sig = DegreeSignature(6, (2, 1, 1, 1, 1))
    for _ in range(8):
        fs = [random_form(rnd, 6, d) for d in sig.degrees]
        assert disc_points(down(fs, Z12), sig) == reduced(disc_points(fs, sig), Z12)


# -- the resultant and the hypersurface discriminant ------------------------------

SIG_222 = DegreeSignature(3, (2, 2, 2))


def test_resultant_and_disc_hyper_over_z_mod_m_are_the_lifts_reduced():
    """Over Z/4, Z/7 and Z/12 each value is the value over Z of the
    canonical lifts of the reduced forms, reduced."""
    rnd = random.Random(24)
    cases = [
        (lambda fs: resultant(fs, SIG_222), 3, (2, 2, 2)),
        (lambda fs: resultant(fs, DegreeSignature(2, (3, 2))), 2, (3, 2)),
        (lambda fs: disc_hyper(fs[0]), 2, (4,)),
        (lambda fs: disc_hyper(fs[0]), 3, (3,)),
        (lambda fs: disc_times_bar(fs[0]), 3, (2,)),
        (lambda fs: quadric_disc(fs[0]), 3, (2,)),
        (lambda fs: disc_points(fs, DegreeSignature(3, (2, 2))), 3, (2, 2)),
    ]
    for k, (fn, n, degrees) in enumerate(cases):
        for _ in range(3):
            fs = [random_form(rnd, n, d) for d in degrees]
            for m in MODULI:
                ring = rg.Zmod(m)
                reduced_fs = down(fs, ring)
                want = reduced(fn([lift_poly(f) for f in reduced_fs]), ring)
                assert fn(reduced_fs) == want, (k, m)


def canonical_lifts(fs):
    """Forms over Z/m lifted to Z, coefficient by coefficient, into [0, m)."""
    return [MultiPoly(rg.ZZ, f.nvars, {e: c % f.ring.modulus for e, c in f.terms.items()}) for f in fs]


def test_base_change_cofactors_over_z_mod_m_are_the_lifts_reduced():
    """Both cofactors used to divide in Z/m and raise on about half of these
    draws.  A draw is kept when the cofactor of the lifts exists over Z."""
    bases = [
        (lambda fs: base_change_K(fs[:1], DegreeSignature(2, (2,)), fs[1:]), (2, 2, 2), random.Random(1)),
        (lambda fs: disc_hyper_basechange(fs[0], fs[1:]), (3, 2, 2), random.Random(2)),
    ]
    for k, (fn, degrees, rnd) in enumerate(bases):
        checked = 0
        for _ in range(4):
            fs = [form([rnd.randint(-5, 5) for _ in monomials_of_degree(2, d)], 2, d) for d in degrees]
            for m in MODULI:
                ring = rg.Zmod(m)
                reduced_fs = down(fs, ring)
                if any(f.is_zero() for f in reduced_fs):
                    continue
                try:
                    want = reduced(fn(canonical_lifts(reduced_fs)), ring)
                except (DivisionByZero, NotDivisible):
                    continue
                assert fn(reduced_fs) == want, (k, m)
                checked += 1
        assert checked >= 6, k


# -- rationals and rings of several parameters --------------------------------------

def q_form(rnd, n, d):
    """Coefficients a/b with a in -9..9 and b in 1..4, X1^d at 1."""
    coeffs = [Fraction(rnd.randint(-9, 9), rnd.randint(1, 4)) for _ in monomials_of_degree(n, d)[1:]]
    return MultiPoly.from_terms(rg.QQ, n, zip(monomials_of_degree(n, d), [Fraction(1)] + coeffs))


def test_values_over_q_scale_by_their_degrees():
    """The value at (c_i f_i) is prod_i c_i^{deg_i} times the value at f,
    deg_i being the degree that each function hands to the clearing of Q."""
    rnd = random.Random(30)
    sig_222, sig_32, sig_22 = SIG_222, DegreeSignature(2, (3, 2)), DegreeSignature(3, (2, 2))
    sig_k = DegreeSignature(2, (2,))
    hyper_k = 2 * (3 * 2 - 1) - 2 * (2 * 2)  # n(md-1)^{n-1} - n(d(m-1))^{n-1}, m = 3, d = 2
    cases = [
        ("resultant", lambda fs: resultant(fs, sig_222), [(3, 2)] * 3, [4, 4, 4]),
        ("gcp_resultant", lambda fs: gcp_resultant(fs, sig_32), [(2, 3), (2, 2)], [2, 3]),
        ("disc_points", lambda fs: disc_points(fs, sig_22), [(3, 2)] * 2, [disc_points_degree(sig_22, i) for i in (1, 2)]),
        ("disc_hyper", lambda fs: disc_hyper(fs[0]), [(2, 4)], [disc_hyper_degree(2, 4)]),
        ("quadric_disc", lambda fs: quadric_disc(fs[0]), [(3, 2)], [3]),
        (
            "base_change_K",
            lambda fs: base_change_K(fs[:1], sig_k, fs[1:]),
            [(2, 2)] * 3,
            [base_change_K_fdegree(sig_k, 2, 1), base_change_K_degree(sig_k, 2)],
        ),
        ("disc_hyper_basechange", lambda fs: disc_hyper_basechange(fs[0], fs[1:]), [(2, 3), (2, 2), (2, 2)], [hyper_k, 3 * hyper_k]),
    ]
    for name, fn, shapes, degrees in cases:
        fs = [q_form(rnd, n, d) for n, d in shapes]
        # a denominator that no coefficient has changes the lcm that clears each group
        scales = [Fraction(rnd.choice([-3, -2, 2, 3]), rnd.choice([5, 7])) for _ in degrees]
        # the base changes scale every substitution form by the last scale
        per_form = scales + [scales[-1]] * (len(fs) - len(scales))
        scaled = [f.scale(c) for f, c in zip(fs, per_form)]
        factor = math.prod(c**deg for c, deg in zip(scales, degrees))
        assert fn(scaled) == fn(fs) * rg.RingElement(rg.QQ, factor), name


SIG_32 = DegreeSignature(2, (3, 2))


def affine_forms(rnd, ring, names):
    """Forms of SIG_32 whose coefficients are a + b s + c t + ... over ``ring``,
    a, b, c, ... in -5..5, X1^d at 1."""
    k = len(names)
    units = [tuple(int(j == i) for j in range(k)) for i in range(k)]
    fs = []
    for d in SIG_32.degrees:
        terms = {}
        for e in monomials_of_degree(2, d):
            items = [((0,) * k, 1 if e[0] == d else rnd.randint(-5, 5))] + [(u, rnd.randint(-5, 5)) for u in units]
            terms[e] = MultiPoly.from_terms(ring, k, [(u, rg.val_from_int(ring, c)) for u, c in items])
        fs.append(MultiPoly(rg.polyext(ring, names), 2, terms))
    return fs


def test_resultant_over_q_s_t_is_the_cleared_value():
    """Over Q[s,t] the value is Res of the forms times c_i over Z[s,t],
    divided by prod_i c_i^{prod_{j != i} d_j}."""
    rnd = random.Random(31)
    zst, qst = rg.polyext(rg.ZZ, ("s", "t")), rg.polyext(rg.QQ, ("s", "t"))
    for _ in range(2):
        zfs = affine_forms(rnd, rg.ZZ, ("s", "t"))
        scales = [rnd.choice([2, 3, 6]) for _ in zfs]
        qfs = [f.change_ring(qst).scale(rg.val_convert(rg.QQ, qst, Fraction(1, c))) for f, c in zip(zfs, scales)]
        value = rg.val_convert(zst, qst, resultant(zfs, SIG_32).value)
        divisor = math.prod(c ** (6 // d) for c, d in zip(scales, SIG_32.degrees))
        want = value.scale(Fraction(1, divisor))
        assert resultant(qfs, SIG_32).value.eq(want)


def test_resultant_over_a_tower_is_the_lifted_value_reduced():
    """Over Z/12[s][t] the value is Res over Z[s][t] of forms that reduce to
    them, reduced."""
    rnd = random.Random(32)
    zs = rg.polyext(rg.ZZ, ("s",))
    tower = rg.polyext(rg.polyext(Z12, ("s",)), ("t",))
    for _ in range(2):
        zfs = affine_forms(rnd, zs, ("t",))
        # put s into the coefficients of t as well
        s = MultiPoly.variable(rg.ZZ, 1, 1)
        zfs = [f.map_coefficients(lambda c: c.add(c.map_coefficients(lambda p: p.mul(s)))) for f in zfs]
        value = resultant(zfs, SIG_32)
        got = resultant([f.change_ring(tower) for f in zfs], SIG_32)
        assert got == reduced(value, tower)


def test_resultant_over_z_s_specializes_at_integers():
    """Res over Z[s] at s = -2, 0, 3 is Res of the forms specialized there,
    also for f_1 without X1^2, where det M'(s) vanishes identically."""
    zs = rg.polyext(rg.ZZ, ("s",))
    s = MultiPoly.variable(rg.ZZ, 1, 1)
    rnd = random.Random(25)
    for degenerate in (False, True):
        fs = []
        for _ in SIG_222.degrees:
            f, g = random_form(rnd, 3, 2), random_form(rnd, 3, 2)
            fs.append(f.change_ring(zs).add(g.change_ring(zs).scale(s)))
        if degenerate:
            fs[0] = MultiPoly(zs, 3, {e: c for e, c in fs[0].terms.items() if e != (2, 0, 0)})
        value = resultant(fs, SIG_222).value
        for x in (-2, 0, 3):
            special = [evaluate_coefficients(f, [x]) for f in fs]
            assert value.evaluate([x]) == resultant(special, SIG_222).value


# -- every determinant-built value, on forms drawn over Z --------------------------

def drawn_form(data, n, d):
    """Coefficients in -9..9 with Xn^d at 1, where elimination pivots last."""
    size = len(monomials_of_degree(n, d)) - 1
    return form(data.draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size)) + [1], n, d)


def values(data):
    """(name, function of a list of forms, forms over Z) for each function."""
    lin6 = [drawn_form(data, 6, 1) for _ in range(5)]
    quad6 = drawn_form(data, 6, 2)
    cubic5 = drawn_form(data, 5, 3)
    quad3, quad4 = drawn_form(data, 3, 2), drawn_form(data, 4, 2)
    lines = [drawn_form(data, 3, 1) for _ in range(4)]
    pair = [drawn_form(data, 3, 2), drawn_form(data, 3, 1)]
    slots = lambda ls: [ls[:2], ls[2:]]
    return [
        ("jac_minor", lambda fs: jac_minor(fs, LINEAR_6, 2), lin6),
        ("jac_full", lambda fs: jac_full(fs[:5], LINEAR_6, fs[5]), lin6 + [quad6]),
        ("hess_det quadric", lambda fs: hess_det(fs[0]), [quad6]),
        ("hess_det cubic", lambda fs: hess_det(fs[0]), [cubic5]),
        ("quadric_disc odd", lambda fs: quadric_disc(fs[0]), [quad3]),
        ("quadric_disc even", lambda fs: quadric_disc(fs[0]), [quad4]),
        ("linear_forms_disc", lambda fs: linear_forms_disc(slots(fs)), lines),
        ("lemmaA_product", lambda fs: lemmaA_product(slots(fs)), lines),
        ("disc_points", lambda fs: disc_points(fs, DegreeSignature(3, (2, 1))), pair),
    ]


@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_every_determinant_commutes_with_reduction_mod_m(data):
    for name, fn, fs in values(data):
        try:
            want = fn(fs)
        except PerturbationDegenerate:
            continue
        for m in MODULI:
            ring = rg.Zmod(m)
            assert agrees(fn(down(fs, ring)), reduced(want, ring)), (name, m)
