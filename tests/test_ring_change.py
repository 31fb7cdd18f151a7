"""Values over Z/m are the values over Z reduced.

Every determinant behind the discriminants is a polynomial with integer
coefficients in its entries, so it commutes with Z -> Z/m, zero divisors
or not.  The fixed draws below once returned 0 or raised NotDivisible over
Z/12; the property test checks the same for every function built on a
determinant, on forms drawn over Z.
"""

import random

from hypothesis import given, settings, strategies as st

import elimkit.ring as rg
from elimkit.disc_hyper import disc_hyper, quadric_disc
from elimkit.disc_points import disc_points, linear_forms_disc
from elimkit.errors import PerturbationDegenerate
from elimkit.jacobian import hess_det, jac_full, jac_minor
from elimkit.mertens import lemmaA_product
from elimkit.mpoly import DegreeSignature, MultiPoly, evaluate_coefficients, lift_poly, monomials_of_degree
from elimkit.resultant import resultant

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
    ]
    for k, (fn, n, degrees) in enumerate(cases):
        for _ in range(3):
            fs = [random_form(rnd, n, d) for d in degrees]
            for m in MODULI:
                ring = rg.Zmod(m)
                reduced_fs = down(fs, ring)
                want = reduced(fn([lift_poly(f) for f in reduced_fs]), ring)
                assert fn(reduced_fs) == want, (k, m)


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
