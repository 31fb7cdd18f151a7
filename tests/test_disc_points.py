"""Discriminant of n-1 forms in n variables (the isolated-points case)."""

import math
import random

import pytest

import elimkit.ring as rg
from elimkit.errors import DeltaIsOne, SignatureMismatch
from elimkit.disc_points import (
    base_change_K,
    base_change_K_degree,
    base_change_K_fdegree,
    delta_mod_delta,
    _res_with_variable,
    disc_points,
    disc_points_degree,
    disc_points_traced,
    linear_forms_disc,
    total_degree,
)
from elimkit.jacobian import jac_minor
from elimkit.mpoly import (
    DegreeSignature,
    MultiPoly,
    generic_system,
    monomials_of_degree,
    poly_sqrt,
    substitute,
)
from elimkit.oracle import generic_disc
from elimkit.resultant import resultant


def rand_form(rnd, n, d, lo=-7, hi=7):
    terms = {e: rnd.randint(lo, hi) for e in monomials_of_degree(n, d)}
    terms = {e: c for e, c in terms.items() if c}
    return MultiPoly(rg.ZZ, n, terms or {(d,) + (0,) * (n - 1): 1})


def acceptance_form(rng, n=3, d=3):
    """The acceptance suite's random form: coefficients in [-4, 4], X_1^d present."""
    terms = {e: rng.randrange(-4, 5) for e in monomials_of_degree(n, d)}
    terms = {e: c for e, c in terms.items() if c}
    terms.setdefault((d,) + (0,) * (n - 1), 1)
    return MultiPoly(rg.ZZ, n, terms)


def var(n, i, ring=rg.ZZ):
    return MultiPoly.variable(ring, n, i)


class TestDefiningIdentity:
    """Disc * Res(f, X_i) = Res(f, J_i), for every slot i."""

    @pytest.mark.parametrize("sig", [DegreeSignature(2, (2,)), DegreeSignature(2, (3,))])
    def test_binary(self, sig):
        rnd = random.Random(sum(sig.degrees))
        for _ in range(6):
            f = rand_form(rnd, 2, sig.degrees[0])
            disc = disc_points([f], sig)
            for i in (1, 2):
                ji = jac_minor([f], sig, i)
                jsig = DegreeSignature(2, (sig.degrees[0], sig.degrees[0] - 1))
                xsig = DegreeSignature(2, (sig.degrees[0], 1))
                num = resultant([f, ji], jsig)
                den = resultant([f, var(2, i)], xsig)
                assert disc * den == num

    def test_ternary_pair(self):
        rnd = random.Random(17)
        sig = DegreeSignature(3, (2, 2))
        fs = [rand_form(rnd, 3, 2), rand_form(rnd, 3, 2)]
        disc = disc_points(tuple(fs), sig)
        for i in (1, 2, 3):
            ji = jac_minor(fs, sig, i)
            num = resultant(fs + [ji], DegreeSignature(3, (2, 2, 2)))
            den = resultant(fs + [var(3, i)], DegreeSignature(3, (2, 2, 1)))
            assert disc * den == num

    @pytest.mark.parametrize(
        "degrees",
        [(1,), (2,), (3,), (1, 2), (2, 2), (3, 3), (1, 1, 3), (2, 1, 1), (1, 3, 1)],
    )
    def test_restricted_denominator_matches_macaulay(self, degrees):
        # Res(f, X_i) = (-1)^((n-i) d_1...d_{n-1}) Res(f restricted to X_i = 0)
        n = len(degrees) + 1
        sig = DegreeSignature(n, degrees)
        rnd = random.Random(n * 10 + sum(degrees))
        fs = [rand_form(rnd, n, d) for d in degrees]
        xsig = DegreeSignature(n, degrees + (1,))
        for i in range(1, n + 1):
            full = resultant(fs + [var(n, i)], xsig, use_fast_paths=False)
            assert _res_with_variable(fs, sig, i) == full

    def test_all_linear_is_one(self):
        fs = [
            MultiPoly(rg.ZZ, 3, {(1, 0, 0): 2, (0, 1, 0): 1}),
            MultiPoly(rg.ZZ, 3, {(0, 1, 0): 1, (0, 0, 1): -3}),
        ]
        assert disc_points(fs, DegreeSignature(3, (1, 1))).value == 1


class TestFrozenSmallCases:
    def test_binary_quadratic(self):
        ext = rg.polyext(rg.ZZ, ("a", "b", "c"))

        def sym(i):
            e = [0, 0, 0]
            e[i] = 1
            return MultiPoly(rg.ZZ, 3, {tuple(e): 1})

        f = MultiPoly(ext, 2, {(2, 0): sym(0), (1, 1): sym(1), (0, 2): sym(2)})
        disc = disc_points([f], DegreeSignature(2, (2,)))
        assert disc.value.terms == {(1, 0, 1): 4, (0, 2, 0): -1}  # 4ac - b^2

    def test_binary_cubic(self):
        ext = rg.polyext(rg.ZZ, ("a", "b", "c", "e"))

        def sym(i):
            e = [0] * 4
            e[i] = 1
            return MultiPoly(rg.ZZ, 4, {tuple(e): 1})

        f = MultiPoly(
            ext,
            2,
            {(3, 0): sym(0), (2, 1): sym(1), (1, 2): sym(2), (0, 3): sym(3)},
        )
        disc = disc_points([f], DegreeSignature(2, (3,)))
        expected = {
            (0, 3, 0, 1): 4,  # 4 b^3 e
            (1, 1, 1, 1): -18,  # -18 a b c e
            (0, 2, 2, 0): -1,  # -b^2 c^2
            (1, 0, 3, 0): 4,  # 4 a c^3
            (2, 0, 0, 2): 27,  # 27 a^2 e^2
        }
        assert disc.value.terms == expected

    def test_quadratic_specialization(self):
        f = MultiPoly(rg.ZZ, 2, {(2, 0): 3, (1, 1): 5, (0, 2): 7})
        assert disc_points([f], DegreeSignature(2, (2,))).value == 4 * 3 * 7 - 25


class TestDegrees:
    def test_partial_degrees_match_generic(self):
        sig = DegreeSignature(3, (2, 2))
        entry = generic_disc(sig, kind="points")
        for i in (1, 2):
            want = disc_points_degree(sig, i)
            got = 0
            for e in entry.disc.terms:
                slot = sum(
                    k
                    for name, k in zip(entry.names, e)
                    if name.startswith(f"U{i}_")
                )
                got = max(got, slot)
            assert got == want

    def test_total_degree_is_slot_sum(self):
        for sig in (
            DegreeSignature(2, (3,)),
            DegreeSignature(3, (2, 2)),
            DegreeSignature(4, (2, 1, 3)),
        ):
            assert total_degree(sig) == sum(
                disc_points_degree(sig, i + 1) for i in range(sig.r)
            )

    def test_generic_total_degree(self):
        sig = DegreeSignature(2, (3,))
        entry = generic_disc(sig, kind="points")
        assert max(sum(e) for e in entry.disc.terms) == total_degree(sig)


class TestInvariance:
    def test_permutation(self):
        rnd = random.Random(23)
        sig = DegreeSignature(3, (2, 2))
        for _ in range(4):
            f1, f2 = rand_form(rnd, 3, 2), rand_form(rnd, 3, 2)
            assert disc_points([f1, f2], sig) == disc_points([f2, f1], sig)

    def test_covariance_same_degree_block(self):
        # mixing slots of equal degree by an integer matrix phi scales
        # the discriminant by det(phi)^(d1 d2 ((d-1) + sum(d_i - 1)) / d)
        rnd = random.Random(29)
        sig = DegreeSignature(3, (2, 2))
        expo = (4 * (1 + 2)) // 2
        for _ in range(5):
            f1, f2 = rand_form(rnd, 3, 2), rand_form(rnd, 3, 2)
            u = [[rnd.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            det = u[0][0] * u[1][1] - u[0][1] * u[1][0]
            mixed = [
                f1.scale_int(u[0][0]).add(f2.scale_int(u[0][1])),
                f1.scale_int(u[1][0]).add(f2.scale_int(u[1][1])),
            ]
            if any(m.is_zero() for m in mixed):
                continue
            lhs = disc_points(mixed, sig)
            rhs = disc_points([f1, f2], sig)
            assert lhs.value == det**expo * rhs.value

    def test_degenerate_cubic_pairs(self):
        # two plane-cubic pairs whose numerator resultants have a singular
        # Macaulay denominator; the values come from a separate computation
        # of Macaulay ratios with sympy determinants
        rng = random.Random(5)
        pairs = [(acceptance_form(rng), acceptance_form(rng)) for _ in range(5)]
        sig = DegreeSignature(3, (3, 3))
        expected = {
            1: -353105950122466797716438272,
            4: 300732618119885532569698588,
        }
        for k, value in expected.items():
            f, g = pairs[k]
            assert disc_points([f, g], sig).value == value
            assert disc_points([g, f], sig).value == value
            traced = disc_points_traced([h.change_ring(rg.Zmod(2)) for h in (f, g)], sig)
            assert traced.strategy == "division"
            assert traced.value.value == value % 2

    def test_linear_change_of_coordinates(self):
        # Disc(f o phi) = det(phi)^(d1...d_{n-1} sum(d_i - 1)) Disc(f)
        rnd = random.Random(31)
        sig = DegreeSignature(2, (3,))
        expo = 3 * 2
        for _ in range(6):
            f = rand_form(rnd, 2, 3)
            c = [[rnd.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            det = c[0][0] * c[1][1] - c[0][1] * c[1][0]
            images = [
                MultiPoly(rg.ZZ, 2, {(1, 0): c[0][0], (0, 1): c[0][1]}),
                MultiPoly(rg.ZZ, 2, {(1, 0): c[1][0], (0, 1): c[1][1]}),
            ]
            images = [
                MultiPoly(rg.ZZ, 2, {e: v for e, v in im.terms.items() if v})
                for im in images
            ]
            if any(im.is_zero() for im in images):
                continue
            fphi = substitute(f, images)
            lhs = disc_points([fphi], sig)
            rhs = disc_points([f], sig)
            assert lhs.value == det**expo * rhs.value


class TestMultiplicativity:
    @pytest.mark.parametrize("dsplit", [(1, 1), (1, 2), (2, 2), (1, 3)])
    def test_binary_split(self, dsplit):
        d1p, d1pp = dsplit
        rnd = random.Random(d1p * 31 + d1pp)
        for _ in range(5):
            fp = rand_form(rnd, 2, d1p)
            fpp = rand_form(rnd, 2, d1pp)
            s = d1p * d1pp
            lhs = disc_points([fp.mul(fpp)], DegreeSignature(2, (d1p + d1pp,)))
            rhs = (
                disc_points([fp], DegreeSignature(2, (d1p,)))
                * disc_points([fpp], DegreeSignature(2, (d1pp,)))
                * resultant([fp, fpp], DegreeSignature(2, (d1p, d1pp))) ** 2
            )
            if s % 2:
                rhs = rhs * rg.element(rg.ZZ, -1)
            assert lhs == rhs

    def test_ternary_split(self):
        rnd = random.Random(37)
        sig = DegreeSignature(3, (2, 2))
        for _ in range(4):
            l1 = rand_form(rnd, 3, 1)
            l2 = rand_form(rnd, 3, 1)
            f2 = rand_form(rnd, 3, 2)
            s = 1 * 1 * 2
            lhs = disc_points([l1.mul(l2), f2], sig)
            rhs = (
                disc_points([l1, f2], DegreeSignature(3, (1, 2)))
                * disc_points([l2, f2], DegreeSignature(3, (1, 2)))
                * resultant([l1, l2, f2], DegreeSignature(3, (1, 1, 2))) ** 2
            )
            if s % 2:
                rhs = rhs * rg.element(rg.ZZ, -1)
            assert lhs == rhs

    def test_split_into_linear_forms(self):
        """Fully split slots against the determinant-product formula."""
        rnd = random.Random(41)
        for _ in range(4):
            lines = [
                [rand_form(rnd, 3, 1) for _ in range(2)],
                [rand_form(rnd, 3, 1) for _ in range(2)],
            ]
            fs = [lines[0][0].mul(lines[0][1]), lines[1][0].mul(lines[1][1])]
            direct = disc_points(fs, DegreeSignature(3, (2, 2)))
            from_dets = linear_forms_disc(lines)
            assert direct == from_dets

    def test_binary_linear_split(self):
        rnd = random.Random(43)
        for _ in range(4):
            ls = [rand_form(rnd, 2, 1) for _ in range(3)]
            f = ls[0].mul(ls[1]).mul(ls[2])
            direct = disc_points([f], DegreeSignature(2, (3,)))
            from_dets = linear_forms_disc([ls])
            assert direct == from_dets


class TestBaseChange:
    def test_cofactor_is_exact_and_graded(self):
        rnd = random.Random(47)
        sig = DegreeSignature(2, (2,))
        for _ in range(3):
            f = rand_form(rnd, 2, 2, -4, 4)
            gs = [rand_form(rnd, 2, 2, -3, 3), rand_form(rnd, 2, 2, -3, 3)]
            det_like = resultant(gs, DegreeSignature(2, (2, 2)))
            if det_like.is_zero():
                continue
            K = base_change_K([f], sig, gs)
            # the factorization it asserts: recompose and compare
            comp = [substitute(f, gs)]
            lhs = disc_points(comp, DegreeSignature(2, (4,)))
            d = 2
            e = math.prod(sig.degrees) * sum(x - 1 for x in sig.degrees)
            rhs = disc_points([f], sig) ** (d ** (2 - 1)) * det_like**e * K
            assert lhs == rhs

    def test_degree_formulas_match_generic_shape(self):
        sig = DegreeSignature(2, (2,))
        assert base_change_K_degree(sig, 2) == 2 * 1 * 1 * 1 * 2
        assert base_change_K_fdegree(sig, 2, 1) == 2 * 1 * 1 * 1


class TestModDelta:
    def test_printed_ternary_quadric_delta(self):
        """Two generic ternary quadrics: Delta has the 2x2 coefficient
        determinants of the mixed monomials as its printed shape mod 2."""
        sig = DegreeSignature(3, (2, 2))
        ext, fs = generic_system(sig)
        delta = delta_mod_delta(fs, sig)
        ring2 = delta.ring
        names = ring2.variables
        pos = {nm: k for k, nm in enumerate(names)}

        def det2(p, q):
            # |a_p a_q| over |b_p b_q| as a payload over the mod-2 ring
            terms = {}
            for first, second in ((f"U1_{p}", f"U2_{q}"), (f"U1_{q}", f"U2_{p}")):
                e = [0] * len(names)
                e[pos[first]] += 1
                e[pos[second]] += 1
                terms[tuple(e)] = (terms.get(tuple(e), 0) + 1) % 2
            return MultiPoly(rg.scalar_base(ring2), len(names), {e: c for e, c in terms.items() if c})

        expected = MultiPoly(
            ring2,
            3,
            {
                (1, 0, 0): det2("1_1_0", "1_0_1"),
                (0, 1, 0): det2("1_1_0", "0_1_1"),
                (0, 0, 1): det2("1_0_1", "0_1_1"),
            },
        )
        assert delta.eq(expected)

    def test_disc_equals_resultant_with_delta(self):
        rnd = random.Random(53)
        sig = DegreeSignature(3, (2, 2))
        ring2 = rg.Zmod(2)
        for _ in range(4):
            fs = [
                rand_form(rnd, 3, 2).change_ring(ring2),
                rand_form(rnd, 3, 2).change_ring(ring2),
            ]
            delta = delta_mod_delta(fs, sig)
            disc = disc_points(fs, sig)
            res = resultant(fs + [delta], DegreeSignature(3, (2, 2, 1)))
            assert disc == res

    def test_delta_requires_common_divisor(self):
        fs = [
            MultiPoly(rg.ZZ, 3, {(2, 0, 0): 1}),
            MultiPoly(rg.ZZ, 3, {(0, 1, 0): 1}),
        ]
        with pytest.raises(DeltaIsOne):
            delta_mod_delta(fs, DegreeSignature(3, (2, 1)))


class TestCharacteristicTwo:
    def test_generic_pair_is_square(self):
        sig = DegreeSignature(3, (2, 2))
        ext, fs = generic_system(sig, base=rg.Zmod(2))
        disc = disc_points(fs, sig)
        root = poly_sqrt(disc.value)
        assert root is not None
        assert root.mul(root).eq(disc.value)


class TestSpecializationStability:
    @pytest.mark.parametrize("p", [2, 3, 5, 101])
    def test_reduction_mod_p(self, p):
        rnd = random.Random(p)
        sig = DegreeSignature(2, (3,))
        ring = rg.Zmod(p)
        for _ in range(4):
            f = rand_form(rnd, 2, 3)
            over_z = disc_points([f], sig).value % p
            over_p = disc_points([f.change_ring(ring)], sig).value
            assert over_z == over_p


class TestGenericCacheAgreement:
    @pytest.mark.parametrize(
        "sig",
        [
            DegreeSignature(2, (2,)),
            DegreeSignature(2, (3,)),
            DegreeSignature(3, (2, 2)),
        ],
    )
    def test_fast_path_equals_cache(self, sig):
        entry = generic_disc(sig, kind="points")
        rnd = random.Random(61)
        for _ in range(10):
            fs = [rand_form(rnd, sig.nvars, d, -5, 5) for d in sig.degrees]
            assert disc_points(fs, sig) == entry.specialize(fs)

    def test_perturbation_route_equals_cache(self):
        # both conics pass through (1:0:0) and (0:0:1), so each coordinate
        # line meets a common zero and every Res(f, X_i) vanishes
        sig = DegreeSignature(3, (2, 2))
        entry = generic_disc(sig, kind="points")
        rnd = random.Random(62)
        monos = [e for e in monomials_of_degree(3, 2) if e[0] < 2 and e[2] < 2]
        nonzero = 0
        for _ in range(3):
            fs = [
                MultiPoly(rg.ZZ, 3, {e: c for e in monos if (c := rnd.randint(-5, 5))})
                for _ in range(2)
            ]
            traced = disc_points_traced(fs, sig)
            assert traced.strategy == "perturbation"
            assert traced.value == entry.specialize(fs)
            nonzero += not traced.value.is_zero()
        assert nonzero
