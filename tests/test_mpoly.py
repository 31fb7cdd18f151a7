"""Sparse multivariate polynomials over the coefficient rings."""

import math
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import elimkit.ring as rg
from elimkit.disc_hyper import disc_hyper_basechange
from elimkit.disc_points import base_change_K, disc_points, linear_forms_disc
from elimkit.errors import (
    NonHomogeneous,
    NotDivisible,
    RingMismatch,
    SignatureMismatch,
    UnweightedSymbol,
)
from elimkit.jacobian import jac_full, jac_minor
from elimkit.mertens import lemmaA_product, theta
from elimkit.mpoly import (
    DegreeSignature,
    _encode,
    _guard_bits,
    _width_for,
    from_keys,
    MultiPoly,
    dehomogenize,
    evaluate_coefficients,
    flatten_extension,
    generic_coeff_names,
    generic_polynomial,
    generic_system,
    grlex_key,
    is_homogeneous,
    isobaric_part,
    lift_poly,
    monomials_of_degree,
    parse_generic_name,
    partial_derivative,
    poly_content,
    poly_exact_div,
    poly_sqrt,
    unflatten_extension,
    weight_valuation,
    zariski_weight_vector,
)
from elimkit.oracle import poi_check, singular_points
from elimkit.resultant import resultant


def P(terms, ring=rg.ZZ, nvars=2):
    return MultiPoly(ring, nvars, terms)


def small_polys(nvars=2, maxdeg=3, coeff=st.integers(-6, 6), ring=rg.ZZ):
    exps = st.tuples(*([st.integers(0, maxdeg)] * nvars))
    return st.dictionaries(exps, coeff, max_size=5).map(
        lambda d: MultiPoly(ring, nvars, {e: c for e, c in d.items() if not rg.val_is_zero(ring, c)})
    )


# payload strategies of the coefficient rings poly_exact_div serves; a + b*s over Z[s]
DIVISION_PAYLOADS = {
    rg.ZZ: st.integers(-6, 6),
    rg.QQ: st.fractions(-4, 4, max_denominator=5),
    rg.Zmod(7): st.integers(0, 6),
    rg.polyext(rg.ZZ, ("s",)): st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda t: MultiPoly(rg.ZZ, 1, {(k,): c for k, c in enumerate(t) if c})
    ),
}


class TestArithmetic:
    def test_add_cancels(self):
        f = P({(1, 0): 2, (0, 1): 3})
        g = P({(1, 0): -2, (0, 2): 1})
        h = f.add(g)
        assert h.terms == {(0, 1): 3, (0, 2): 1}

    def test_mul(self):
        f = P({(1, 0): 1, (0, 1): 1})
        assert f.mul(f).terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_pow(self):
        f = P({(1, 0): 1, (0, 0): 1})
        cube = f.pow(3)
        assert cube.terms == {(3, 0): 1, (2, 0): 3, (1, 0): 3, (0, 0): 1}
        assert f.pow(0).constant_value() == 1

    def test_ring_mismatch(self):
        f = P({(1, 0): 1})
        g = P({(1, 0): 1}, ring=rg.QQ)
        with pytest.raises(RingMismatch):
            f.add(g)

    def test_zero_handling(self):
        z = MultiPoly.zero(rg.ZZ, 3)
        assert z.is_zero()
        f = P({(1, 0, 0): 4}, nvars=3)
        assert f.add(z).eq(f)
        assert f.mul(z).is_zero()

    def test_evaluate(self):
        f = P({(2, 0): 1, (1, 1): -1, (0, 0): 5})
        assert f.evaluate([3, 2]) == 9 - 6 + 5

    def test_substitute_into_other_ring(self):
        f = P({(2, 0): 1, (0, 1): 1})
        x = MultiPoly(rg.QQ, 1, {(1,): rg.val_from_int(rg.QQ, 1)})
        one = MultiPoly.from_int(rg.QQ, 1, 1)
        g = f.substitute([x, one])
        assert g.ring == rg.QQ
        assert g.terms[(2,)] == 1 and g.terms[(0,)] == 1

    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=60, deadline=None)
    def test_mul_distributes(self, f, g, h):
        assert f.mul(g.add(h)).eq(f.mul(g).add(f.mul(h)))

    @given(small_polys(), small_polys())
    @settings(max_examples=60, deadline=None)
    def test_mul_commutes(self, f, g):
        assert f.mul(g).eq(g.mul(f))


class TestOrderingHelpers:
    def test_grlex_key_sorts_by_degree_first(self):
        exps = [(0, 2), (1, 0), (2, 0), (0, 0), (1, 1)]
        exps.sort(key=grlex_key)
        assert exps == [(0, 0), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_monomials_of_degree(self):
        mons = monomials_of_degree(2, 3)
        assert mons == [(3, 0), (2, 1), (1, 2), (0, 3)]
        assert len(monomials_of_degree(3, 4)) == math.comb(6, 2)

    def test_monomials_cover_binomial_count(self):
        for n in range(1, 5):
            for d in range(0, 5):
                assert len(monomials_of_degree(n, d)) == math.comb(n + d - 1, n - 1)


class TestCalculus:
    def test_partial_derivative(self):
        f = P({(3, 0): 1, (1, 2): 4})
        assert partial_derivative(f, 1).terms == {(2, 0): 3, (0, 2): 4}
        assert partial_derivative(f, 2).terms == {(1, 1): 8}

    def test_euler_identity(self):
        f = P({(2, 1): 5, (0, 3): -2})
        acc = MultiPoly.zero(rg.ZZ, 2)
        for i in (1, 2):
            xi = MultiPoly.variable(rg.ZZ, 2, i)
            acc = acc.add(xi.mul(partial_derivative(f, i)))
        assert acc.eq(f.map_coefficients(lambda c: 3 * c))

    def test_homogeneity_detection(self):
        assert is_homogeneous(P({(2, 0): 1, (1, 1): 2})) == 2
        assert is_homogeneous(P({(2, 0): 1, (1, 0): 2})) is None
        assert is_homogeneous(MultiPoly.zero(rg.ZZ, 2)) == "any"

    def test_dehomogenize_one_drops_variable(self):
        f = P({(2, 0): 1, (1, 1): 3, (0, 2): 2})
        g = dehomogenize(f, 2, "one")
        assert g.nvars == 1
        assert g.terms == {(2,): 1, (1,): 3, (0,): 2}

    def test_dehomogenize_zero_keeps_rank(self):
        f = P({(2, 0): 1, (1, 1): 3})
        g = dehomogenize(f, 2, "zero")
        assert g.nvars == 2
        assert g.terms == {(2, 0): 1}


class TestExactDivision:
    def test_poly_exact_div(self):
        f = P({(1, 0): 1, (0, 1): 1})
        g = P({(1, 0): 2, (0, 1): -1})
        q = poly_exact_div(f.mul(g), g)
        assert q.eq(f)

    def test_poly_exact_div_failure(self):
        with pytest.raises(NotDivisible):
            poly_exact_div(P({(2, 0): 1, (0, 0): 1}), P({(1, 0): 1}))

    @given(small_polys(), small_polys())
    @settings(max_examples=40, deadline=None)
    def test_div_undoes_mul(self, f, g):
        if g.is_zero():
            return
        assert poly_exact_div(f.mul(g), g).eq(f)

    @pytest.mark.parametrize("ring", list(DIVISION_PAYLOADS), ids=repr)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_quotient_and_remainder_witness(self, ring, data):
        """(q*b)/b == q; q*b + r raises when no term of r reaches lead(b)."""
        polys = small_polys(coeff=DIVISION_PAYLOADS[ring], ring=ring)
        q, b = data.draw(polys), data.draw(polys)
        if b.is_zero():
            return
        assert poly_exact_div(q.mul(b), b).eq(q)
        lead = grlex_key(b.leading()[0])
        r = data.draw(polys)
        r = MultiPoly(ring, 2, {e: c for e, c in r.terms.items() if grlex_key(e) < lead})
        if r.is_zero():
            return
        with pytest.raises(NotDivisible) as info:
            poly_exact_div(q.mul(b).add(r), b)
        assert isinstance(info.value.witness, MultiPoly)
        assert info.value.witness.ring == ring and not info.value.witness.is_zero()

    def test_failure_raises_under_python_dash_o(self):
        code = (
            "from elimkit import ring as rg\n"
            "from elimkit.errors import NotDivisible\n"
            "from elimkit.mpoly import MultiPoly, poly_exact_div\n"
            "a = MultiPoly(rg.ZZ, 2, {(2, 0): 2, (0, 0): 1})\n"
            "b = MultiPoly(rg.ZZ, 2, {(1, 0): 2})\n"
            "try:\n"
            "    poly_exact_div(a, b)\n"
            "except NotDivisible as exc:\n"
            "    print(exc.witness.terms)\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0 and out.stdout.strip() == "{(0, 0): 1}"

    def test_poly_sqrt(self):
        f = P({(2, 0): 1, (1, 1): -3, (0, 1): 7})
        r = poly_sqrt(f.mul(f))
        assert r.eq(f) or r.eq(f.neg())

    def test_poly_sqrt_rejects_nonsquare(self):
        assert poly_sqrt(P({(1, 0): 1, (0, 0): 1})) is None
        assert poly_sqrt(P({(2, 0): 2})) is None

    def test_poly_sqrt_char2(self):
        ring = rg.Zmod(2)
        f = MultiPoly(ring, 2, {(1, 0): 1, (0, 1): 1})
        sq = f.mul(f)
        assert sq.terms == {(2, 0): 1, (0, 2): 1}
        assert poly_sqrt(sq).eq(f)

    def test_poly_content(self):
        f = P({(1, 0): 6, (0, 1): -9})
        assert poly_content(f).value == 3


def ref_add(ring, a, b, negate=False):
    """a + b (a - b when ``negate``) on tuple-key dicts."""
    out = dict(a)
    for e, c in b.items():
        if negate:
            c = rg.val_neg(ring, c)
        s = rg.val_add(ring, out[e], c) if e in out else c
        if rg.val_is_zero(ring, s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def ref_mul(ring, a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            p = rg.val_mul(ring, c1, c2)
            out[e] = rg.val_add(ring, out[e], p) if e in out else p
    return {e: c for e, c in out.items() if not rg.val_is_zero(ring, c)}


def ref_leading(terms):
    e = max(terms, key=grlex_key)
    return e, terms[e]


def ref_div(ring, a, b):
    """(quotient, None), or (None, the remainder when leading-term division stops)."""
    eb, cb = ref_leading(b)
    rem, q = dict(a), {}
    while rem:
        er, cr = ref_leading(rem)
        ne = tuple(x - y for x, y in zip(er, eb))
        if any(k < 0 for k in ne):
            return None, rem
        try:
            qc = rg.val_exact_divide(ring, cr, cb)
        except NotDivisible:
            return None, rem
        q[ne] = qc
        rem = ref_add(ring, rem, ref_mul(ring, {ne: qc}, b), negate=True)
    return q, None


# payloads of Z, Q, Z/12 and Z[s]; exponents small, at a width boundary, or
# large enough to widen the keys
PACKED_PAYLOADS = {**DIVISION_PAYLOADS, rg.Zmod(12): st.integers(0, 11)}
del PACKED_PAYLOADS[rg.Zmod(7)]
EXPONENTS = st.one_of(st.integers(0, 3), st.sampled_from([63, 64, 127, 128, 2**40]))


def term_dicts(ring, nvars, exponents=EXPONENTS):
    exps = st.tuples(*([exponents] * nvars))
    return st.dictionaries(exps, PACKED_PAYLOADS[ring], max_size=4).map(
        lambda d: {e: c for e, c in d.items() if not rg.val_is_zero(ring, c)}
    )


class TestPackedKeys:
    """Integer monomial keys against the exponent tuples they stand for."""

    def test_pack_round_trip(self):
        for exp in [(3, 0, 7, 1), (127, 0, 0, 0), (0, 64, 63, 0), (128, 0, 0, 0), (2**40, 1, 0, 5), ()]:
            p = MultiPoly(rg.ZZ, len(exp), {exp: 1})
            keys, w = p._packed()
            assert w == _width_for(sum(exp)) and from_keys(rg.ZZ, len(exp), keys, w).terms == {exp: 1}
        assert _width_for(127) == 8 and _width_for(128) == 16 and _width_for(2**40 + 6) == 64
        # widening a polynomial keeps its terms
        p = MultiPoly(rg.ZZ, 3, {(1, 2, 3): 4, (0, 0, 0): -1})
        keys, w = p._packed(32)
        assert w == 32 and from_keys(rg.ZZ, 3, keys, w).terms == {(1, 2, 3): 4, (0, 0, 0): -1}

    def test_integer_order_is_grlex_order(self):
        exps = [e for d in range(5) for e in monomials_of_degree(3, d)] + [(127, 0, 0), (0, 0, 127)]
        for w in (8, 16, 64):
            keys = {_encode(e, w): e for e in exps}
            assert [keys[k] for k in sorted(keys)] == sorted(exps, key=grlex_key)

    def test_guard_bit_catches_a_borrow(self):
        """X1 / X2: equal degrees, so only the borrow from the X2 field shows."""
        x1, x2 = MultiPoly.variable(rg.ZZ, 2, 1), MultiPoly.variable(rg.ZZ, 2, 2)
        (k1,), w = x1._packed()
        (k2,), _ = x2._packed()
        assert k1 > k2 and (k1 - k2) & _guard_bits(w, 2)
        with pytest.raises(NotDivisible) as info:
            poly_exact_div(x1, x2)
        assert info.value.witness.terms == {(1, 0): 1}
        assert poly_exact_div(x1.mul(x2), x2).terms == {(1, 0): 1}

    @pytest.mark.parametrize("ring", list(PACKED_PAYLOADS), ids=repr)
    @pytest.mark.parametrize("nvars", [0, 1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_against_tuple_reference(self, ring, nvars, data):
        a, b = (data.draw(term_dicts(ring, nvars)) for _ in range(2))
        # small exponents in the part that spoils divisibility: dividing
        # X1^(2^40) by X1 + X2 would take 2^40 steps before it failed
        c = data.draw(term_dicts(ring, nvars, st.integers(0, 3)))
        A, B = MultiPoly(ring, nvars, dict(a)), MultiPoly(ring, nvars, dict(b))
        assert A.mul(B).terms == ref_mul(ring, a, b)
        assert A.add(B).terms == ref_add(ring, a, b)
        assert A.sub(B).terms == ref_add(ring, a, b, negate=True)
        assert A.eq(B) == (a == b)
        if a:
            assert A.leading() == ref_leading(a)
        # the same polynomial on wider keys, through a product and a quotient
        big = MultiPoly.monomial(ring, nvars, (300,) * nvars, rg.val_one(ring))
        wide = poly_exact_div(A.mul(big), big)
        assert wide.eq(A) and A.eq(wide) and wide.terms == a
        if not b:
            return
        for dividend in (ref_mul(ring, a, b), ref_add(ring, ref_mul(ring, a, b), c)):
            q, rem = ref_div(ring, dividend, b)
            if q is not None:
                assert poly_exact_div(MultiPoly(ring, nvars, dividend), B).terms == q
            else:
                with pytest.raises(NotDivisible) as info:
                    poly_exact_div(MultiPoly(ring, nvars, dividend), B)
                assert info.value.witness.terms == rem

    def test_failures_raise_under_python_dash_o(self):
        """A guard-bit-only monomial failure and a coefficient failure, on
        both division paths; each witness carries tuple keys."""
        code = (
            "from elimkit import ring as rg\n"
            "from elimkit.errors import NotDivisible\n"
            "from elimkit.mpoly import MultiPoly, poly_exact_div\n"
            "cases = [\n"
            "    ({(1, 0): 1}, {(0, 1): 1}),\n"
            "    ({(1, 1): 3}, {(0, 1): 2}),\n"
            "    ({(2, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 1): 1}),\n"
            "    ({(2, 0): 2, (1, 1): 1}, {(1, 0): 2, (0, 1): 2}),\n"
            "]\n"
            "for a, b in cases:\n"
            "    try:\n"
            "        poly_exact_div(MultiPoly(rg.ZZ, 2, a), MultiPoly(rg.ZZ, 2, b))\n"
            "    except NotDivisible as exc:\n"
            "        print(sorted(exc.witness.terms.items()))\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n")[:4] == [
            "[((1, 0), 1)]",
            "[((1, 1), 3)]",
            "[((0, 0), 1), ((0, 2), 1)]",
            "[((1, 1), -1)]",
        ]


class TestGenericSystems:
    def test_names_and_layout(self):
        sig = DegreeSignature(2, (2,))
        names = generic_coeff_names(sig, 1)
        assert list(names) == ["U1_2_0", "U1_1_1", "U1_0_2"]
        assert parse_generic_name("U1_1_1") == (1, (1, 1))
        assert parse_generic_name("U12_0_3_1") == (12, (0, 3, 1))

    def test_generic_polynomial_is_generic(self):
        sig = DegreeSignature(3, (2, 1))
        ext, fs = generic_system(sig)
        assert len(fs) == 2
        assert is_homogeneous(fs[0]) == 2 and is_homogeneous(fs[1]) == 1
        # each coefficient is a distinct extension symbol
        assert len(ext.variables) == 6 + 3

    def test_generic_polynomial_single(self):
        sig = DegreeSignature(2, (3, 1))
        f = generic_polynomial(sig, 2)
        assert is_homogeneous(f) == 1

    def test_generic_system_other_base(self):
        ext, fs = generic_system(DegreeSignature(2, (2,)), base=rg.Zmod(3))
        assert rg.scalar_base(ext) == rg.Zmod(3)


class TestLiftAndFlatten:
    def test_lift_modular_poly(self):
        f = MultiPoly(rg.Zmod(5), 2, {(1, 0): 3, (0, 1): 4})
        g = lift_poly(f)
        assert g.ring == rg.ZZ and g.terms == {(1, 0): 3, (0, 1): 4}

    def test_flatten_round_trip(self):
        ext = rg.polyext(rg.ZZ, ("a", "b"))
        f = MultiPoly(
            ext,
            2,
            {
                (1, 0): MultiPoly(rg.ZZ, 2, {(1, 0): 2}),
                (0, 1): MultiPoly(rg.ZZ, 2, {(0, 1): -1, (0, 0): 5}),
            },
        )
        flat = flatten_extension(f)
        assert flat.ring == rg.ZZ and flat.nvars == 4
        back = unflatten_extension(flat, ext, 2)
        assert back.eq(f)

    def test_evaluate_coefficients(self):
        ext = rg.polyext(rg.ZZ, ("a",))
        f = MultiPoly(
            ext,
            1,
            {(2,): MultiPoly(rg.ZZ, 1, {(1,): 1}), (0,): MultiPoly(rg.ZZ, 1, {(0,): 3})},
        )
        g = evaluate_coefficients(f, [rg.element(rg.ZZ, 7)])
        assert g.ring == rg.ZZ and g.terms == {(2,): 7, (0,): 3}


class TestWeights:
    def test_zariski_weight_vector(self):
        sig = DegreeSignature(2, (3,))
        w = zariski_weight_vector(sig, (1,))
        assert w.weight_of("U1_0_3") == 2
        assert w.weight_of("U1_1_2") == 1
        assert w.weight_of("U1_2_1") == 0
        assert w.weight_of("U1_3_0") == 0

    def test_weight_valuation_and_isobaric_part(self):
        sig = DegreeSignature(2, (2,))
        ext, (f,) = generic_system(sig)
        w = zariski_weight_vector(sig, (1,))
        disc_like = f.coefficient_of((2, 0))
        x = rg.RingElement(ext, disc_like)
        assert weight_valuation(x, w) == 0
        y = rg.RingElement(ext, f.coefficient_of((0, 2)))
        assert weight_valuation(y, w) == 1
        both = rg.RingElement(ext, rg.val_add(ext, disc_like, f.coefficient_of((0, 2))))
        assert weight_valuation(both, w) == 0
        low = isobaric_part(both, w, 0)
        assert low.value.eq(disc_like)

    def test_weight_requires_known_symbols(self):
        sig = DegreeSignature(2, (2,))
        w = zariski_weight_vector(sig, (0,))
        other = rg.polyext(rg.ZZ, ("mystery",))
        z = rg.RingElement(other, MultiPoly(rg.ZZ, 1, {(1,): 1}))
        with pytest.raises(UnweightedSymbol):
            weight_valuation(z, w)

    def test_weight_valuation_of_zero(self):
        sig = DegreeSignature(2, (2,))
        ext, _ = generic_system(sig)
        w = zariski_weight_vector(sig, (0,))
        assert weight_valuation(rg.element(ext, 0), w) == math.inf


class TestSignature:
    def test_validation(self):
        with pytest.raises(SignatureMismatch):
            DegreeSignature(0, ())
        with pytest.raises(SignatureMismatch):
            DegreeSignature(2, (0, 1))

    def test_critical_degree(self):
        sig = DegreeSignature(3, (2, 3, 4))
        assert sig.critical_degree == (1 + 2 + 3) + 1
        assert sig.r == 3


def _form(ring, n, exps):
    return MultiPoly(ring, n, {e: 1 for e in exps})


def _good(n, d):
    """X1^d + Xn^d over Z/5."""
    return _form(rg.Zmod(5), n, [(d,) + (0,) * (n - 1), (0,) * (n - 1) + (d,)])


def _odd(defect, n, d):
    """A degree-d form in n variables that breaks one rule of the input contract."""
    if defect == "ring":
        return _form(rg.Zmod(7), n, [(d,) + (0,) * (n - 1)])
    if defect == "nvars":
        return _good(n + 1, d)
    # terms of degrees d and d - 1
    return _form(rg.Zmod(5), n, [(d,) + (0,) * (n - 1), (0,) * (n - 1) + (d - 1,)])


CONICS = DegreeSignature(3, (2, 2))

CONTRACT_ENTRIES = {
    "resultant": lambda d: resultant([_good(2, 2), _odd(d, 2, 2)], DegreeSignature(2, (2, 2))),
    "disc_points": lambda d: disc_points([_good(3, 2), _odd(d, 3, 2)], CONICS),
    "jac_minor": lambda d: jac_minor([_good(3, 2), _odd(d, 3, 2)], CONICS, 1),
    "jac_full": lambda d: jac_full([_good(3, 2), _good(3, 2)], CONICS, _odd(d, 3, 2)),
    "theta": lambda d: theta([_good(3, 2), _odd(d, 3, 2)]),
    "lemmaA_product": lambda d: lemmaA_product([[_good(3, 1)], [_odd(d, 3, 1)]]),
    "linear_forms_disc": lambda d: linear_forms_disc([[_good(3, 1)], [_odd(d, 3, 1)]]),
    "singular_points": lambda d: singular_points([_good(3, 2), _odd(d, 3, 2)]),
    "poi_check": lambda d: poi_check([_good(3, 2), _odd(d, 3, 2)]),
    "base_change_K": lambda d: base_change_K(
        [_good(3, 2), _good(3, 2)], CONICS, [_good(3, 2), _good(3, 2), _odd(d, 3, 2)]
    ),
    "disc_hyper_basechange": lambda d: disc_hyper_basechange(
        _good(2, 2), [_good(2, 2), _odd(d, 2, 2)]
    ),
}


@pytest.mark.parametrize(
    "defect,error",
    [("ring", RingMismatch), ("nvars", SignatureMismatch), ("mixed", NonHomogeneous)],
)
@pytest.mark.parametrize("entry", sorted(CONTRACT_ENTRIES))
def test_one_input_contract(entry, defect, error):
    """Every entry point taking a system of forms rejects the same defects the same way."""
    with pytest.raises(error):
        CONTRACT_ENTRIES[entry](defect)
