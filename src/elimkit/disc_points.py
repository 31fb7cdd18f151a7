"""Discriminant of n-1 homogeneous forms in n variables.

The defining identity is

    Disc(f_1,...,f_{n-1}) * Res(f_1,...,f_{n-1}, X_i)
        = Res(f_1,...,f_{n-1}, J_i)      for every i,

with Disc = 1 when every degree is 1.  Specialized inputs are handled
by the division above when some Res(fs, X_i) is a nonzero divisor; when
a second index qualifies too, its quotient must agree with the first,
else IdentityFailed.  Res(fs, X_i) is computed as the resultant of the
forms restricted to X_i = 0, with the sign (-1)^{(n-i) d_1...d_{n-1}}.

Over Z/m the forms are lifted to Z first and the value over Z is reduced
back, as for the resultant: that is how the value over Z/m is defined,
and over Z some Res(fs, X_i) is almost always nonzero, whereas over Z/12
it is a unit only about a third of the time.  The trace reports the
route and index of the computation over Z.

When no index qualifies, the forms (lifted to Z when their scalars are
modular, as over Z/m[s]) are perturbed to f_i + t * X_i^{d_i}.  Disc is
then a polynomial in t of degree at most total_degree(sig), and the
division works at every t where Res(f_t, X_n), monic in t, does not
vanish; Disc at t = 0 is interpolated from integer samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import ring as rg
from .determinants import det_bareiss
from .errors import (
    DeltaIsOne,
    IdentityFailed,
    NotDivisible,
    SignatureMismatch,
    UnsupportedRing,
)
from .jacobian import _validate as _validate_system
from .jacobian import jac_minor, jacobian_degree
from .mpoly import (
    DegreeSignature,
    MultiPoly,
    form_degrees,
    lift_poly,
    substitute,
    substitution_degree,
    via_lift,
)
from .resultant import interpolate_at_zero, resultant

__all__ = [
    "PointDiscInstance",
    "disc_points",
    "disc_points_traced",
    "disc_points_degree",
    "total_degree",
    "linear_forms_disc",
    "delta_mod_delta",
    "base_change_K",
    "base_change_K_degree",
]


@dataclass(frozen=True)
class PointDiscInstance:
    fs: tuple
    sig: DegreeSignature
    value: object  # RingElement
    strategy: str  # "unit-degrees" | "division" | "perturbation"
    index: int | None = None


def disc_points(fs, sig):
    return disc_points_traced(fs, sig).value


def disc_points_traced(fs, sig):
    """Discriminant plus a trace of how it was obtained; over Z/m, the
    strategy and index of the computation over Z."""
    fs = list(fs)
    _validate_system(fs, sig)
    ring = fs[0].ring
    if ring.kind == rg.MODULAR:
        over_z = _traced([lift_poly(f) for f in fs], sig)
        value = rg.RingElement(ring, rg.val_convert(rg.ZZ, ring, over_z.value.value))
        return replace(over_z, fs=tuple(fs), value=value)
    return _traced(fs, sig)


def _traced(fs, sig):
    """disc_points_traced of validated forms, computed in their own ring."""
    ring = fs[0].ring
    if all(d == 1 for d in sig.degrees):
        return PointDiscInstance(tuple(fs), sig, rg.element(ring, 1), "unit-degrees")

    found = _by_division(fs, sig)
    if found is not None:
        value, index = found
        return PointDiscInstance(tuple(fs), sig, value, "division", index=index)

    if rg.scalar_base(ring).kind == rg.MODULAR:
        value = via_lift(lambda lifted: _by_perturbation(lifted, sig), fs)
    else:
        value = _by_perturbation(fs, sig)
    return PointDiscInstance(tuple(fs), sig, value, "perturbation")


def _by_division(fs, sig):
    """(quotient, index) at the smallest index whose denominator is a nonzero divisor.

    The next such index, if any, must give the same quotient.
    """
    n = sig.nvars
    jsig = DegreeSignature(n, sig.degrees + (jacobian_degree(sig),))
    first = None
    for i in range(1, n + 1):
        den = _res_with_variable(fs, sig, i)
        if not den.is_nzd():
            continue
        num = resultant(fs + [jac_minor(fs, sig, i)], jsig)
        try:
            q = rg.exact_divide(num, den)
        except NotDivisible:
            continue
        if first is None:
            first = (q, i)
        elif q != first[0]:
            raise IdentityFailed(
                f"defining identity gave different values at indices {first[1]} and {i}"
            )
        else:
            break
    return first


def _res_with_variable(fs, sig, i):
    """Res(f_1, ..., f_{n-1}, X_i) from the forms restricted to X_i = 0."""
    n = sig.nvars
    pos = i - 1
    restricted = []
    for f in fs:
        kept = {e[:pos] + e[pos + 1 :]: c for e, c in f.terms.items() if e[pos] == 0}
        restricted.append(MultiPoly(f.ring, n - 1, kept))
    res = resultant(restricted, DegreeSignature(n - 1, sig.degrees))
    return -res if (n - i) * math.prod(sig.degrees) % 2 else res


def _by_perturbation(fs, sig):
    """Disc(f_i + t X_i^{d_i}) sampled through _by_division, at t = 0."""
    ring = fs[0].ring
    n = sig.nvars
    bumps = [
        MultiPoly.monomial(ring, n, [d if k == i else 0 for k in range(n)], rg.val_one(ring))
        for i, d in enumerate(sig.degrees)
    ]

    def sample(t):
        found = _by_division([f.add(b.scale_int(t)) for f, b in zip(fs, bumps)], sig)
        return None if found is None else found[0].value

    # Res(f_t, X_n) restricts to a resultant monic in t of this degree
    p = math.prod(sig.degrees)
    skips = sum(p // d for d in sig.degrees)
    return rg.RingElement(ring, interpolate_at_zero(ring, sample, total_degree(sig), skips))


# ---------------------------------------------------------------------------
# degrees
# ---------------------------------------------------------------------------


def disc_points_degree(sig, i):
    """Degree in the coefficients of f_i."""
    if not 1 <= i <= sig.r:
        raise SignatureMismatch(f"index {i} out of range 1..{sig.r}")
    p = math.prod(sig.degrees)
    s = sum(d - 1 for d in sig.degrees)
    di = sig.degrees[i - 1]
    return (p // di) * ((di - 1) + s)


def total_degree(sig):
    n = sig.nvars
    p = math.prod(sig.degrees)
    return (n - 1) * p + (sum(sig.degrees) - n) * sum(p // d for d in sig.degrees)


# ---------------------------------------------------------------------------
# split forms
# ---------------------------------------------------------------------------


def _linear_slots(lines):
    """(ring, n) for n-1 nonempty slots of linear forms in n variables."""
    if not lines or not all(lines):
        raise SignatureMismatch("need at least one slot, each with at least one linear form")
    flat = [l for slot in lines for l in slot]
    n = flat[0].nvars
    if any(d != 1 for d in form_degrees(flat)):
        raise SignatureMismatch("all slot entries must be linear forms")
    if len(lines) != n - 1:
        raise SignatureMismatch(f"expected {n - 1} slots for {n} variables, got {len(lines)}")
    return flat[0].ring, n


def linear_forms_disc(lines):
    """Discriminant of products of linear forms, from the determinant product.

    ``lines[i]`` holds the d_{i+1} linear forms whose product is slot
    i+1.  The value is (-1)^s times the product of squared n x n
    determinants det(l_{1,j_1},...,l_{n-1,j_{n-1}}, l_{i,j}) with the
    pair {j_i, j} taken once per tuple.
    """
    ring, n = _linear_slots(lines)
    degrees = tuple(len(slot) for slot in lines)
    s = (math.prod(degrees) * sum(d - 1 for d in degrees)) // 2

    def coeff_row(l):
        return [l.coefficient_of(tuple(1 if k == j else 0 for k in range(n))) for j in range(n)]

    acc = rg.val_one(ring)
    for combo in _tuples(degrees):
        base_rows = [coeff_row(lines[i][combo[i]]) for i in range(n - 1)]
        for i in range(n - 1):
            for j in range(combo[i] + 1, degrees[i]):
                det = det_bareiss(ring, base_rows + [coeff_row(lines[i][j])])
                acc = rg.val_mul(ring, acc, rg.val_mul(ring, det, det))
    if s % 2:
        acc = rg.val_neg(ring, acc)
    return rg.RingElement(ring, acc)


def _tuples(degrees):
    combos = [()]
    for d in degrees:
        combos = [c + (j,) for c in combos for j in range(d)]
    return combos


# ---------------------------------------------------------------------------
# reduction modulo the gcd of the degrees
# ---------------------------------------------------------------------------


def _mod_delta_ring(ring, delta):
    """The same ring with its scalar base replaced by Z/delta."""
    base = rg.scalar_base(ring)
    if base.kind == rg.INTEGERS:
        new_base = rg.Zmod(delta)
    elif base.kind == rg.MODULAR:
        if base.modulus % delta:
            raise UnsupportedRing(
                f"cannot reduce Z/{base.modulus} modulo {delta}"
            )
        new_base = rg.Zmod(delta)
    else:
        raise UnsupportedRing("reduction modulo delta needs a Z-based ring")
    if ring.kind == rg.POLYEXT:
        return rg.polyext(new_base, ring.variables)
    return new_base


def _reduce_scalar_base(f, new_ring):
    old_base = rg.scalar_base(f.ring)
    new_base = rg.scalar_base(new_ring)

    def conv(c):
        if isinstance(c, MultiPoly):
            return c.map_coefficients(
                lambda s: rg.val_convert(old_base, new_base, s), new_base
            )
        return rg.val_convert(old_base, new_base, c)

    return f.map_coefficients(conv, new_ring)


def delta_mod_delta(fs, sig):
    """The form Delta with J_i = X_i * Delta modulo gcd(d_1,...,d_{n-1})."""
    _validate_system(fs, sig)
    delta = math.gcd(*sig.degrees)
    if delta < 2:
        raise DeltaIsOne(f"gcd of degrees {sig.degrees} is 1")
    n = sig.nvars
    target = _mod_delta_ring(fs[0].ring, delta)
    jn = _reduce_scalar_base(jac_minor(fs, sig, n), target)
    delta_form = _divide_by_variable(jn, n)
    for i in range(1, n):
        ji = _reduce_scalar_base(jac_minor(fs, sig, i), target)
        xi = MultiPoly.variable(target, n, i)
        if not ji.eq(xi.mul(delta_form)):
            raise NotDivisible(
                f"J_{i} is not X_{i} * Delta modulo {delta}", witness=ji
            )
    return delta_form


def _divide_by_variable(f, i):
    out = {}
    pos = i - 1
    for e, c in f.terms.items():
        if e[pos] == 0:
            raise NotDivisible(f"term {e} has no factor X_{i}", witness=f)
        ee = list(e)
        ee[pos] -= 1
        out[tuple(ee)] = c
    return MultiPoly(f.ring, f.nvars, out)


# ---------------------------------------------------------------------------
# base change
# ---------------------------------------------------------------------------


def base_change_K_degree(sig, d):
    """Degree of K in the coefficients of the g_i jointly."""
    n = sig.nvars
    return n * (n - 1) * (d - 1) * d ** (n - 2) * math.prod(sig.degrees)


def base_change_K_fdegree(sig, d, i):
    """Degree of K in the coefficients of f_i."""
    n = sig.nvars
    p = math.prod(sig.degrees)
    return n * (d - 1) * d ** (n - 2) * (p // sig.degrees[i - 1])


def base_change_K(fs, sig, gs):
    """The cofactor K with Disc(f o g) = Disc(f)^{d^{n-1}} Res(g)^e K."""
    _validate_system(fs, sig)
    n = sig.nvars
    d = substitution_degree(gs, fs[0], n)
    if d < 2:
        raise SignatureMismatch("base change requires degree d >= 2")

    composed = [substitute(f, gs) for f in fs]
    comp_sig = DegreeSignature(n, tuple(di * d for di in sig.degrees))
    disc_fg = disc_points(composed, comp_sig)
    disc_f = disc_points(fs, sig)
    res_g = resultant(gs, DegreeSignature(n, (d,) * n))
    e = math.prod(sig.degrees) * sum(di - 1 for di in sig.degrees)
    denom = disc_f ** (d ** (n - 1)) * res_g**e
    return rg.exact_divide(disc_fg, denom)
