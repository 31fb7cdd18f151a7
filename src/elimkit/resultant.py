"""The multivariate resultant of n homogeneous forms in n variables.

The resultant is normalized so that pure powers give 1:
Res(X_1^{d_1}, ..., X_n^{d_n}) = 1.  Computation goes through the
classical Macaulay construction at critical degree nu = sum(d_i - 1) + 1:
the determinant of the big matrix M equals the resultant times the
determinant of the reduced submatrix M', identically in the coefficients.
When det(M') is a zero divisor for special coefficients, the perturbation
f_i + t * X_i^{d_i} adds t to the diagonal of both matrices, so
R(t) = det(M + tI) / det(M' + tI) is a monic polynomial in t.  It is
sampled as a numeric Macaulay ratio at positive integers t and R(0) is
interpolated (see :func:`interpolate_at_zero`).  Both routes agree with
the generic computation under every specialization, which is what pins
the value down.

Modular coefficients are canonically lifted to Z, computed there, and
reduced back; this is also how the value is defined in that case.
Rational coefficients are cleared as well: each f_i is scaled by the lcm
c_i of its denominators, the resultant of the scaled forms is computed
over Z, and it is divided once by prod_i c_i^{prod_{j != i} d_j}, since
the resultant is homogeneous of that degree in the coefficients of f_i.
So over Z, Q and Z/m every determinant is taken over Z.

Over a ring with one parameter, Z[s], Q[s] or Z/m[s] (the last two
cleared or lifted to Z[s] as above), the resultant is found from its
values at integer s, as in Manocha and Canny ("Multipolynomial resultant
algorithms", J. Symb. Comput. 15, 1993).  It has integer coefficients in
the coefficients of the forms, so it commutes with specialization and
has degree at most sum_i deg_s(f_i) prod_{j != i} d_j in s.  The Macaulay
matrices are built once over Z[s], each nonzero entry kept as its list
of integer coefficients; at s = 0, 1, -1, 2, -2, ... every entry is
evaluated by Horner's rule into a sparse integer row, zeros left out, the
integer ratio det M / det M' is taken on those rows, and the samples are
interpolated (see :func:`interpolate`).  A point where
det M' vanishes is skipped.  The degree of det M'(s) is at most the sum
over the reduced rows of their largest deg_s; more such points than that
show that det M'(s) = 0, and every further point is then computed by
:func:`gcp_resultant` on the specialized forms.  Rings with two or more
parameters, and generic systems, keep the symbolic determinants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import ring as rg
from .determinants import det_payload_auto
from .errors import (
    IdentityFailed,
    NotDivisible,
    NotGeneric,
    PerturbationDegenerate,
    SignatureMismatch,
)
from .mpoly import (
    DegreeSignature,
    MultiPoly,
    check_forms,
    dehomogenize,
    evaluate_coefficients,
    flatten_extension,
    generic_system,
    isobaric_part,
    monomials_of_degree,
    poly_exact_div,
    shared_keys,
    via_lift,
    weight_valuation,
    zariski_weight_vector,
)

__all__ = [
    "MacaulaySystem",
    "build_macaulay",
    "resultant",
    "gcp_resultant",
    "interpolate",
    "interpolate_at_zero",
    "is_inertia_form_generic",
    "zariski_lowest_part",
]


@dataclass
class MacaulaySystem:
    """The numerator/denominator matrix pair for one signature.

    Row p is X^{gamma_p - d_i e_i} f_i, gamma_p the monomial of column p
    and f_i the first form whose pure power X_i^{d_i} divides it, as a
    sparse dict {column: nonzero payload}.  Its pure-power term lands in
    column p, so perturbing every f_i by t * X_i^{d_i} adds t to the
    diagonal.  Each determinant is taken on fresh dicts, so the system
    can be sampled again.
    """

    sig: DegreeSignature
    ring: object
    cols: list
    rows: list  # dict rows {column position: nonzero payload}, aligned with cols
    row_slot: list  # which f_i produced each row
    reduced: list  # positions belonging to the reduced submatrix M'

    def numerator_det(self, t=0):
        """det(M + tI)."""
        return det_payload_auto(self.ring, self._shifted(range(len(self.rows)), t))

    def denominator_det(self, t=0):
        """det(M' + tI)."""
        return det_payload_auto(self.ring, self._shifted(self.reduced, t))

    def _shifted(self, positions, t):
        """Fresh dict rows of the submatrix on ``positions``, re-indexed
        from 0, with t added on the diagonal."""
        if len(positions) == len(self.rows):
            sub = [dict(row) for row in self.rows]
        else:
            at = {p: k for k, p in enumerate(positions)}
            sub = [{at[j]: v for j, v in self.rows[p].items() if j in at} for p in positions]
        if t:
            ring = self.ring
            shift = rg.val_from_int(ring, t)
            for k, row in enumerate(sub):
                v = rg.val_add(ring, row[k], shift) if k in row else shift
                if rg.val_is_zero(ring, v):
                    del row[k]
                else:
                    row[k] = v
        return sub


def _validate_system(fs, sig):
    if sig.r != sig.nvars:
        raise SignatureMismatch(
            f"resultant needs as many forms as variables, got {sig.r} for n={sig.nvars}"
        )
    return check_forms(fs, sig)


def build_macaulay(fs, sig):
    """Macaulay matrices at the critical degree for a validated system.

    The rows are built on the packed monomial keys of :mod:`elimkit.mpoly`,
    where the key of a product of monomials is the sum of their keys: the
    key of gamma is sum_j gamma_j key(X_j), and the term X^beta of f_i
    lands in row p at column colpos[key(gamma_p) - d_i key(X_i) + key(beta)].
    Coefficients that a form stores as zero are skipped, so every entry
    is nonzero.
    """
    ring = fs[0].ring
    n = sig.nvars
    d = sig.degrees
    nu = sig.critical_degree
    cols = monomials_of_degree(n, nu)
    # X_1 + 2 X_2 + ... + n X_n: the coefficient of each key names its variable
    variables = MultiPoly(rg.ZZ, n, {tuple(int(k == j) for k in range(n)): j + 1 for j in range(n)})
    _, keys = shared_keys([variables, *fs], nu)
    unit = [0] * n
    for k, j in keys[0].items():
        unit[j - 1] = k
    forms = [{k: c for k, c in f.items() if not rg.val_is_zero(ring, c)} for f in keys[1:]]
    colkeys = [sum(map(int.__mul__, gamma, unit)) for gamma in cols]
    colpos = {k: p for p, k in enumerate(colkeys)}
    rows = []
    row_slot = []
    reduced = []
    for p, gamma in enumerate(cols):
        slots = [j for j in range(n) if gamma[j] >= d[j]]
        i = slots[0]
        shift = colkeys[p] - d[i] * unit[i]
        # the targets shift + beta of one row are distinct, so each entry
        # is assigned once and never added to
        rows.append({colpos[shift + b]: c for b, c in forms[i].items()})
        row_slot.append(i + 1)
        if len(slots) >= 2:
            reduced.append(p)
    return MacaulaySystem(sig=sig, ring=ring, cols=cols, rows=rows, row_slot=row_slot, reduced=reduced)


def _diagonal_value(fs, sig):
    """Product formula when every slot is c_i * X_i^{d_i}; None otherwise."""
    ring = fs[0].ring
    n = sig.nvars
    coeffs = []
    for i, f in enumerate(fs):
        if len(f.terms) != 1:
            return None
        e = [0] * n
        e[i] = sig.degrees[i]
        c = f.terms.get(tuple(e))
        if c is None:
            return None
        coeffs.append(c)
    total = rg.val_one(ring)
    for i, c in enumerate(coeffs):
        exp = 1
        for j, dj in enumerate(sig.degrees):
            if j != i:
                exp *= dj
        total = rg.val_mul(ring, total, rg.val_pow(ring, c, exp))
    return total


def resultant(fs, sig, use_fast_paths=True):
    """Normalized resultant of n homogeneous forms in n variables."""
    fs = list(fs)
    ring = _validate_system(fs, sig)
    n = sig.nvars
    if any(f.is_zero() for f in fs):
        return rg.RingElement(ring, rg.val_zero(ring))
    if n == 1:
        # Res(c * X1^d) = c
        return rg.RingElement(ring, fs[0].terms[(sig.degrees[0],)])
    if use_fast_paths:
        diag = _diagonal_value(fs, sig)
        if diag is not None:
            return rg.RingElement(ring, diag)
    if rg.scalar_base(ring).kind == rg.MODULAR:
        return via_lift(lambda lifted: resultant(lifted, sig, use_fast_paths), fs)
    one_parameter = ring.kind == rg.POLYEXT and len(ring.variables) == 1
    if ring == rg.QQ or (one_parameter and ring.base == rg.QQ):
        return _over_integers(lambda scaled: resultant(scaled, sig, use_fast_paths), fs, sig)
    ms = build_macaulay(fs, sig)
    if one_parameter and ring.base == rg.ZZ:
        return rg.RingElement(ring, _by_interpolation(fs, sig, ms))
    den = ms.denominator_det()
    if rg.val_is_nzd(ring, den):
        num = ms.numerator_det()
        return rg.RingElement(ring, rg.val_exact_divide(ring, num, den))
    return gcp_resultant(fs, sig)


def _over_integers(compute, fs, sig):
    """Res over Q or Q[s] from compute(the forms c_i f_i), a resultant over Z or Z[s].

    c_i is the lcm of the denominators in f_i; the resultant is
    homogeneous of degree prod_{j != i} d_j in the coefficients of f_i.
    """
    ring = fs[0].ring
    nested = ring.kind == rg.POLYEXT
    zring = rg.polyext(rg.ZZ, ring.variables) if nested else rg.ZZ
    scaled, divisor = [], 1
    for f, d in zip(fs, sig.degrees):
        inner = [x for p in f.terms.values() for x in (p.terms.values() if nested else (p,))]
        c = math.lcm(*(x.denominator for x in inner))
        terms = {
            e: p.map_coefficients(lambda x: (x * c).numerator, rg.ZZ) if nested else (p * c).numerator
            for e, p in f.terms.items()
        }
        scaled.append(MultiPoly(zring, f.nvars, terms))
        divisor *= c ** (math.prod(sig.degrees) // d)
    value = rg.val_convert(zring, ring, compute(scaled).value)
    return rg.RingElement(ring, rg.val_exact_divide(ring, value, rg.val_from_int(ring, divisor)))


def _by_interpolation(fs, sig, ms):
    """Res over Z[s] from its values at s = 0, 1, -1, 2, -2, ..., as the
    module docstring describes; ``ms`` is the Macaulay system of ``fs``
    over Z[s], and ``skips`` bounds the degree of det M'(s).
    """
    p = math.prod(sig.degrees)
    degree = sum(_s_degree(f) * (p // d) for f, d in zip(fs, sig.degrees))
    # each nonzero entry once, as its integer coefficients lowest first
    entries = [{j: _int_coefficients(c) for j, c in row.items()} for row in ms.rows]
    reduced = set(ms.reduced)
    skips = sum(
        max((len(c) - 1 for j, c in entries[i].items() if j in reduced), default=0) for i in reduced
    )
    points, zeros, k = [], 0, 0
    while len(points) <= degree:
        x = (k + 1) // 2 * (1 if k % 2 else -1)
        k += 1
        if zeros <= skips:
            values = [_horner_row(row, x) for row in entries]
            at = MacaulaySystem(sig, rg.ZZ, ms.cols, values, ms.row_slot, ms.reduced)
            den = at.denominator_det()
            if den:
                points.append((x, rg.val_exact_divide(rg.ZZ, at.numerator_det(), den)))
                continue
            zeros += 1
            if zeros <= skips:
                continue
        special = [evaluate_coefficients(f, [x]) for f in fs]
        points.append((x, gcp_resultant(special, sig).value))
    coeffs = interpolate(rg.ZZ, points)
    return MultiPoly(rg.ZZ, 1, {(m,): c for m, c in enumerate(coeffs) if c})


def _s_degree(f):
    """Largest degree in the parameter among the coefficients of f over Z[s]."""
    return max((e for c in f.terms.values() for (e,) in c.terms), default=0)


def _int_coefficients(c):
    out = [0] * (max(e for (e,) in c.terms) + 1)
    for (e,), v in c.terms.items():
        out[e] = v
    return out


def _horner_row(row, x):
    """The dict row of the nonzero values at x of a row of coefficient lists."""
    out = {}
    for j, coeffs in row.items():
        v = 0
        for c in reversed(coeffs):
            v = v * x + c
        if v:
            out[j] = v
    return out


def gcp_resultant(fs, sig):
    """Resultant through the perturbation f_i + t X_i^{d_i}, at t = 0.

    R(t) = det(M + tI) / det(M' + tI) is monic of degree
    D = sum_i prod_{j != i} d_j.  It is sampled at the first D positive
    integers where det(M' + tI), itself monic of degree dim M', is a
    nonzero divisor, and R(0) is interpolated.  Serves systems whose
    Macaulay denominator vanished.
    """
    fs = list(fs)
    ring = _validate_system(fs, sig)
    if any(f.is_zero() for f in fs):
        return rg.RingElement(ring, rg.val_zero(ring))
    if rg.scalar_base(ring).kind == rg.MODULAR:
        return via_lift(lambda lifted: gcp_resultant(lifted, sig), fs)
    if ring == rg.QQ:
        return _over_integers(lambda scaled: gcp_resultant(scaled, sig), fs, sig)
    ms = build_macaulay(fs, sig)

    def sample(t):
        den = ms.denominator_det(t)
        if not rg.val_is_nzd(ring, den):
            return None
        return rg.val_exact_divide(ring, ms.numerator_det(t), den)

    p = math.prod(sig.degrees)
    degree = sum(p // d for d in sig.degrees)
    value = interpolate_at_zero(ring, sample, degree, len(ms.reduced), monic=True)
    return rg.RingElement(ring, value)


def interpolate_at_zero(ring, sample, degree, skips, monic=False):
    """P(0) for a polynomial P(t) over ``ring`` of degree at most ``degree``.

    ``sample(t)`` returns the payload P(t), or None where it cannot be
    computed because a denominator is a zero divisor at t.  Samples are
    taken at the first positive integers where it can; ``skips`` is the
    degree of that denominator, monic in t, so more failures than that
    raise PerturbationDegenerate.  ``monic`` says P = t^degree + lower
    terms (degree >= 1), which saves one sample.  The value comes from
    :func:`interpolate`, so ``ring`` must not be modular.
    """
    need = degree if monic else degree + 1
    points = []
    t = 0
    while len(points) < need:
        t += 1
        value = sample(t)
        if value is None:
            if t - len(points) > skips:
                raise PerturbationDegenerate(
                    f"{t - len(points)} sample points failed, at most {skips} can"
                )
            continue
        if monic:
            value = rg.val_sub(ring, value, rg.val_from_int(ring, t**degree))
        points.append((t, value))
    return interpolate(ring, points)[0]


def interpolate(ring, points):
    """Coefficients c_0, ..., c_k, lowest first, of the polynomial P of
    degree at most k through k + 1 points (x, P(x)).

    The x are distinct integers and each P(x) a payload of ``ring``.
    Lagrange's formula is summed over one common integer denominator and
    ends in one exact division per coefficient.  A coefficient that does
    not divide means the values are not those of a polynomial over
    ``ring`` of that degree, and raises IdentityFailed.  ``ring`` must not
    be modular.
    """
    xs = [x for x, _ in points]
    full = [1]  # prod_j (X - x_j), lowest coefficient first
    for xj in xs:
        full = [a - xj * b for a, b in zip([0] + full, full + [0])]
    bases, dens = [], []
    for xk in xs:
        # prod_{j != k} (X - x_j) = full / (X - x_k), by synthetic division
        basis = [0] * len(xs)
        carry = 0
        for m in range(len(xs), 0, -1):
            carry = full[m] + xk * carry
            basis[m - 1] = carry
        bases.append(basis)
        dens.append(math.prod(xk - xj for xj in xs if xj != xk))
    common = math.lcm(*dens)
    coeffs = []
    for m in range(len(xs)):
        acc = rg.val_zero(ring)
        for (_, value), basis, den in zip(points, bases, dens):
            if basis[m]:
                weight = rg.val_from_int(ring, basis[m] * (common // den))
                acc = rg.val_add(ring, acc, rg.val_mul(ring, value, weight))
        coeffs.append(acc)
    divisor = rg.val_from_int(ring, common)
    try:
        return [rg.val_exact_divide(ring, c, divisor) for c in coeffs]
    except NotDivisible as exc:
        raise IdentityFailed(
            f"interpolation through {len(xs)} points has a coefficient that is not a multiple of {common}"
        ) from exc


# ---------------------------------------------------------------------------
# inertia forms


def is_inertia_form_generic(a, sig):
    """Kronecker-substitution membership test over the universal coefficients.

    For the fully generic system of the signature, a polynomial (or
    coefficient-ring element) is an inertia form exactly when substituting
    E_i |-> E_i - f_i(X_1, ..., X_{n-1}, 1) for every slot's distinguished
    coefficient E_i (the one at X_n^{d_i}) kills it.
    """
    if sig.r != sig.nvars:
        raise SignatureMismatch("inertia test needs r = n slots")
    ext, fs = generic_system(sig)
    n = sig.nvars
    m = len(ext.variables)
    if isinstance(a, rg.RingElement):
        if a.ring != ext:
            raise NotGeneric("input does not live over the universal coefficient ring")
        poly = MultiPoly(ext, n, {(0,) * n: a.value} if not a.is_zero() else {})
    elif isinstance(a, MultiPoly):
        if a.ring != ext or a.nvars != n:
            raise NotGeneric("input does not live over the universal coefficient ring")
        poly = a
    else:
        raise NotGeneric(f"unsupported input {a!r}")
    flat = flatten_extension(poly)  # ZZ-poly in m + n vars, U's first
    flat_tilde = dehomogenize(flat, m + n, "one")
    nv = m + n - 1
    images = []
    for j in range(nv):
        images.append(MultiPoly.variable(rg.ZZ, nv, j + 1))
    for i in range(1, n + 1):
        ei_name = f"U{i}_" + "_".join(["0"] * (n - 1) + [str(sig.degrees[i - 1])])
        pos = ext.variables.index(ei_name)
        fi_flat = dehomogenize(flatten_extension(fs[i - 1]), m + n, "one")
        images[pos] = MultiPoly.variable(rg.ZZ, nv, pos + 1).sub(fi_flat)
    return flat_tilde.substitute(images).is_zero()


# ---------------------------------------------------------------------------
# Zariski grading


def zariski_lowest_part(fs, sig, mu):
    """Lowest isobaric part H of the generic resultant, and H1 = H / Res(g).

    The i-th form is read as X_n^{mu_i} g_i + h_i; coefficients carry
    weight max(alpha_n - mu_i, 0).  Returns (H, H1) as coefficient-ring
    polynomials; the exact division is part of the claim being realized,
    so NotDivisible propagates as a genuine failure.
    """
    if sig.r != sig.nvars:
        raise SignatureMismatch("this grading concerns r = n slots")
    if len(mu) != sig.r:
        raise SignatureMismatch(f"{sig.r} weights expected, got {len(mu)}")
    for mi, di in zip(mu, sig.degrees):
        if not 0 <= mi < di:
            raise SignatureMismatch(f"need 0 <= mu_i < d_i, got mu={mu}")
    ext, generic_fs = generic_system(sig)
    for f, g in zip(fs, generic_fs):
        if not f.eq(g):
            raise NotGeneric("zariski_lowest_part expects the fully generic system")
    n = sig.nvars
    res = resultant(fs, sig)
    w = zariski_weight_vector(sig, mu)
    v = weight_valuation(res, w)
    H = isobaric_part(res, w, v).value
    # build g_i: the part of f_i with alpha_n >= mu_i, divided by X_n^{mu_i}
    gs = []
    for i, f in enumerate(fs):
        terms = {}
        for e, c in f.terms.items():
            if e[-1] >= mu[i]:
                terms[e[:-1] + (e[-1] - mu[i],)] = c
        gs.append(MultiPoly(ext, n, terms))
    gsig = DegreeSignature(n, tuple(d - m for d, m in zip(sig.degrees, mu)))
    resg = resultant(gs, gsig)
    H1 = poly_exact_div(H, resg.value)
    return H, H1
