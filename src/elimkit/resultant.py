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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import ring as rg
from .determinants import det_payload_auto
from .errors import NotGeneric, PerturbationDegenerate, SignatureMismatch
from .mpoly import (
    DegreeSignature,
    MultiPoly,
    check_forms,
    dehomogenize,
    flatten_extension,
    generic_system,
    isobaric_part,
    monomials_of_degree,
    poly_exact_div,
    via_lift,
    weight_valuation,
    zariski_weight_vector,
)

__all__ = [
    "MacaulaySystem",
    "build_macaulay",
    "resultant",
    "gcp_resultant",
    "interpolate_at_zero",
    "is_inertia_form_generic",
    "zariski_lowest_part",
]


@dataclass
class MacaulaySystem:
    """The numerator/denominator matrix pair for one signature.

    Row p holds the multiple of f_i whose pure-power term lands in column
    p, so perturbing every f_i by t * X_i^{d_i} adds t to the diagonal.
    """

    sig: DegreeSignature
    ring: object
    cols: list
    rows: list  # dense rows of payloads, aligned with cols
    row_slot: list  # which f_i produced each row
    reduced: list  # positions belonging to the reduced submatrix M'

    def numerator_det(self, t=0):
        """det(M + tI)."""
        return det_payload_auto(self.ring, self._shifted(range(len(self.rows)), t))

    def denominator_det(self, t=0):
        """det(M' + tI)."""
        return det_payload_auto(self.ring, self._shifted(self.reduced, t))

    def _shifted(self, positions, t):
        sub = [[self.rows[i][j] for j in positions] for i in positions]
        if t:
            shift = rg.val_from_int(self.ring, t)
            for k, row in enumerate(sub):
                row[k] = rg.val_add(self.ring, row[k], shift)
        return sub


def _validate_system(fs, sig):
    if sig.r != sig.nvars:
        raise SignatureMismatch(
            f"resultant needs as many forms as variables, got {sig.r} for n={sig.nvars}"
        )
    return check_forms(fs, sig)


def build_macaulay(fs, sig):
    """Macaulay matrices at the critical degree for a validated system."""
    ring = fs[0].ring
    n = sig.nvars
    d = sig.degrees
    nu = sig.critical_degree
    cols = monomials_of_degree(n, nu)
    colpos = {e: p for p, e in enumerate(cols)}
    zero = rg.val_zero(ring)
    rows = []
    row_slot = []
    reduced = []
    for p, gamma in enumerate(cols):
        i = next(j for j in range(n) if gamma[j] >= d[j])
        shift = list(gamma)
        shift[i] -= d[i]
        row = [zero] * len(cols)
        for beta, c in fs[i].terms.items():
            target = tuple(a + b for a, b in zip(shift, beta))
            row[colpos[target]] = rg.val_add(ring, row[colpos[target]], c)
        rows.append(row)
        row_slot.append(i + 1)
        if sum(1 for j in range(n) if gamma[j] >= d[j]) >= 2:
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
    if ring == rg.QQ:
        return _over_integers(lambda scaled: resultant(scaled, sig, use_fast_paths), fs, sig)
    ms = build_macaulay(fs, sig)
    den = ms.denominator_det()
    if rg.val_is_nzd(ring, den):
        num = ms.numerator_det()
        return rg.RingElement(ring, rg.val_exact_divide(ring, num, den))
    return gcp_resultant(fs, sig)


def _over_integers(compute, fs, sig):
    """Res over Q from compute(the forms c_i f_i), a resultant over Z.

    c_i is the lcm of the denominators of f_i; the resultant is
    homogeneous of degree prod_{j != i} d_j in the coefficients of f_i.
    """
    scaled, divisor = [], 1
    for f, d in zip(fs, sig.degrees):
        c = math.lcm(*(x.denominator for x in f.terms.values()))
        scaled.append(MultiPoly(rg.ZZ, f.nvars, {e: (x * c).numerator for e, x in f.terms.items()}))
        divisor *= c ** (math.prod(sig.degrees) // d)
    value = compute(scaled).value
    return rg.RingElement(rg.QQ, rg.val_from_int(rg.QQ, value) / divisor)


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
    terms (degree >= 1), which saves one sample.  Lagrange interpolation
    ends in one exact division by an integer, so ``ring`` must not be
    modular.
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
    # P(0) = sum_k P(t_k) prod_{j != k} t_j / (t_j - t_k), over one denominator
    ts = [tk for tk, _ in points]
    nums, dens = [], []
    for tk in ts:
        nums.append(math.prod(tj for tj in ts if tj != tk))
        dens.append(math.prod(tj - tk for tj in ts if tj != tk))
    common = math.lcm(*dens)
    acc = rg.val_zero(ring)
    for (_, value), num, den in zip(points, nums, dens):
        weight = rg.val_from_int(ring, num * (common // den))
        acc = rg.val_add(ring, acc, rg.val_mul(ring, value, weight))
    return rg.val_exact_divide(ring, acc, rg.val_from_int(ring, common))


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
