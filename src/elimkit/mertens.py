"""The classical product formulas tying Res(f_1,...,f_n) to a binary form.

theta(U) = Res(f_1,...,f_{n-1}, U_1 X_1 + ... + U_n X_n) collapses a
system of n-1 forms to a single form in the U variables.  Substituting
U_i -> V_i X + W_i Y (rho_bar) or U_i -> V_i (sum W_j X_j) - W_i (sum
V_j X_j) (rho) produces the two verification identities implemented by
mertens_first and mertens_second.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import ring as rg
from .determinants import det_bareiss
from .disc_points import _linear_slots, disc_points
from .errors import DegenerateSignature, RingMismatch, SignatureMismatch
from .mpoly import DegreeSignature, MultiPoly, form_degrees, partial_derivative
from .resultant import resultant

__all__ = [
    "ThetaForm",
    "theta",
    "u_names",
    "vw_names",
    "rho_bar",
    "rho",
    "mertens_first",
    "mertens_second",
    "lemmaA_product",
]


def u_names(n):
    return tuple(f"U{i}" for i in range(1, n + 1))


def vw_names(n):
    return tuple(f"V{i}" for i in range(1, n + 1)) + tuple(
        f"W{i}" for i in range(1, n + 1)
    )


@dataclass(frozen=True)
class ThetaForm:
    """Res(f_1,...,f_{n-1}, sum U_i X_i) as a form in U over the input ring."""

    ring: object
    nvars: int
    degrees: tuple
    theta: MultiPoly
    partials: tuple

    @property
    def u_degree(self):
        return math.prod(self.degrees)


def _positive_degrees(fs, n):
    """Degrees of forms in n variables, each nonzero of positive degree."""
    degrees = tuple(form_degrees(fs, n))
    if not all(degrees):
        raise SignatureMismatch("inputs must be nonzero of positive degree")
    return degrees


def _fresh_extension(ring, names):
    for nm in names:
        if ring.kind == rg.POLYEXT and nm in ring.variables:
            raise RingMismatch(f"coefficient ring already uses the name {nm}")
    return rg.join_extension(ring, names)


def _sym(ext, name):
    k = ext.variables.index(name)
    mono = [0] * len(ext.variables)
    mono[k] = 1
    return MultiPoly(ext.base, len(ext.variables), {tuple(mono): rg.val_one(ext.base)})


def _collapse(payload, ext, ring, k):
    """Regroup a payload over ext = ring + k trailing names into a
    k-variable polynomial over ring."""
    m = len(ext.variables) - k
    grouped = {}
    for e, c in payload.terms.items():
        ue = e[m:]
        grouped.setdefault(ue, {})[e[:m]] = c
    out = {}
    for ue, parts in grouped.items():
        if ring.kind == rg.POLYEXT:
            out[ue] = MultiPoly(ring.base, m, dict(parts))
        else:
            out[ue] = parts[()]
    return MultiPoly(ring, k, out)


def theta(fs):
    """ThetaForm of n-1 forms in n variables."""
    fs = list(fs)
    if not fs:
        raise SignatureMismatch("need at least one form")
    ring = fs[0].ring
    n = fs[0].nvars
    if len(fs) != n - 1:
        raise SignatureMismatch(f"{n} variables call for {n - 1} forms, got {len(fs)}")
    degrees = _positive_degrees(fs, n)
    ext = _fresh_extension(ring, u_names(n))
    ell_terms = {}
    for i in range(n):
        e = [0] * n
        e[i] = 1
        ell_terms[tuple(e)] = _sym(ext, f"U{i + 1}")
    ell = MultiPoly(ext, n, ell_terms)
    res = resultant(
        [f.change_ring(ext) for f in fs] + [ell],
        DegreeSignature(n, degrees + (1,)),
    )
    th = _collapse(res.value, ext, ring, n)
    partials = tuple(partial_derivative(th, i) for i in range(1, n + 1))
    return ThetaForm(ring, n, degrees, th, partials)


def rho_bar(p):
    """U_i -> V_i X + W_i Y: a form in U becomes a binary form in (X, Y)."""
    n = p.nvars
    ext = _fresh_extension(p.ring, vw_names(n))
    images = []
    for i in range(1, n + 1):
        images.append(
            MultiPoly(ext, 2, {(1, 0): _sym(ext, f"V{i}"), (0, 1): _sym(ext, f"W{i}")})
        )
    return p.substitute(images)


def rho(p):
    """U_i -> V_i (sum W_j X_j) - W_i (sum V_j X_j), back in n variables."""
    n = p.nvars
    ext = _fresh_extension(p.ring, vw_names(n))
    images = []
    for i in range(1, n + 1):
        vi = _sym(ext, f"V{i}")
        wi = _sym(ext, f"W{i}")
        terms = {}
        for j in range(1, n + 1):
            c = rg.val_sub(
                ext,
                rg.val_mul(ext, vi, _sym(ext, f"W{j}")),
                rg.val_mul(ext, wi, _sym(ext, f"V{j}")),
            )
            if rg.val_is_zero(ext, c):
                continue
            e = [0] * n
            e[j - 1] = 1
            terms[tuple(e)] = c
        images.append(MultiPoly(ext, n, terms))
    return p.substitute(images)


def _formula_setup(fs, fn):
    fs = list(fs)
    th = theta(fs)
    dn = _positive_degrees(fs + [fn], th.nvars)[-1]
    if math.prod(th.degrees) * dn == 1:
        raise DegenerateSignature("all degrees are 1; the formulas are not claimed")
    fn_theta = fn.substitute(list(th.partials))
    return th, dn, fn_theta


def _rhs(fs, fn, th, dn, g):
    """(-1)^{d_1...d_n} Disc_{X,Y}(g)^{d_n} Res(f_1,...,f_n) over g's ring."""
    n = th.nvars
    disc = disc_points([g], DegreeSignature(2, (th.u_degree,)))
    res_all = resultant(list(fs) + [fn], DegreeSignature(n, th.degrees + (dn,)))
    rhs = disc**dn * rg.RingElement(
        disc.ring, rg.val_convert(th.ring, disc.ring, res_all.value)
    )
    if (math.prod(th.degrees) * dn) % 2:
        rhs = rhs * rg.element(disc.ring, -1)
    return rhs


def mertens_first(fs, fn):
    """Res_{X,Y}(rho_bar(theta), rho_bar(f_n(theta_1,...,theta_n))) against
    (-1)^{d_1...d_n} Disc_{X,Y}(rho_bar(theta))^{d_n} Res(f_1,...,f_n)."""
    th, dn, fn_theta = _formula_setup(fs, fn)
    g = rho_bar(th.theta)
    h = rho_bar(fn_theta)
    big_n = th.u_degree
    d_h = dn * (big_n - 1)
    if d_h == 0:
        c = rg.RingElement(g.ring, h.coefficient_of((0, 0)))
        lhs = c**big_n
    else:
        lhs = resultant([g, h], DegreeSignature(2, (big_n, d_h)))
    return lhs == _rhs(fs, fn, th, dn, g)


def mertens_second(fs, fn):
    """Res(f_1,...,f_{n-1}, rho(f_n(theta_1,...,theta_n))) against the same
    right hand side as mertens_first."""
    th, dn, fn_theta = _formula_setup(fs, fn)
    g = rho_bar(th.theta)
    h = rho(fn_theta)
    big_n = th.u_degree
    d_h = dn * (big_n - 1)
    n = th.nvars
    if d_h == 0:
        c = rg.RingElement(h.ring, h.coefficient_of((0,) * n))
        lhs = c**big_n
    else:
        lhs = resultant(
            [f.change_ring(h.ring) for f in fs] + [h],
            DegreeSignature(n, th.degrees + (d_h,)),
        )
    # lhs lives over the rho extension, rhs over the rho_bar one; the
    # names coincide by construction
    rhs = _rhs(fs, fn, th, dn, g)
    if lhs.ring != rhs.ring:
        raise RingMismatch("extension rings diverged")
    return lhs == rhs


def lemmaA_product(lines):
    """The squared cross-determinant product equal to Disc_{X,Y}(rho_bar(theta))
    when each f_i splits into the given linear forms.

    lines[i] holds the d_{i+1} linear factors of f_{i+1}.  The result
    carries the sign (-1)^{(N^2+N)/2}, N = d_1...d_{n-1}.
    """
    lines = [list(group) for group in lines]
    ring, n = _linear_slots(lines)
    ext = _fresh_extension(ring, vw_names(n))

    def coeff_row(l):
        row = []
        for j in range(n):
            e = [0] * n
            e[j] = 1
            row.append(rg.val_convert(ring, ext, l.coefficient_of(tuple(e))))
        return row

    v_row = [_sym(ext, f"V{j}") for j in range(1, n + 1)]
    w_row = [_sym(ext, f"W{j}") for j in range(1, n + 1)]
    deltas = []
    for combo in itertools.product(*[range(len(g)) for g in lines]):
        base_rows = [coeff_row(lines[i][combo[i]]) for i in range(n - 1)]
        dv = det_bareiss(ext, base_rows + [v_row])
        dw = det_bareiss(ext, base_rows + [w_row])
        deltas.append((dv, dw))
    acc = rg.val_one(ext)
    for a in range(len(deltas)):
        for b in range(a + 1, len(deltas)):
            dv1, dw1 = deltas[a]
            dv2, dw2 = deltas[b]
            cross = rg.val_sub(
                ext, rg.val_mul(ext, dv1, dw2), rg.val_mul(ext, dw1, dv2)
            )
            acc = rg.val_mul(ext, acc, rg.val_mul(ext, cross, cross))
    big_n = len(deltas)
    if ((big_n * big_n + big_n) // 2) % 2:
        acc = rg.val_neg(ext, acc)
    return rg.RingElement(ext, acc)
