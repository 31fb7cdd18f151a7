"""Discriminant of a single homogeneous hypersurface.

The normalization is d^{a(n,d)} * Disc(f) = Res(d_1 f, ..., d_n f) with
a(n,d) = ((d-1)^n - (-1)^n)/d.  The division is exact over Z, so every
form goes through :func:`~elimkit.mpoly.to_integers` first, with degree
:func:`disc_hyper_degree` (n for :func:`quadric_disc`).
"""

from __future__ import annotations

from . import ring as rg
from .determinants import det_bareiss
from .disc_points import _substitution_over_z
from .errors import (
    DegreeTooLow,
    IdentityFailed,
    NotGeneric,
    NotQuadratic,
    SignatureMismatch,
)
from .mpoly import (
    DegreeSignature,
    MultiPoly,
    form_degrees,
    forms_to_integers,
    generic_system,
    is_homogeneous,
    isobaric_part,
    partial_derivative,
    substitution_degree,
    weight_valuation,
    zariski_weight_vector,
)
from .resultant import resultant

__all__ = [
    "a_exponent",
    "disc_hyper",
    "disc_hyper_degree",
    "quadric_disc",
    "disc_times_bar",
    "disc_hyper_basechange",
    "disc_valuation",
    "delta_n_identity",
]


def a_exponent(n, d):
    """((d-1)^n - (-1)^n) / d, always an integer."""
    if n < 1 or d < 2:
        raise SignatureMismatch(f"a(n,d) needs n >= 1 and d >= 2, got ({n},{d})")
    q, r = divmod((d - 1) ** n - (-1) ** n, d)
    if r:
        raise IdentityFailed(f"a({n},{d}) is not an integer: remainder {r}")
    return q


def disc_hyper_degree(n, d):
    """Total degree of the generic discriminant: n(d-1)^{n-1}."""
    return n * (d - 1) ** (n - 1)


def _degree_of(f):
    (h,) = form_degrees([f])
    if h is None or h <= 1:
        raise DegreeTooLow(f"discriminant needs degree >= 2, got {h!r}")
    return h


def _bar(f):
    """Set the last variable to 0 and drop it: n variables down to n-1."""
    kept = {e[:-1]: c for e, c in f.terms.items() if e[-1] == 0}
    return MultiPoly(f.ring, f.nvars - 1, kept)


def disc_hyper(f):
    """Res of the n partial derivatives, divided by d^{a(n,d)}."""
    d = _degree_of(f)
    n = f.nvars
    ring = f.ring
    zring, (zf,), back = forms_to_integers([f], [disc_hyper_degree(n, d)])
    partials = [partial_derivative(zf, i) for i in range(1, n + 1)]
    res = resultant(partials, DegreeSignature(n, (d - 1,) * n)).value
    value = rg.val_exact_divide(zring, res, rg.val_from_int(zring, d ** a_exponent(n, d)))
    return rg.RingElement(ring, back(value))


def quadric_disc(f):
    """Closed form for d = 2 from the symmetric coefficient matrix.

    det[2A_ii diagonal, A_ij off-diagonal] equals 2 Disc(f) for odd n
    and Disc(f) for even n.
    """
    h = is_homogeneous(f)
    if h is None or h == "any" or h != 2:
        raise NotQuadratic(f"need a homogeneous quadratic, got degree {h!r}")
    n = f.nvars
    ring = f.ring
    zring, (zf,), back = forms_to_integers([f], [n])

    def entry(i, j):
        e = [0] * n
        e[i] += 1
        e[j] += 1
        c = zf.coefficient_of(tuple(e))
        return rg.val_add(zring, c, c) if i == j else c

    det = det_bareiss(zring, [[entry(i, j) for j in range(n)] for i in range(n)])
    if n % 2:
        det = rg.val_exact_divide(zring, det, rg.val_from_int(zring, 2))
    return rg.RingElement(ring, back(det))


def disc_times_bar(f):
    """Res(d_1 f, ..., d_{n-1} f, f), checked equal to Disc(f) Disc(f-bar).

    f-bar is f with X_n set to 0, viewed in n-1 variables.
    """
    d = _degree_of(f)
    n = f.nvars
    if n < 2:
        raise SignatureMismatch("needs at least 2 variables")
    partials = [partial_derivative(f, i) for i in range(1, n)]
    s = resultant(partials + [f], DegreeSignature(n, (d - 1,) * (n - 1) + (d,)))
    if s != disc_hyper(f) * disc_hyper(_bar(f)):
        raise IdentityFailed(
            "product identity failed: Res(partials, f) != Disc(f) * Disc(f-bar)"
        )
    return s


def disc_hyper_basechange(f, gs):
    """K with Disc(f(g_1,...,g_n)) = Disc(f)^{d^{n-1}} Res(g)^{m(m-1)^{n-1}} K,
    of degree n(md-1)^{n-1} - n(d(m-1))^{n-1} in the coefficients of f
    and m times that in those of the g_j jointly."""
    m = _degree_of(f)
    n = f.nvars
    d = substitution_degree(gs, f, n)
    if d < 1:
        raise SignatureMismatch("substitution degree must be at least 1")
    ring = f.ring
    fdegree = n * (m * d - 1) ** (n - 1) - n * (d * (m - 1)) ** (n - 1)
    (f,), gs, back = _substitution_over_z([f], gs, [fdegree, m * fdegree])
    composed = f.substitute(gs)
    disc_fg = disc_hyper(composed)
    disc_f = disc_hyper(f)
    res_g = resultant(gs, DegreeSignature(n, (d,) * n))
    denom = disc_f ** (d ** (n - 1)) * res_g ** (m * (m - 1) ** (n - 1))
    return rg.RingElement(ring, back(rg.exact_divide(disc_fg, denom).value))


# ---------------------------------------------------------------------------
# Valuation of the generic discriminant for the X_n-weight grading
# ---------------------------------------------------------------------------


def _require_generic(f):
    """The canonical fully generic form of its degree, or NotGeneric."""
    d = _degree_of(f)
    n = f.nvars
    ext, fs = generic_system(DegreeSignature(n, (d,)))
    if f.ring != ext or not f.eq(fs[0]):
        raise NotGeneric("input must be the canonical generic form of its degree")
    return n, d, ext


def disc_valuation(f, mu):
    """(valuation, isobaric part H, reduced factor Red) of the generic Disc.

    Coefficient weights are max(alpha_n - mu, 0).  For 1 <= mu <= d-2
    the valuation is (d-mu)(d-1-mu)^{n-1} and Red is the exact quotient
    H * Disc(f-bar) / (Disc(g) * Disc(g-bar)), g being the X_n^mu
    quotient of the part of f with X_n-exponent at least mu.  mu = 0
    leaves the grading trivial: valuation 0, H = Disc, Red = 1.
    """
    n, d, ext = _require_generic(f)
    if not 0 <= mu <= d - 2:
        raise SignatureMismatch(f"mu must satisfy 0 <= mu <= d-2, got {mu}")
    disc = disc_hyper(f)
    if mu == 0:
        return 0, disc, rg.element(ext, 1)

    weights = zariski_weight_vector(DegreeSignature(n, (d,)), (mu,))
    valuation = weight_valuation(disc, weights)
    H = isobaric_part(disc, weights, valuation)

    g_terms = {}
    for e, c in f.terms.items():
        if e[n - 1] >= mu:
            ee = list(e)
            ee[n - 1] -= mu
            g_terms[tuple(ee)] = c
    g = MultiPoly(ext, n, g_terms)

    num = H * disc_hyper(_bar(f))
    den = disc_hyper(g) * disc_hyper(_bar(g))
    red = rg.exact_divide(num, den)
    return valuation, H, red


_delta_n_cache: dict = {}


def delta_n_identity(n, d):
    """Check Disc(f-bar) * dD/dE_n = dS/dE_n on the generic form.

    D is Disc(f), S is Res(d_1 f, ..., d_{n-1} f, f) and E_n is the
    coefficient of X_n^d.
    """
    key = (n, d)
    if key in _delta_n_cache:
        return _delta_n_cache[key]
    ext, fs = generic_system(DegreeSignature(n, (d,)))
    f = fs[0]
    disc = disc_hyper(f)
    partials = [partial_derivative(f, i) for i in range(1, n)]
    s = resultant(partials + [f], DegreeSignature(n, (d - 1,) * (n - 1) + (d,)))
    pos = ext.variables.index("U1_" + "_".join(map(str, [0] * (n - 1) + [d]))) + 1
    d_disc = partial_derivative(disc.value, pos)
    d_s = partial_derivative(s.value, pos)
    disc_bar = disc_hyper(_bar(f))
    ok = disc_bar.value.mul(d_disc).eq(d_s)
    _delta_n_cache[key] = ok
    return ok
