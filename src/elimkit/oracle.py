"""Ground-truth generators used to validate the fast paths.

Two independent services live here:

* ``generic_disc`` computes a discriminant with fully symbolic
  coefficients, straight from the defining resultant quotient, and
  caches the result.  Every closed-form or fast-path value elsewhere in
  the package can be checked against a specialization of this object.

* ``singular_points`` / ``poi_check`` enumerate projective points over
  small prime fields (and extensions of degree up to 3) and compare the
  vanishing of the discriminant against the existence of a singular
  point of the zero locus.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

from . import ring as rg
from .errors import (
    ElimkitError,
    IdentityFailed,
    PerturbationDegenerate,
    SignatureMismatch,
    TooLarge,
    UnsupportedRing,
)
from .jacobian import jac_minor
from .mpoly import (
    DegreeSignature,
    MultiPoly,
    check_forms,
    form_degrees,
    generic_coeff_names,
    generic_system,
    poly_exact_div,
)
from .resultant import resultant

__all__ = [
    "GenericCacheEntry",
    "generic_disc",
    "clear_generic_cache",
    "ProjectivePointSet",
    "GFExt",
    "singular_points",
    "poi_check",
    "PoiVerdict",
]

MAX_GENERIC_INDETERMINATES = 15
_CACHE_FORMAT = 1

_memory_cache: dict = {}


# ---------------------------------------------------------------------------
# universal discriminants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenericCacheEntry:
    """A discriminant with every coefficient left symbolic.

    ``disc`` is a polynomial over Z whose variables are the universal
    coefficients, in the order given by ``names``.
    """

    kind: str
    sig: DegreeSignature
    names: tuple
    disc: MultiPoly

    def specialize(self, fs):
        """Evaluate at the coefficients of concrete forms.

        ``fs`` is the list of forms matching the cached signature (a
        one-element list for the hypersurface kind).  Returns a
        RingElement over the forms' ring, which must have a scalar base.
        """
        ring = check_forms(fs, self.sig)
        values = []
        for name in self.names:
            i, exp = _parse_name(name)
            values.append(fs[i - 1].coefficient_of(exp))
        return rg.RingElement(ring, self.disc.change_ring(ring).evaluate(values))


def _parse_name(name):
    from .mpoly import parse_generic_name

    return parse_generic_name(name)


def _indeterminate_count(sig):
    n = sig.nvars
    return sum(math.comb(d + n - 1, n - 1) for d in sig.degrees)


def _numerator_dimension(kind, sig):
    n = sig.nvars
    if kind == "points":
        degs = list(sig.degrees) + [sum(d - 1 for d in sig.degrees)]
    else:
        d = sig.degrees[0]
        degs = [d - 1] * n
    nu = sum(d - 1 for d in degs) + 1
    return math.comb(nu + n - 1, n - 1)


def _sig_for_kind(kind, sig):
    if kind == "points":
        if sig.r != sig.nvars - 1:
            raise SignatureMismatch(
                f"points discriminant needs n-1 degrees, got {sig.r} for n={sig.nvars}"
            )
        if sig.nvars < 2:
            raise SignatureMismatch("points discriminant needs at least 2 variables")
    elif kind == "hyper":
        if sig.r != 1:
            raise SignatureMismatch("hypersurface discriminant takes a single degree")
        if sig.degrees[0] < 2:
            raise SignatureMismatch("hypersurface discriminant needs degree >= 2")
    else:
        raise SignatureMismatch(f"unknown discriminant kind {kind!r}")


def generic_disc(sig, kind="points"):
    """The universal discriminant over Z, from the defining identity.

    For the points kind this divides Res(f_1,...,f_{n-1}, J_n) by
    Res(f_1,...,f_{n-1}, X_n) with all coefficients symbolic.  For the
    hypersurface kind it divides Res(of the n partials) by the power of
    d that the definition prescribes.  Results are cached in memory and,
    when ELIMKIT_CACHE_DIR is set, as JSON on disk.
    """
    _sig_for_kind(kind, sig)
    key = (kind, sig.nvars, sig.degrees)
    if key in _memory_cache:
        return _memory_cache[key]

    entry = _load_disk(kind, sig)
    if entry is None:
        count = _indeterminate_count(sig)
        if count > MAX_GENERIC_INDETERMINATES:
            raise TooLarge(
                f"{count} coefficient indeterminates for {kind} {sig.degrees}; "
                "the symbolic computation is desk-scale only",
                estimate=_numerator_dimension(kind, sig),
            )
        entry = _compute_generic(kind, sig)
        _store_disk(entry)
    _memory_cache[key] = entry
    return entry


def clear_generic_cache():
    _memory_cache.clear()


def _generic_names(sig):
    return tuple(nm for i in range(1, sig.r + 1) for nm in generic_coeff_names(sig, i))


def _compute_generic(kind, sig):
    n = sig.nvars
    names = _generic_names(sig)

    if kind == "points":
        if all(d == 1 for d in sig.degrees):
            one = MultiPoly.from_int(rg.ZZ, len(names), 1)
            return GenericCacheEntry("points", sig, names, one)
        ext, fs = generic_system(sig)
        jn = jac_minor(fs, sig, n)
        jdeg = sum(d - 1 for d in sig.degrees)
        num = resultant(fs + [jn], DegreeSignature(n, sig.degrees + (jdeg,)))
        xn = MultiPoly.variable(ext, n, n)
        den = resultant(fs + [xn], DegreeSignature(n, sig.degrees + (1,)))
        disc = poly_exact_div(num.value, den.value)
        return GenericCacheEntry("points", sig, names, disc)

    d = sig.degrees[0]
    hsig = DegreeSignature(n, (d,))
    ext, fs = generic_system(hsig)
    f = fs[0]
    from .mpoly import partial_derivative

    partials = [partial_derivative(f, i) for i in range(1, n + 1)]
    res = resultant(partials, DegreeSignature(n, (d - 1,) * n))
    a = ((d - 1) ** n - (-1) ** n) // d
    scale = d**a
    disc = res.value.map_coefficients(lambda c: _exact_int_div(c, scale))
    return GenericCacheEntry("hyper", hsig, names, disc)


def _exact_int_div(c, scale):
    q, r = divmod(c, scale)
    if r:
        raise IdentityFailed(f"expected divisibility by {scale}, got remainder {r}")
    return q


# -- disk persistence -------------------------------------------------------


def _cache_path(kind, sig):
    root = os.environ.get("ELIMKIT_CACHE_DIR")
    if not root:
        return None
    tag = "_".join(str(d) for d in sig.degrees)
    return os.path.join(root, f"disc_{kind}_n{sig.nvars}_d{tag}.json")


def _store_disk(entry):
    path = _cache_path(entry.kind, entry.sig)
    if path is None:
        return
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "format": _CACHE_FORMAT,
            "kind": entry.kind,
            "nvars": entry.sig.nvars,
            "degrees": list(entry.sig.degrees),
            "names": list(entry.names),
            "terms": [[list(e), str(c)] for e, c in sorted(entry.disc.terms.items())],
        }
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        pass


def _load_disk(kind, sig):
    """The stored entry, or None when it is missing, stale or malformed."""
    path = _cache_path(kind, sig)
    if path is None or not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("format") != _CACHE_FORMAT:
            return None
        if doc.get("kind") != kind or doc.get("nvars") != sig.nvars:
            return None
        if tuple(doc.get("degrees", ())) != sig.degrees:
            return None
        names = tuple(doc["names"])
        if names != _generic_names(sig):
            return None
        # str() first, so that a float or bool coefficient is refused, not truncated
        terms = [(tuple(e), int(str(c))) for e, c in doc["terms"]]
        disc = MultiPoly.from_terms(rg.ZZ, len(names), terms)
    except (OSError, KeyError, TypeError, ValueError, ElimkitError):
        return None
    return GenericCacheEntry(kind, sig, names, disc)


# ---------------------------------------------------------------------------
# small finite fields
# ---------------------------------------------------------------------------

# Monic irreducibles T^e + c1*T + c0 over F_q, stored as (c0, c1).
# Degree 2 and 3 polynomials are irreducible exactly when they have no
# root, which is re-verified by the test suite.
_IRREDUCIBLE = {
    (2, 2): (1, 1),
    (2, 3): (1, 1),
    (3, 2): (1, 0),
    (3, 3): (1, 2),
    (5, 2): (1, 1),
    (5, 3): (1, 1),
    (7, 2): (1, 0),
    (7, 3): (1, 1),
    (11, 2): (1, 0),
    (11, 3): (1, 4),
    (13, 2): (1, 3),
    (13, 3): (1, 4),
}

_TABLE_LIMIT = 512

_gf_cache: dict = {}


class GFExt:
    """F_{q^e} as F_q[T] modulo a fixed irreducible, elements packed as ints.

    An element sum(c_k T^k) is stored as the integer sum(c_k q^k).  For
    fields of at most _TABLE_LIMIT elements, flat addition and
    multiplication tables (entry a*size + b) and negation, inverse and
    square-root tables are built once, when ``get`` first makes the field;
    then ``add``, ``neg`` and ``mul`` are one lookup each, which makes the
    point enumeration in poi_check cheap.  Larger fields (11^3, 13^3)
    keep the digit arithmetic on ``to_digits``/``from_digits``.
    """

    def __init__(self, q, e):
        if e == 1:
            modpoly = None
        else:
            if (q, e) not in _IRREDUCIBLE:
                raise UnsupportedRing(f"no fixed irreducible for GF({q}^{e})")
            modpoly = _IRREDUCIBLE[(q, e)]
        self.q = q
        self.e = e
        self.size = q**e
        self.modpoly = modpoly
        self._add_table = None
        self._neg_table = None
        self._mul_table = None
        self._inv_table = None
        self._sqrt_table = None
        if self.size <= _TABLE_LIMIT:
            self._build_tables()

    @staticmethod
    def get(q, e):
        key = (q, e)
        if key not in _gf_cache:
            _gf_cache[key] = GFExt(q, e)
        return _gf_cache[key]

    # -- digit helpers --

    def to_digits(self, a):
        q = self.q
        out = []
        for _ in range(self.e):
            out.append(a % q)
            a //= q
        return out

    def from_digits(self, ds):
        a = 0
        for c in reversed(ds):
            a = a * self.q + (c % self.q)
        return a

    # -- arithmetic --

    def add(self, a, b):
        t = self._add_table
        if t is not None:
            return t[a * self.size + b]
        return self.from_digits([x + y for x, y in zip(self.to_digits(a), self.to_digits(b))])

    def neg(self, a):
        t = self._neg_table
        if t is not None:
            return t[a]
        return self.from_digits([-x for x in self.to_digits(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def _mul_slow(self, a, b):
        q, e = self.q, self.e
        if self.e == 1:
            return (a * b) % q
        da, db = self.to_digits(a), self.to_digits(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % q
        c0, c1 = self.modpoly
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                # T^k = T^{k-e} * T^e = T^{k-e} * (-c1*T - c0)
                prod[k - e + 1] = (prod[k - e + 1] - c * c1) % q
                prod[k - e] = (prod[k - e] - c * c0) % q
        return self.from_digits(prod[:e])

    def mul(self, a, b):
        t = self._mul_table
        if t is not None:
            return t[a * self.size + b]
        return self._mul_slow(a, b)

    def pow(self, a, k):
        r = 1
        while k:
            if k & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            k >>= 1
        return r

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.size - 2)

    def sqrt(self, a):
        """A square root of a, or None."""
        if self._sqrt_table is not None:
            return self._sqrt_table[a]
        for x in range(self.size):
            if self.mul(x, x) == a:
                return x
        return None

    def elements(self):
        return range(self.size)

    def _build_tables(self):
        n = self.size
        digits = [self.to_digits(a) for a in range(n)]
        self._add_table = [
            self.from_digits([x + y for x, y in zip(da, db)]) for da in digits for db in digits
        ]
        self._neg_table = [self.from_digits([-x for x in da]) for da in digits]
        mul = [0] * (n * n)
        for a in range(n):
            base = a * n
            for b in range(a, n):
                v = self._mul_slow(a, b)
                mul[base + b] = v
                mul[b * n + a] = v
        self._mul_table = mul
        inv = [0] * n
        for a in range(1, n):
            inv[a] = self.pow(a, n - 2)
        self._inv_table = inv
        sq = [None] * n
        for x in range(n):
            sq[mul[x * n + x]] = x
        self._sqrt_table = sq


# ---------------------------------------------------------------------------
# projective enumeration and the singular-point check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectivePointSet:
    q: int
    nvars: int
    points: tuple

    @staticmethod
    def enumerate(q, nvars):
        pts = tuple(_projective_points(GFExt.get(q, 1), nvars))
        return ProjectivePointSet(q, nvars, pts)


def _projective_points(gf, nvars):
    """Representatives of projective space with first nonzero coord 1."""
    for lead in range(nvars):
        prefix = (0,) * lead + (1,)
        free = nvars - lead - 1
        stack = [prefix]
        for _ in range(free):
            stack = [p + (c,) for p in stack for c in gf.elements()]
        yield from stack


def _check_prime_field(ring):
    if ring.kind != rg.MODULAR:
        raise UnsupportedRing("finite-field checks need a Z/qZ coefficient ring")
    q = ring.modulus
    if not rg._is_prime(q) or q > 13:
        raise UnsupportedRing(f"modulus {q} is not a prime <= 13")
    return q


def _prime_field_system(fs):
    """(q, signature) of n-1 forms in n variables over Z/qZ; a zero form counts as degree 1."""
    if not fs:
        raise SignatureMismatch("need at least one form")
    n = fs[0].nvars
    if len(fs) != n - 1:
        raise SignatureMismatch(f"expected {n - 1} forms in {n} variables, got {len(fs)}")
    degrees = form_degrees(fs, n)
    q = _check_prime_field(fs[0].ring)
    return q, DegreeSignature(n, tuple(1 if d is None else d for d in degrees))


def _eval_point(gf, f, point):
    """Evaluate a form over Z/qZ at a point with GFExt coordinates."""
    total = 0
    for e, c in f.terms.items():
        term = c % gf.q
        for x, k in zip(point, e):
            if k:
                term = gf.mul(term, gf.pow(x, k))
        total = gf.add(total, term)
    return total


def singular_points(fs):
    """All F_q-points where every form and every Jacobian minor vanishes."""
    q, sig = _prime_field_system(fs)
    n = sig.nvars
    minors = [jac_minor(fs, sig, i) for i in range(1, n + 1)]
    gf = GFExt.get(q, 1)
    out = set()
    for pt in _projective_points(gf, n):
        if all(_eval_point(gf, f, pt) == 0 for f in fs) and all(
            _eval_point(gf, j, pt) == 0 for j in minors
        ):
            out.add(pt)
    return out


@dataclass(frozen=True)
class PoiVerdict:
    status: str  # consistent | inconsistent | skipped
    reason: str = ""
    disc_is_zero: bool | None = None
    singular_point: tuple | None = None
    extension_degree: int | None = None
    locus_counts: tuple = ()


def _univariate_roots(gf, coeffs):
    """Roots in GF of sum(coeffs[k] T^k); coeffs are GF elements.

    Returns (roots, everything) where everything=True means the zero
    polynomial.  Degree <= 2 is solved by formula when tables allow,
    anything else by scanning the field (these fields are tiny).
    """
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        return [], True
    if len(coeffs) == 1:
        return [], False
    if len(coeffs) == 2:
        b, a = coeffs[0], coeffs[1]
        return [gf.mul(gf.neg(b), gf.inv(a))], False
    if len(coeffs) == 3 and gf.q != 2:
        c, b, a = coeffs
        disc = gf.sub(gf.mul(b, b), gf.mul(gf.mul(4 % gf.q, a), c))
        r = gf.sqrt(disc)
        if r is None:
            return [], False
        half = gf.inv(gf.add(a, a))
        r1 = gf.mul(gf.sub(r, b), half)
        r2 = gf.mul(gf.sub(gf.neg(r), b), half)
        return ([r1] if r1 == r2 else [r1, r2]), False
    roots = [t for t in gf.elements() if _poly_at(gf, coeffs, t) == 0]
    return roots, False


def _poly_at(gf, coeffs, t):
    acc = 0
    for c in reversed(coeffs):
        acc = gf.add(gf.mul(acc, t), c)
    return acc


def _line_form(gf, f):
    """(degree, [(e1, e2, e3, c mod q)]) of a ternary form, for _restrict_to_line."""
    d = f.total_degree()
    return (0 if d is None else d), [(e[0], e[1], e[2], c % gf.q) for e, c in f.terms.items()]


def _powers(gf, x, d):
    out = [1]
    for _ in range(d):
        out.append(gf.mul(out[-1], x))
    return out


def _restrict_to_line(gf, form, p1, p2):
    """Coefficients in T of f(x1, x2, T), lowest degree first.

    ``form`` is from _line_form; p1 and p2 list the powers of x1 and x2
    up to at least its degree.
    """
    d, terms = form
    out = [0] * (d + 1)
    for e1, e2, e3, v in terms:
        if e1:
            v = gf.mul(v, p1[e1])
        if e2:
            v = gf.mul(v, p2[e2])
        out[e3] = gf.add(out[e3], v)
    return out


def _locus_sweep(gf, fs, minors):
    """Points of V(fs) over GF for n = 3, via a line sweep.

    Returns (count, singular_point_or_None, infinite) where infinite
    means some whole projective line lies in the locus.
    """
    forms = [_line_form(gf, f) for f in fs]
    top = max(d for d, _ in forms)
    count = 0
    singular = None
    for x1, x2 in [(1, t) for t in gf.elements()] + [(0, 1)]:
        p1, p2 = _powers(gf, x1, top), _powers(gf, x2, top)
        restricted = [_restrict_to_line(gf, form, p1, p2) for form in forms]
        first = None
        for rc in restricted:
            if any(c != 0 for c in rc):
                first = rc
                break
        if first is None:
            return count, singular, True
        roots, _ = _univariate_roots(gf, first)
        common = [
            t
            for t in roots
            if all(_poly_at(gf, rc, t) == 0 for rc in restricted if rc is not first)
        ]
        for t in common:
            count += 1
            if singular is None:
                pt = (x1, x2, t)
                if all(_eval_point(gf, j, pt) == 0 for j in minors):
                    singular = pt
    pt = (0, 0, 1)
    if all(_eval_point(gf, f, pt) == 0 for f in fs):
        count += 1
        if singular is None and all(_eval_point(gf, j, pt) == 0 for j in minors):
            singular = pt
    return count, singular, False


def _locus_enumerate(gf, fs, minors, nvars):
    count = 0
    singular = None
    for pt in _projective_points(gf, nvars):
        if all(_eval_point(gf, f, pt) == 0 for f in fs):
            count += 1
            if singular is None and all(_eval_point(gf, j, pt) == 0 for j in minors):
                singular = pt
    return count, singular, False


def poi_check(fs, max_extension=3):
    """Compare Disc = 0 against singular points over F_{q^e}, e <= 3.

    One-sided: a singular point found in a tested extension counts as
    existence over the closure; exhausting the tested extensions without
    a find is conclusive only in the Disc != 0 direction.
    ``max_extension`` must lie in 1..3; anything else raises UnsupportedRing.
    """
    q, sig = _prime_field_system(fs)
    if max_extension not in (1, 2, 3):
        raise UnsupportedRing(f"max_extension must be 1, 2 or 3, got {max_extension}")
    n = sig.nvars
    if any(d % q == 0 for d in sig.degrees):
        return PoiVerdict(
            "skipped", f"characteristic {q} divides a degree in {sig.degrees}"
        )

    from .disc_points import disc_points

    try:
        disc = disc_points(fs, sig)
    except PerturbationDegenerate as exc:
        return PoiVerdict("skipped", f"discriminant not computable: {exc}")
    disc_zero = disc.is_zero()

    minors = [jac_minor(fs, sig, i) for i in range(1, n + 1)]
    bezout = math.prod(sig.degrees)
    counts = []
    found = None
    found_e = None
    for e in range(1, max_extension + 1):
        gf = GFExt.get(q, e)
        if n == 3:
            count, singular, infinite = _locus_sweep(gf, fs, minors)
        else:
            count, singular, infinite = _locus_enumerate(gf, fs, minors, n)
        counts.append(count)
        if infinite or count > bezout:
            return PoiVerdict(
                "skipped",
                f"zero locus is not finite (count over F_{q}^{e} exceeds {bezout})",
                disc_is_zero=disc_zero,
                locus_counts=tuple(counts),
            )
        if singular is not None and found is None:
            found = singular
            found_e = e
            break

    if found is not None:
        status = "consistent" if disc_zero else "inconsistent"
        return PoiVerdict(
            status,
            "singular point found" if disc_zero else "singular point despite Disc != 0",
            disc_is_zero=disc_zero,
            singular_point=found,
            extension_degree=found_e,
            locus_counts=tuple(counts),
        )
    if disc_zero:
        return PoiVerdict(
            "skipped",
            f"Disc = 0 but no singular point within extensions of degree <= {max_extension}",
            disc_is_zero=True,
            locus_counts=tuple(counts),
        )
    return PoiVerdict(
        "consistent",
        "no singular point in any tested extension",
        disc_is_zero=False,
        locus_counts=tuple(counts),
    )
