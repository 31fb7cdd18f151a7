"""Sparse multivariate polynomials.

A :class:`MultiPoly` stores a map from exponent tuples to nonzero payload
coefficients of one coefficient ring (see :mod:`elimkit.ring`).  The term
order used for printing, leading terms and division is graded
lexicographic with X1 > X2 > ... throughout.

All variable indices in the public API are 1-based, matching the usual
X_1, ..., X_n notation.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from . import ring as rg
from .errors import (
    DivisionByZero,
    NonHomogeneous,
    NotDivisible,
    RingMismatch,
    SignatureMismatch,
    UnweightedSymbol,
)

HOMOGENEOUS_ANY = "any"

__all__ = [
    "MultiPoly",
    "DegreeSignature",
    "WeightVector",
    "grlex_key",
    "monomials_of_degree",
    "is_homogeneous",
    "form_degrees",
    "check_forms",
    "substitution_degree",
    "partial_derivative",
    "dehomogenize",
    "substitute",
    "poly_exact_div",
    "poly_sqrt",
    "weight_valuation",
    "isobaric_part",
    "generic_polynomial",
    "generic_system",
    "generic_coeff_names",
    "parse_generic_name",
    "zariski_weight_vector",
    "flatten_extension",
    "unflatten_extension",
    "lift_poly",
    "via_lift",
    "evaluate_coefficients",
    "poly_content",
]


def grlex_key(exp):
    """Sort key realizing graded lex with X1 > X2 > ... (ascending key)."""
    return (sum(exp), exp)


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, in descending graded-lex order."""
    if nvars == 0:
        return [()] if d == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), d, nvars)
    return out


class MultiPoly:
    """Immutable-by-convention sparse polynomial.

    Do not mutate ``terms`` after construction; every operation returns a
    fresh object.
    """

    __slots__ = ("ring", "nvars", "terms")

    def __init__(self, ring, nvars, terms):
        self.ring = ring
        self.nvars = nvars
        self.terms = terms

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(ring, nvars):
        return MultiPoly(ring, nvars, {})

    @staticmethod
    def constant(ring, nvars, payload):
        if rg.val_is_zero(ring, payload):
            return MultiPoly(ring, nvars, {})
        return MultiPoly(ring, nvars, {(0,) * nvars: payload})

    @staticmethod
    def from_int(ring, nvars, k):
        return MultiPoly.constant(ring, nvars, rg.val_from_int(ring, k))

    @staticmethod
    def variable(ring, nvars, i):
        """X_i (1-based)."""
        if not 1 <= i <= nvars:
            raise IndexError(f"variable index {i} out of range 1..{nvars}")
        e = [0] * nvars
        e[i - 1] = 1
        return MultiPoly(ring, nvars, {tuple(e): rg.val_one(ring)})

    @staticmethod
    def monomial(ring, nvars, exp, coeff):
        exp = tuple(exp)
        if len(exp) != nvars or any(e < 0 for e in exp):
            raise SignatureMismatch(f"bad exponent vector {exp} for {nvars} variables")
        if rg.val_is_zero(ring, coeff):
            return MultiPoly(ring, nvars, {})
        return MultiPoly(ring, nvars, {exp: coeff})

    @staticmethod
    def from_terms(ring, nvars, items):
        acc = {}
        for exp, coeff in items:
            exp = tuple(exp)
            if len(exp) != nvars or any(not isinstance(e, int) or e < 0 for e in exp):
                raise SignatureMismatch(f"bad exponent vector {exp} for {nvars} variables")
            if exp in acc:
                acc[exp] = rg.val_add(ring, acc[exp], coeff)
            else:
                acc[exp] = coeff
        return MultiPoly(ring, nvars, {e: c for e, c in acc.items() if not rg.val_is_zero(ring, c)})

    # -- basics --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and (0,) * self.nvars in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.nvars, rg.val_zero(self.ring))

    def coefficient_of(self, exp):
        return self.terms.get(tuple(exp), rg.val_zero(self.ring))

    def total_degree(self):
        """Max term degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def eq(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.ring != other.ring or self.nvars != other.nvars:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(rg.val_eq(self.ring, c, other.terms[e]) for e, c in self.terms.items())

    __eq__ = eq
    __hash__ = None

    def _check_compatible(self, other):
        if not isinstance(other, MultiPoly):
            raise RingMismatch(f"expected MultiPoly, got {other!r}")
        if self.ring != other.ring or self.nvars != other.nvars:
            raise RingMismatch(
                f"incompatible polynomials: {self.ring!r}/{self.nvars} vs {other.ring!r}/{other.nvars}"
            )

    # -- arithmetic ----------------------------------------------------

    def add(self, other):
        self._check_compatible(other)
        ring = self.ring
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = rg.val_add(ring, out[e], c)
                if rg.val_is_zero(ring, s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return MultiPoly(ring, self.nvars, out)

    def neg(self):
        ring = self.ring
        return MultiPoly(ring, self.nvars, {e: rg.val_neg(ring, c) for e, c in self.terms.items()})

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        self._check_compatible(other)
        ring = self.ring
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                p = rg.val_mul(ring, c1, c2)
                if e in out:
                    out[e] = rg.val_add(ring, out[e], p)
                else:
                    out[e] = p
        return MultiPoly(ring, self.nvars, {e: c for e, c in out.items() if not rg.val_is_zero(ring, c)})

    def scale(self, payload):
        """Multiply by a ring payload."""
        ring = self.ring
        if rg.val_is_zero(ring, payload):
            return MultiPoly.zero(ring, self.nvars)
        out = {}
        for e, c in self.terms.items():
            p = rg.val_mul(ring, c, payload)
            if not rg.val_is_zero(ring, p):
                out[e] = p
        return MultiPoly(ring, self.nvars, out)

    def scale_int(self, k):
        return self.scale(rg.val_from_int(self.ring, k))

    def mul_monomial(self, exp, coeff=None):
        exp = tuple(exp)
        ring = self.ring
        if coeff is None:
            return MultiPoly(
                ring, self.nvars, {tuple(a + b for a, b in zip(e, exp)): c for e, c in self.terms.items()}
            )
        out = {}
        for e, c in self.terms.items():
            p = rg.val_mul(ring, c, coeff)
            if not rg.val_is_zero(ring, p):
                out[tuple(a + b for a, b in zip(e, exp))] = p
        return MultiPoly(ring, self.nvars, out)

    def pow(self, k):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = MultiPoly.from_int(self.ring, self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result.mul(base)
            base = base.mul(base) if k > 1 else base
            k >>= 1
        return result

    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __neg__ = neg
    __pow__ = pow

    # -- structure -----------------------------------------------------

    def map_coefficients(self, fn, new_ring=None):
        ring = new_ring if new_ring is not None else self.ring
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            if not rg.val_is_zero(ring, v):
                out[e] = v
        return MultiPoly(ring, self.nvars, out)

    def change_ring(self, new_ring):
        return self.map_coefficients(lambda c: rg.val_convert(self.ring, new_ring, c), new_ring)

    def evaluate(self, values):
        """Full evaluation at payloads of this polynomial's own ring."""
        if len(values) != self.nvars:
            raise SignatureMismatch(f"{self.nvars} values expected, got {len(values)}")
        ring = self.ring
        total = rg.val_zero(ring)
        powcache = [{0: rg.val_one(ring)} for _ in range(self.nvars)]

        def vpow(j, k):
            cache = powcache[j]
            if k not in cache:
                cache[k] = rg.val_mul(ring, vpow(j, k - 1), values[j])
            return cache[k]

        for e, c in self.terms.items():
            term = c
            for j, k in enumerate(e):
                if k:
                    term = rg.val_mul(ring, term, vpow(j, k))
            total = rg.val_add(ring, total, term)
        return total

    def substitute(self, images):
        """Composition: plug ``images[j]`` in for X_{j+1}.

        The images must be polynomials over one common ring (and variable
        count); this polynomial's coefficients are converted into that
        ring, so composing a Z-coefficient polynomial with, say, images
        over an extension works directly.
        """
        if len(images) != self.nvars:
            raise SignatureMismatch(f"{self.nvars} images expected, got {len(images)}")
        if not images:
            raise SignatureMismatch("substitute needs at least one variable")
        target = images[0]
        for g in images[1:]:
            target._check_compatible(g)
        tring, tn = target.ring, target.nvars
        result = MultiPoly.zero(tring, tn)
        powcache = [{} for _ in range(self.nvars)]

        def ipow(j, k):
            cache = powcache[j]
            if k not in cache:
                if k == 0:
                    cache[k] = MultiPoly.from_int(tring, tn, 1)
                else:
                    cache[k] = ipow(j, k - 1).mul(images[j])
            return cache[k]

        for e, c in self.terms.items():
            term = MultiPoly.constant(tring, tn, rg.val_convert(self.ring, tring, c))
            for j, k in enumerate(e):
                if k and not term.is_zero():
                    term = term.mul(ipow(j, k))
            result = result.add(term)
        return result

    # -- printing --------------------------------------------------------

    def pretty(self, names=None):
        if not self.terms:
            return "0"
        if names is None:
            names = tuple(f"X{i}" for i in range(1, self.nvars + 1))
        bits = []
        for e in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{names[j]}^{k}" if k > 1 else names[j] for j, k in enumerate(e) if k
            )
            cs = rg.val_repr(self.ring, c)
            if self.ring.kind == rg.POLYEXT and not c.is_constant():
                cs = f"({cs})"
            if mono:
                bits.append(f"{cs}*{mono}" if cs != "1" else mono)
            else:
                bits.append(cs)
        return " + ".join(bits)

    def __repr__(self):
        return f"<MultiPoly {self.pretty()} over {self.ring!r}>"


# ---------------------------------------------------------------------------
# signatures and weights


@dataclass(frozen=True)
class DegreeSignature:
    """(n; d_1, ..., d_r): number of variables plus slot degrees."""

    nvars: int
    degrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))
        if self.nvars < 1:
            raise SignatureMismatch(f"need at least one variable, got {self.nvars}")
        if any(not isinstance(d, int) or d < 1 for d in self.degrees):
            raise SignatureMismatch(f"degrees must be positive integers: {self.degrees}")

    @property
    def r(self):
        return len(self.degrees)

    @property
    def critical_degree(self):
        """nu = sum(d_i - 1) + 1, the classical Macaulay degree (r = n)."""
        return sum(d - 1 for d in self.degrees) + 1


class WeightVector:
    """Non-negative integer weights on named coefficient indeterminates."""

    def __init__(self, weights):
        self._w = dict(weights)
        for name, w in self._w.items():
            if not isinstance(w, int) or w < 0:
                raise UnweightedSymbol(f"weight of {name!r} must be a non-negative integer")

    def weight_of(self, name):
        try:
            return self._w[name]
        except KeyError:
            raise UnweightedSymbol(f"no weight assigned to {name!r}") from None

    def __contains__(self, name):
        return name in self._w

    def items(self):
        return self._w.items()

    def __repr__(self):
        inner = ", ".join(f"{k}:{v}" for k, v in sorted(self._w.items()))
        return f"WeightVector({inner})"


# ---------------------------------------------------------------------------
# calculus and structural transforms (spec-level entry points)


def is_homogeneous(f):
    """Common total degree of all terms, HOMOGENEOUS_ANY for 0, None if mixed."""
    if f.is_zero():
        return HOMOGENEOUS_ANY
    degs = {sum(e) for e in f.terms}
    if len(degs) == 1:
        return degs.pop()
    return None


def form_degrees(fs, nvars=None):
    """The degree of each form in ``fs``, None for a zero form.

    The forms must share one coefficient ring (else RingMismatch) and
    one variable count, ``nvars`` when given (else SignatureMismatch),
    and each must be homogeneous (else NonHomogeneous).
    """
    if nvars is None and fs:
        nvars = fs[0].nvars
    degrees = []
    for i, f in enumerate(fs, 1):
        if f.ring != fs[0].ring:
            raise RingMismatch(f"form {i} is over {f.ring!r}, form 1 over {fs[0].ring!r}")
        if f.nvars != nvars:
            raise SignatureMismatch(f"form {i} has {f.nvars} variables, expected {nvars}")
        h = is_homogeneous(f)
        if h is None:
            raise NonHomogeneous(f"form {i} is not homogeneous")
        degrees.append(None if h == HOMOGENEOUS_ANY else h)
    return degrees


def check_forms(fs, sig):
    """Check ``fs`` against ``sig``; a zero form fits any degree.

    Returns the common coefficient ring (None when ``fs`` is empty).
    """
    if len(fs) != sig.r:
        raise SignatureMismatch(f"expected {sig.r} forms, got {len(fs)}")
    for i, (h, d) in enumerate(zip(form_degrees(fs, sig.nvars), sig.degrees), 1):
        if h is not None and h != d:
            raise SignatureMismatch(f"form {i} has degree {h}, signature says {d}")
    return fs[0].ring if fs else None


def substitution_degree(gs, like, n):
    """The one degree shared by n nonzero substitution forms in n variables.

    The forms ``gs`` must live over the coefficient ring of the form
    ``like`` they are substituted into.
    """
    if len(gs) != n:
        raise SignatureMismatch(f"need {n} substitution forms, got {len(gs)}")
    degrees = set(form_degrees(gs, n))
    if gs[0].ring != like.ring:
        raise RingMismatch("substitution forms must share the ring of the forms they enter")
    if None in degrees:
        raise SignatureMismatch("substitution forms must be nonzero")
    if len(degrees) != 1:
        raise SignatureMismatch(f"substitution forms must share one degree, got {sorted(degrees)}")
    return degrees.pop()


def partial_derivative(f, i):
    """d/dX_i (1-based)."""
    if not 1 <= i <= f.nvars:
        raise IndexError(f"variable index {i} out of range 1..{f.nvars}")
    ring = f.ring
    j = i - 1
    out = {}
    for e, c in f.terms.items():
        if e[j] == 0:
            continue
        v = rg.val_mul(ring, c, rg.val_from_int(ring, e[j]))
        if rg.val_is_zero(ring, v):
            continue
        ne = e[:j] + (e[j] - 1,) + e[j + 1 :]
        out[ne] = rg.val_add(ring, out[ne], v) if ne in out else v
    return MultiPoly(ring, f.nvars, {e: c for e, c in out.items() if not rg.val_is_zero(ring, c)})


def dehomogenize(f, i, mode):
    """X_i := 1 (mode "one", variable removed) or X_i := 0 (mode "zero")."""
    if not 1 <= i <= f.nvars:
        raise IndexError(f"variable index {i} out of range 1..{f.nvars}")
    j = i - 1
    ring = f.ring
    if mode == "zero":
        return MultiPoly(ring, f.nvars, {e: c for e, c in f.terms.items() if e[j] == 0})
    if mode != "one":
        raise ValueError(f"mode must be 'one' or 'zero', got {mode!r}")
    out = {}
    for e, c in f.terms.items():
        ne = e[:j] + e[j + 1 :]
        out[ne] = rg.val_add(ring, out[ne], c) if ne in out else c
    return MultiPoly(ring, f.nvars - 1, {e: c for e, c in out.items() if not rg.val_is_zero(ring, c)})


def substitute(f, images):
    return f.substitute(list(images))


def poly_exact_div(a, b):
    """The quotient q with q*b = a, when it exists in the polynomial ring.

    Leading-term division under graded lex, on a heap (Monagan and
    Pearce, "Sparse polynomial division using a heap", 2011).  The
    remainder is a dict updated in place, and a max-heap of its monomials
    yields its leading term; a popped monomial that has meanwhile
    cancelled out of the dict is skipped.  Each step subtracts
    qc * X^ne * tail(b), whose monomials all lie below the one just
    removed, so no step copies or rescans the remainder.

    Raises NotDivisible with the remainder at that step as witness.
    Over coefficient rings with zero divisors a unique quotient may be
    unreachable this way; callers working modulo a composite number
    should lift to Z first.
    """
    if not isinstance(a, MultiPoly) or not isinstance(b, MultiPoly):
        raise RingMismatch("poly_exact_div expects MultiPoly operands")
    a._check_compatible(b)
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    ring = a.ring
    eb, cb = b.leading()
    tail = [(e, c) for e, c in b.terms.items() if e != eb]
    rem = dict(a.terms)
    # heap entries (-degree, negated exponents, exponents): the smallest
    # entry is the graded-lex largest monomial
    heap = [(-sum(e), tuple(-k for k in e), e) for e in rem]
    heapq.heapify(heap)
    qterms = {}
    while heap:
        er = heapq.heappop(heap)[2]
        cr = rem.get(er)
        if cr is None:
            continue
        ne = tuple(x - y for x, y in zip(er, eb))
        if any(k < 0 for k in ne):
            raise NotDivisible("leading monomial not divisible", witness=MultiPoly(ring, a.nvars, rem))
        try:
            qc = rg.val_exact_divide(ring, cr, cb)
        except NotDivisible as exc:
            raise NotDivisible(
                "leading coefficient not divisible", witness=MultiPoly(ring, a.nvars, rem)
            ) from exc
        qterms[ne] = qc
        del rem[er]  # qc * cb = cr exactly
        for e, c in tail:
            p = rg.val_mul(ring, qc, c)
            if rg.val_is_zero(ring, p):
                continue
            k = tuple(x + y for x, y in zip(e, ne))
            old = rem.get(k)
            if old is None:
                rem[k] = rg.val_neg(ring, p)
                heapq.heappush(heap, (-sum(k), tuple(-x for x in k), k))
            else:
                s = rg.val_sub(ring, old, p)
                if rg.val_is_zero(ring, s):
                    del rem[k]
                else:
                    rem[k] = s
    return MultiPoly(ring, a.nvars, qterms)


def _scalar_sqrt(ring, c):
    """Square root of a payload, or None."""
    if ring.kind == rg.INTEGERS:
        if c < 0:
            return None
        r = math.isqrt(c)
        return r if r * r == c else None
    if ring.kind == rg.RATIONALS:
        num, den = c.numerator, c.denominator
        if num < 0:
            return None
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            from fractions import Fraction

            return Fraction(rn, rd)
        return None
    if ring.kind == rg.MODULAR:
        m = ring.modulus
        for r in range(m):
            if (r * r - c) % m == 0:
                return r
        return None
    return poly_sqrt(c)


def _payload_negative(ring, c):
    """A canonical 'is negative' for sign normalization of square roots."""
    if ring.kind == rg.INTEGERS:
        return c < 0
    if ring.kind == rg.RATIONALS:
        return c < 0
    if ring.kind == rg.MODULAR:
        return c > ring.modulus - c
    lead = c.leading()[1]
    return _payload_negative(ring.base, lead)


def poly_sqrt(a):
    """A polynomial square root of ``a``, or None.

    The returned root has a canonically normalized sign (leading scalar
    not 'negative').  Characteristic 2 uses the Frobenius: a square has
    even exponents everywhere and square coefficients.
    """
    ring = a.ring
    if a.is_zero():
        return a
    if rg.characteristic(ring) == 2:
        out = {}
        for e, c in a.terms.items():
            if any(k % 2 for k in e):
                return None
            s = _scalar_sqrt(ring, c)
            if s is None:
                return None
            out[tuple(k // 2 for k in e)] = s
        return MultiPoly(ring, a.nvars, out)
    ea, ca = a.leading()
    if any(k % 2 for k in ea):
        return None
    cs = _scalar_sqrt(ring, ca)
    if cs is None:
        return None
    s = MultiPoly.monomial(ring, a.nvars, tuple(k // 2 for k in ea), cs)
    lead2 = s.scale_int(2)
    rem = a.sub(s.mul(s))
    bound = grlex_key(ea)
    while not rem.is_zero():
        er, cr = rem.leading()
        if grlex_key(er) >= bound:
            return None
        bound = grlex_key(er)
        el2, cl2 = lead2.leading()
        ne = tuple(x - y for x, y in zip(er, el2))
        if any(k < 0 for k in ne):
            return None
        try:
            qc = rg.val_exact_divide(ring, cr, cl2)
        except NotDivisible:
            return None
        t = MultiPoly.monomial(ring, a.nvars, ne, qc)
        rem = rem.sub(lead2.mul(t)).sub(t.mul(t))
        s = s.add(t)
        lead2 = s.scale_int(2)
    if _payload_negative(ring, s.leading()[1]):
        s = s.neg()
    if not s.mul(s).eq(a):
        return None
    return s


# ---------------------------------------------------------------------------
# weights


def _payload_term_weight(names, w, exp):
    total = 0
    for name, k in zip(names, exp):
        if k:
            total += k * w.weight_of(name)
    return total


def weight_valuation(f, w):
    """Minimum total weight of the coefficient indeterminates in ``f``.

    ``f`` may be a RingElement over an extension, a MultiPoly over an
    extension ring, or a plain scalar-coefficient object (valuation 0
    unless zero, which gives math.inf).
    """
    payloads = _weight_payloads(f)
    if payloads is None:
        zero = f.is_zero() if hasattr(f, "is_zero") else False
        return math.inf if zero else 0
    names, polys = payloads
    best = math.inf
    for p in polys:
        for e in p.terms:
            tw = _payload_term_weight(names, w, e)
            if tw < best:
                best = tw
    return best


def isobaric_part(f, w, v):
    """The part of ``f`` whose coefficient terms have total weight exactly v."""
    payloads = _weight_payloads(f)
    if payloads is None:
        raise UnweightedSymbol("isobaric_part needs extension-ring coefficients")
    names, _ = payloads

    def filter_payload(p):
        kept = {e: c for e, c in p.terms.items() if _payload_term_weight(names, w, e) == v}
        return MultiPoly(p.ring, p.nvars, kept)

    if isinstance(f, rg.RingElement):
        return rg.RingElement(f.ring, filter_payload(f.value))
    return f.map_coefficients(filter_payload)


def _weight_payloads(f):
    """(extension names, payload polys) when f carries extension coefficients."""
    if isinstance(f, rg.RingElement):
        if f.ring.kind != rg.POLYEXT:
            return None
        return f.ring.variables, [f.value]
    if isinstance(f, MultiPoly):
        if f.ring.kind != rg.POLYEXT:
            return None
        return f.ring.variables, list(f.terms.values())
    return None


# ---------------------------------------------------------------------------
# generic (universal-coefficient) systems


def generic_coeff_names(sig, i):
    """Deterministic names for slot i's coefficients: U<i>_<exponents>."""
    d = sig.degrees[i - 1]
    return [f"U{i}_" + "_".join(map(str, e)) for e in monomials_of_degree(sig.nvars, d)]


def parse_generic_name(name):
    """Inverse of the naming scheme: 'U2_1_0_1' -> (2, (1, 0, 1)); None if foreign."""
    parts = name.split("_")
    if len(parts) < 2 or not parts[0].startswith("U"):
        return None
    try:
        slot = int(parts[0][1:])
        exps = tuple(int(p) for p in parts[1:])
    except ValueError:
        return None
    return slot, exps


def generic_polynomial(sig, i, base=rg.ZZ):
    """Slot i of the universal system, over base extended by its own names."""
    names = generic_coeff_names(sig, i)
    ext = rg.join_extension(base, names)
    return _generic_in(ext, sig, i)


def generic_system(sig, base=rg.ZZ):
    """(ring, [f_1, ..., f_r]) with all slots sharing one extension ring."""
    names = []
    for i in range(1, sig.r + 1):
        names.extend(generic_coeff_names(sig, i))
    ext = rg.join_extension(base, names)
    return ext, [_generic_in(ext, sig, i) for i in range(1, sig.r + 1)]


def _generic_in(ext, sig, i):
    d = sig.degrees[i - 1]
    n = sig.nvars
    terms = []
    for e in monomials_of_degree(n, d):
        name = f"U{i}_" + "_".join(map(str, e))
        pos = ext.variables.index(name)
        mono = [0] * len(ext.variables)
        mono[pos] = 1
        coeff = MultiPoly(ext.base, len(ext.variables), {tuple(mono): rg.val_one(ext.base)})
        terms.append((e, coeff))
    return MultiPoly.from_terms(ext, n, terms)


def zariski_weight_vector(sig, mu, names=None):
    """Zariski weights: U<i>_<alpha> gets max(alpha_n - mu_i, 0).

    ``mu`` is one integer per slot.  Extra ``names`` (non-generic symbols)
    get weight 0 so ambient constants flow through.
    """
    if len(mu) != sig.r:
        raise SignatureMismatch(f"{sig.r} weights expected, got {len(mu)}")
    weights = {}
    for i in range(1, sig.r + 1):
        for nm in generic_coeff_names(sig, i):
            _, exps = parse_generic_name(nm)
            weights[nm] = max(exps[-1] - mu[i - 1], 0)
    for nm in names or ():
        weights.setdefault(nm, 0)
    return WeightVector(weights)


# ---------------------------------------------------------------------------
# moving between rings


def flatten_extension(f):
    """Fold extension variables into the main variable list (they come first)."""
    ext = f.ring
    if ext.kind != rg.POLYEXT:
        raise RingMismatch("flatten_extension needs an extension-ring polynomial")
    m = len(ext.variables)
    out = {}
    for e, payload in f.terms.items():
        for ce, c in payload.terms.items():
            out[tuple(ce) + tuple(e)] = c
    return MultiPoly(ext.base, m + f.nvars, out)


def unflatten_extension(g, ext, n_main):
    """Inverse of flatten_extension for the given extension descriptor."""
    m = len(ext.variables)
    if g.nvars != m + n_main:
        raise SignatureMismatch(f"expected {m + n_main} variables, got {g.nvars}")
    grouped = {}
    for e, c in g.terms.items():
        ce, me = e[:m], e[m:]
        grouped.setdefault(me, []).append((ce, c))
    terms = []
    for me, items in grouped.items():
        terms.append((me, MultiPoly.from_terms(ext.base, m, items)))
    return MultiPoly.from_terms(ext, n_main, terms)


def _lift_ring(ring):
    if ring.kind == rg.MODULAR:
        return rg.ZZ
    if ring.kind == rg.POLYEXT:
        return rg.polyext(_lift_ring(ring.base), ring.variables)
    return ring


def _lift_payload(ring, a):
    if ring.kind == rg.MODULAR:
        return a % ring.modulus
    if ring.kind == rg.POLYEXT:
        lifted = _lift_ring(ring)
        return MultiPoly(
            lifted.base,
            a.nvars,
            {e: _lift_payload(ring.base, c) for e, c in a.terms.items()},
        )
    return a


def lift_poly(f):
    """Canonically lift modular coefficients to Z (recursively through extensions)."""
    lifted = _lift_ring(f.ring)
    if lifted == f.ring:
        return f
    return MultiPoly(lifted, f.nvars, {e: _lift_payload(f.ring, c) for e, c in f.terms.items()})


def via_lift(compute, fs):
    """compute(lifted forms) reduced back to the modular ring of ``fs``.

    A value over Z/m (or an extension of it) is defined as the reduction
    of the value at the canonical lift to Z; this is how it is computed
    wherever the route needs an exact division by an integer.
    """
    ring = fs[0].ring
    value = compute([lift_poly(f) for f in fs])
    return rg.RingElement(ring, rg.val_convert(value.ring, ring, value.value))


def evaluate_coefficients(f, values):
    """Specialize every extension variable of f's ring to a base payload."""
    ext = f.ring
    if ext.kind != rg.POLYEXT:
        raise RingMismatch("evaluate_coefficients needs an extension-ring polynomial")
    if len(values) != len(ext.variables):
        raise SignatureMismatch(
            f"{len(ext.variables)} values expected, got {len(values)}"
        )
    out = {}
    for e, payload in f.terms.items():
        v = payload.evaluate(values)
        if not rg.val_is_zero(ext.base, v):
            out[e] = v
    return MultiPoly(ext.base, f.nvars, out)


def poly_content(f):
    """Content of a polynomial's coefficients (see ring.content)."""
    if f.is_zero():
        return rg.content([rg.RingElement(f.ring, rg.val_zero(f.ring))])
    return rg.content([rg.RingElement(f.ring, c) for c in f.terms.values()])
