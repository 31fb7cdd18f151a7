"""Sparse multivariate polynomials.

A :class:`MultiPoly` maps monomials to nonzero payload coefficients of one
coefficient ring (see :mod:`elimkit.ring`).  The term order used for
printing, leading terms and division is graded lexicographic with
X1 > X2 > ... throughout.

Each monomial is held as one integer key, as in Monagan and Pearce
("Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  A key in n variables has n + 1 fields of w bits:
the total degree in the top field, then the exponents of X1, ..., Xn,
X1 most significant.  The top bit of every field is a guard bit and is
clear in a key.  So integer order on keys is graded lex order, the key
of a product of monomials is the sum of their keys, and X^b divides X^a
exactly when key(a) - key(b) sets no guard bit: a field that borrows
sets its own guard bit, and a negative difference sets every bit above.

The width w comes from the polynomial's total degree: it is the first of
8, 16, 32, ... bits whose fields hold that degree below the guard bit.
A product, or a determinant, whose degree needs more room is computed at
a wider width, and its operands are repacked to it; no exponent is
capped.  The layout is private to this module.  The determinant engine
gets keys through :func:`shared_keys` and hands them back through
:func:`from_keys`, and the Macaulay build places its rows' terms by key
sums; both only rely on keys adding under multiplication.

``terms`` is the public view: a dict from exponent tuples to
coefficients.  A polynomial built from such a dict keeps it and packs it
on the first operation that runs on keys; a polynomial computed on keys
builds the dict on the first read of ``terms`` and caches it.  Neither
may be mutated.

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


# ---------------------------------------------------------------------------
# packed monomial keys (layout in the module docstring)


def _width_for(degree):
    """The field width, guard bit included, for total degrees up to ``degree``."""
    w = 8
    while degree >> (w - 1):
        w *= 2
    return w


def _encode(exp, w):
    key = sum(exp)
    for x in exp:
        key = (key << w) | x
    return key


def _decode(key, w, n):
    if w == 8:
        return tuple(key.to_bytes(n + 1, "big")[1:])
    mask = (1 << w) - 1
    return tuple((key >> (w * j)) & mask for j in range(n - 1, -1, -1))


def _guard_bits(w, n):
    """The guard bit of each of the n + 1 fields."""
    return ((1 << (w * (n + 1))) - 1) // ((1 << w) - 1) << (w - 1)


def _pack(terms, w):
    if w == 8:
        return {int.from_bytes(bytes((sum(e), *e)), "big"): c for e, c in terms.items()}
    return {_encode(e, w): c for e, c in terms.items()}


def from_keys(ring, nvars, keys, width):
    """The polynomial with key dict ``keys`` at ``width`` (from :func:`shared_keys`)."""
    p = object.__new__(MultiPoly)
    p.ring = ring
    p.nvars = nvars
    p._terms = None
    p._keys = keys
    p._width = width
    return p


def shared_keys(polys, degree):
    """(width, the key dicts of ``polys``) at one width that holds total degree ``degree``.

    The key of a product of monomials is the sum of their keys; that is
    all a caller may assume about a key.
    """
    w = max([_width_for(degree)] + [p._packed()[1] for p in polys])
    return w, [p._packed(w)[0] for p in polys]


def _aligned(a, b):
    """(keys of a, keys of b, width) at the wider of the two widths."""
    ka, wa = a._packed()
    kb, wb = b._packed(wa)
    if wb > wa:
        ka, wa = a._packed(wb)
    return ka, kb, wa


# coefficient rings whose payload arithmetic is Python's own + - * and truth
_PLAIN = (rg.INTEGERS, rg.RATIONALS)


def _add_keys(ring, ka, kb, negate):
    """ka + kb, or ka - kb when ``negate``, with cancelled terms dropped."""
    out = dict(ka)
    if ring.kind in _PLAIN:
        for k, c in kb.items():
            s = out.pop(k, 0) + (-c if negate else c)
            if s:
                out[k] = s
        return out
    for k, c in kb.items():
        if negate:
            c = rg.val_neg(ring, c)
        s = rg.val_add(ring, out[k], c) if k in out else c
        if rg.val_is_zero(ring, s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _mul_keys(ring, ka, kb):
    """The key dict of the product; ``kb`` is the shorter factor."""
    if ring.kind in _PLAIN:
        if len(kb) == 1:
            ((eb, cb),) = kb.items()
            return {k + eb: c * cb for k, c in ka.items()}
        out = {}
        get = out.get
        for eb, cb in kb.items():
            for k, c in ka.items():
                k += eb
                out[k] = get(k, 0) + c * cb
        return {k: c for k, c in out.items() if c}
    out = {}
    for eb, cb in kb.items():
        for k, c in ka.items():
            k += eb
            p = rg.val_mul(ring, c, cb)
            out[k] = rg.val_add(ring, out[k], p) if k in out else p
    return {k: c for k, c in out.items() if not rg.val_is_zero(ring, c)}


class MultiPoly:
    """Immutable-by-convention sparse polynomial.

    Every operation returns a fresh object.  See the module docstring for
    the ``terms`` view and the packed keys behind it.
    """

    __slots__ = ("ring", "nvars", "_terms", "_keys", "_width")

    def __init__(self, ring, nvars, terms):
        self.ring = ring
        self.nvars = nvars
        self._terms = terms
        self._keys = None
        self._width = 0

    @property
    def terms(self):
        """{exponent tuple: coefficient}, built from the keys on first read."""
        if self._terms is None:
            w, n = self._width, self.nvars
            self._terms = {_decode(k, w, n): c for k, c in self._keys.items()}
        return self._terms

    def _packed(self, width=0):
        """(key dict, width): the keys at ``width``, or at this polynomial's
        own width when that is wider.  Widening replaces the stored keys."""
        if self._keys is None:
            terms = self._terms
            self._width = _width_for(max(map(sum, terms), default=0))
            self._keys = _pack(terms, self._width)
        if width > self._width:
            n = self.nvars
            self._keys = {_encode(_decode(k, self._width, n), width): c for k, c in self._keys.items()}
            self._width = width
        return self._keys, self._width

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
        return not (self._terms if self._keys is None else self._keys)

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and (0,) * self.nvars in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.nvars, rg.val_zero(self.ring))

    def coefficient_of(self, exp):
        return self.terms.get(tuple(exp), rg.val_zero(self.ring))

    def total_degree(self):
        """Max term degree; None for the zero polynomial."""
        if self.is_zero():
            return None
        keys, w = self._packed()
        return max(keys) >> (w * self.nvars)

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        keys, w = self._packed()
        if not keys:
            raise ValueError("zero polynomial has no leading term")
        k = max(keys)
        return _decode(k, w, self.nvars), keys[k]

    def eq(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.ring != other.ring or self.nvars != other.nvars:
            return False
        if self._keys is None and other._keys is None:
            return self._terms == other._terms
        ka, kb, _ = _aligned(self, other)
        # dict equality compares coefficients with ==, which is val_eq
        return ka == kb

    __eq__ = eq
    __hash__ = None

    def _check_compatible(self, other):
        if not isinstance(other, MultiPoly):
            raise RingMismatch(f"expected MultiPoly, got {other!r}")
        if (self.ring is not other.ring and self.ring != other.ring) or self.nvars != other.nvars:
            raise RingMismatch(
                f"incompatible polynomials: {self.ring!r}/{self.nvars} vs {other.ring!r}/{other.nvars}"
            )

    # -- arithmetic ----------------------------------------------------

    def add(self, other):
        self._check_compatible(other)
        ka, kb, w = _aligned(self, other)
        return from_keys(self.ring, self.nvars, _add_keys(self.ring, ka, kb, False), w)

    def sub(self, other):
        self._check_compatible(other)
        ka, kb, w = _aligned(self, other)
        return from_keys(self.ring, self.nvars, _add_keys(self.ring, ka, kb, True), w)

    def neg(self):
        keys, w = self._packed()
        return from_keys(self.ring, self.nvars, {k: rg.val_neg(self.ring, c) for k, c in keys.items()}, w)

    def mul(self, other):
        self._check_compatible(other)
        ring, n = self.ring, self.nvars
        ka, wa = self._packed()
        kb, wb = other._packed()
        if not ka or not kb:
            return MultiPoly.zero(ring, n)
        degree = (max(ka) >> (wa * n)) + (max(kb) >> (wb * n))
        w = max(wa, wb, _width_for(degree))
        ka, _ = self._packed(w)
        kb, _ = other._packed(w)
        if len(ka) < len(kb):
            ka, kb = kb, ka
        return from_keys(ring, n, _mul_keys(ring, ka, kb), w)

    def scale(self, payload):
        """Multiply by a ring payload."""
        ring = self.ring
        if rg.val_is_zero(ring, payload):
            return MultiPoly.zero(ring, self.nvars)
        keys, w = self._packed()
        return from_keys(ring, self.nvars, _mul_keys(ring, keys, {0: payload}), w)

    def scale_int(self, k):
        return self.scale(rg.val_from_int(self.ring, k))

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


_FLOOR_AFTER = 4096  # quotient terms before poly_exact_div checks its floor


def poly_exact_div(a, b):
    """The quotient q with q*b = a, when it exists in the polynomial ring.

    Leading-term division under graded lex, on a heap of packed keys
    (Monagan and Pearce, "Sparse polynomial division using a heap",
    2011).  The remainder is a dict updated in place, and a max-heap of
    its keys yields its leading term; a popped key that has meanwhile
    cancelled out of the dict is skipped.  Each step subtracts
    qc * X^ne * tail(b), whose monomials all lie below the one just
    removed, so no step copies or rescans the remainder.  A monomial
    divides another when the difference of their keys sets no guard bit.
    Over Z the coefficients are plain ints.

    A divisor with one term divides each term of ``a`` in turn.  If some
    term does not divide, the heap runs instead, so that the error and
    its witness are the same on both paths.

    Raises NotDivisible with the remainder at that step as witness.  Past
    ``_FLOOR_AFTER`` quotient terms it also raises at a term below min(a) /
    min(b) when min(b)'s coefficient is a nonzero divisor, as no quotient
    term lies there: X1^(2^40) / (X1 + X2) over Z raises after 3.3 ms (4096
    steps take 3.1 ms; 2-core x86_64, Python 3.11), and shorter divisions
    keep the leading-term witness.  Over Z/m, m composite, lift to Z.
    """
    if not isinstance(a, MultiPoly) or not isinstance(b, MultiPoly):
        raise RingMismatch("poly_exact_div expects MultiPoly operands")
    a._check_compatible(b)
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    ring, n = a.ring, a.nvars
    integers = ring.kind == rg.INTEGERS
    ka, kb, w = _aligned(a, b)
    lb = max(kb)
    cb = kb[lb]
    guard = _guard_bits(w, n)
    if len(kb) == 1:
        if integers and lb == 0 and cb == 1:
            return a
        q = _divide_by_term(ring, ka, lb, cb, guard)
        if q is not None:
            return from_keys(ring, n, q, w)
    tail = [(k, c) for k, c in kb.items() if k != lb]
    low = min(kb)  # lowest(q * b) = lowest(q) * lowest(b) when kb[low] is a nonzero divisor
    floor = min(ka, default=0) - low if rg.val_is_nzd(ring, kb[low]) else 0  # d >= 0 past the guard test
    rem = dict(ka)
    heap = [-k for k in rem]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    q = {}
    while heap:
        kr = -pop(heap)
        cr = rem.get(kr)
        if cr is None:
            continue
        d = kr - lb
        if d & guard:
            raise NotDivisible("leading monomial not divisible", witness=from_keys(ring, n, rem, w))
        if d < floor and len(q) > _FLOOR_AFTER:
            raise NotDivisible("quotient term below the lowest one possible", witness=from_keys(ring, n, rem, w))
        try:
            qc = rg.val_exact_divide(ring, cr, cb)
        except NotDivisible as exc:
            raise NotDivisible(
                "leading coefficient not divisible", witness=from_keys(ring, n, rem, w)
            ) from exc
        q[d] = qc
        del rem[kr]  # qc * cb = cr exactly
        if integers:
            for k, c in tail:
                k += d
                p = qc * c
                old = rem.get(k)
                if old is None:
                    rem[k] = -p
                    push(heap, -k)
                elif old == p:
                    del rem[k]
                else:
                    rem[k] = old - p
            continue
        for k, c in tail:
            p = rg.val_mul(ring, qc, c)
            if rg.val_is_zero(ring, p):
                continue
            k += d
            old = rem.get(k)
            if old is None:
                rem[k] = rg.val_neg(ring, p)
                push(heap, -k)
            else:
                s = rg.val_sub(ring, old, p)
                if rg.val_is_zero(ring, s):
                    del rem[k]
                else:
                    rem[k] = s
    return from_keys(ring, n, q, w)


def _divide_by_term(ring, keys, lb, cb, guard):
    """The key dict of keys / (cb * X^lb), or None when a term does not divide."""
    out = {}
    for k, c in keys.items():
        d = k - lb
        if d & guard:
            return None
        try:
            out[d] = rg.val_exact_divide(ring, c, cb)
        except NotDivisible:
            return None
    return out


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
    """Fold extension variables (every tower level, innermost first) in front of the main variables."""
    ext = f.ring
    if ext.kind != rg.POLYEXT:
        raise RingMismatch("flatten_extension needs an extension-ring polynomial")
    out = {}
    for e, payload in f.terms.items():
        if ext.base.kind == rg.POLYEXT:
            payload = flatten_extension(payload)
        for ce, c in payload.terms.items():
            out[tuple(ce) + tuple(e)] = c
    return MultiPoly(rg.scalar_base(ext), _ext_nvars(ext) + f.nvars, out)


def unflatten_extension(g, ext, n_main):
    """Inverse of flatten_extension for the given extension descriptor."""
    m = _ext_nvars(ext)
    if g.nvars != m + n_main:
        raise SignatureMismatch(f"expected {m + n_main} variables, got {g.nvars}")
    grouped = {}
    for e, c in g.terms.items():
        ce, me = e[:m], e[m:]
        grouped.setdefault(me, []).append((ce, c))
    terms = []
    for me, items in grouped.items():
        payload = MultiPoly.from_terms(rg.scalar_base(ext), m, items)
        if ext.base.kind == rg.POLYEXT:
            payload = unflatten_extension(payload, ext.base, len(ext.variables))
        terms.append((me, payload))
    return MultiPoly.from_terms(ext, n_main, terms)


def _ext_nvars(ext):
    """The number of extension variables of ``ext``, every level of a tower counted."""
    return len(ext.variables) + (_ext_nvars(ext.base) if ext.base.kind == rg.POLYEXT else 0)


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
