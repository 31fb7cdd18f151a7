"""Exact coefficient rings.

Four kinds of ring are supported: the integers, the rationals, modular
integers Z/mZ, and polynomial extensions R[a, b, ...] of any of these.
A ring is described by an immutable :class:`RingDescriptor`; the values
themselves are plain payloads (``int``, ``Fraction``, reduced ``int`` in
``[0, m)``, or a :class:`~elimkit.mpoly.MultiPoly` over the base ring for
extensions).  Payload-level arithmetic lives in the ``val_*`` functions so
the polynomial layer can work on raw payloads without wrapper overhead;
:class:`RingElement` wraps a payload for the public API.

Everything here is exact.  There is no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    DivisionByZero,
    NotDivisible,
    RingMismatch,
    UnsupportedRing,
    WrongRing,
)

INTEGERS = "integers"
RATIONALS = "rationals"
MODULAR = "modular"
POLYEXT = "polynomial-extension"

__all__ = [
    "RingDescriptor",
    "RingElement",
    "ZZ",
    "QQ",
    "Zmod",
    "polyext",
    "join_extension",
    "scalar_base",
    "characteristic",
    "exact_divide",
    "canonical_lift",
    "content",
]


@dataclass(frozen=True)
class RingDescriptor:
    """Immutable description of a coefficient ring.

    ``kind`` is one of the module constants.  ``modulus`` is set for
    modular rings, ``base`` and ``variables`` for polynomial extensions.
    """

    kind: str
    modulus: int | None = None
    base: "RingDescriptor | None" = None
    variables: tuple[str, ...] = ()

    def __repr__(self):
        if self.kind == INTEGERS:
            return "ZZ"
        if self.kind == RATIONALS:
            return "QQ"
        if self.kind == MODULAR:
            return f"Zmod({self.modulus})"
        return f"{self.base!r}[{', '.join(self.variables)}]"

    def to_json(self):
        if self.kind == POLYEXT:
            return {
                "kind": POLYEXT,
                "base": self.base.to_json(),
                "variables": list(self.variables),
            }
        if self.kind == MODULAR:
            return {"kind": MODULAR, "modulus": self.modulus}
        return {"kind": self.kind}

    @staticmethod
    def from_json(doc):
        kind = doc["kind"]
        if kind == INTEGERS:
            return ZZ
        if kind == RATIONALS:
            return QQ
        if kind == MODULAR:
            return Zmod(int(doc["modulus"]))
        if kind == POLYEXT:
            return polyext(RingDescriptor.from_json(doc["base"]), doc["variables"])
        raise UnsupportedRing(f"unknown ring kind {kind!r}")


ZZ = RingDescriptor(INTEGERS)
QQ = RingDescriptor(RATIONALS)


def Zmod(m):
    """The ring of integers modulo ``m`` (``m >= 2``)."""
    if not isinstance(m, int) or m < 2:
        raise UnsupportedRing(f"modulus must be an integer >= 2, got {m!r}")
    return RingDescriptor(MODULAR, modulus=m)


def polyext(base, names):
    """The polynomial extension ``base[names...]``."""
    names = tuple(names)
    if not names:
        raise UnsupportedRing("polynomial extension needs at least one variable")
    if len(set(names)) != len(names):
        raise UnsupportedRing(f"duplicate extension variable in {names}")
    if not isinstance(base, RingDescriptor):
        raise UnsupportedRing(f"base must be a RingDescriptor, got {base!r}")
    if base.kind == POLYEXT and set(base.variables) & set(names):
        raise UnsupportedRing("extension variables collide with the base ring's")
    return RingDescriptor(POLYEXT, base=base, variables=names)


def join_extension(ring, names):
    """Extend ``ring`` by additional indeterminates, keeping one flat level.

    For a plain scalar ring this is ``polyext(ring, names)``; for an
    extension it appends the new names to the existing ones (skipping any
    already present).
    """
    if ring.kind != POLYEXT:
        return polyext(ring, names)
    fresh = tuple(nm for nm in names if nm not in ring.variables)
    return polyext(ring.base, ring.variables + fresh)


def scalar_base(ring):
    """The innermost non-extension ring under ``ring``."""
    while ring.kind == POLYEXT:
        ring = ring.base
    return ring


def characteristic(ring):
    base = scalar_base(ring)
    return base.modulus if base.kind == MODULAR else 0


def _mp():
    # mpoly imports this module, so pull it in lazily.
    from . import mpoly

    return mpoly


# ---------------------------------------------------------------------------
# payload-level arithmetic


def val_zero(ring):
    if ring.kind == RATIONALS:
        return Fraction(0)
    if ring.kind == POLYEXT:
        return _mp().MultiPoly.zero(ring.base, len(ring.variables))
    return 0


def val_one(ring):
    return val_from_int(ring, 1)


def val_from_int(ring, k):
    if ring.kind == INTEGERS:
        return int(k)
    if ring.kind == RATIONALS:
        return Fraction(k)
    if ring.kind == MODULAR:
        return int(k) % ring.modulus
    return _mp().MultiPoly.constant(ring.base, len(ring.variables), val_from_int(ring.base, k))


def val_add(ring, a, b):
    if ring.kind == MODULAR:
        return (a + b) % ring.modulus
    if ring.kind == POLYEXT:
        return a.add(b)
    return a + b


def val_sub(ring, a, b):
    if ring.kind == MODULAR:
        return (a - b) % ring.modulus
    if ring.kind == POLYEXT:
        return a.sub(b)
    return a - b


def val_neg(ring, a):
    if ring.kind == MODULAR:
        return (-a) % ring.modulus
    if ring.kind == POLYEXT:
        return a.neg()
    return -a


def val_mul(ring, a, b):
    if ring.kind == MODULAR:
        return (a * b) % ring.modulus
    if ring.kind == POLYEXT:
        return a.mul(b)
    return a * b


def val_pow(ring, a, k):
    if k < 0:
        raise DivisionByZero("negative powers are not ring operations here")
    if ring.kind == MODULAR:
        return pow(a, k, ring.modulus)
    if ring.kind == POLYEXT:
        return a.pow(k)
    return a**k


def val_is_zero(ring, a):
    if ring.kind == POLYEXT:
        return a.is_zero()
    return a == 0


def val_eq(ring, a, b):
    if ring.kind == POLYEXT:
        return a.eq(b)
    return a == b


def val_is_unit(ring, a):
    if ring.kind == INTEGERS:
        return a in (1, -1)
    if ring.kind == RATIONALS:
        return a != 0
    if ring.kind == MODULAR:
        return gcd(a, ring.modulus) == 1
    # units of R[a,b,...] with R as supported here: unit constants
    if not a.is_constant():
        return False
    return val_is_unit(ring.base, a.constant_value())


def val_is_nzd(ring, a):
    """True when ``a`` is a nonzero divisor.

    Over Z, Q and Z/pZ this is just nonvanishing (resp. invertibility);
    over Z/mZ it is coprimality with m; for polynomial extensions McCoy's
    criterion reduces the question to the gcd of the scalar coefficients.
    """
    if ring.kind == MODULAR:
        return gcd(a, ring.modulus) == 1
    if ring.kind == POLYEXT:
        base = scalar_base(ring)
        if base.kind != MODULAR:
            return not a.is_zero()
        m = base.modulus
        g = 0
        for c in _iter_scalar_coeffs(ring, a):
            g = gcd(g, c)
            if g == 1:
                return True
        return gcd(g, m) == 1
    return a != 0


def _iter_scalar_coeffs(ring, a):
    """Yield the innermost scalar payloads sitting inside ``a``."""
    if ring.kind != POLYEXT:
        yield a
        return
    for coeff in a.terms.values():
        yield from _iter_scalar_coeffs(ring.base, coeff)


def val_exact_divide(ring, a, b):
    """The unique q with q*b = a, or an error.

    Raises DivisionByZero when b = 0, NotDivisible when no quotient exists
    or (over rings with zero divisors) when it is not unique.
    """
    if val_is_zero(ring, b):
        raise DivisionByZero(f"division by zero in {ring!r}")
    if ring.kind == INTEGERS:
        q, r = divmod(a, b)
        if r:
            raise NotDivisible(f"{a} is not a multiple of {b}", witness=r)
        return q
    if ring.kind == RATIONALS:
        return a / b
    if ring.kind == MODULAR:
        m = ring.modulus
        g = gcd(b, m)
        if g != 1:
            if a % g:
                raise NotDivisible(f"{a} not in the ideal ({b}) mod {m}", witness=a % g)
            raise NotDivisible(
                f"quotient of {a} by {b} mod {m} is not unique (gcd {g})", witness=g
            )
        return (a * pow(b, -1, m)) % m
    return _mp().poly_exact_div(a, b)


def val_convert(src, dst, a):
    """Map a payload along a coefficient-ring inclusion/projection.

    Supported: identity; Z -> Q; Z -> Z/mZ; Z/mZ -> Z/m'Z with m' | m;
    base -> extension (constants); extension -> extension whose variable
    set contains the source's, with base conversion applied recursively.
    """
    if src == dst:
        return a
    if dst.kind == POLYEXT:
        mp = _mp()
        if src.kind == POLYEXT:
            if not set(src.variables) <= set(dst.variables):
                raise RingMismatch(f"cannot convert {src!r} into {dst!r}")
            pos = [dst.variables.index(nm) for nm in src.variables]
            m = len(dst.variables)
            terms = {}
            for e, c in a.terms.items():
                newe = [0] * m
                for p, comp in zip(pos, e):
                    newe[p] = comp
                terms[tuple(newe)] = val_convert(src.base, dst.base, c)
            return mp.MultiPoly.from_terms(dst.base, m, terms.items())
        inner = val_convert(src, dst.base, a)
        return mp.MultiPoly.constant(dst.base, len(dst.variables), inner)
    if src.kind == INTEGERS:
        if dst.kind == RATIONALS:
            return Fraction(a)
        if dst.kind == MODULAR:
            return a % dst.modulus
    if src.kind == MODULAR and dst.kind == MODULAR and src.modulus % dst.modulus == 0:
        return a % dst.modulus
    raise RingMismatch(f"no conversion from {src!r} to {dst!r}")


def val_repr(ring, a):
    if ring.kind == POLYEXT:
        return a.pretty(names=ring.variables)
    return str(a)


# ---------------------------------------------------------------------------
# wrapped elements


@dataclass(frozen=True)
class RingElement:
    """A payload tagged with its ring, with operator sugar."""

    ring: RingDescriptor
    value: object

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")
            return other.value
        if isinstance(other, int):
            return val_from_int(self.ring, other)
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, val_add(self.ring, self.value, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, val_sub(self.ring, self.value, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, val_sub(self.ring, v, self.value))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, val_mul(self.ring, self.value, v))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, val_neg(self.ring, self.value))

    def __pow__(self, k):
        return RingElement(self.ring, val_pow(self.ring, self.value, k))

    def __bool__(self):
        return not val_is_zero(self.ring, self.value)

    def __eq__(self, other):
        if isinstance(other, int):
            return val_eq(self.ring, self.value, val_from_int(self.ring, other))
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring == other.ring and val_eq(self.ring, self.value, other.value)

    def __repr__(self):
        return f"<{val_repr(self.ring, self.value)} in {self.ring!r}>"

    def is_zero(self):
        return val_is_zero(self.ring, self.value)

    def is_nzd(self):
        return val_is_nzd(self.ring, self.value)


def element(ring, k):
    """RingElement from a small integer (or a payload already in the ring)."""
    if isinstance(k, int):
        return RingElement(ring, val_from_int(ring, k))
    return RingElement(ring, k)


def exact_divide(a, b):
    """Exact ring division of wrapped elements; see val_exact_divide."""
    if not isinstance(a, RingElement) or not isinstance(b, RingElement):
        raise WrongRing("exact_divide expects RingElement operands")
    if a.ring != b.ring:
        raise RingMismatch(f"{a.ring!r} vs {b.ring!r}")
    return RingElement(a.ring, val_exact_divide(a.ring, a.value, b.value))


def canonical_lift(a):
    """The representative in [0, m) of a modular element, as an integer."""
    if not isinstance(a, RingElement) or a.ring.kind != MODULAR:
        raise WrongRing("canonical_lift is only defined on modular elements")
    return RingElement(ZZ, a.value % a.ring.modulus)


def content(elements):
    """Content of a nonempty collection of elements of one ring.

    Over Z this is the gcd; over Q or Z/pZ (p prime) it is 1 when some
    element is nonzero and 0 otherwise.  Extensions flatten down to their
    scalar coefficients first.  Composite moduli have no gcd theory here.
    """
    elements = list(elements)
    if not elements:
        raise WrongRing("content of an empty collection")
    ring = elements[0].ring
    for e in elements:
        if not isinstance(e, RingElement) or e.ring != ring:
            raise RingMismatch("content needs elements of one common ring")
    base = scalar_base(ring)
    scalars = []
    for e in elements:
        scalars.extend(_iter_scalar_coeffs(ring, e.value))
    if base.kind == INTEGERS:
        g = 0
        for c in scalars:
            g = gcd(g, c)
        return RingElement(ZZ, g)
    if base.kind == RATIONALS:
        nz = any(c != 0 for c in scalars)
        return RingElement(QQ, Fraction(1 if nz else 0))
    if base.kind == MODULAR:
        m = base.modulus
        if not _is_prime(m):
            raise UnsupportedRing(f"content over Zmod({m}) with composite modulus")
        nz = any(c % m for c in scalars)
        return RingElement(base, 1 if nz else 0)
    raise UnsupportedRing(f"content over {base!r}")


def _is_prime(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True
