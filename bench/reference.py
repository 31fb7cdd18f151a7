"""Reference values computed without elimkit.

Polynomials here are plain dicts {exponent tuple: int}.  The
references are:

* resultants from the Macaulay ratio det(M) / det(M'), with determinants
  taken by sympy's DomainMatrix.  For two forms M is the Sylvester matrix
  with its rows ordered so that pure powers give the identity, and M' is
  empty: that is the Sylvester resultant with the sign the pure-power
  normalization Res(X_1^{d_1}, ..., X_n^{d_n}) = 1 implies.  When det(M')
  vanishes, R(t) = Res(f_i + t X_i^{d_i}) is interpolated from D + 1
  integer points and evaluated at t = 0;
* both discriminants from their defining identities on top of that;
* the committed generic-cache files in ``tests/.generic_cache``, read only
  and specialized at given coefficients.

Values over Z/m are computed over Z from the canonical lifts and reduced.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from itertools import permutations

CACHE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", ".generic_cache")


def monomials(n, d):
    """Exponent tuples of degree d in n variables, descending lex order."""
    if n == 1:
        return [(d,)]
    return [(a,) + rest for a in range(d, -1, -1) for rest in monomials(n - 1, d - a)]


def det(rows):
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    n = len(rows)
    if n == 0:
        return 1
    return int(DomainMatrix([[ZZ(x) for x in r] for r in rows], (n, n), ZZ).det())


def macaulay(fs, degs):
    """(M, reduced positions) at the critical degree, rows indexed like cols."""
    n = len(degs)
    nu = sum(d - 1 for d in degs) + 1
    cols = monomials(n, nu)
    pos = {e: p for p, e in enumerate(cols)}
    rows, reduced = [], []
    for p, g in enumerate(cols):
        big = [j for j in range(n) if g[j] >= degs[j]]
        i = big[0]
        row = [0] * len(cols)
        for e, c in fs[i].items():
            target = tuple(g[j] - (degs[j] if j == i else 0) + e[j] for j in range(n))
            row[pos[target]] += c
        rows.append(row)
        if len(big) >= 2:
            reduced.append(p)
    return rows, reduced


def _ratio(fs, degs):
    rows, red = macaulay(fs, degs)
    den = det([[rows[i][j] for j in red] for i in red])
    if den == 0:
        return None
    return Fraction(det(rows)) / den


def resultant(fs, degs):
    """Normalized resultant of n forms in n variables."""
    n = len(degs)
    if any(not f for f in fs):
        return 0
    direct = _ratio(fs, degs)
    if direct is not None:
        return _integral(direct)
    # Macaulay denominator vanished: interpolate R(t) at t = 0.
    top = sum(math.prod(degs[:i] + degs[i + 1:]) for i in range(n))
    points = []
    t = 1
    while len(points) < top + 1:
        bumped = []
        for i, f in enumerate(fs):
            g = dict(f)
            e = tuple(degs[i] if j == i else 0 for j in range(n))
            g[e] = g.get(e, 0) + t
            bumped.append(g)
        v = _ratio(bumped, degs)
        if v is not None:
            points.append((t, v))
        t += 1
    return _integral(_lagrange_at_zero(points))


def _lagrange_at_zero(points):
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        w = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                w *= Fraction(-xj, xi - xj)
        total += w
    return total


def _integral(v):
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


# -- polynomial helpers ------------------------------------------------------


def derivative(f, k):
    out = {}
    for e, c in f.items():
        if e[k]:
            g = list(e)
            g[k] -= 1
            out[tuple(g)] = out.get(tuple(g), 0) + c * e[k]
    return {e: c for e, c in out.items() if c}


def _mul(f, g):
    out = {}
    for a, x in f.items():
        for b, y in g.items():
            e = tuple(i + j for i, j in zip(a, b))
            out[e] = out.get(e, 0) + x * y
    return {e: c for e, c in out.items() if c}


def _perm_sign(p):
    s = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                s = -s
    return s


def jacobian_minor(fs, n, i):
    """J_i: the Jacobian minor without column i (0-based), sign (-1)^(n-1-i)."""
    cols = [k for k in range(n) if k != i]
    mat = [[derivative(f, k) for k in cols] for f in fs]
    m = len(fs)
    total = {}
    for p in permutations(range(m)):
        term = {(0,) * n: _perm_sign(p)}
        for r in range(m):
            term = _mul(term, mat[r][p[r]])
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    total = {e: c for e, c in total.items() if c}
    if (n - 1 - i) % 2:
        total = {e: -c for e, c in total.items()}
    return total


def disc_points(fs, degs, n):
    """Disc * Res(fs, X_i) = Res(fs, J_i) at the first i with a nonzero denominator.

    When every denominator vanishes, Disc(f_i + t g_i) with g_i the sum of
    the pure powers X_j^{d_i} is a polynomial in t of degree at most the
    total degree of Disc; it is interpolated from integer points at t = 0.
    """
    if all(d == 1 for d in degs):
        return 1
    direct = _disc_by_division(fs, degs, n)
    if direct is not None:
        return direct
    p, s = math.prod(degs), sum(d - 1 for d in degs)
    top = sum(p // d * (d - 1 + s) for d in degs)
    points = []
    t = 1
    while len(points) < top + 1:
        bumped = []
        for f, d in zip(fs, degs):
            g = dict(f)
            for j in range(n):
                e = tuple(d if k == j else 0 for k in range(n))
                g[e] = g.get(e, 0) + t
            bumped.append(g)
        v = _disc_by_division(bumped, degs, n)
        if v is not None:
            points.append((t, v))
        t += 1
    return _integral(_lagrange_at_zero(points))


def _disc_by_division(fs, degs, n):
    jdeg = sum(d - 1 for d in degs)
    for i in range(n):
        xi = {tuple(1 if j == i else 0 for j in range(n)): 1}
        den = resultant(fs + [xi], tuple(degs) + (1,))
        if den == 0:
            continue
        num = resultant(fs + [jacobian_minor(fs, n, i)], tuple(degs) + (jdeg,))
        return _integral(Fraction(num) / den)
    return None


def a_exponent(n, d):
    return ((d - 1) ** n - (-1) ** n) // d


def disc_hyper(f, n, d):
    res = resultant([derivative(f, k) for k in range(n)], (d - 1,) * n)
    return _integral(Fraction(res) / d ** a_exponent(n, d))


# -- the committed generic cache ----------------------------------------------


class GenericEntry:
    """One committed cache file: a polynomial over Z in named coefficients."""

    def __init__(self, kind, nvars, degrees):
        tag = "_".join(str(d) for d in degrees)
        with open(os.path.join(CACHE_DIR, f"disc_{kind}_n{nvars}_d{tag}.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        self.slots = []
        for name in doc["names"]:
            parts = name.split("_")
            self.slots.append((int(parts[0][1:]) - 1, tuple(int(p) for p in parts[1:])))
        self.terms = [(tuple(e), int(c)) for e, c in doc["terms"]]

    def evaluate(self, fs):
        return evaluate(self.terms, [fs[slot].get(exp, 0) for slot, exp in self.slots])


def evaluate(terms, values):
    """A polynomial given as (exponent tuple, coefficient) pairs, at values."""
    total = 0
    for e, c in terms:
        for v, k in zip(values, e):
            if k:
                c *= v**k
        total += c
    return total


CACHED = {
    ("points", 2, (2,)), ("points", 2, (3,)), ("points", 3, (2, 2)),
    ("hyper", 2, (2,)), ("hyper", 2, (3,)), ("hyper", 3, (2,)),
}

_entries = {}


def cache_entry(kind, nvars, degrees):
    key = (kind, nvars, tuple(degrees))
    if key not in _entries:
        _entries[key] = GenericEntry(kind, nvars, degrees)
    return _entries[key]


def expected(op, fs, n, degs):
    """Reference value of one CLI operation on forms over Z or Q."""
    kind = {"disc-points": "points", "disc-hyper": "hyper"}.get(op)
    if kind and (kind, n, tuple(degs)) in CACHED:
        return cache_entry(kind, n, degs).evaluate(fs)
    if op == "res":
        return resultant(fs, tuple(degs))
    if op == "disc-points":
        return disc_points(fs, tuple(degs), n)
    return disc_hyper(fs[0], n, degs[0])
