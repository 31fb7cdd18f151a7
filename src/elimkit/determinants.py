"""Exact determinants, every one taken over Z or Z[U].

A determinant is a polynomial with integer coefficients in its entries,
so :func:`det_bareiss` computes it over Z or Z[U] and maps the value back
into any accepted ring, Z/m with zero divisors included, with one of two
elimination engines:

* ``_bareiss_int`` — fraction-free elimination (Bareiss 1968) on plain
  ints, its exact divisions checked; every numeric resultant over Z, Q
  and Z/m ends up here, and every sample of one over Z[s], Q[s], Z/m[s].
* :func:`det_packed` — division-free minor expansion over column subsets
  on the packed monomial keys of sparse polynomial entries over Z (two
  or more parameters, generic systems).

:func:`det_poly_matrix` (Jacobian work) keeps cofactor expansion up to
4x4.  :func:`strip_single_entries` peels off rows and columns containing
one nonzero entry first; pure-power Macaulay matrices collapse to nothing.
"""

from __future__ import annotations

import math

from . import ring as rg
from .errors import NotDivisible
from .mpoly import MultiPoly, flatten_extension, from_keys, lift_poly, shared_keys, unflatten_extension

__all__ = [
    "det_bareiss",
    "det_packed",
    "det_payload_auto",
    "det_poly_matrix",
    "strip_single_entries",
]


def det_bareiss(ring, rows):
    """Determinant of a square payload matrix over any accepted ring, taken
    over Z or Z[U] by :func:`_det_over_z` and mapped back."""
    if not rows:
        return rg.val_one(ring)
    if ring.kind == rg.INTEGERS:
        return _bareiss_int([list(r) for r in rows])
    polys = ring.kind == rg.POLYEXT
    return _det_over_z(ring.base if polys else ring, rows, polys)


def _det_over_z(ring, rows, polys):
    """Determinant of scalars of ``ring``, or with ``polys`` of MultiPoly
    entries over ``ring`` (a tower flattened to one level of parameters
    U).  Modular entries are lifted to [0, m), each row over Q is scaled
    by the lcm of its denominators, and the value over Z or Z[U], by
    ``_bareiss_int`` or :func:`det_packed`, is mapped back and divided
    once by the product of the row scales."""
    base = rg.scalar_base(ring)
    tower = polys and ring.kind == rg.POLYEXT
    scale = 1
    lifted = []
    for row in rows:
        if tower:
            row = [flatten_extension(a) for a in row]
        if polys and base.kind == rg.MODULAR:
            row = [lift_poly(a) for a in row]
        if base.kind == rg.RATIONALS:
            c = math.lcm(*(x.denominator for a in row for x in (a.terms.values() if polys else (a,))))
            scale *= c
            row = [a.map_coefficients(lambda x: (x * c).numerator, rg.ZZ) if polys else (a * c).numerator for a in row]
        lifted.append(list(row))

    def back(x):
        x = rg.val_convert(rg.ZZ, base, x)
        return x / scale if scale != 1 else x

    if not polys:
        return back(_bareiss_int(lifted))
    sparse = [{j: a for j, a in enumerate(row) if not a.is_zero()} for row in lifted]
    value = det_packed(sparse, list(range(len(rows))), lifted[0][0].nvars)
    if base != rg.ZZ:
        value = value.map_coefficients(back, base)
    return unflatten_extension(value, ring, rows[0][0].nvars) if tower else value


def _bareiss_int(m):
    """det_bareiss on a square list of int rows, eliminated in place.

    Where the pivot row holds a zero the update of an entry x is
    pivval * x / prev, so a zero stays zero and only nonzero entries are
    computed there; a row whose entry in the pivot column is zero is only
    scaled that way.  This is what keeps banded Macaulay matrices cheap.
    """
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = None
        best = None
        for i in range(k, n):
            if m[i][k]:
                weight = sum(1 for x in m[i][k:] if x)
                if best is None or weight < best:
                    best, piv = weight, i
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        row_k = m[k]
        pivval = row_k[k]
        rest = range(k + 1, n)
        live = [j for j in rest if row_k[j]]
        idle = [j for j in rest if not row_k[j]]
        for i in rest:
            row_i = m[i]
            mik = row_i[k]
            for j in idle if mik else rest:
                x = row_i[j]
                if x:
                    q, r = divmod(pivval * x, prev)
                    if r:
                        raise NotDivisible(f"Bareiss step {k}: entry not a multiple of {prev}", witness=r)
                    row_i[j] = q
            if mik:
                for j in live:
                    q, r = divmod(pivval * row_i[j] - mik * row_k[j], prev)
                    if r:
                        raise NotDivisible(f"Bareiss step {k}: entry not a multiple of {prev}", witness=r)
                    row_i[j] = q
                row_i[k] = 0
        prev = pivval
    d = m[n - 1][n - 1]
    return -d if sign < 0 else d


def strip_single_entries(sparse_rows, ncols, ring):
    """Peel rows/columns with a single nonzero entry off a sparse matrix.

    ``sparse_rows`` is a list of dicts {column index: payload}.  Returns
    (factor, sign, remaining_rows, remaining_cols) where the determinant
    of the original matrix is sign * factor * det(remaining submatrix).
    """
    rows_alive = list(range(len(sparse_rows)))
    cols_alive = list(range(ncols))
    live_cols = set(cols_alive)
    factor = rg.val_one(ring)
    sign = 1

    def peel(r, c):
        nonlocal factor, sign
        if (rows_alive.index(r) + cols_alive.index(c)) % 2:
            sign = -sign
        factor = rg.val_mul(ring, factor, sparse_rows[r][c])
        rows_alive.remove(r)
        cols_alive.remove(c)
        live_cols.discard(c)

    changed = True
    while changed and rows_alive:
        changed = False
        for r in list(rows_alive):
            live = [c for c in sparse_rows[r] if c in live_cols]
            if len(live) == 1:
                peel(r, live[0])
                changed = True
        # columns with a single live entry
        if rows_alive:
            usage = {c: [] for c in cols_alive}
            for r in rows_alive:
                for c in sparse_rows[r]:
                    if c in live_cols:
                        usage[c].append(r)
            for c, rs in usage.items():
                if len(rs) == 1 and c in live_cols and rs[0] in rows_alive:
                    peel(rs[0], c)
                    changed = True
    return factor, sign, rows_alive, cols_alive


# ---------------------------------------------------------------------------
# packed minor-expansion DP


def det_packed(sparse_rows, cols, nvars):
    """Division-free determinant of a sparse matrix of polynomials over Z.

    ``sparse_rows``: list of dicts {column: nonzero MultiPoly over Z in
    ``nvars`` variables}; ``cols``: the column index list.  The expansion
    runs row by row over the sets of columns used so far, on the
    entries' packed monomial keys (see :mod:`elimkit.mpoly`), at one key
    width that holds the degree of the determinant.  Columns no later row
    can fill prune the state space, so reasonably banded matrices stay
    small.  An entry with one term, as every entry of a generic system
    is, shifts a state's keys in one pass.  Only a state that two
    contributions met, or a product by an entry of several terms, can
    hold zero coefficients, and only those states are cleaned.  Returns a
    MultiPoly over Z on the same keys.
    """
    n = len(sparse_rows)
    if n != len(cols):
        raise ValueError("matrix must be square")
    if n == 0:
        return MultiPoly.from_int(rg.ZZ, nvars, 1)
    colpos = {c: i for i, c in enumerate(cols)}
    touched = set()
    for row in sparse_rows:
        if not row:
            return MultiPoly.zero(rg.ZZ, nvars)
        touched.update(colpos[c] for c in row)
    if len(touched) < n:
        return MultiPoly.zero(rg.ZZ, nvars)
    # rows ordered to keep the active column window narrow
    order = sorted(range(n), key=lambda r: min(colpos[c] for c in sparse_rows[r]))
    perm_sign = _permutation_sign(order)
    # after step s every state holds the columns no later row can fill
    last_step = {}
    for step, r in enumerate(order):
        for c in sparse_rows[r]:
            last_step[colpos[c]] = step
    must = [0] * n
    for cp, step in last_step.items():
        must[step] |= 1 << cp
    entries = [p for r in order for p in sparse_rows[r].values()]
    degree = sum(max(p.total_degree() for p in sparse_rows[r].values()) for r in order)
    width, keys = shared_keys(entries, degree)
    keys = iter(keys)
    rows = [[(1 << colpos[c], next(keys)) for c in sparse_rows[r]] for r in order]
    states = {0: None}  # None stands for the polynomial 1 before the first row
    for step, row in enumerate(rows):
        need = must[step]
        new_states = {}
        met = set()
        for mask, poly in states.items():
            for bit, entry in row:
                nm = mask | bit
                if nm == mask or nm & need != need:
                    continue
                sign = -1 if (step + (mask & (bit - 1)).bit_count()) & 1 else 1
                if poly is None:
                    new_states[nm] = {k: sign * v for k, v in entry.items()}
                    continue
                acc = new_states.get(nm)
                if len(entry) == 1:
                    ((ek, ev),) = entry.items()
                    ev *= sign
                    if acc is None:
                        new_states[nm] = {k + ek: v * ev for k, v in poly.items()}
                        continue
                    met.add(nm)
                    get = acc.get
                    for k, v in poly.items():
                        k += ek
                        acc[k] = get(k, 0) + v * ev
                    continue
                if acc is None:
                    acc = new_states[nm] = {}
                met.add(nm)
                get = acc.get
                for ek, ev in entry.items():
                    ev *= sign
                    for k, v in poly.items():
                        k += ek
                        acc[k] = get(k, 0) + v * ev
        states = {}
        for mask, poly in new_states.items():
            if mask in met:
                poly = {k: v for k, v in poly.items() if v}
                if not poly:
                    continue
            states[mask] = poly
    result = states.get((1 << n) - 1, {})
    if perm_sign < 0:
        result = {k: -v for k, v in result.items()}
    return from_keys(rg.ZZ, nvars, result, width)


def _permutation_sign(perm):
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det_payload_auto(ring, rows):
    """Determinant of a square payload matrix: single-nonzero rows and
    columns are stripped and the rest goes to :func:`det_bareiss` (over
    Z[U], to :func:`det_packed` at every block size).  Median time per
    stripped block, packed against the payload elimination that Bareiss
    ran on such blocks before, on a shared 2-core x86_64 machine with
    Python 3.11: Z[s,t] blocks of the family workload (seeds 1-2) of size
    2, 0.023 against 0.023 ms; size 3, 0.060 against 0.133 ms; size 14,
    34 against 482 ms; random Z[s,t,u] matrices as drawn in the tests of
    size 2, 0.027 against 0.031 ms; size 7, 0.64 against 3.7 ms.
    """
    n = len(rows)
    sparse = [{j: v for j, v in enumerate(r) if not rg.val_is_zero(ring, v)} for r in rows]
    factor, sign, rows_alive, cols_alive = strip_single_entries(sparse, n, ring)
    if not rows_alive:
        return rg.val_neg(ring, factor) if sign < 0 else factor
    out = rg.val_mul(ring, factor, det_bareiss(ring, [[rows[i][j] for j in cols_alive] for i in rows_alive]))
    return rg.val_neg(ring, out) if sign < 0 else out


def det_poly_matrix(mat):
    """Determinant of a square matrix of MultiPoly entries: up to 4x4 by
    cofactor expansion, which never divides, else by :func:`_det_over_z`."""
    n = len(mat)
    if n == 0:
        raise ValueError("det_poly_matrix needs the ambient ring; use a 1x1 or larger matrix")
    proto = mat[0][0]
    ring, nv = proto.ring, proto.nvars
    if n <= 4:
        return _cofactor(mat, list(range(n)), list(range(n)), ring, nv)
    if all(a.is_constant() for row in mat for a in row):
        return MultiPoly.constant(ring, nv, det_bareiss(ring, [[a.constant_value() for a in row] for row in mat]))
    return _det_over_z(ring, mat, True)


def _cofactor(mat, rows, cols, ring, nv):
    if len(rows) == 1:
        return mat[rows[0]][cols[0]]
    total = MultiPoly.zero(ring, nv)
    r = rows[0]
    rest = rows[1:]
    for k, c in enumerate(cols):
        entry = mat[r][c]
        if entry.is_zero():
            continue
        minor = _cofactor(mat, rest, cols[:k] + cols[k + 1 :], ring, nv)
        piece = entry.mul(minor)
        total = total.sub(piece) if k % 2 else total.add(piece)
    return total
