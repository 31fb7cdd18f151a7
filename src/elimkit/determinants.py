"""Exact determinants, every one taken over Z or Z[U].

A determinant is a polynomial with integer coefficients in its entries,
so :func:`det_bareiss` computes it over Z or Z[U] and maps the value back
into any accepted ring, Z/m with zero divisors included.  A matrix is a
list of sparse rows, dicts {column: nonzero payload} over columns
0, ..., n - 1; a row given as a list of payloads is read into that form
once, at the entry.  Below the entry two elimination engines see only
sparse rows:

* ``_bareiss_int`` — sparse fraction-free elimination of dict rows of
  ints, in place; every numeric resultant over Z, Q and Z/m ends up here,
  and every sample of one over Z[s], Q[s], Z/m[s].
* :func:`det_packed` — division-free minor expansion over column subsets
  on the packed monomial keys of sparse polynomial entries over Z (two
  or more parameters, generic systems).

``_bareiss_int`` is Bareiss's elimination (Math. Comp. 22, 1968) with
full pivoting.  Step k takes as pivot column the live column with the
fewest nonzero entries, and as pivot row the row with the fewest nonzero
entries among those that hold one in that column, which limits fill-in
as Markowitz's rule does (Management Science 3, 1957); the determinant
is the last pivot P_n times the signs of the row and column orders.  At
step k Bareiss replaces every entry v_j of a row with v_c in the pivot
column by (P_k v_j - v_c r_j) / P_{k-1}, r being the pivot row and
P_0 = 1.  A row with v_c = 0 is only scaled, to P_k v_j / P_{k-1}, and
these scalings telescope: a row last divided by P_s and untouched since
holds P_s / P_{k-1} times its entries at step k - 1.  So each row keeps
P_s and is not touched while it is zero in the pivot column; the first
step k that finds v_c != 0 computes from the entries v_j it holds

    (P_k v_j - v_c r_j) / P_s    on the columns where r is nonzero,
    P_k v_j / P_s                 on the row's other entries,

after bringing the pivot row, with its own P_s, to step k - 1 as
P_{k-1} r_j / P_s.
Each quotient is an entry that plain Bareiss computes on the matrix with
its rows and columns in pivot order, a minor of that matrix by
Sylvester's identity, so every division is exact over Z; a remainder
still raises NotDivisible.  On a banded Macaulay matrix most rows are
zero in most pivot columns, so most of the rescaling is never done, and
a column with one nonzero entry is always taken first, at no cost to
the other rows.

:func:`det_payload_auto` peels rows and columns with one nonzero entry
off (:func:`strip_single_entries`) only in front of :func:`det_packed`,
whose state space grows exponentially with the size of what is left;
pure-power Macaulay matrices collapse to nothing.
:func:`det_poly_matrix` (Jacobian work) keeps cofactor expansion up to
4x4.
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
    over Z or Z[U] by :func:`_det_over_z` and mapped back.

    Each row is a list of payloads or a dict {column: nonzero payload}
    over columns 0, ..., n - 1.  List rows are read into dicts here;
    dict rows are handed on as they are, and over Z and Z/m the kernel
    eliminates them in place, so a caller that needs them again passes
    copies.
    """
    if not rows:
        return rg.val_one(ring)
    rows = _sparse_rows(ring, rows)
    if ring.kind == rg.INTEGERS:
        return _bareiss_int(rows)
    if not all(rows):
        return rg.val_zero(ring)
    polys = ring.kind == rg.POLYEXT
    return _det_over_z(ring.base if polys else ring, rows, polys)


def _sparse_rows(ring, rows):
    """``rows`` with every list row read into a dict of its nonzero entries."""
    if ring.kind == rg.POLYEXT:
        return [r if isinstance(r, dict) else {j: x for j, x in enumerate(r) if not x.is_zero()} for r in rows]
    if ring.kind == rg.RATIONALS:
        return [r if isinstance(r, dict) else {j: x for j, x in enumerate(r) if x} for r in rows]
    # ints: a row without zeros is read in one call
    return [
        r if isinstance(r, dict) else dict(enumerate(r)) if 0 not in r else {j: x for j, x in enumerate(r) if x}
        for r in rows
    ]


def _det_over_z(ring, rows, polys):
    """Determinant of nonempty dict rows of scalars of ``ring``, or with
    ``polys`` of MultiPoly entries over ``ring`` (a tower flattened to one
    level of parameters U).  Modular entries are lifted to [0, m), each
    row over Q is scaled by the lcm of its denominators, and the value
    over Z or Z[U], by ``_bareiss_int`` or :func:`det_packed`, is mapped
    back and divided once by the product of the row scales."""
    base = rg.scalar_base(ring)
    tower = polys and ring.kind == rg.POLYEXT
    scale = 1
    lifted = []
    for row in rows:
        if tower:
            row = {j: flatten_extension(a) for j, a in row.items()}
        if polys and base.kind == rg.MODULAR:
            row = {j: lift_poly(a) for j, a in row.items()}
        if base.kind == rg.RATIONALS:
            c = math.lcm(*(x.denominator for a in row.values() for x in (a.terms.values() if polys else (a,))))
            scale *= c
            row = {
                j: a.map_coefficients(lambda x: (x * c).numerator, rg.ZZ) if polys else (a * c).numerator
                for j, a in row.items()
            }
        lifted.append(row)

    def back(x):
        x = rg.val_convert(rg.ZZ, base, x)
        return x / scale if scale != 1 else x

    if not polys:
        return back(_bareiss_int(lifted))
    value = det_packed(lifted, list(range(len(rows))), next(iter(lifted[0].values())).nvars)
    if base != rg.ZZ:
        value = value.map_coefficients(back, base)
    return unflatten_extension(value, ring, next(iter(rows[0].values())).nvars) if tower else value


def _bareiss_int(m):
    """Determinant of a square list of dict rows {column: nonzero int},
    columns 0, ..., n - 1, eliminated in place by the sparse
    fraction-free elimination of the module docstring.

    The keys of row i are the live columns where it is nonzero, and
    ``holders[j]`` holds the live rows that are nonzero in column j, both
    exact through fill-in and cancellation; ``live`` lists the live
    columns and ``held`` their holders, in the same order.  ``scale[i]``
    is P_s, the pivot row i was last divided by: 1 before its first
    update, which then skips the division.  ``perm[r] = c`` records each
    pivot, and its sign is the sign of the row and column orders.  A
    column that row i lacks is zero there, so a fill-in entry takes the
    update formula with v_j = 0 and is never zero.
    """
    n = len(m)
    holders = [set() for _ in m]
    for i, row in enumerate(m):
        for j in row:
            holders[j].add(i)
    live = list(range(n))
    held = list(holders)
    scale = [1] * n
    perm = [0] * n
    prev = 1
    size = lambda i: len(m[i])
    for _ in range(n):
        counts = list(map(len, held))
        k = counts.index(min(counts))
        c = live.pop(k)
        col = held.pop(k)
        if not col:
            return 0
        if len(col) == 1:
            r = col.pop()
        else:
            r = min(col, key=size)
            col.discard(r)
        perm[r] = c
        prow, s = m[r], scale[r]
        if s != prev:
            for j, v in prow.items():
                q, rem = divmod(prev * v, s)
                if rem:
                    raise _inexact(s, rem)
                prow[j] = q
        piv = prow.pop(c)
        for j in prow:
            holders[j].discard(r)
        pcols = prow.keys()
        for i in col:
            row, s = m[i], scale[i]
            vc = row.pop(c)
            # entries of row outside pcols, counted down as the loop meets
            # its columns; they are only rescaled
            extra = len(row) - len(prow)
            get = row.get
            for j, pv in prow.items():
                v = get(j)
                if v is None:
                    extra += 1
                    q = -vc * pv
                    holders[j].add(i)
                else:
                    q = piv * v - vc * pv
                if s != 1:
                    q, rem = divmod(q, s)
                    if rem:
                        raise _inexact(s, rem)
                if q:
                    row[j] = q
                else:
                    del row[j]
                    holders[j].discard(i)
            if extra:
                for j in row.keys() - pcols:
                    q, rem = divmod(piv * row[j], s)
                    if rem:
                        raise _inexact(s, rem)
                    row[j] = q
            scale[i] = piv
        prev = piv
    return prev if _permutation_sign(perm) > 0 else -prev


def _inexact(divisor, remainder):
    return NotDivisible(f"Bareiss: entry not a multiple of {divisor}", witness=remainder)


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
    """Determinant of a square payload matrix, rows as for :func:`det_bareiss`.

    Over a polynomial extension, where :func:`det_packed` runs, rows and
    columns with one nonzero entry are stripped first and the rest is
    re-indexed; over Z, Q and Z/m the rows go to :func:`det_bareiss` as
    they are, since the kernel's pivot rule takes single-entry columns
    first.  The value is the stripped factor (one where nothing is
    stripped) times the determinant of the rest, on every ring.
    """
    factor, sign = rg.val_one(ring), 1
    if ring.kind == rg.POLYEXT:
        rows = _sparse_rows(ring, rows)
        factor, sign, rows_alive, cols_alive = strip_single_entries(rows, len(rows), ring)
        at = {c: k for k, c in enumerate(cols_alive)}
        rows = [{at[c]: v for c, v in rows[i].items() if c in at} for i in rows_alive]
    out = rg.val_mul(ring, factor, det_bareiss(ring, rows))
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
    rows = [{j: a for j, a in enumerate(row) if not a.is_zero()} for row in mat]
    if not all(rows):
        return MultiPoly.zero(ring, nv)
    return _det_over_z(ring, rows, True)


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
