"""Determinant engines: Bareiss, the packed division-free DP, dispatch."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import elimkit.ring as rg
from elimkit.determinants import (
    det_bareiss,
    det_packed,
    det_payload_auto,
    det_poly_matrix,
    strip_single_entries,
)
from elimkit.mpoly import DegreeSignature, MultiPoly, monomials_of_degree
from elimkit.resultant import build_macaulay


def naive_det(rows):
    """Cofactor expansion over plain integers, the reference answer."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * naive_det(minor)
    return total


def test_identity_and_swap():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert det_bareiss(rg.ZZ, eye) == 1
    swapped = [eye[1], eye[0], eye[2]]
    assert det_bareiss(rg.ZZ, swapped) == -1


def test_singular():
    rows = [[1, 2], [2, 4]]
    assert det_bareiss(rg.ZZ, rows) == 0


def test_empty_matrix_is_one():
    assert det_bareiss(rg.ZZ, []) == 1


def test_bareiss_matches_cofactors():
    rnd = random.Random(5)
    for _ in range(40):
        n = rnd.randint(1, 5)
        rows = [[rnd.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_bareiss(rg.ZZ, rows) == naive_det(rows)


def test_bareiss_modular():
    rows = [[3, 1], [4, 2]]
    assert det_bareiss(rg.Zmod(5), rows) == 2


def test_strip_single_entries():
    ring = rg.ZZ
    rows = [{0: 2}, {0: 1, 1: 3, 2: 1}, {2: 5}]
    factor, sign, rows_alive, cols_alive = strip_single_entries(
        [dict(r) for r in rows], 3, ring
    )
    # rows 0 and 2 are forced pivots, after which the middle row is
    # single-entry too, so the peel consumes everything
    assert rows_alive == [] and cols_alive == []
    assert sign * factor == naive_det([[2, 0, 0], [1, 3, 1], [0, 0, 5]])


def varmono(ring, nvars, j):
    e = [0] * nvars
    e[j] = 1
    return MultiPoly(rg.ZZ, nvars, {tuple(e): 1})


def random_ext_matrix(rnd, ring, n, nsyms):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if rnd.random() < 0.35:
                row.append(rg.val_zero(ring))
            else:
                terms = {}
                for _ in range(rnd.randint(1, 2)):
                    e = [0] * nsyms
                    e[rnd.randrange(nsyms)] = rnd.randint(0, 1)
                    terms[tuple(e)] = terms.get(tuple(e), 0) + rnd.randint(-3, 3)
                terms = {e: c for e, c in terms.items() if c}
                row.append(MultiPoly(rg.ZZ, nsyms, terms))
        rows.append(row)
    return rows


@pytest.mark.parametrize("n", [5, 6, 7])
def test_packed_agrees_with_bareiss_above_threshold(n):
    """The auto dispatcher switches engines at size 3; both must agree."""
    names = tuple(f"s{i}" for i in range(3))
    ring = rg.polyext(rg.ZZ, names)
    rnd = random.Random(100 + n)
    for _ in range(6):
        rows = random_ext_matrix(rnd, ring, n, 3)
        auto = det_payload_auto(ring, rows)
        plain = det_bareiss(ring, rows)
        if isinstance(auto, MultiPoly):
            assert auto.eq(plain)
        else:
            assert rg.val_eq(ring, auto, plain)


def random_entry(rnd, kind):
    """A polynomial over Z in s, t, u: one term, several terms, or zero."""
    if kind == "zero":
        return MultiPoly.zero(rg.ZZ, 3)
    terms = {}
    for _ in range(1 if kind == "one" else rnd.randint(2, 4)):
        e = tuple(rnd.choice((0, 0, 1, 2, 40)) for _ in range(3))
        terms[e] = rnd.choice((-3, -2, -1, 1, 1, 2, 5))
    return MultiPoly(rg.ZZ, 3, terms)


@pytest.mark.parametrize("n", range(1, 6))
def test_det_packed_agrees_with_bareiss(n):
    """det_packed against det_bareiss over Z[s,t,u], on matrices of
    one-term entries, of many-term entries, of both, and with a row that
    is a multiple of another so that every state cancels.  Exponents of 40
    push the degree of the larger determinants past one key width."""
    ring = rg.polyext(rg.ZZ, ("s", "t", "u"))
    rnd = random.Random(300 + n)
    cols = [3 * j + 1 for j in range(n)]
    kinds = [("one", "zero"), ("many", "zero"), ("one", "many", "zero")]
    for trial in range(12):
        mix = kinds[trial % 3]
        rows = [[random_entry(rnd, rnd.choice(mix)) for _ in range(n)] for _ in range(n)]
        if trial >= 9 and n >= 2:
            factor = random_entry(rnd, "many")
            rows[-1] = [e.mul(factor) for e in rows[0]]
        sparse = [{c: e for c, e in zip(cols, row) if not e.is_zero()} for row in rows]
        got = det_packed(sparse, cols, 3)
        want = det_bareiss(ring, rows)
        assert got.ring == rg.ZZ and got.eq(want)
        assert trial < 9 or n < 2 or got.is_zero()


def test_auto_small_matrix_uses_bareiss_result():
    ring = rg.polyext(rg.ZZ, ("a",))
    a = MultiPoly(rg.ZZ, 1, {(1,): 1})
    one = MultiPoly(rg.ZZ, 1, {(0,): 1})
    rows = [[a, one], [one, a]]
    out = det_payload_auto(ring, rows)
    assert out.terms == {(2,): 1, (0,): -1}


def test_det_poly_matrix():
    x = MultiPoly(rg.ZZ, 2, {(1, 0): 1})
    y = MultiPoly(rg.ZZ, 2, {(0, 1): 1})
    zero = MultiPoly.zero(rg.ZZ, 2)
    mat = [[x, y], [y.neg(), x]]
    assert det_poly_matrix(mat).terms == {(2, 0): 1, (0, 2): 1}
    mat3 = [[x, zero, zero], [zero, y, zero], [zero, zero, x]]
    assert det_poly_matrix(mat3).terms == {(2, 1): 1}


def test_det_poly_matrix_large_path():
    """Sizes above 4 take the fraction-free route; compare on a diagonal."""
    rnd = random.Random(77)
    n = 5
    mat = []
    for i in range(n):
        row = []
        for j in range(n):
            c = rnd.randint(-4, 4) if abs(i - j) <= 1 else 0
            row.append(MultiPoly(rg.ZZ, 1, {(1 if i == j else 0,): c} if c else {}))
        mat.append(row)
    got = det_poly_matrix(mat)
    ints = [[next(iter(mat[i][j].terms.values()), 0) for j in range(n)] for i in range(n)]
    # substituting 1 for the symbol must give the integer determinant
    assert got.evaluate([1]) == naive_det(ints)


def test_int_kernel_matches_rational_bareiss():
    """The plain-int elimination agrees with the generic one over Q."""
    rnd = random.Random(11)
    singular = 0
    for _ in range(60):
        n = rnd.randint(1, 8)
        rows = [[rnd.choice((0, 0, rnd.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
        if n >= 3 and rnd.random() < 0.4:
            # a row that combines two others makes the matrix singular
            a, b, c = rnd.sample(range(n), 3)
            ka, kb = rnd.randint(-3, 3), rnd.randint(-3, 3)
            rows[c] = [ka * x + kb * y for x, y in zip(rows[a], rows[b])]
        want = det_bareiss(rg.QQ, [[Fraction(x) for x in r] for r in rows])
        got = det_bareiss(rg.ZZ, rows)
        assert type(got) is int and got == want
        singular += got == 0
    assert 0 < singular < 60
    # banded, sparse and shuffled, as Macaulay matrices are: row i holds a
    # few coefficients, some zero, from about column i on, and a nonzero
    # one on the diagonal
    nonzero = 0
    for _ in range(40):
        n = rnd.randint(6, 30)
        width = rnd.randint(2, 6)
        rows = []
        for i in range(n):
            row = [0] * n
            for j in range(max(0, i - rnd.randint(0, 2)), min(n, i + width)):
                row[j] = rnd.choice((0, rnd.randint(-9, 9)))
            row[i] = rnd.choice((-2, -1, 1, 3))
            rows.append(row)
        rnd.shuffle(rows)
        want = det_bareiss(rg.QQ, [[Fraction(x) for x in r] for r in rows])
        got = det_bareiss(rg.ZZ, rows)
        assert type(got) is int and got == want
        nonzero += got != 0
    # and Macaulay matrices themselves, M and M', from integer systems
    for degrees in ((2, 2, 2), (2, 2, 3), (2, 2, 2, 2)):
        sig = DegreeSignature(len(degrees), degrees)
        fs = []
        for d in sig.degrees:
            terms = {e: rnd.randint(-9, 9) for e in monomials_of_degree(sig.nvars, d)}
            fs.append(MultiPoly(rg.ZZ, sig.nvars, {e: c for e, c in terms.items() if c}))
        ms = build_macaulay(fs, sig)
        for positions in (range(len(ms.rows)), ms.reduced):
            rows = [[ms.rows[i].get(j, 0) for j in positions] for i in positions]
            want = det_bareiss(rg.QQ, [[Fraction(x) for x in r] for r in rows])
            got = det_bareiss(rg.ZZ, rows)
            assert type(got) is int and got == want
            nonzero += got != 0
    assert nonzero > 20


def fraction_det(rows):
    """Gaussian elimination over Q on Fraction entries, first nonzero entry
    of each column as pivot: a reference that shares nothing with the
    integer kernel."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        pivot = a[k][k]
        det *= pivot
        support = [j for j in range(k + 1, n) if a[k][j]]
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / pivot
                for j in support:
                    a[i][j] -= f * a[k][j]
    return det


def macaulay_pair(rnd, degrees, drop_first_power=False):
    """The Macaulay numerator and denominator, as int rows, of a system of
    random integer forms, a third of their coefficients zero, each f_k with
    its X_k^d_k term; in three or more variables, f_1 without its X1^d1
    term makes det M' = 0."""
    sig = DegreeSignature(len(degrees), degrees)
    fs = []
    for k, d in enumerate(degrees):
        monomials = monomials_of_degree(sig.nvars, d)
        terms = {e: rnd.choice((0, rnd.randint(-9, 9), rnd.randint(1, 9))) for e in monomials}
        power = tuple(d if v == k else 0 for v in range(sig.nvars))
        terms[power] = 0 if drop_first_power and k == 0 else rnd.choice((-2, -1, 1, 3))
        fs.append(MultiPoly(rg.ZZ, sig.nvars, {e: c for e, c in terms.items() if c}))
    ms = build_macaulay(fs, sig)
    return [[[ms.rows[i].get(j, 0) for j in positions] for i in positions] for positions in (range(len(ms.rows)), ms.reduced)]


def shuffled_block_diagonal(rnd, a, b):
    """diag(a, b) with rows and columns shuffled: while one block is being
    eliminated, every row of the other stays idle."""
    n = len(a) + len(b)
    rows = [r + [0] * len(b) for r in a] + [[0] * len(a) + r for r in b]
    cols = list(range(n))
    rnd.shuffle(cols)
    rnd.shuffle(rows)
    return [[r[j] for j in cols] for r in rows]


@pytest.mark.parametrize("degrees", [(3, 3), (2, 2, 3), (2, 2, 2, 2)], ids=str)
def test_int_kernel_against_fraction_elimination(degrees):
    """det_bareiss over Z against fraction_det on Macaulay numerators and
    denominators, a denominator that vanishes, a numerator with a zero
    column, and block-diagonal matrices whose rows stay idle for many
    steps."""
    rnd = random.Random(sum(degrees))
    drawn, zero = [], []
    for _ in range(2):
        num, den = macaulay_pair(rnd, degrees)
        drawn += [num, den, shuffled_block_diagonal(rnd, num, den)]
        zero_column = [list(r) for r in num]
        for r in zero_column:
            r[len(r) // 2] = 0
        zero.append(zero_column)
    if len(degrees) > 2:
        # det M = Res det M', so the numerator vanishes with the denominator
        zero += macaulay_pair(rnd, degrees, drop_first_power=True)
    values = []
    for rows in drawn + zero:
        got = det_bareiss(rg.ZZ, rows)
        assert type(got) is int and got == fraction_det(rows)
        values.append(got)
    assert not any(values[len(drawn) :])
    assert sum(v != 0 for v in values[: len(drawn)]) >= 4


def sign_of(perm):
    return -1 if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 else 1


@st.composite
def permuted_matrix(draw):
    n = draw(st.integers(1, 7))
    entries = st.one_of(st.just(0), st.integers(-20, 20))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    return rows, draw(st.permutations(range(n))), draw(st.permutations(range(n)))


@given(permuted_matrix())
@settings(max_examples=150, deadline=None)
def test_int_kernel_sign_under_row_and_column_permutations(case):
    """det(P M Q) = sgn P sgn Q det M."""
    rows, p, q = case
    permuted = [[rows[p[i]][q[j]] for j in range(len(q))] for i in range(len(p))]
    want = sign_of(p) * sign_of(q) * det_bareiss(rg.ZZ, rows)
    assert det_bareiss(rg.ZZ, permuted) == want


def leibniz(ring, rows):
    """sum over permutations p of sign(p) * prod_i rows[i][p(i)], with the
    ring's own + and *: the definition, which divides nowhere."""
    total = rg.val_zero(ring)
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = rg.val_from_int(ring, -1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = rg.val_mul(ring, term, rows[i][j])
        total = rg.val_add(ring, total, term)
    return total


STU = rg.polyext(rg.ZZ, ("s", "t", "u"))
LEIBNIZ_RINGS = [
    rg.ZZ,
    rg.QQ,
    rg.Zmod(4),
    rg.Zmod(12),
    rg.polyext(rg.Zmod(12), ("s",)),
    STU,
    rg.polyext(rg.polyext(rg.QQ, ("s",)), ("t",)),
]


def payload_of(ring, p, denominator):
    """random_entry's polynomial p over Z in s, t, u as a payload of ``ring``:
    scalars take its value at (3, -1, 5), Z/12[s] and Q[s][t] drop u (and t),
    and rational coefficients are divided by ``denominator``."""
    if ring == STU:
        return p
    if ring.kind != rg.POLYEXT:
        value = p.evaluate([3, -1, 5])
        return Fraction(value, denominator) if ring == rg.QQ else rg.val_convert(rg.ZZ, ring, value)
    if ring.base.kind != rg.POLYEXT:
        return MultiPoly.from_terms(ring.base, 1, [((e[0],), c % 12) for e, c in p.terms.items()])
    inner = ring.base
    by_t = {}
    for e, c in p.terms.items():
        by_t.setdefault((e[1],), []).append(((e[0],), Fraction(c, denominator)))
    return MultiPoly.from_terms(
        inner, 1, [(t, MultiPoly.from_terms(inner.base, 1, items)) for t, items in by_t.items()]
    )


@pytest.mark.parametrize("ring", LEIBNIZ_RINGS, ids=repr)
@pytest.mark.parametrize("n", range(1, 7))
def test_engines_against_leibniz(ring, n):
    """det_bareiss, det_payload_auto and (over Z[s,t,u]) det_packed against
    the Leibniz formula, on random_entry's one-term, many-term and zero
    entries (exponents of 40 among them), and with a last row that is a
    multiple of the first, so that the determinant cancels to zero."""
    rnd = random.Random(1000 * n + LEIBNIZ_RINGS.index(ring))
    kinds = [("one", "zero"), ("many", "zero", "zero"), ("one", "many", "zero")]
    nonzero = 0
    for trial in range(8):
        mix = kinds[trial % 3]
        rows = [
            [payload_of(ring, random_entry(rnd, rnd.choice(mix)), rnd.choice((1, 2, 3))) for _ in range(n)]
            for _ in range(n)
        ]
        if trial >= 6 and n >= 2:
            factor = payload_of(ring, random_entry(rnd, "many"), 5)
            rows[-1] = [rg.val_mul(ring, factor, x) for x in rows[0]]
        want = leibniz(ring, rows)
        nonzero += not rg.val_is_zero(ring, want)
        assert rg.val_eq(ring, det_bareiss(ring, rows), want)
        assert rg.val_eq(ring, det_payload_auto(ring, rows), want)
        if ring == STU:
            sparse = [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in rows]
            assert det_packed(sparse, list(range(n)), 3).eq(want)
    # over Z/4 and Z/12 these sparse draws vanish more often than not
    assert nonzero >= 2 or ring.kind == rg.MODULAR


@pytest.mark.parametrize("ring", [rg.ZZ, rg.Zmod(12), rg.polyext(rg.Zmod(12), ("s",)), LEIBNIZ_RINGS[-1]], ids=repr)
@pytest.mark.parametrize("nvars", [0, 2])
def test_det_poly_matrix_above_cofactor_size_against_leibniz(ring, nvars):
    """5x5 matrices of polynomials in X1, X2 (or in no variable) whose
    coefficients are random_entry payloads, against the Leibniz formula
    over the ring extended by X1, X2."""
    rnd = random.Random(50 + nvars)
    monomials = monomials_of_degree(nvars, 1) + monomials_of_degree(nvars, 0)
    for _ in range(2):
        mat = [
            [
                MultiPoly.from_terms(
                    ring, nvars, [(e, payload_of(ring, random_entry(rnd, rnd.choice(("one", "zero"))), 2)) for e in monomials]
                )
                for _ in range(5)
            ]
            for _ in range(5)
        ]
        got = det_poly_matrix(mat)
        if nvars == 0:
            want = leibniz(ring, [[a.constant_value() for a in row] for row in mat])
            assert rg.val_eq(ring, got.constant_value(), want)
        else:
            assert got.eq(leibniz(rg.polyext(ring, ("Y1", "Y2")), mat))
