"""Reference oracles: universal discriminants and finite-field sweeps."""

import json
import os
import random
import sys

import pytest

from elimkit import ring as rg
from elimkit.disc_hyper import disc_hyper
from elimkit.disc_points import disc_points
from elimkit.errors import IdentityFailed, SignatureMismatch, TooLarge, UnsupportedRing
from elimkit.jacobian import jac_minor
from elimkit.mpoly import DegreeSignature, MultiPoly, monomials_of_degree
from elimkit.oracle import (
    _IRREDUCIBLE,
    _TABLE_LIMIT,
    GFExt,
    _exact_int_div,
    _locus_enumerate,
    _locus_sweep,
    ProjectivePointSet,
    clear_generic_cache,
    generic_disc,
    poi_check,
    singular_points,
)


def rand_form(ring, nvars, degree, rng, spread=4):
    terms = {}
    for e in monomials_of_degree(nvars, degree):
        c = rng.randrange(-spread, spread + 1)
        if c:
            terms[e] = rg.val_from_int(ring, c)
    lead = (degree,) + (0,) * (nvars - 1)
    if lead not in terms:
        terms[lead] = rg.val_one(ring)
    return MultiPoly(ring, nvars, terms)


class TestIrreducibleTable:
    def test_every_entry_is_rootless(self):
        # degree 2 and 3 polynomials are irreducible exactly when no root
        for (q, e), (c0, c1) in _IRREDUCIBLE.items():
            assert e in (2, 3)
            for t in range(q):
                value = (pow(t, e, q) + c1 * t + c0) % q
                assert value != 0, f"T^{e}+{c1}T+{c0} has root {t} mod {q}"


class TestGFExt:
    def test_get_caches_instances(self):
        assert GFExt.get(5, 2) is GFExt.get(5, 2)

    def test_unknown_extension_is_refused(self):
        with pytest.raises(UnsupportedRing):
            GFExt(17, 2)

    @pytest.mark.parametrize("q,e", [(2, 2), (3, 2), (2, 3)])
    def test_small_field_laws_exhaustively(self, q, e):
        gf = GFExt.get(q, e)
        elems = list(gf.elements())
        for a in elems:
            assert gf.add(a, gf.neg(a)) == 0
            assert gf.mul(a, 1) == a
            if a:
                assert gf.mul(a, gf.inv(a)) == 1
            # Frobenius fixed field: a^{q^e} = a
            assert gf.pow(a, gf.size) == a
        for a in elems:
            for b in elems:
                assert gf.add(a, b) == gf.add(b, a)
                assert gf.mul(a, b) == gf.mul(b, a)
                for c in elems:
                    left = gf.mul(a, gf.add(b, c))
                    right = gf.add(gf.mul(a, b), gf.mul(a, c))
                    assert left == right

    def test_square_roots(self):
        gf = GFExt.get(5, 1)
        assert gf.sqrt(4) in (2, 3)
        assert gf.sqrt(2) is None
        assert gf.sqrt(3) is None
        # characteristic 2: squaring is a bijection
        gf8 = GFExt.get(2, 3)
        for a in gf8.elements():
            r = gf8.sqrt(a)
            assert r is not None
            assert gf8.mul(r, r) == a

    def test_digit_round_trip(self):
        gf = GFExt.get(3, 3)
        for a in gf.elements():
            assert gf.from_digits(gf.to_digits(a)) == a

    def test_large_field_skips_tables(self):
        gf = GFExt(11, 3)
        assert gf._mul_table is None
        rng = random.Random(4)
        sample = [rng.randrange(gf.size) for _ in range(12)]
        for a in sample:
            if a:
                assert gf.mul(a, gf.inv(a)) == 1
            sq = gf.mul(a, a)
            r = gf.sqrt(sq)
            assert r is not None and gf.mul(r, r) == sq
        for a, b, c in zip(sample, sample[1:], sample[2:]):
            assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))


TABLED_FIELDS = [(q, 1) for q in (2, 3, 5, 7, 11, 13)] + sorted(
    key for key in _IRREDUCIBLE if key[0] ** key[1] <= _TABLE_LIMIT
)


def digit_add(q, e, a, b):
    return sum(((a // q**k + b // q**k) % q) * q**k for k in range(e))


def digit_neg(q, e, a):
    return sum(((-(a // q**k)) % q) * q**k for k in range(e))


class TestFieldTables:
    @pytest.mark.parametrize("q,e", TABLED_FIELDS)
    def test_tables_match_digit_arithmetic(self, q, e):
        gf = GFExt.get(q, e)
        assert gf._add_table is not None and gf._neg_table is not None
        for a in gf.elements():
            assert gf.neg(a) == digit_neg(q, e, a)
            for b in gf.elements():
                assert gf.add(a, b) == digit_add(q, e, a, b)
                assert gf.mul(a, b) == gf._mul_slow(a, b)

    @pytest.mark.parametrize("q", [11, 13])
    def test_large_field_keeps_digit_arithmetic(self, q):
        gf = GFExt(q, 3)
        assert gf._add_table is None and gf._neg_table is None
        rng = random.Random(q)
        for _ in range(50):
            a, b = rng.randrange(gf.size), rng.randrange(gf.size)
            assert gf.add(a, b) == digit_add(q, 3, a, b)
            assert gf.neg(a) == digit_neg(q, 3, a)
            assert gf.sub(a, b) == digit_add(q, 3, a, digit_neg(q, 3, b))


class TestProjectiveEnumeration:
    @pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (5, 3)])
    def test_point_count(self, q, n):
        pts = ProjectivePointSet.enumerate(q, n)
        assert len(pts.points) == (q**n - 1) // (q - 1)
        assert len(set(pts.points)) == len(pts.points)
        # every representative leads with a 1
        for pt in pts.points:
            lead = next(c for c in pt if c)
            assert lead == 1


class TestGenericDisc:
    def test_conic_entry_is_the_classical_polynomial(self):
        entry = generic_disc(DegreeSignature(2, (2,)))
        assert entry.names == ("U1_2_0", "U1_1_1", "U1_0_2")
        assert entry.disc.terms == {(1, 0, 1): 4, (0, 2, 0): -1}

    def test_hyper_kind_matches_points_kind_for_one_binary_form(self):
        p = generic_disc(DegreeSignature(2, (3,)), kind="points")
        h = generic_disc(DegreeSignature(2, (3,)), kind="hyper")
        assert p.disc.terms == h.disc.terms

    def test_all_linear_system_caches_one(self):
        entry = generic_disc(DegreeSignature(3, (1, 1)))
        assert entry.disc.terms == {(0,) * len(entry.names): 1}

    def test_specialize_agrees_with_direct_computation(self):
        rng = random.Random(23)
        entry = generic_disc(DegreeSignature(2, (2,)))
        for _ in range(3):
            f = rand_form(rg.ZZ, 2, 2, rng)
            assert entry.specialize([f]) == disc_points([f], DegreeSignature(2, (2,)))
        hyper = generic_disc(DegreeSignature(3, (2,)), kind="hyper")
        for _ in range(3):
            f = rand_form(rg.Zmod(7), 3, 2, rng)
            assert hyper.specialize([f]) == disc_hyper(f)

    def test_specialize_validates_shape(self):
        entry = generic_disc(DegreeSignature(2, (2,)))
        f = rand_form(rg.ZZ, 2, 2, random.Random(0))
        with pytest.raises(SignatureMismatch):
            entry.specialize([f, f])
        g = rand_form(rg.ZZ, 3, 2, random.Random(0))
        with pytest.raises(SignatureMismatch):
            entry.specialize([g])

    def test_too_large_reports_an_estimate(self):
        with pytest.raises(TooLarge) as err:
            generic_disc(DegreeSignature(3, (3, 3)))
        assert err.value.estimate > 0

    def test_kind_validation(self):
        with pytest.raises(SignatureMismatch):
            generic_disc(DegreeSignature(2, (2,)), kind="mystery")
        with pytest.raises(SignatureMismatch):
            generic_disc(DegreeSignature(3, (2,)), kind="points")
        with pytest.raises(SignatureMismatch):
            generic_disc(DegreeSignature(2, (1,)), kind="hyper")

    def test_memory_cache_returns_the_same_object(self):
        a = generic_disc(DegreeSignature(2, (2,)))
        b = generic_disc(DegreeSignature(2, (2,)))
        assert a is b


class TestDiskCache:
    def test_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ELIMKIT_CACHE_DIR", str(tmp_path))
        clear_generic_cache()
        entry = generic_disc(DegreeSignature(2, (2,)))
        path = tmp_path / "disc_points_n2_d2.json"
        assert path.exists()
        clear_generic_cache()
        again = generic_disc(DegreeSignature(2, (2,)))
        assert again.names == entry.names
        assert again.disc.terms == entry.disc.terms
        clear_generic_cache()

    def test_corrupt_file_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ELIMKIT_CACHE_DIR", str(tmp_path))
        path = tmp_path / "disc_points_n2_d2.json"
        path.write_text("not json at all", encoding="utf-8")
        clear_generic_cache()
        entry = generic_disc(DegreeSignature(2, (2,)))
        assert entry.disc.terms == {(1, 0, 1): 4, (0, 2, 0): -1}
        # the recomputed entry replaces the broken file
        assert json.loads(path.read_text(encoding="utf-8"))["kind"] == "points"
        clear_generic_cache()

    def test_stale_format_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ELIMKIT_CACHE_DIR", str(tmp_path))
        doc = {
            "format": 0,
            "kind": "points",
            "nvars": 2,
            "degrees": [2],
            "names": ["U1_2_0", "U1_1_1", "U1_0_2"],
            "terms": [[[0, 2, 0], "7"]],
        }
        path = tmp_path / "disc_points_n2_d2.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        clear_generic_cache()
        entry = generic_disc(DegreeSignature(2, (2,)))
        assert entry.disc.terms == {(1, 0, 1): 4, (0, 2, 0): -1}
        clear_generic_cache()

    @pytest.mark.parametrize("defect", ["no names", "bad coefficient"])
    def test_incomplete_or_ill_typed_entry_is_recomputed(self, tmp_path, monkeypatch, defect):
        monkeypatch.setenv("ELIMKIT_CACHE_DIR", str(tmp_path))
        doc = {
            "format": 1,
            "kind": "points",
            "nvars": 2,
            "degrees": [2],
            "names": ["U1_2_0", "U1_1_1", "U1_0_2"],
            "terms": [[[1, 0, 1], "4"], [[0, 2, 0], "-1"]],
        }
        if defect == "no names":
            del doc["names"]
        else:
            doc["terms"][0][1] = "x"
        path = tmp_path / "disc_points_n2_d2.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        clear_generic_cache()
        entry = generic_disc(DegreeSignature(2, (2,)))
        assert entry.disc.terms == {(1, 0, 1): 4, (0, 2, 0): -1}
        # the recomputed entry replaced the bad file, through no leftover temp file
        assert json.loads(path.read_text(encoding="utf-8"))["names"] == list(entry.names)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        clear_generic_cache()

    def test_recomputed_conic_pair_entry_matches_the_committed_file(self, tmp_path, monkeypatch):
        committed = os.path.join(os.path.dirname(__file__), ".generic_cache", "disc_points_n3_d2_2.json")
        with open(committed, encoding="utf-8") as fh:
            doc = json.load(fh)
        monkeypatch.setenv("ELIMKIT_CACHE_DIR", str(tmp_path))
        clear_generic_cache()
        try:
            entry = generic_disc(DegreeSignature(3, (2, 2)))
        finally:
            clear_generic_cache()
        assert list(entry.names) == doc["names"]
        assert entry.disc.terms == {tuple(e): int(c) for e, c in doc["terms"]}
        assert len(entry.disc.terms) == len(doc["terms"])
        assert (tmp_path / "disc_points_n3_d2_2.json").exists()


class TestSingularPoints:
    def test_double_line(self):
        f = MultiPoly(rg.Zmod(5), 2, {(2, 0): 1})
        assert singular_points([f]) == {(0, 1)}

    def test_crossing_lines_have_no_projective_singularity(self):
        f = MultiPoly(rg.Zmod(5), 2, {(1, 1): 1})
        assert singular_points([f]) == set()

    def test_coordinate_square_pair(self):
        R = rg.Zmod(5)
        fs = [MultiPoly(R, 3, {(2, 0, 0): 1}), MultiPoly(R, 3, {(0, 2, 0): 1})]
        assert singular_points(fs) == {(0, 0, 1)}

    def test_smooth_conic_pair_is_clean(self):
        R = rg.Zmod(5)
        f1 = MultiPoly(R, 3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        f2 = MultiPoly(R, 3, {(2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): 3})
        assert singular_points([f1, f2]) == set()

    def test_rejects_unsupported_rings(self):
        f = MultiPoly(rg.ZZ, 2, {(2, 0): 1})
        with pytest.raises(UnsupportedRing):
            singular_points([f])
        g = MultiPoly(rg.Zmod(4), 2, {(2, 0): 1})
        with pytest.raises(UnsupportedRing):
            singular_points([g])

    def test_rejects_wrong_form_count(self):
        f = MultiPoly(rg.Zmod(5), 3, {(2, 0, 0): 1})
        with pytest.raises(SignatureMismatch):
            singular_points([f])


def ternary_forms(ring, *term_dicts):
    return [MultiPoly(ring, 3, terms) for terms in term_dicts]


class TestLocusSweep:
    """The line sweep against the brute-force enumeration of projective points."""

    @pytest.mark.parametrize(
        "q,e,draws", [(5, 1, 12), (5, 2, 6), (5, 3, 2), (7, 1, 12), (7, 2, 4), (7, 3, 1)]
    )
    def test_sweep_matches_enumeration(self, q, e, draws):
        R = rg.Zmod(q)
        rng = random.Random(10 * q + e)
        systems = [[rand_form(R, 3, 2, rng, spread=q - 1) for _ in range(2)] for _ in range(draws)]
        if e < 3:
            # tangent at (0, 0, 1), at (1, 0, 0), and a pair sharing the factor X1 + X2
            systems.append(
                ternary_forms(R, {(0, 1, 1): 1, (2, 0, 0): 4}, {(0, 1, 1): 1, (2, 0, 0): 4, (0, 2, 0): 1})
            )
            systems.append(
                ternary_forms(R, {(1, 1, 0): 1, (0, 0, 2): 4}, {(1, 1, 0): 1, (0, 0, 2): 4, (0, 2, 0): 1})
            )
            line = MultiPoly(R, 3, {(1, 0, 0): 1, (0, 1, 0): 1})
            systems.append(
                [
                    line.mul(MultiPoly(R, 3, {(0, 0, 1): 1})),
                    line.mul(MultiPoly(R, 3, {(1, 0, 0): 1, (0, 0, 1): q - 1})),
                ]
            )
        gf = GFExt.get(q, e)
        sig = DegreeSignature(3, (2, 2))
        outcomes = set()
        for fs in systems:
            minors = [jac_minor(fs, sig, i) for i in range(1, 4)]
            count, singular, infinite = _locus_sweep(gf, fs, minors)
            want_count, want_singular, _ = _locus_enumerate(gf, fs, minors, 3)
            if infinite:
                # a whole line of the plane has q^e + 1 points
                assert want_count >= gf.size + 1
                outcomes.add("infinite")
                continue
            assert count == want_count
            assert (singular is None) == (want_singular is None)
            outcomes.add("smooth" if singular is None else "singular")
        if e < 3:
            assert outcomes == {"infinite", "smooth", "singular"}


class TestPoiCheck:
    def test_smooth_pair_is_consistent(self):
        R = rg.Zmod(5)
        f1 = MultiPoly(R, 3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        f2 = MultiPoly(R, 3, {(2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): 3})
        v = poi_check([f1, f2])
        assert v.status == "consistent"
        assert v.disc_is_zero is False
        assert v.singular_point is None
        assert all(c <= 4 for c in v.locus_counts)

    def test_tangent_pair_finds_the_contact_point(self):
        R = rg.Zmod(5)
        g1 = MultiPoly(R, 3, {(0, 1, 1): 1, (2, 0, 0): 4})
        g2 = MultiPoly(R, 3, {(0, 1, 1): 1, (2, 0, 0): 4, (0, 2, 0): 1})
        v = poi_check([g1, g2])
        assert v.status == "consistent"
        assert v.disc_is_zero is True
        assert v.singular_point == (0, 0, 1)
        assert v.extension_degree == 1

    def test_repeated_form_is_skipped(self):
        R = rg.Zmod(5)
        g = MultiPoly(R, 3, {(0, 1, 1): 1, (2, 0, 0): 4})
        v = poi_check([g, g])
        assert v.status == "skipped"
        assert "not finite" in v.reason

    def test_characteristic_dividing_a_degree_is_skipped(self):
        R = rg.Zmod(2)
        h1 = MultiPoly(R, 3, {(2, 0, 0): 1, (0, 1, 1): 1})
        h2 = MultiPoly(R, 3, {(0, 2, 0): 1, (1, 0, 1): 1})
        v = poi_check([h1, h2])
        assert v.status == "skipped"
        assert "characteristic 2" in v.reason

    def test_binary_cubic_paths(self):
        R = rg.Zmod(5)
        smooth = MultiPoly(R, 2, {(3, 0): 1, (0, 3): 1})
        v = poi_check([smooth])
        assert v.status == "consistent" and v.disc_is_zero is False
        cuspish = MultiPoly(R, 2, {(2, 1): 1})
        v2 = poi_check([cuspish])
        assert v2.status == "consistent"
        assert v2.disc_is_zero is True
        assert v2.singular_point == (0, 1)

    @pytest.mark.parametrize("q", [5, 7])
    def test_seeded_sweep_never_contradicts(self, q):
        R = rg.Zmod(q)
        rng = random.Random(100 + q)
        statuses = {"consistent": 0, "skipped": 0, "inconsistent": 0}
        for _ in range(20):
            fs = [rand_form(R, 3, 2, rng, spread=q - 1) for _ in range(2)]
            v = poi_check(fs)
            statuses[v.status] += 1
        assert statuses["inconsistent"] == 0
        assert statuses["consistent"] > 0

    @pytest.mark.parametrize("max_extension", [0, -1, 4])
    def test_extension_degree_outside_one_to_three_is_refused(self, max_extension, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("disc_points ran before the argument check")

        monkeypatch.setattr(sys.modules["elimkit.disc_points"], "disc_points", never)
        R = rg.Zmod(5)
        f1 = MultiPoly(R, 3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        f2 = MultiPoly(R, 3, {(2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): 3})
        with pytest.raises(UnsupportedRing):
            poi_check([f1, f2], max_extension=max_extension)


class TestGenericDivisionCheck:
    def test_exact_int_div(self):
        assert _exact_int_div(-12, 4) == -3
        with pytest.raises(IdentityFailed):
            _exact_int_div(13, 4)
