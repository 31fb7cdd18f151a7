"""Command line interface: documents, exit codes, and the verify suites."""

import json
import subprocess
import sys

import pytest
from click.testing import CliRunner

from elimkit import ring as rg
from elimkit.cli import (
    SUITES,
    _Draws,
    main,
    parse_ring_flag,
    poly_to_json,
    system_from_json,
    system_to_json,
)
from elimkit.disc_points import base_change_K, delta_mod_delta, disc_points
from elimkit.errors import IdentityFailed, PerturbationDegenerate
from elimkit.jacobian import jac_minor
from elimkit.mpoly import DegreeSignature, MultiPoly


def run(args, doc=None):
    data = json.dumps(doc) if doc is not None else None
    return CliRunner().invoke(main, args, input=data)


def run_optimized(args, prelude=""):
    """The CLI in a ``python -O`` subprocess, after running ``prelude``."""
    code = f"{prelude}from elimkit.cli import main\nmain({args!r})\n"
    return subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120
    )


def int_doc(nvars, polys, ring=None):
    return {
        "ring": ring if ring is not None else {"kind": "integers"},
        "nvars": nvars,
        "variables": [f"X{i}" for i in range(1, nvars + 1)],
        "polynomials": [
            {
                "degree": max(sum(e) for e in terms),
                "terms": [
                    {"coeff": str(c), "exp": list(e)} for e, c in sorted(terms.items())
                ],
            }
            for terms in polys
        ],
    }


class TestRingFlag:
    def test_plain_kinds(self):
        assert parse_ring_flag("int") == rg.ZZ
        assert parse_ring_flag("rat") == rg.QQ
        assert parse_ring_flag("mod:7") == rg.Zmod(7)

    def test_extension_over_modular(self):
        ring = parse_ring_flag("polyext:mod:7:a,b")
        assert ring.kind == rg.POLYEXT
        assert ring.variables == ("a", "b")
        assert rg.scalar_base(ring) == rg.Zmod(7)


class TestDocumentRoundTrip:
    def make_system(self, ring):
        if ring.kind == rg.POLYEXT:
            t = MultiPoly(rg.scalar_base(ring), len(ring.variables), {(1,): 1})
            f = MultiPoly(ring, 2, {(2, 0): t, (0, 2): t})
        elif ring.kind == rg.MODULAR:
            f = MultiPoly(ring, 2, {(2, 0): 1, (1, 1): 3, (0, 2): 6 % ring.modulus})
        elif ring.kind == rg.RATIONALS:
            from fractions import Fraction

            f = MultiPoly(ring, 2, {(2, 0): Fraction(3, 4), (0, 2): Fraction(-1, 2)})
        else:
            f = MultiPoly(ring, 2, {(2, 0): 3, (1, 1): -5, (0, 2): 7})
        return [f]

    @pytest.mark.parametrize(
        "ring",
        [rg.ZZ, rg.QQ, rg.Zmod(7), rg.polyext(rg.ZZ, ("t",))],
        ids=["int", "rat", "mod7", "polyext"],
    )
    def test_serialize_parse_fixed_point(self, ring):
        fs = self.make_system(ring)
        doc = system_to_json(ring, 2, ["X1", "X2"], fs)
        ring2, nvars2, variables2, fs2 = system_from_json(doc)
        assert ring2 == ring and nvars2 == 2
        assert [f.terms for f in fs2] == [f.terms for f in fs]
        assert system_to_json(ring2, nvars2, variables2, fs2) == doc

    def test_non_homogeneous_polynomial_round_trips(self):
        f = MultiPoly(rg.ZZ, 2, {(2, 0): 1, (1, 0): 1})
        doc = system_to_json(rg.ZZ, 2, ["X1", "X2"], [f])
        assert "degree" not in doc["polynomials"][0]
        assert system_from_json(doc)[3][0].eq(f)

    def test_terms_print_in_graded_lex_descending_order(self):
        f = MultiPoly(rg.ZZ, 2, {(0, 2): 1, (2, 0): 1, (1, 1): 1})
        doc = poly_to_json(f)
        assert [t["exp"] for t in doc["terms"]] == [[2, 0], [1, 1], [0, 2]]


class TestParseFailures:
    def test_invalid_json_stream(self):
        result = CliRunner().invoke(main, ["res"], input="{nope")
        assert result.exit_code == 2

    def test_degree_mismatch(self):
        doc = int_doc(2, [{(2, 0): 1}])
        doc["polynomials"][0]["degree"] = 3
        assert run(["res"], doc).exit_code == 2

    def test_unreduced_modular_coefficient(self):
        doc = int_doc(2, [{(1, 0): 9}, {(0, 1): 1}], ring={"kind": "modular", "modulus": 7})
        assert run(["res"], doc).exit_code == 2

    def test_duplicate_exponent(self):
        doc = int_doc(2, [{(1, 0): 1}, {(0, 1): 1}])
        extra = {"coeff": "2", "exp": [1, 0]}
        doc["polynomials"][0]["terms"].append(extra)
        assert run(["res"], doc).exit_code == 2

    def test_wrong_exponent_length(self):
        doc = int_doc(2, [{(1, 0): 1}, {(0, 1): 1}])
        doc["polynomials"][0]["terms"][0]["exp"] = [1, 0, 0]
        assert run(["res"], doc).exit_code == 2

    def test_empty_polynomial_list(self):
        doc = int_doc(2, [{(1, 0): 1}])
        doc["polynomials"] = []
        assert run(["res"], doc).exit_code == 2

    def test_error_payload_is_json_on_stderr(self):
        result = CliRunner().invoke(main, ["res"], input="{nope")
        payload = json.loads(result.stderr)
        assert payload["error"] == "DocumentError"

    def test_zero_form_without_a_declared_degree(self):
        doc = int_doc(2, [{(2, 0): 1}, {(0, 2): 1}])
        doc["polynomials"][0] = {"terms": []}
        result = run(["res"], doc)
        assert result.exit_code == 3
        payload = json.loads(result.stderr)
        assert payload["error"] == "SignatureMismatch"
        assert "form 1" in payload["message"]

    @pytest.mark.parametrize(
        "path, value",
        [
            (("polynomials", 0, "terms", 0), {"coeff": "1"}),
            (("polynomials", 0, "terms", 0), {"exp": [1, 0]}),
            (("polynomials", 0, "terms", 0, "exp"), ["a", 0]),
            (("polynomials", 0, "terms", 0, "exp"), [1.5, -0.5]),
            (("nvars",), "x"),
            (("nvars",), 2.7),
            (("ring",), {"kind": "modular", "modulus": "x"}),
            (("polynomials", 0, "terms"), 5),
            (("variables",), 5),
            (("polynomials", 0, "degree"), "1"),
            (("polynomials", 0, "degree"), True),
        ],
        ids=[
            "term-without-exp",
            "term-without-coeff",
            "exponent-a",
            "fractional-exponents",
            "nvars-x",
            "fractional-nvars",
            "modulus-x",
            "terms-not-a-list",
            "variables-not-a-list",
            "degree-as-text",
            "degree-as-boolean",
        ],
    )
    def test_malformed_document_is_a_parse_error(self, path, value):
        doc = int_doc(2, [{(1, 0): 1}, {(0, 1): 1}])
        *outer, last = path
        node = doc
        for key in outer:
            node = node[key]
        node[last] = value
        result = run(["res"], doc)
        assert result.exit_code == 2, result.output
        assert json.loads(result.stderr)["error"] == "DocumentError"

    def test_mixed_degree_form_is_not_homogeneous(self):
        doc = int_doc(2, [{(2, 0): 1, (1, 0): 1}, {(0, 2): 1}])
        del doc["polynomials"][0]["degree"]
        result = run(["res"], doc)
        assert result.exit_code == 3
        assert json.loads(result.stderr)["error"] == "NonHomogeneous"


class TestFieldsGivenAsText:
    """A modulus or a list of names given as text is refused, as other
    non-integer fields are, not read through int() or letter by letter."""

    def assert_refused(self, doc):
        result = run(["res"], doc)
        assert result.exit_code == 2, result.output
        assert json.loads(result.stderr)["error"] == "DocumentError"

    def test_modulus_as_text(self):
        self.assert_refused(int_doc(2, [{(1, 0): 1}, {(0, 1): 1}], ring={"kind": "modular", "modulus": "7"}))

    def test_extension_variables_as_text(self):
        ring = {"kind": "polynomial-extension", "base": {"kind": "integers"}, "variables": "st"}
        doc = int_doc(2, [{(1, 0): 1}, {(0, 1): 1}], ring=ring)
        for poly in doc["polynomials"]:
            for term in poly["terms"]:
                term["coeff"] = {"terms": [{"coeff": term["coeff"], "exp": [0, 0]}]}
        self.assert_refused(doc)

    def test_document_variables_as_text(self):
        doc = int_doc(2, [{(1, 0): 1}, {(0, 1): 1}])
        doc["variables"] = "XY"
        self.assert_refused(doc)


class TestResCommand:
    def test_pure_powers(self):
        doc = int_doc(3, [{(2, 0, 0): 1}, {(0, 3, 0): 1}, {(0, 0, 1): 1}])
        result = run(["res"], doc)
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == "1"

    def test_linear_system_is_the_determinant(self):
        doc = int_doc(2, [{(1, 0): 2, (0, 1): 3}, {(1, 0): 1, (0, 1): 4}])
        result = run(["res"], doc)
        assert json.loads(result.output)["value"] == "5"

    def test_text_format(self):
        doc = int_doc(2, [{(1, 0): 1}, {(0, 1): 1}])
        result = run(["res", "--format", "text"], doc)
        assert result.exit_code == 0
        assert "value: 1" in result.output

    def test_document_from_file(self, tmp_path):
        doc = int_doc(2, [{(1, 0): 1}, {(0, 1): 1}])
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = run(["res", str(path)])
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == "1"

    def test_missing_file_is_a_parse_error(self):
        assert run(["res", "/nonexistent/system.json"]).exit_code == 2

    def test_zero_form_takes_its_declared_degree(self):
        doc = int_doc(2, [{(2, 0): 1}, {(0, 2): 1}])
        doc["polynomials"][0]["terms"] = []
        result = run(["res"], doc)
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == "0"


class TestDiscCommands:
    def test_points_binary_quadratic(self):
        doc = int_doc(2, [{(2, 0): 3, (1, 1): 5, (0, 2): 7}])
        result = run(["disc-points"], doc)
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == "59"

    def test_points_zero_form_takes_its_declared_degree(self):
        doc = int_doc(3, [{(2, 0, 0): 1}, {(0, 2, 0): 1}])
        doc["polynomials"][0]["terms"] = []
        result = run(["disc-points"], doc)
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == "0"

    def test_hyper_diagonal_cubic(self):
        doc = int_doc(2, [{(3, 0): 2, (0, 3): 5}])
        result = run(["disc-hyper"], doc)
        assert json.loads(result.output)["value"] == "2700"

    def test_hyper_wants_exactly_one_form(self):
        doc = int_doc(2, [{(2, 0): 1}, {(0, 2): 1}])
        assert run(["disc-hyper"], doc).exit_code == 2

    def test_quadric_closed_form(self):
        doc = int_doc(2, [{(2, 0): 3, (1, 1): 5, (0, 2): 7}])
        result = run(["quadric-disc"], doc)
        assert json.loads(result.output)["value"] == "59"

    def test_quadric_rejects_cubics(self):
        doc = int_doc(2, [{(3, 0): 1}])
        assert run(["quadric-disc"], doc).exit_code == 3

    def test_reduced_res_of_a_fermat_cubic(self):
        doc = int_doc(2, [{(3, 0): 1, (0, 3): 1}])
        result = run(["reduced-res"], doc)
        assert json.loads(result.output)["value"] == "27"


class TestJacobianCommand:
    def test_matches_the_library(self):
        terms = [{(2, 0, 0): 1, (0, 1, 1): 2}, {(0, 2, 0): 1, (1, 0, 1): -1}]
        doc = int_doc(3, terms)
        result = run(["jacobian", "--index", "2"], doc)
        assert result.exit_code == 0
        fs = [
            MultiPoly(rg.ZZ, 3, {k: v for k, v in t.items()}) for t in terms
        ]
        expected = jac_minor(fs, DegreeSignature(3, (2, 2)), 2)
        got = json.loads(result.output)
        parsed = system_from_json(
            {
                "ring": {"kind": "integers"},
                "nvars": 3,
                "variables": ["X1", "X2", "X3"],
                "polynomials": got["polynomials"],
            }
        )
        assert parsed[3][0].terms == expected.terms

    def test_bad_index(self):
        doc = int_doc(3, [{(2, 0, 0): 1}, {(0, 2, 0): 1}])
        assert run(["jacobian", "--index", "5"], doc).exit_code == 3

    def test_zero_minor_reads_back_with_its_degree(self):
        # J_1 = -d(X1^2)/dX2 = 0, a zero form of degree 1
        result = run(["jacobian", "-i", "1"], int_doc(2, [{(2, 0): 1}]))
        assert result.exit_code == 0
        got = json.loads(result.output)
        assert got["polynomials"] == [{"degree": 1, "terms": []}]
        got["polynomials"].append(int_doc(2, [{(0, 1): 1}])["polynomials"][0])
        res = run(["res"], got)
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["value"] == "0"

    def test_six_variables_over_z12_is_the_integer_minor_reduced(self):
        """Five linear forms in six variables: J_1 is -27 over Z, so 9 mod 12."""
        rows = [
            [6, 5, 4, 4, 6, 5],
            [5, 6, 5, 5, 10, 6],
            [7, 4, 9, 5, 5, 4],
            [8, 3, 4, 8, 10, 6],
            [10, 7, 11, 2, 1, 4],
        ]
        polys = [{tuple(int(k == j) for k in range(6)): c for j, c in enumerate(r)} for r in rows]
        fs = [MultiPoly(rg.ZZ, 6, p) for p in polys]
        (want,) = jac_minor(fs, DegreeSignature(6, (1,) * 5), 1).terms.values()
        result = run(["jacobian", "--index", "1"], int_doc(6, polys, ring={"kind": "modular", "modulus": 12}))
        assert result.exit_code == 0, result.output
        (term,) = json.loads(result.output)["polynomials"][0]["terms"]
        assert want == -27 and term == {"coeff": str(want % 12), "exp": [0] * 6}


class TestDeltaModCommand:
    def test_two_conics(self):
        terms = [
            {(2, 0, 0): 1, (1, 1, 0): 1, (0, 0, 2): 1},
            {(0, 2, 0): 1, (1, 0, 1): 1, (2, 0, 0): 1},
        ]
        doc = int_doc(3, terms)
        result = run(["delta-mod"], doc)
        assert result.exit_code == 0
        got = json.loads(result.output)
        assert got["delta"] == 2
        assert got["ring"] == {"kind": "modular", "modulus": 2}
        fs = [MultiPoly(rg.ZZ, 3, t) for t in terms]
        expected = delta_mod_delta(fs, DegreeSignature(3, (2, 2)))
        assert got["polynomials"] == [poly_to_json(expected)]


class TestKFactorCommand:
    def test_binary_quadratic_base_change(self):
        f = {(2, 0): 1, (1, 1): 1, (0, 2): 1}
        g1 = {(2, 0): 1, (0, 2): 1}
        g2 = {(1, 1): 1}
        doc = int_doc(2, [f, g1, g2])
        result = run(["k-factor"], doc)
        assert result.exit_code == 0
        fs = [MultiPoly(rg.ZZ, 2, f)]
        gs = [MultiPoly(rg.ZZ, 2, g1), MultiPoly(rg.ZZ, 2, g2)]
        expected = base_change_K(fs, DegreeSignature(2, (2,)), gs)
        assert json.loads(result.output)["value"] == str(expected.value)

    def test_wrong_block_count(self):
        doc = int_doc(2, [{(2, 0): 1}, {(1, 1): 1}])
        assert run(["k-factor"], doc).exit_code == 2


class TestZariskiValuationCommand:
    def test_binary_cubic(self):
        result = run(["zariski-valuation", "-n", "2", "-d", "3", "--mu", "1"])
        assert result.exit_code == 0
        got = json.loads(result.output)
        assert got["valuation"] == 2
        h_terms = {tuple(t["exp"]): t["coeff"] for t in got["H"]["value"]["terms"]}
        assert h_terms == {(0, 3, 0, 1): "4", (0, 2, 2, 0): "-1"}
        red_terms = {tuple(t["exp"]): t["coeff"] for t in got["red"]["value"]["terms"]}
        assert red_terms == {(1, 1, 0, 0): "1"}

    def test_mu_out_of_range(self):
        result = run(["zariski-valuation", "-n", "2", "-d", "3", "--mu", "2"])
        assert result.exit_code == 3


class TestMertensCheckCommand:
    def test_random_trials_pass(self):
        result = run(
            ["mertens-check", "--which", "1", "--sig", "2,1", "--trials", "3", "--seed", "0"]
        )
        assert result.exit_code == 0
        got = json.loads(result.output)
        assert got["ok"] is True
        assert got["failures"] == []

    def test_generic_mode(self):
        result = run(["mertens-check", "--which", "2", "--sig", "2,1", "--trials", "0"])
        assert result.exit_code == 0
        assert json.loads(result.output)["ok"] is True

    def test_bad_signature_text(self):
        assert run(["mertens-check", "--which", "1", "--sig", "x,y"]).exit_code == 2

    def test_all_linear_is_a_precondition_failure(self):
        result = run(["mertens-check", "--which", "1", "--sig", "1,1", "--trials", "0"])
        assert result.exit_code == 3


class TestPoiCheckCommand:
    def test_tangent_conics(self):
        mod5 = {"kind": "modular", "modulus": 5}
        terms = [
            {(0, 1, 1): 1, (2, 0, 0): 4},
            {(0, 1, 1): 1, (2, 0, 0): 4, (0, 2, 0): 1},
        ]
        doc = int_doc(3, terms, ring=mod5)
        result = run(["poi-check"], doc)
        assert result.exit_code == 0
        got = json.loads(result.output)
        assert got["status"] == "consistent"
        assert got["disc_is_zero"] is True
        assert got["singular_point"] == [0, 0, 1]

    def test_repeated_form_is_skipped_not_failed(self):
        mod5 = {"kind": "modular", "modulus": 5}
        t = {(0, 1, 1): 1, (2, 0, 0): 4}
        doc = int_doc(3, [t, t], ring=mod5)
        result = run(["poi-check"], doc)
        assert result.exit_code == 0
        assert json.loads(result.output)["status"] == "skipped"

    def test_integer_ring_is_refused(self):
        doc = int_doc(3, [{(2, 0, 0): 1}, {(0, 2, 0): 1}])
        assert run(["poi-check"], doc).exit_code == 3

    @pytest.mark.parametrize("max_extension", ["0", "-1", "4"])
    def test_extension_degree_outside_one_to_three_is_refused(self, max_extension):
        mod5 = {"kind": "modular", "modulus": 5}
        terms = [
            {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1},
            {(2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): 3},
        ]
        doc = int_doc(3, terms, ring=mod5)
        result = run(["poi-check", "--max-extension", max_extension], doc)
        assert result.exit_code == 3
        assert json.loads(result.stderr)["error"] == "UnsupportedRing"


class TestVerifyCommand:
    def test_res_core_suite(self):
        result = run(["verify", "res-core", "--seed", "1", "--trials", "2"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["suite"] == "res-core"
        assert report["checks"]
        assert all(c["status"] == "pass" for c in report["checks"])
        assert "wall_time" in report

    def test_dedekind_mertens_suite(self):
        result = run(["verify", "dedekind-mertens", "--seed", "2", "--trials", "5"])
        assert result.exit_code == 0
        assert all(
            c["status"] == "pass" for c in json.loads(result.output)["checks"]
        )

    def test_poi_suite_logs_skips_at_seed_three(self):
        result = run(["verify", "poi", "--seed", "3"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        skip_entries = [c for c in report["checks"] if c["status"] == "skip"]
        assert skip_entries
        assert all("witness" in c for c in skip_entries)

    def test_unknown_suite(self):
        assert run(["verify", "does-not-exist"]).exit_code == 3

    @pytest.mark.parametrize("suite", ["disc-points-props", "disc-hyper-props"])
    def test_identity_suites_pass_under_optimize(self, suite):
        proc = run_optimized(["verify", suite])
        assert proc.returncode == 0, proc.stderr
        assert all(c["status"] == "pass" for c in json.loads(proc.stdout)["checks"])

    def test_bar_product_failure_survives_optimize(self):
        # doubling f-bar breaks Res(partials, f) = Disc(f) Disc(f-bar)
        patch = (
            "import sys, elimkit.disc_hyper\n"
            "mod = sys.modules['elimkit.disc_hyper']\n"
            "bar = mod._bar\n"
            "mod._bar = lambda f: bar(f).scale_int(2)\n"
        )
        proc = run_optimized(["verify", "disc-hyper-props"], patch)
        assert proc.returncode == 1
        checks = {c["id"]: c["status"] for c in json.loads(proc.stdout)["checks"]}
        assert checks["disc-hyper-props/bar-product"] == "fail"


    def test_trials_below_one_is_a_usage_error(self):
        assert run(["verify", "res-core", "--trials", "0"]).exit_code == 2

    def test_every_entry_reports_its_seconds(self):
        report = json.loads(run(["verify", "poi", "--seed", "3", "--trials", "5"]).output)
        assert [c["status"] for c in report["checks"]] == ["pass", "skip"]
        assert all(c["seconds"] >= 0 for c in report["checks"])

    def test_identity_failures_inside_draws_are_failures(self, monkeypatch):
        def broken(fs, sig):
            raise IdentityFailed("the defining identity disagrees")

        monkeypatch.setattr(sys.modules["elimkit.disc_points"], "_by_division", broken)
        result = run(["verify", "disc-points-props", "--trials", "2"])
        assert result.exit_code == 1
        checks = {c["id"]: c for c in json.loads(result.output)["checks"]}
        for check_id in ("defining-division", "permutation"):
            entry = checks[f"disc-points-props/{check_id}"]
            assert entry["status"] == "fail"
            assert entry["witness"]["message"] == "the defining identity disagrees"

    def test_undecided_draws_are_skipped_for_any_check(self, monkeypatch):
        def degenerate_on_integers(fs, sig):
            if fs[0].ring == rg.ZZ:
                raise PerturbationDegenerate("every sample point failed")
            return disc_points(fs, sig)

        monkeypatch.setattr("elimkit.cli.disc_points", degenerate_on_integers)
        result = run(["verify", "disc-points-props", "--trials", "3"])
        assert result.exit_code == 0
        checks = json.loads(result.output)["checks"]
        assert {c["id"]: c["witness"] for c in checks if c["status"] == "skip"} == {
            "disc-points-props/defining-division/skipped": {"skipped": 3, "of": 3},
            "disc-points-props/permutation/skipped": {"skipped": 3, "of": 3},
        }

    @pytest.mark.parametrize(
        "check_id, check",
        [
            pytest.param(f"{suite}/{name}", check, id=f"{suite}/{name}")
            for suite, entries in SUITES.items()
            for name, anchor, check in entries
        ],
    )
    def test_every_check_holds(self, check_id, check):
        assert check(_Draws(f"0:{check_id}"), 2) is None


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        doc = int_doc(2, [{(1, 0): 1}, {(0, 1): 1}])
        proc = subprocess.run(
            [sys.executable, "-m", "elimkit.cli", "res"],
            input=json.dumps(doc),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == "1"
