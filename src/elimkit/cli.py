"""Command-line front end.

Polynomial systems travel as JSON documents:

    {
      "ring": {"kind": "integers"},
      "nvars": 2,
      "variables": ["X1", "X2"],
      "polynomials": [
        {"degree": 2, "terms": [{"coeff": "1", "exp": [2, 0]},
                                {"coeff": "-3", "exp": [0, 2]}]}
      ]
    }

Coefficients are decimal strings ("3", "-3/4" over the rationals); over a
polynomial extension a coefficient is itself a term object
{"terms": [{"coeff": "...", "exp": [...]}]} over the extension variables.
Commands read a document from a file argument (or stdin when the argument
is missing or "-") and print canonical JSON: terms in descending graded
lex order, exact coefficient strings.

Exit codes: 0 success, 1 verification failure, 2 parse error,
3 precondition violation, 4 internal (an identity the theory guarantees
failed, or more perturbation samples failed than their denominator's
degree allows).
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from fractions import Fraction

import click

from . import ring as rg
from .disc_hyper import (
    a_exponent,
    disc_hyper,
    disc_times_bar,
    disc_valuation,
    quadric_disc,
)
from .disc_points import (
    base_change_K,
    delta_mod_delta,
    disc_points,
    disc_points_degree,
    total_degree,
)
from .errors import (
    ElimkitError,
    IdentityFailed,
    PerturbationDegenerate,
    SignatureMismatch,
    UnknownSuite,
)
from .jacobian import jac_full, jac_minor, jacobian_degree
from .mertens import mertens_first, mertens_second
from .mpoly import (
    HOMOGENEOUS_ANY,
    DegreeSignature,
    MultiPoly,
    form_degrees,
    generic_system,
    grlex_key,
    is_homogeneous,
    monomials_of_degree,
    partial_derivative,
    poly_content,
    poly_sqrt,
    zariski_weight_vector,
)
from .oracle import poi_check
from .resultant import is_inertia_form_generic, resultant, zariski_lowest_part


class DocumentError(ValueError):
    """The input JSON does not describe a valid polynomial system."""


# ---------------------------------------------------------------------------
# Ring descriptors and coefficient strings
# ---------------------------------------------------------------------------


def parse_ring_flag(text):
    """int | rat | mod:M | polyext:<base>:n1,n2,..."""
    if text == "int":
        return rg.ZZ
    if text == "rat":
        return rg.QQ
    if text.startswith("mod:"):
        try:
            return rg.Zmod(int(text[4:]))
        except (ValueError, ElimkitError) as exc:
            raise DocumentError(f"bad modulus in {text!r}: {exc}")
    if text.startswith("polyext:"):
        rest = text[len("polyext:") :]
        base_str, _, names_str = rest.rpartition(":")
        if not base_str or not names_str:
            raise DocumentError(f"polyext flag needs a base and names: {text!r}")
        names = tuple(nm.strip() for nm in names_str.split(","))
        if any(not nm for nm in names):
            raise DocumentError(f"empty extension name in {text!r}")
        return rg.polyext(parse_ring_flag(base_str), names)
    raise DocumentError(f"unknown ring {text!r}")


def coeff_to_json(ring, value):
    if ring.kind == rg.POLYEXT:
        return {
            "terms": [
                {"coeff": coeff_to_json(ring.base, c), "exp": list(e)}
                for e, c in _ordered(value.terms)
            ]
        }
    if ring.kind == rg.RATIONALS:
        return str(value) if value.denominator != 1 else str(value.numerator)
    return str(value)


def coeff_from_json(ring, doc):
    if ring.kind == rg.POLYEXT:
        if isinstance(doc, str):
            inner = coeff_from_json(ring.base, doc)
            return MultiPoly.constant(ring.base, len(ring.variables), inner)
        if not isinstance(doc, dict) or "terms" not in doc:
            raise DocumentError(f"extension coefficient must be a term object, got {doc!r}")
        terms = {}
        for t in doc["terms"]:
            e = tuple(int(x) for x in t["exp"])
            if len(e) != len(ring.variables) or any(x < 0 for x in e):
                raise DocumentError(f"bad extension exponent {t['exp']!r}")
            if e in terms:
                raise DocumentError(f"duplicate extension exponent {t['exp']!r}")
            terms[e] = coeff_from_json(ring.base, t["coeff"])
        p = MultiPoly.from_terms(ring.base, len(ring.variables), terms.items())
        return p
    if not isinstance(doc, str):
        raise DocumentError(f"scalar coefficient must be a string, got {doc!r}")
    text = doc.strip()
    try:
        if ring.kind == rg.RATIONALS:
            if "." in text:
                raise ValueError("no decimal points")
            return Fraction(text)
        v = int(text)
    except ValueError as exc:
        raise DocumentError(f"cannot parse coefficient {doc!r}: {exc}")
    if ring.kind == rg.MODULAR:
        if not 0 <= v < ring.modulus:
            raise DocumentError(
                f"coefficient {doc!r} is not reduced modulo {ring.modulus}"
            )
    return v


def _ordered(terms):
    return sorted(terms.items(), key=lambda item: grlex_key(item[0]), reverse=True)


# ---------------------------------------------------------------------------
# Polynomial documents
# ---------------------------------------------------------------------------


def default_variables(n):
    return [f"X{i}" for i in range(1, n + 1)]


def poly_to_json(f, degree=None):
    """The document of ``f``.

    It declares ``"degree"`` only for a form: the degree of a nonzero
    homogeneous ``f``, else ``degree``, the intended degree of a zero form.
    """
    h = is_homogeneous(f)
    if h != HOMOGENEOUS_ANY:
        degree = h  # None when f is not homogeneous
    doc = {
        "terms": [
            {"coeff": coeff_to_json(f.ring, c), "exp": list(e)}
            for e, c in _ordered(f.terms)
        ],
    }
    if degree is not None:
        doc["degree"] = degree
    return doc


def poly_from_json(ring, nvars, doc):
    if not isinstance(doc, dict) or "terms" not in doc:
        raise DocumentError(f"polynomial must be an object with terms, got {doc!r}")
    declared = doc.get("degree")
    terms = {}
    for t in doc["terms"]:
        e = tuple(int(x) for x in t["exp"])
        if len(e) != nvars or any(x < 0 for x in e):
            raise DocumentError(f"bad exponent {t['exp']!r} for {nvars} variables")
        if declared is not None and sum(e) != declared:
            raise DocumentError(
                f"term exponent {t['exp']!r} has degree {sum(e)}, document says {declared}"
            )
        if e in terms:
            raise DocumentError(f"duplicate exponent {t['exp']!r}")
        c = coeff_from_json(ring, t["coeff"])
        terms[e] = c
    return MultiPoly.from_terms(ring, nvars, terms.items())


def system_from_json(doc):
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    try:
        ring = rg.RingDescriptor.from_json(doc["ring"])
        nvars = int(doc["nvars"])
        polys = doc["polynomials"]
    except (KeyError, TypeError, ElimkitError) as exc:
        raise DocumentError(f"malformed document: {exc}")
    if nvars < 1:
        raise DocumentError(f"nvars must be positive, got {nvars}")
    variables = doc.get("variables", default_variables(nvars))
    if len(variables) != nvars:
        raise DocumentError(f"{nvars} variable names expected, got {len(variables)}")
    if not isinstance(polys, list) or not polys:
        raise DocumentError("document needs a nonempty polynomial list")
    return ring, nvars, list(variables), [poly_from_json(ring, nvars, p) for p in polys]


def system_to_json(ring, nvars, variables, fs, degrees=None):
    """The document of the forms ``fs``; ``degrees`` as in poly_to_json."""
    if degrees is None:
        degrees = [None] * len(fs)
    return {
        "ring": ring.to_json(),
        "nvars": nvars,
        "variables": list(variables),
        "polynomials": [poly_to_json(f, d) for f, d in zip(fs, degrees)],
    }


def element_to_json(x):
    return {"ring": x.ring.to_json(), "value": coeff_to_json(x.ring, x.value)}


def _read_document(path):
    try:
        if path in (None, "-"):
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        return json.loads(raw)
    except OSError as exc:
        raise DocumentError(f"cannot read input: {exc}")
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}")


def _print(data, fmt):
    if fmt == "json":
        click.echo(json.dumps(data, indent=2, sort_keys=True))
    else:
        click.echo(_render_text(data))


def _render_text(data, indent=""):
    if isinstance(data, dict):
        lines = []
        for k in sorted(data):
            v = data[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}{k}:")
                lines.append(_render_text(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {v}")
        return "\n".join(lines)
    if isinstance(data, list):
        return "\n".join(_render_text(v, indent + "  ") for v in data)
    return f"{indent}{data}"


def _fail(exc, code):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    click.echo(json.dumps(payload), err=True)
    sys.exit(code)


def guarded(fn):
    """Run a command body under the documented exit-code policy."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DocumentError as exc:
            _fail(exc, 2)
        except (IdentityFailed, PerturbationDegenerate) as exc:
            _fail(exc, 4)
        except ElimkitError as exc:
            _fail(exc, 3)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _signature_for(doc, fs, nvars, expected_count):
    """Degree signature of a document's forms.

    A zero form has no degree of its own; it takes the ``"degree"`` that
    its polynomial object in ``doc`` declares.
    """
    if len(fs) != expected_count:
        raise DocumentError(
            f"expected {expected_count} polynomials for nvars={nvars}, got {len(fs)}"
        )
    degrees = [
        pdoc.get("degree") if d is None else d
        for d, pdoc in zip(form_degrees(fs, nvars), doc["polynomials"])
    ]
    if None in degrees:
        i = degrees.index(None) + 1
        raise SignatureMismatch(f"form {i} is zero and its document declares no degree")
    return DegreeSignature(nvars, tuple(degrees))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@click.group()
def main():
    """Exact resultants and discriminants of homogeneous systems."""


fmt_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="json"
)
doc_argument = click.argument("document", required=False)


@main.command("res")
@doc_argument
@fmt_option
@guarded
def cmd_res(document, fmt):
    """Resultant of n forms in n variables."""
    doc = _read_document(document)
    ring, nvars, variables, fs = system_from_json(doc)
    sig = _signature_for(doc, fs, nvars, nvars)
    out = resultant(fs, sig)
    _print(element_to_json(out), fmt)


@main.command("disc-points")
@doc_argument
@fmt_option
@guarded
def cmd_disc_points(document, fmt):
    """Discriminant of n-1 forms in n variables."""
    doc = _read_document(document)
    ring, nvars, variables, fs = system_from_json(doc)
    sig = _signature_for(doc, fs, nvars, nvars - 1)
    out = disc_points(fs, sig)
    _print(element_to_json(out), fmt)


@main.command("disc-hyper")
@doc_argument
@fmt_option
@guarded
def cmd_disc_hyper(document, fmt):
    """Discriminant of one homogeneous hypersurface."""
    ring, nvars, variables, fs = system_from_json(_read_document(document))
    if len(fs) != 1:
        raise DocumentError(f"expected exactly one polynomial, got {len(fs)}")
    out = disc_hyper(fs[0])
    _print(element_to_json(out), fmt)


@main.command("quadric-disc")
@doc_argument
@fmt_option
@guarded
def cmd_quadric_disc(document, fmt):
    """Discriminant of a quadratic form via its symmetric matrix."""
    ring, nvars, variables, fs = system_from_json(_read_document(document))
    if len(fs) != 1:
        raise DocumentError(f"expected exactly one polynomial, got {len(fs)}")
    out = quadric_disc(fs[0])
    _print(element_to_json(out), fmt)


@main.command("reduced-res")
@doc_argument
@fmt_option
@guarded
def cmd_reduced_res(document, fmt):
    """Res(d_1 f, ..., d_{n-1} f, f), the product Disc(f) Disc(f-bar)."""
    ring, nvars, variables, fs = system_from_json(_read_document(document))
    if len(fs) != 1:
        raise DocumentError(f"expected exactly one polynomial, got {len(fs)}")
    out = disc_times_bar(fs[0])
    _print(element_to_json(out), fmt)


@main.command("jacobian")
@doc_argument
@fmt_option
@click.option("--index", "-i", type=int, required=True, help="which J_i, 1-based")
@guarded
def cmd_jacobian(document, fmt, index):
    """Signed maximal minor J_i of the Jacobian matrix of n-1 forms."""
    doc = _read_document(document)
    ring, nvars, variables, fs = system_from_json(doc)
    sig = _signature_for(doc, fs, nvars, nvars - 1)
    out = jac_minor(fs, sig, index)
    _print(system_to_json(ring, nvars, variables, [out], [jacobian_degree(sig)]), fmt)


@main.command("delta-mod")
@doc_argument
@fmt_option
@guarded
def cmd_delta_mod(document, fmt):
    """The form Delta with J_i = X_i Delta modulo gcd(d_1,...,d_{n-1})."""
    doc = _read_document(document)
    ring, nvars, variables, fs = system_from_json(doc)
    sig = _signature_for(doc, fs, nvars, nvars - 1)
    out = delta_mod_delta(fs, sig)
    payload = system_to_json(out.ring, nvars, variables, [out], [jacobian_degree(sig) - 1])
    payload["delta"] = math.gcd(*sig.degrees)
    _print(payload, fmt)


@main.command("k-factor")
@doc_argument
@fmt_option
@guarded
def cmd_k_factor(document, fmt):
    """Base-change cofactor K.

    The document carries n-1 forms f followed by n substitution forms g
    of one shared degree; K satisfies
    Disc(f o g) = Disc(f)^{d^{n-1}} Res(g)^{d_1...d_{n-1} sum(d_i - 1)} K.
    """
    doc = _read_document(document)
    ring, nvars, variables, fs = system_from_json(doc)
    if len(fs) != 2 * nvars - 1:
        raise DocumentError(
            f"expected {nvars - 1} forms plus {nvars} substitutions, got {len(fs)}"
        )
    sig = _signature_for(doc, fs[: nvars - 1], nvars, nvars - 1)
    out = base_change_K(fs[: nvars - 1], sig, fs[nvars - 1 :])
    _print(element_to_json(out), fmt)


@main.command("zariski-valuation")
@click.option("--nvars", "-n", type=int, required=True)
@click.option("--degree", "-d", type=int, required=True)
@click.option("--mu", type=int, required=True)
@fmt_option
@guarded
def cmd_zariski_valuation(nvars, degree, mu, fmt):
    """Valuation data of the generic hypersurface discriminant.

    Coefficients of X^alpha carry weight max(alpha_n - mu, 0); prints the
    valuation, the isobaric part H, and the reduced factor."""
    ext, fs = generic_system(DegreeSignature(nvars, (degree,)))
    valuation, H, red = disc_valuation(fs[0], mu)
    _print(
        {
            "nvars": nvars,
            "degree": degree,
            "mu": mu,
            "valuation": valuation,
            "H": element_to_json(H),
            "red": element_to_json(red),
        },
        fmt,
    )


@main.command("mertens-check")
@click.option("--which", type=click.Choice(["1", "2"]), required=True)
@click.option("--sig", "sig_text", required=True, help="degree list, e.g. 2,1")
@click.option("--trials", type=int, default=10)
@click.option("--seed", type=int, default=0)
@click.option("--ring", "ring_text", default="int")
@fmt_option
@guarded
def cmd_mertens_check(which, sig_text, trials, seed, ring_text, fmt):
    """Check one of the two product formulas on random specializations.

    With --trials 0 the fully generic system of the signature is used."""
    try:
        degrees = tuple(int(x) for x in sig_text.split(","))
    except ValueError:
        raise DocumentError(f"bad --sig {sig_text!r}")
    if len(degrees) < 2 or any(d < 1 for d in degrees):
        raise DocumentError("signature needs at least two positive degrees")
    n = len(degrees)
    ring = parse_ring_flag(ring_text)
    check = mertens_first if which == "1" else mertens_second
    failures = []
    if trials <= 0:
        sig = DegreeSignature(n, degrees)
        ext, fs = generic_system(sig, base=ring)
        if not check(fs[:-1], fs[-1]):
            failures.append({"trial": "generic"})
    else:
        rng = random.Random(seed)
        for trial in range(trials):
            fs = [_random_form(rng, ring, n, d) for d in degrees]
            if not check(fs[:-1], fs[-1]):
                failures.append(
                    {
                        "trial": trial,
                        "witness": system_to_json(ring, n, default_variables(n), fs),
                    }
                )
    report = {
        "which": int(which),
        "sig": list(degrees),
        "trials": trials,
        "seed": seed,
        "failures": failures,
        "ok": not failures,
    }
    _print(report, fmt)
    if failures:
        sys.exit(1)


def _random_form(rng, ring, n, d):
    while True:
        terms = {}
        for e in monomials_of_degree(n, d):
            v = rng.randint(-9, 9)
            if v:
                terms[e] = rg.val_convert(rg.ZZ, ring, v)
        f = MultiPoly.from_terms(ring, n, terms.items())
        if not f.is_zero():
            return f


@main.command("poi-check")
@doc_argument
@fmt_option
@click.option("--max-extension", type=int, default=3)
@guarded
def cmd_poi_check(document, fmt, max_extension):
    """Compare the discriminant's vanishing with a singular-point search
    over a small prime field."""
    ring, nvars, variables, fs = system_from_json(_read_document(document))
    verdict = poi_check(fs, max_extension=max_extension)
    data = {
        "status": verdict.status,
        "reason": verdict.reason,
        "disc_is_zero": verdict.disc_is_zero,
        "singular_point": list(verdict.singular_point)
        if verdict.singular_point is not None
        else None,
        "extension_degree": verdict.extension_degree,
        "locus_counts": list(verdict.locus_counts),
    }
    _print(data, fmt)
    if verdict.status == "inconsistent":
        sys.exit(1)


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _rng_for(seed, check_id):
    return random.Random(f"{seed}:{check_id}")


def _random_zz_form(rng, n, d, lo=-6, hi=6):
    while True:
        terms = {
            e: rng.randint(lo, hi)
            for e in monomials_of_degree(n, d)
            if rng.random() < 0.9
        }
        terms = {e: c for e, c in terms.items() if c}
        if terms:
            return MultiPoly(rg.ZZ, n, terms)


def _check_euler_scaling(rng, trials):
    for _ in range(trials):
        n = rng.choice([2, 3])
        d = rng.choice([2, 3])
        f = _random_zz_form(rng, n, d)
        acc = MultiPoly.zero(rg.ZZ, n)
        for i in range(1, n + 1):
            e = [0] * n
            e[i - 1] = 1
            xi = MultiPoly(rg.ZZ, n, {tuple(e): 1})
            acc = acc.add(xi.mul(partial_derivative(f, i)))
        if not acc.eq(f.map_coefficients(lambda c: c * d)):
            return "fail", {"nvars": n, "degree": d, "terms": sorted(f.terms.items())}
    return "pass", None


def _check_euler_bordered(rng, trials):
    ext, fs = generic_system(DegreeSignature(2, (2,)))
    F = MultiPoly(ext, 2, {(3, 0): rg.val_one(ext), (0, 3): rg.val_one(ext)})
    lhs = jac_full(fs, DegreeSignature(2, (2,)), F)
    acc = MultiPoly.zero(ext, 2)
    for i in range(1, 3):
        acc = acc.add(partial_derivative(F, i).mul(jac_minor(fs, DegreeSignature(2, (2,)), i)))
    return ("pass", None) if lhs.eq(acc) else ("fail", {"case": "generic (2,)"})


def _check_dedekind_mertens(rng, trials):
    for _ in range(trials):
        n = rng.choice([1, 2, 3])
        f = _random_any_poly(rng, n)
        m = _random_any_poly(rng, n)
        if m.is_zero():
            continue
        length = len(m.terms)
        cf = poly_content(f).value
        cm = poly_content(m).value
        cfm = poly_content(f.mul(m)).value
        if cf**length * cm != cf ** (length - 1) * cfm:
            return "fail", {
                "f": sorted(f.terms.items()),
                "m": sorted(m.terms.items()),
            }
    return "pass", None


def _random_any_poly(rng, n):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        e = tuple(rng.randint(0, 3) for _ in range(n))
        if sum(e) > 3:
            continue
        terms[e] = rng.randint(-8, 8)
    terms = {e: c for e, c in terms.items() if c}
    return MultiPoly(rg.ZZ, n, terms)


def _check_res_normalization(rng, trials):
    for n in range(1, 5):
        for d in range(1, 5):
            fs = []
            for i in range(n):
                e = [0] * n
                e[i] = d
                fs.append(MultiPoly(rg.ZZ, n, {tuple(e): 1}))
            out = resultant(fs, DegreeSignature(n, (d,) * n))
            if out != rg.element(rg.ZZ, 1):
                return "fail", {"nvars": n, "degree": d}
    return "pass", None


def _check_res_multiplicative(rng, trials):
    for _ in range(trials):
        f = _random_zz_form(rng, 2, 2)
        g = _random_zz_form(rng, 2, 1)
        h = _random_zz_form(rng, 2, 2)
        lhs = resultant([f.mul(g), h], DegreeSignature(2, (3, 2)))
        rhs = resultant([f, h], DegreeSignature(2, (2, 2))) * resultant(
            [g, h], DegreeSignature(2, (1, 2))
        )
        if lhs != rhs:
            return "fail", {
                "f": sorted(f.terms.items()),
                "g": sorted(g.terms.items()),
                "h": sorted(h.terms.items()),
            }
    return "pass", None


def _check_res_inertia(rng, trials):
    sig = DegreeSignature(2, (2, 1))
    ext, fs = generic_system(sig)
    res = resultant(fs, sig)
    ok = is_inertia_form_generic(res, sig)
    return ("pass", None) if ok else ("fail", {"sig": [2, 1]})


def _check_disc_points_defeq(rng, trials):
    from .resultant import resultant as _res

    sig = DegreeSignature(2, (2,))
    for _ in range(trials):
        f = _random_zz_form(rng, 2, 2)
        try:
            disc = disc_points([f], sig)
        except ElimkitError:
            continue
        for i in (1, 2):
            ji = jac_minor([f], sig, i)
            e = [0] * 2
            e[i - 1] = 1
            xi = MultiPoly(rg.ZZ, 2, {tuple(e): 1})
            num = _res([f, ji], DegreeSignature(2, (2, 1)))
            den = _res([f, xi], DegreeSignature(2, (2, 1)))
            if disc * den != num:
                return "fail", {"f": sorted(f.terms.items()), "i": i}
    return "pass", None


def _check_disc_points_degree(rng, trials):
    sig = DegreeSignature(2, (3,))
    ext, fs = generic_system(sig)
    disc = disc_points(fs, sig)
    got = max(sum(e) for e in disc.value.terms)
    want = disc_points_degree(sig, 1)
    if got != want or want != total_degree(sig):
        return "fail", {"got": got, "want": want}
    return "pass", None


def _check_disc_points_permutation(rng, trials):
    sig = DegreeSignature(3, (2, 2))
    for _ in range(trials):
        f1 = _random_zz_form(rng, 3, 2)
        f2 = _random_zz_form(rng, 3, 2)
        try:
            a = disc_points([f1, f2], sig)
            b = disc_points([f2, f1], sig)
        except ElimkitError:
            continue
        if a != b:
            return "fail", {
                "f1": sorted(f1.terms.items()),
                "f2": sorted(f2.terms.items()),
            }
    return "pass", None


def _check_hyper_diagonal(rng, trials):
    n, d = 2, 3
    ext = rg.polyext(rg.ZZ, ("A1", "A2"))
    terms = {}
    for i in range(n):
        e = [0] * n
        e[i] = d
        mono = [0] * n
        mono[i] = 1
        terms[tuple(e)] = MultiPoly(rg.ZZ, n, {tuple(mono): 1})
    f = MultiPoly(ext, n, terms)
    disc = disc_hyper(f)
    k = n * (d - 1) ** (n - 1) - a_exponent(n, d)
    expect = {((d - 1) ** (n - 1),) * n: d**k}
    got = dict(disc.value.terms)
    return ("pass", None) if got == expect else ("fail", {"got": sorted(got.items())})


def _check_hyper_scaling(rng, trials):
    n, d = 2, 3
    for _ in range(trials):
        f = _random_zz_form(rng, n, d)
        t = rng.choice([2, 3, -2])
        lhs = disc_hyper(f.map_coefficients(lambda c: c * t))
        rhs = disc_hyper(f)
        if lhs.value != rhs.value * t ** (n * (d - 1) ** (n - 1)):
            return "fail", {"f": sorted(f.terms.items()), "t": t}
    return "pass", None


def _check_hyper_quadric(rng, trials):
    ext, fs = generic_system(DegreeSignature(3, (2,)))
    return (
        ("pass", None)
        if quadric_disc(fs[0]) == disc_hyper(fs[0])
        else ("fail", {"case": "generic ternary quadric"})
    )


def _check_hyper_bar_product(rng, trials):
    ext, fs = generic_system(DegreeSignature(2, (3,)))
    try:
        disc_times_bar(fs[0])
    except IdentityFailed:
        return "fail", {"case": "generic binary cubic"}
    return "pass", None


def _check_mertens(which, sig, rng, trials):
    degrees = sig
    n = len(degrees)
    check = mertens_first if which == 1 else mertens_second
    for trial in range(trials):
        fs = [_random_zz_form(rng, n, d, -5, 5) for d in degrees]
        if not check(fs[:-1], fs[-1]):
            return "fail", {
                "trial": trial,
                "witness": system_to_json(
                    rg.ZZ, n, default_variables(n), fs
                ),
            }
    return "pass", None


def _check_mertens_112(rng, trials):
    ext, fs = generic_system(DegreeSignature(3, (1, 1, 2)))
    if not mertens_first(fs[:2], fs[2]):
        return "fail", {"formula": 1}
    if not mertens_second(fs[:2], fs[2]):
        return "fail", {"formula": 2}
    return "pass", None


def _check_zariski_valuation(rng, trials):
    ext, fs = generic_system(DegreeSignature(2, (3,)))
    valuation, H, red = disc_valuation(fs[0], 1)
    return ("pass", None) if valuation == 2 else ("fail", {"valuation": valuation})


def _check_zariski_lowest(rng, trials):
    sig = DegreeSignature(2, (2, 1))
    ext, fs = generic_system(sig)
    mu = (1, 0)
    H, H1 = zariski_lowest_part(fs, sig, mu)
    w = zariski_weight_vector(sig, mu)
    from .mpoly import weight_valuation as wv

    want = math.prod(d - m for d, m in zip(sig.degrees, mu))
    got = wv(rg.RingElement(ext, H), w)
    return ("pass", None) if got == want else ("fail", {"weight": got, "want": want})


def _check_poi(rng, trials):
    sig = DegreeSignature(3, (2, 2))
    skipped = 0
    for trial in range(trials):
        fs = []
        for d in sig.degrees:
            terms = {
                e: rng.randrange(5) for e in monomials_of_degree(3, d)
            }
            terms = {e: c for e, c in terms.items() if c}
            if not terms:
                terms = {(d, 0, 0): 1}
            fs.append(MultiPoly(rg.Zmod(5), 3, terms))
        if trial % 5 == 3:
            fs[1] = fs[0]
        verdict = poi_check(fs)
        if verdict.status == "inconsistent":
            return "fail", {
                "trial": trial,
                "witness": system_to_json(rg.Zmod(5), 3, default_variables(3), fs),
            }, skipped
        if verdict.status == "skipped":
            skipped += 1
    return "pass", None, skipped


def _check_char2_hyper(rng, trials):
    ext, fs = generic_system(DegreeSignature(4, (2,)), base=rg.Zmod(2))
    disc = disc_hyper(fs[0])
    if poly_sqrt(disc.value) is None:
        return "fail", {"case": "generic quadric over GF(2), 4 variables"}
    return "pass", None


def _check_char2_points(rng, trials):
    ext, fs = generic_system(DegreeSignature(3, (2, 2)), base=rg.Zmod(2))
    disc = disc_points(fs, DegreeSignature(3, (2, 2)))
    if poly_sqrt(disc.value) is None:
        return "fail", {"case": "generic (2,2) over GF(2)"}
    return "pass", None


SUITES = {
    "euler": [
        ("euler-scaling", "sum of X_i d_i f recovers deg(f) times f", _check_euler_scaling),
        ("euler-bordered", "bordered Jacobian determinant expands through the minors", _check_euler_bordered),
    ],
    "dedekind-mertens": [
        ("content-identity", "content of a product obeys the length-power identity", _check_dedekind_mertens),
    ],
    "res-core": [
        ("pure-powers", "resultant of pure variable powers is 1", _check_res_normalization),
        ("multiplicative", "resultant is multiplicative in each slot", _check_res_multiplicative),
        ("inertia", "the generic resultant passes the inertia-form substitution test", _check_res_inertia),
    ],
    "disc-points-props": [
        ("defining-division", "Disc times Res(f, X_i) equals Res(f, J_i) for every slot", _check_disc_points_defeq),
        ("degree", "generic discriminant degree matches the closed formulas", _check_disc_points_degree),
        ("permutation", "discriminant is symmetric in the input forms", _check_disc_points_permutation),
    ],
    "disc-hyper-props": [
        ("diagonal", "diagonal forms give a single monomial discriminant", _check_hyper_diagonal),
        ("scaling", "Disc(t f) scales by t^(n (d-1)^(n-1))", _check_hyper_scaling),
        ("quadric", "matrix closed form agrees with the general computation", _check_hyper_quadric),
        ("bar-product", "Res of the truncated partials factors as Disc(f) Disc(f-bar)", _check_hyper_bar_product),
    ],
    "mertens": [
        ("first-2-1", "first product formula, degrees (2,1)", lambda r, t: _check_mertens(1, (2, 1), r, t)),
        ("second-2-1", "second product formula, degrees (2,1)", lambda r, t: _check_mertens(2, (2, 1), r, t)),
        ("first-2-2", "first product formula, degrees (2,2)", lambda r, t: _check_mertens(1, (2, 2), r, max(1, t // 2))),
        ("generic-1-1-2", "both formulas on the generic system of degrees (1,1,2)", _check_mertens_112),
    ],
    "zariski": [
        ("valuation", "generic discriminant valuation matches (d-mu)(d-1-mu)^(n-1)", _check_zariski_valuation),
        ("lowest-part", "lowest isobaric part of the resultant divides by Res(g)", _check_zariski_lowest),
    ],
    "poi": [
        ("singular-sweep", "discriminant vanishing is consistent with singular points over GF(5)", _check_poi),
    ],
    "char2-square": [
        ("hyper-square", "quadric discriminant over GF(2) is a perfect square", _check_char2_hyper),
        ("points-square", "(2,2) discriminant over GF(2) is a perfect square", _check_char2_points),
    ],
}


@main.command("verify")
@click.argument("suite")
@click.option("--seed", type=int, default=0)
@click.option("--trials", type=int, default=10)
@fmt_option
@guarded
def cmd_verify(suite, seed, trials, fmt):
    """Run a named verification suite deterministically."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise UnknownSuite(
            f"unknown suite {suite!r}; choose from {', '.join(sorted(SUITES))} or all"
        )
    started = time.monotonic()
    checks = []
    failed = False
    for name in names:
        for check_id, anchor, fn in SUITES[name]:
            rng = _rng_for(seed, f"{name}/{check_id}")
            result = fn(rng, trials)
            if len(result) == 3:
                status, witness, skipped = result
            else:
                status, witness = result
                skipped = None
            entry = {
                "id": f"{name}/{check_id}",
                "anchor": anchor,
                "status": status,
            }
            if witness is not None:
                entry["witness"] = witness
            checks.append(entry)
            if status == "fail":
                failed = True
            if skipped:
                checks.append(
                    {
                        "id": f"{name}/{check_id}/skipped",
                        "anchor": "draws skipped when the field search is inconclusive",
                        "status": "skip",
                        "witness": {"skipped": skipped, "of": trials},
                    }
                )
    report = {
        "suite": suite,
        "seed": seed,
        "trials": trials,
        "wall_time": round(time.monotonic() - started, 3),
        "checks": checks,
    }
    _print(report, fmt)
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
