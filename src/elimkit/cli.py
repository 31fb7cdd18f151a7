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
from .jacobian import hess_det, jac_full, jac_minor, jacobian_degree
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
    weight_valuation,
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
            e = tuple(t["exp"])
            if len(e) != len(ring.variables) or any(type(x) is not int or x < 0 for x in e):
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


def _json_int(value, what):
    """``value`` if it is a JSON integer (not a boolean), else DocumentError."""
    if type(value) is not int:
        raise DocumentError(f"{what} must be an integer, got {value!r}")
    return value


def poly_from_json(ring, nvars, doc):
    if not isinstance(doc, dict) or "terms" not in doc:
        raise DocumentError(f"polynomial must be an object with terms, got {doc!r}")
    declared = doc.get("degree")
    if declared is not None:
        _json_int(declared, "degree")
    terms = {}
    for t in doc["terms"]:
        e = tuple(t["exp"])
        if len(e) != nvars or any(type(x) is not int or x < 0 for x in e):
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
    """(ring, nvars, variables, polynomials) of a document; DocumentError
    for anything malformed in it, down to a single term."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    try:
        ring = rg.RingDescriptor.from_json(doc["ring"])
        nvars = _json_int(doc["nvars"], "nvars")
        if nvars < 1:
            raise DocumentError(f"nvars must be positive, got {nvars}")
        variables = doc.get("variables", default_variables(nvars))
        if not isinstance(variables, list) or len(variables) != nvars:
            raise DocumentError(f"a list of {nvars} variable names expected, got {variables!r}")
        polys = doc["polynomials"]
        if not isinstance(polys, list) or not polys:
            raise DocumentError("document needs a nonempty polynomial list")
        return ring, nvars, variables, [poly_from_json(ring, nvars, p) for p in polys]
    except DocumentError:
        raise
    except (KeyError, TypeError, ValueError, ElimkitError) as exc:
        raise DocumentError(f"malformed document: {exc!r}")


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
    formula = _product_formula(int(which))
    if trials <= 0:
        ext, fs = generic_system(DegreeSignature(n, degrees), base=ring)
        failures = [] if formula(*fs) else [{"trial": "generic"}]
    else:
        failures = list(_failures(_Draws(seed), trials, ring, n, degrees, formula))
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
#
# A check is check(rng, trials) -> witness dict, or None when it holds.
# cmd_verify turns an IdentityFailed that a check raises into a failure.
# ---------------------------------------------------------------------------


class _Draws(random.Random):
    """The seeded generator of one check; ``skip`` counts the draws that
    the check cannot decide, and says why."""

    skipped = 0
    why = None

    def skip(self, why):
        self.skipped += 1
        self.why = why


def _random_form(rng, ring, n, d):
    """A nonzero form of degree ``d`` in ``n`` variables over ``ring``,
    each coefficient drawn from -9..9 and mapped into the ring."""
    monomials = monomials_of_degree(n, d)
    while True:
        f = MultiPoly.from_terms(
            ring, n, [(e, rg.val_convert(rg.ZZ, ring, rng.randint(-9, 9))) for e in monomials]
        )
        if not f.is_zero():
            return f


def _witness(trial, fs):
    n = fs[0].nvars
    return {"trial": trial, "witness": system_to_json(fs[0].ring, n, default_variables(n), fs)}


def _failures(rng, trials, ring, n, degrees, holds):
    """Witnesses of the draws on which ``holds`` fails, lazily.

    Each of ``trials`` draws is one random form per degree in ``degrees``,
    in ``n`` variables over ``ring``, passed to ``holds``.  A draw whose
    discriminant cannot be interpolated decides nothing and is skipped.
    """
    for trial in range(trials):
        fs = [_random_form(rng, ring, n, d) for d in degrees]
        try:
            if holds(*fs):
                continue
        except PerturbationDegenerate:
            rng.skip("draws skipped when too many perturbation samples fail")
            continue
        yield _witness(trial, fs)


def _each_draw(ring, n, degrees):
    """Decorator: the check that an identity of forms of ``degrees`` holds
    on every draw of _failures."""

    def decorate(holds):
        return lambda rng, trials: next(_failures(rng, trials, ring, n, degrees, holds), None)

    return decorate


def _product_formula(which):
    """The identity of mertens_first (1) or mertens_second (2) on f_1, ..., f_n."""
    formula = mertens_first if which == 1 else mertens_second
    return lambda *fs: formula(fs[:-1], fs[-1])


@_each_draw(rg.ZZ, 3, (3,))
def _check_euler_scaling(f):
    n = f.nvars
    xs = [MultiPoly.variable(rg.ZZ, n, i) for i in range(1, n + 1)]
    parts = (x.mul(partial_derivative(f, i)) for i, x in enumerate(xs, 1))
    return sum(parts, MultiPoly.zero(rg.ZZ, n)).eq(f.scale_int(f.total_degree()))


def _check_euler_bordered(rng, trials):
    sig = DegreeSignature(2, (2,))
    ext, fs = generic_system(sig)
    F = MultiPoly.variable(ext, 2, 1).pow(3).add(MultiPoly.variable(ext, 2, 2).pow(3))
    parts = (partial_derivative(F, i).mul(jac_minor(fs, sig, i)) for i in (1, 2))
    if not jac_full(fs, sig, F).eq(sum(parts, MultiPoly.zero(ext, 2))):
        return {"case": "generic (2,)"}


@_each_draw(rg.ZZ, 2, (0, 2, 3))
def _check_content_identity(c, f, m):
    """c(f)^L c(m) = c(f)^(L-1) c(fm), L the number of terms of m; the
    constant c gives f a content other than 1."""
    f = f.mul(c)
    length = len(m.terms)
    cf, cm, cfm = (poly_content(p).value for p in (f, m, f.mul(m)))
    return cf**length * cm == cf ** (length - 1) * cfm


def _check_res_normalization(rng, trials):
    for n in range(1, 5):
        for d in range(1, 5):
            fs = [MultiPoly.variable(rg.ZZ, n, i).pow(d) for i in range(1, n + 1)]
            if resultant(fs, DegreeSignature(n, (d,) * n)) != rg.element(rg.ZZ, 1):
                return {"nvars": n, "degree": d}


@_each_draw(rg.ZZ, 2, (2, 1, 2))
def _check_res_multiplicative(f, g, h):
    lhs = resultant([f.mul(g), h], DegreeSignature(2, (3, 2)))
    rf = resultant([f, h], DegreeSignature(2, (2, 2)))
    return lhs == rf * resultant([g, h], DegreeSignature(2, (1, 2)))


def _check_res_inertia(rng, trials):
    sig = DegreeSignature(2, (2, 1))
    ext, fs = generic_system(sig)
    if not is_inertia_form_generic(resultant(fs, sig), sig):
        return {"sig": [2, 1]}


@_each_draw(rg.ZZ, 2, (2,))
def _check_disc_points_defeq(f):
    sig, jsig = DegreeSignature(2, (2,)), DegreeSignature(2, (2, 1))
    disc = disc_points([f], sig)
    return all(
        disc * resultant([f, MultiPoly.variable(rg.ZZ, 2, i)], jsig)
        == resultant([f, jac_minor([f], sig, i)], jsig)
        for i in (1, 2)
    )


def _check_disc_points_degree(rng, trials):
    sig = DegreeSignature(2, (3,))
    ext, fs = generic_system(sig)
    got = max(sum(e) for e in disc_points(fs, sig).value.terms)
    want = disc_points_degree(sig, 1)
    if got != want or want != total_degree(sig):
        return {"got": got, "want": want}


@_each_draw(rg.ZZ, 3, (2, 2))
def _check_disc_points_permutation(f1, f2):
    sig = DegreeSignature(3, (2, 2))
    return disc_points([f1, f2], sig) == disc_points([f2, f1], sig)


def _check_hyper_diagonal(rng, trials):
    n, d = 2, 3
    ext = rg.polyext(rg.ZZ, ("A1", "A2"))
    a1, a2 = (MultiPoly.variable(rg.ZZ, 2, i) for i in (1, 2))
    x1, x2 = (MultiPoly.variable(ext, n, i) for i in (1, 2))
    disc = disc_hyper(x1.pow(d).scale(a1).add(x2.pow(d).scale(a2)))
    k = n * (d - 1) ** (n - 1) - a_exponent(n, d)
    if disc.value.terms != {((d - 1) ** (n - 1),) * n: d**k}:
        return {"got": sorted(disc.value.terms.items())}


@_each_draw(rg.ZZ, 2, (3, 0))
def _check_hyper_scaling(f, t):
    n, d = f.nvars, f.total_degree()
    scale = t.constant_value() ** (n * (d - 1) ** (n - 1))
    return disc_hyper(f.mul(t)).value == disc_hyper(f).value * scale


def _check_hyper_quadric(rng, trials):
    ext, fs = generic_system(DegreeSignature(3, (2,)))
    if quadric_disc(fs[0]) != disc_hyper(fs[0]):
        return {"case": "generic ternary quadric"}


def _check_hyper_bar_product(rng, trials):
    ext, fs = generic_system(DegreeSignature(2, (3,)))
    disc_times_bar(fs[0])


def _check_mertens_112(rng, trials):
    ext, fs = generic_system(DegreeSignature(3, (1, 1, 2)))
    for which in (1, 2):
        if not _product_formula(which)(*fs):
            return {"formula": which}


def _check_zariski_valuation(rng, trials):
    ext, fs = generic_system(DegreeSignature(2, (3,)))
    valuation, H, red = disc_valuation(fs[0], 1)
    if valuation != 2:
        return {"valuation": valuation}


def _check_zariski_lowest(rng, trials):
    sig, mu = DegreeSignature(2, (2, 1)), (1, 0)
    ext, fs = generic_system(sig)
    H, H1 = zariski_lowest_part(fs, sig, mu)
    got = weight_valuation(rg.RingElement(ext, H), zariski_weight_vector(sig, mu))
    want = math.prod(d - m for d, m in zip(sig.degrees, mu))
    if got != want:
        return {"weight": got, "want": want}


@_each_draw(rg.ZZ, 6, (1, 1, 1, 1, 1, 2))
def _check_ring_change(*fs):
    """A 5x5 Jacobian minor, a 6x6 bordered Jacobian and a 6x6 Hessian over
    Z/4, Z/7, Z/12 are those over Z reduced."""
    sig = DegreeSignature(6, (1,) * 5)
    dets = lambda gs: (jac_minor(gs[:5], sig, 1), jac_full(gs[:5], sig, gs[5]), hess_det(gs[5]))
    want = dets(fs)
    return all(
        got.eq(w.change_ring(ring))
        for ring in map(rg.Zmod, (4, 7, 12))
        for got, w in zip(dets([f.change_ring(ring) for f in fs]), want)
    )


def _check_poi(rng, trials):
    for trial in range(trials):
        fs = [_random_form(rng, rg.Zmod(5), 3, 2) for _ in range(2)]
        if trial % 5 == 3:
            fs[1] = fs[0]
        status = poi_check(fs).status
        if status == "inconsistent":
            return _witness(trial, fs)
        if status == "skipped":
            rng.skip("draws skipped when the field search is inconclusive")


def _square_over_gf2(sig, disc):
    """The check that ``disc(fs, sig)`` of the generic system of ``sig``
    over GF(2) is a perfect square."""

    def check(rng, trials):
        ext, fs = generic_system(sig, base=rg.Zmod(2))
        if poly_sqrt(disc(fs, sig).value) is None:
            return {"nvars": sig.nvars, "degrees": list(sig.degrees)}

    return check


_check_char2_hyper = _square_over_gf2(DegreeSignature(4, (2,)), lambda fs, sig: disc_hyper(fs[0]))
_check_char2_points = _square_over_gf2(DegreeSignature(3, (2, 2)), disc_points)

SUITES = {
    "euler": [
        ("euler-scaling", "sum of X_i d_i f recovers deg(f) times f", _check_euler_scaling),
        ("euler-bordered", "bordered Jacobian determinant expands through the minors", _check_euler_bordered),
    ],
    "dedekind-mertens": [
        ("content-identity", "content of a product obeys the length-power identity", _check_content_identity),
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
        ("first-2-1", "first product formula, degrees (2,1)", _each_draw(rg.ZZ, 2, (2, 1))(_product_formula(1))),
        ("second-2-1", "second product formula, degrees (2,1)", _each_draw(rg.ZZ, 2, (2, 1))(_product_formula(2))),
        ("first-2-2", "first product formula, degrees (2,2)", _each_draw(rg.ZZ, 2, (2, 2))(_product_formula(1))),
        ("generic-1-1-2", "both formulas on the generic system of degrees (1,1,2)", _check_mertens_112),
    ],
    "zariski": [
        ("valuation", "generic discriminant valuation matches (d-mu)(d-1-mu)^(n-1)", _check_zariski_valuation),
        ("lowest-part", "lowest isobaric part of the resultant divides by Res(g)", _check_zariski_lowest),
    ],
    "ring-change": [
        ("determinants-mod-m", "determinants above 4x4 over Z/m are the values over Z reduced", _check_ring_change),
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
@click.option("--trials", type=click.IntRange(min=1), default=10)
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
    for name in names:
        for short_id, anchor, check in SUITES[name]:
            check_id = f"{name}/{short_id}"
            rng = _Draws(f"{seed}:{check_id}")
            check_started = time.monotonic()
            try:
                witness = check(rng, trials)
            except IdentityFailed as exc:
                witness = {"message": str(exc)}
            seconds = round(time.monotonic() - check_started, 3)
            entry = {"id": check_id, "anchor": anchor, "status": "pass", "seconds": seconds}
            if witness is not None:
                entry.update(status="fail", witness=witness)
            checks.append(entry)
            if rng.skipped:
                checks.append(
                    {
                        "id": f"{check_id}/skipped",
                        "anchor": rng.why,
                        "status": "skip",
                        "seconds": seconds,
                        "witness": {"skipped": rng.skipped, "of": trials},
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
    if any(c["status"] == "fail" for c in checks):
        sys.exit(1)


if __name__ == "__main__":
    main()
