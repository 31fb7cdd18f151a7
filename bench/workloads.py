"""The four workloads: seeded inputs, how each call runs, how it is checked.

A workload is a list of rounds; a round is a list of calls that covers
every combination the workload mixes (operation, signature, ring) once, so
every run sees the same mix whatever its seed.  The seed draws only the
coefficients, and for ``generic`` (whose inputs are fully symbolic) only
the specialization points used by the checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import elimkit
import reference as ref
from elimkit import ring as rg
from elimkit.cli import main as cli_main
from elimkit.mpoly import DegreeSignature, MultiPoly, generic_coeff_names, generic_system

# Per-call deadlines in seconds.  A call that misses its deadline fails.
# Each generic job carries its own deadline instead (see GENERIC).  The
# slowest calls that finish take about 0.7 s in numeric and 0.4 s in family
# on a 2-core x86_64 machine (one family draw in some 400 takes 2.8 s, and
# fails); family's two combinations that never finish would spend 4 s of
# every round waiting at 2 s.
DEADLINE = {"numeric": 2.0, "family": 1.0, "ffsweep": 2.0}

# Rounds generated in set-up; a run stops early if it uses them all.
ROUNDS = {"numeric": 40, "family": 30, "ffsweep": 150, "generic": 1}

RINGS = {
    "Z": {"kind": "integers"},
    "Q": {"kind": "rationals"},
    "Z/7": {"kind": "modular", "modulus": 7},
    "Z/12": {"kind": "modular", "modulus": 12},
    "Z/101": {"kind": "modular", "modulus": 101},
}

# (4;2,2,2,2) res is listed twice so that the 90th latency percentile falls
# inside its cluster rather than on the edge between two clusters, and
# (2;4) disc-points twice so that the median falls inside its cluster.
NUMERIC = [
    ("res", (2, 3, 3)), ("res", (3, 2, 2, 2)), ("res", (3, 1, 2, 2)),
    ("res", (4, 2, 2, 2, 2)), ("res", (4, 2, 2, 2, 2)),
    ("disc-points", (2, 3)), ("disc-points", (2, 4)), ("disc-points", (2, 4)), ("disc-points", (3, 2, 2)),
    ("disc-hyper", (2, 3)), ("disc-hyper", (2, 4)), ("disc-hyper", (3, 2)), ("disc-hyper", (3, 3)),
]

# (operation, (n; degrees), number of parameters).  (4;2,2,2,2) res and
# (3;2,3) disc-points miss the deadline inside det_packed on every draw.
# (3;2,2,2) res over Z[s] (~12 ms, varying with the draw) is listed four
# times and the ternary quadric keeps seven combinations below it, so that
# the median latency falls inside its calls and rests on four draws a round,
# not on the edge between two combinations of different cost.
FAMILY = [
    ("disc-hyper", (3, 2), 2),
    ("res", (2, 3, 3), 1), ("res", (2, 3, 3), 2),
    *[("res", (3, 2, 2, 2), 1)] * 4, ("res", (3, 2, 2, 2), 2),
    ("res", (3, 2, 2, 3), 1), ("res", (4, 2, 2, 2, 2), 1),
    ("disc-points", (2, 3), 1), ("disc-points", (2, 3), 2),
    ("disc-points", (3, 2, 2), 1), ("disc-points", (3, 2, 2), 2),
    ("disc-points", (3, 2, 3), 1),
    ("disc-hyper", (2, 4), 1), ("disc-hyper", (2, 4), 2),
    ("disc-hyper", (3, 3), 1), ("disc-hyper", (3, 3), 2),
]

PARAMS = ("s", "t")

# (kind, (n; degrees), coefficient ring, deadline in seconds).  The
# (3;2,2)/GF(2) job takes about 25 s at the seed commit, hence its deadline;
# the same job over Z has not been seen to finish.
GENERIC_LONG = [
    ("hyper", (3, 3), "Z", 15.0),
    ("points", (3, 2, 2), "GF(2)", 45.0),
    ("points", (3, 2, 2), "Z", 15.0),
]
# Sub-second binary jobs.  A block runs each of them GENERIC_BINARY_REPEATS
# times; one block goes before, between and after the long jobs, so that the
# latency percentiles rest on more than a thousand calls spread over the run.
# A block lasts about a second, so that the percentiles average over the
# machine's changes of speed instead of sampling four short moments of it.
# (2;4) points is listed twice so that the median latency falls a quarter of
# the way into its calls, as the 90th percentile falls a third of the way
# into (2;5) points, and not on the edge between two jobs of different cost,
# which moves with the fastest few calls of one of them.
GENERIC_BINARY = (
    [("points", (2, d), "Z", 10.0) for d in (3, 4, 4, 5)]
    + [("hyper", (2, d), "Z", 10.0) for d in (3, 4, 5)]
)
GENERIC_BINARY_REPEATS = 40

# Term counts on record for the generic jobs the cache does not cover.
GENERIC_TERMS = {("hyper", 3, (3,)): 2040}


class WrongAnswer(Exception):
    """The program returned a value that differs from the reference."""


@dataclass
class Call:
    index: int
    op: str
    sig: str
    ring: str
    run: object  # () -> output
    check: object  # output -> None, raises WrongAnswer
    deadline: float

    def label(self):
        return f"#{self.index} {self.op} {self.sig} over {self.ring}"

    def combination(self):
        return (self.op, self.sig, self.ring)


def sig_label(n, degs):
    return f"({n};{','.join(map(str, degs))})"


def rand_form(n, d, rng, spread=4):
    """The acceptance suite's rand_form, on plain exponent dicts."""
    f = {}
    for e in ref.monomials(n, d):
        c = rng.randrange(-spread, spread + 1)
        if c:
            f[e] = c
    f.setdefault((d,) + (0,) * (n - 1), 1)
    return f


# -- CLI documents --------------------------------------------------------------


def _scalar_doc(ring, c):
    if ring["kind"] == "modular":
        return str(c % ring["modulus"])
    return str(c)


def _numeric_doc(ring, n, forms):
    polys = []
    for f in forms:
        terms = [{"exp": list(e), "coeff": _scalar_doc(ring, c)} for e, c in f.items()]
        polys.append({"terms": [t for t in terms if t["coeff"] != "0"]})
    return {"ring": ring, "nvars": n, "polynomials": polys}


def run_cli(args, text):
    """One in-process CLI invocation: document on stdin, JSON from stdout."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            cli_main.main(args, standalone_mode=False)
    finally:
        sys.stdin = saved
    return json.loads(out.getvalue())


def _parse_scalar(ring, text):
    if ring["kind"] == "rationals":
        return Fraction(text)
    return int(text)


def _agree(ring, got, want, where):
    if ring["kind"] == "modular":
        m = ring["modulus"]
        if Fraction(want).denominator != 1 or got % m != int(want) % m:
            raise WrongAnswer(f"got {got}, reference {want} mod {m} {where}")
    elif Fraction(got) != Fraction(want):
        raise WrongAnswer(f"got {got}, reference {want} {where}")


# -- numeric ----------------------------------------------------------------------


def numeric(seed):
    rng = random.Random(f"numeric:{seed}")
    rounds, k = [], 0
    for _ in range(ROUNDS["numeric"]):
        calls = []
        for op, (n, *degs) in NUMERIC:
            for ring_name, ring in RINGS.items():
                forms = [rand_form(n, d, rng) for d in degs]
                calls.append(_numeric_call(k, op, n, degs, ring_name, ring, forms))
                k += 1
        rounds.append(calls)
    return rounds


def _numeric_call(k, op, n, degs, ring_name, ring, forms):
    text = json.dumps(_numeric_doc(ring, n, forms))

    def check(out):
        got = _parse_scalar(ring, out["value"])
        _agree(ring, got, ref.expected(op, forms, n, degs), "")

    return Call(k, op, sig_label(n, degs), ring_name, lambda: run_cli([op, "-"], text), check, DEADLINE["numeric"])


# -- family -------------------------------------------------------------------------


def _affine(rng, nparams, spread=4):
    """Coefficient a + b s (+ c t) as {param exponent: int}."""
    out = {}
    for j in range(nparams + 1):
        c = rng.randrange(-spread, spread + 1)
        if c:
            out[tuple(1 if i == j - 1 else 0 for i in range(nparams))] = c
    return out


def _family_form(n, d, nparams, rng):
    f = {}
    for e in ref.monomials(n, d):
        c = _affine(rng, nparams)
        if c:
            f[e] = c
    f.setdefault((d,) + (0,) * (n - 1), {(0,) * nparams: 1})
    return f


def family(seed):
    rng = random.Random(f"family:{seed}")
    rounds, k = [], 0
    for _ in range(ROUNDS["family"]):
        calls = []
        for op, (n, *degs), nparams in FAMILY:
            forms = [_family_form(n, d, nparams, rng) for d in degs]
            points = [tuple(rng.randint(-9, 9) for _ in range(nparams)) for _ in range(2)]
            calls.append(_family_call(k, op, n, degs, nparams, forms, points))
            k += 1
        rounds.append(calls)
    return rounds


def _family_call(k, op, n, degs, nparams, forms, points):
    names = list(PARAMS[:nparams])
    ring = {"kind": "polynomial-extension", "base": {"kind": "integers"}, "variables": names}
    polys = []
    for f in forms:
        terms = []
        for e, c in f.items():
            coeff = {"terms": [{"exp": list(pe), "coeff": str(v)} for pe, v in c.items()]}
            terms.append({"exp": list(e), "coeff": coeff})
        polys.append({"terms": terms})
    text = json.dumps({"ring": ring, "nvars": n, "polynomials": polys})

    def check(out):
        value = [(tuple(t["exp"]), int(t["coeff"])) for t in out["value"]["terms"]]
        for pt in points:
            special = [{e: ref.evaluate(c.items(), pt) for e, c in f.items()} for f in forms]
            special = [{e: c for e, c in f.items() if c} for f in special]
            want = ref.expected(op, special, n, degs)
            _agree(RINGS["Z"], ref.evaluate(value, pt), want, f"at {names}={pt}")

    return Call(k, op, sig_label(n, degs), f"Z[{','.join(names)}]", lambda: run_cli([op, "-"], text), check, DEADLINE["family"])


# -- ffsweep ---------------------------------------------------------------------------


def ffsweep(seed):
    """poi_check on conic pairs over F_5 and F_7, as acceptance criterion 15 draws them."""
    rng = random.Random(f"ffsweep:{seed}")
    rounds, k = [], 0
    for _ in range(ROUNDS["ffsweep"]):
        calls = []
        for q in (5, 7):
            for _ in range(5):
                ring = rg.Zmod(q)
                forms = [rand_form(3, 2, rng, spread=q - 1) for _ in range(2)]
                fs = [MultiPoly(ring, 3, {e: c % q for e, c in f.items() if c % q}) for f in forms]
                calls.append(_ffsweep_call(k, q, forms, fs))
                k += 1
        rounds.append(calls)
    return rounds


def _ffsweep_call(k, q, forms, fs):
    def run():
        return elimkit.poi_check(fs)

    def check(verdict):
        if verdict.status == "inconsistent":
            raise WrongAnswer(f"inconsistent verdict: {verdict.reason}")
        if verdict.disc_is_zero is not None:
            want = ref.cache_entry("points", 3, (2, 2)).evaluate(forms) % q == 0
            if verdict.disc_is_zero != want:
                raise WrongAnswer(f"disc_is_zero={verdict.disc_is_zero}, reference says {want}")

    return Call(k, "poi_check", "(3;2,2)", f"F_{q}", run, check, DEADLINE["ffsweep"])


# -- generic --------------------------------------------------------------------------------


def generic(seed):
    rng = random.Random(f"generic:{seed}")
    binary = GENERIC_BINARY * GENERIC_BINARY_REPEATS
    jobs = binary
    for long_job in GENERIC_LONG:
        jobs = jobs + [long_job] + binary
    calls = []
    for kind, (n, *degs), ring_name, deadline in jobs:
        sig = DegreeSignature(n, tuple(degs))
        _, fs = generic_system(sig, base=rg.Zmod(2) if ring_name == "GF(2)" else rg.ZZ)
        if kind == "points":
            run = (lambda fs, sig: lambda: elimkit.disc_points(fs, sig))(fs, sig)
        else:
            run = (lambda f: lambda: elimkit.disc_hyper(f))(fs[0])
        points = [[rand_form(n, d, rng, spread=9) for d in degs] for _ in range(3)]
        check = _generic_check(kind, n, tuple(degs), 2 if ring_name == "GF(2)" else None, points)
        calls.append(Call(len(calls), f"disc_{kind}", sig_label(n, degs), ring_name, run, check, deadline))
    return [calls]


def _generic_check(kind, n, degs, modulus, points):
    def check(result):
        sig = DegreeSignature(n, degs)
        terms = result.value.terms
        names = []  # (form index, exponent) of each coefficient indeterminate
        for i in range(1, len(degs) + 1):
            names += [(i - 1, _parse_exp(nm)) for nm in generic_coeff_names(sig, i)]
        slots = [slot for slot, _ in names]
        for i in range(len(degs)):
            want = elimkit.disc_hyper_degree(n, degs[0]) if kind == "hyper" else elimkit.disc_points_degree(sig, i + 1)
            for e in terms:
                got = sum(x for x, s in zip(e, slots) if s == i)
                if got != want:
                    raise WrongAnswer(f"a term has degree {got} in form {i + 1}'s coefficients, expected {want}")
        if (kind, n, degs) in ref.CACHED:
            entry = ref.cache_entry(kind, n, degs)
            cached = {e: c for e, c in entry.terms}
            if modulus:
                cached = {e: c % modulus for e, c in cached.items() if c % modulus}
            if dict(terms) != cached:
                raise WrongAnswer(f"{len(terms)} terms, committed entry has {len(cached)}; the polynomials differ")
        elif (kind, n, degs) in GENERIC_TERMS and len(terms) != GENERIC_TERMS[(kind, n, degs)]:
            raise WrongAnswer(f"{len(terms)} terms, {GENERIC_TERMS[(kind, n, degs)]} on record")
        for forms in points:
            got = ref.evaluate(terms.items(), [forms[slot].get(exp, 0) for slot, exp in names])
            want = ref.expected("disc-points" if kind == "points" else "disc-hyper", forms, n, degs)
            if modulus:
                got, want = got % modulus, want % modulus
            if got != want:
                raise WrongAnswer(f"specialization gives {got}, reference {want}")

    return check


def _parse_exp(name):
    return tuple(int(p) for p in name.split("_")[1:])


GENERATE = {"numeric": numeric, "family": family, "generic": generic, "ffsweep": ffsweep}
