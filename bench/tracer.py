"""Spans and counters around elimkit's layers, installed from outside.

The program is not edited.  Each traced function is replaced, in every
``elimkit`` module namespace that binds it, by a wrapper; ``restore`` puts
the originals back.  Modules are reached through ``sys.modules`` because
``elimkit/__init__.py`` rebinds the names ``resultant``, ``disc_points``
and ``disc_hyper`` to functions.

A span's self time is its duration minus the time of the spans it opened.
The very hot payload operations (``ring.val_*`` and ``GFExt.add``/``mul``)
get bare counters in a separate pass, so that their wrapper cost does not
land in the span times.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span name, module, attribute); an attribute "Class.method" wraps the method.
SPANS = [
    ("cli.parse", "elimkit.cli", "_read_document"),
    ("cli.parse", "elimkit.cli", "system_from_json"),
    ("cli.emit", "elimkit.cli", "element_to_json"),
    ("cli.emit", "elimkit.cli", "_print"),
    ("mpoly.mul", "elimkit.mpoly", "MultiPoly.mul"),
    ("mpoly.exact_div", "elimkit.mpoly", "poly_exact_div"),
    ("det.bareiss", "elimkit.determinants", "det_bareiss"),
    ("det.packed", "elimkit.determinants", "det_packed"),
    ("det.strip", "elimkit.determinants", "strip_single_entries"),
    ("resultant", "elimkit.resultant", "resultant"),
    ("resultant.macaulay", "elimkit.resultant", "build_macaulay"),
    ("resultant.gcp", "elimkit.resultant", "gcp_resultant"),
    ("jacobian.minor", "elimkit.jacobian", "jac_minor"),
    ("disc_points", "elimkit.disc_points", "disc_points_traced"),
    ("disc_hyper", "elimkit.disc_hyper", "disc_hyper"),
    ("oracle.poi_check", "elimkit.oracle", "poi_check"),
]

COUNTERS = [
    ("ring.val_mul", "elimkit.ring", "val_mul"),
    ("ring.val_add", "elimkit.ring", "val_add"),
    ("ring.val_exact_divide", "elimkit.ring", "val_exact_divide"),
    ("oracle.gf.add", "elimkit.oracle", "GFExt.add"),
    ("oracle.gf.mul", "elimkit.oracle", "GFExt.mul"),
]


def _resolve(module, attr):
    mod = sys.modules[module]
    if "." in attr:
        cls, name = attr.split(".")
        return getattr(mod, cls), name
    return mod, attr


class _Patches:
    def __init__(self):
        self._saved = []

    def replace(self, module, attr, make):
        """Swap the function for make(original) wherever elimkit binds it."""
        owner, name = _resolve(module, attr)
        original = getattr(owner, name)
        wrapper = make(original)
        if owner is not sys.modules[module]:  # a method: one binding, on the class
            self._saved.append((owner, name, original))
            setattr(owner, name, wrapper)
            return
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "elimkit" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


class SpanTracer(_Patches):
    """Call counts and self time per span name, plus a few sizes."""

    def __init__(self):
        super().__init__()
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.extra = defaultdict(float)
        self.stack = []  # open spans: [name, time of their child spans]
        hooks = {
            "mpoly.exact_div": (self._before_div, None),
            "det.packed": (self._before_packed, None),
            "det.strip": (self._before_strip, self._after_strip),
            "resultant": (self._before_resultant, None),
            "resultant.macaulay": (None, self._after_macaulay),
            "disc_points": (None, self._after_disc_points),
        }
        for name, module, attr in SPANS:
            before, after = hooks.get(name, (None, None))
            self.replace(module, attr, lambda fn, n=name, b=before, a=after: self._span(n, fn, b, a))

    def _span(self, name, fn, before, after):
        stack, calls, self_time = self.stack, self.calls, self.self_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                self_time[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def reset_stack(self):
        """Drop spans left open by a call cut off by its deadline."""
        self.stack.clear()

    def _before_div(self, args):
        self.extra["mpoly.exact_div.terms_in"] += len(args[0].terms)

    def _before_packed(self, args):
        self.extra["det.packed.rows_max"] = max(self.extra["det.packed.rows_max"], len(args[0]))

    def _before_strip(self, args):
        self.extra["det.strip.rows_in"] += len(args[0])

    def _after_strip(self, args, out):
        self.extra["det.strip.rows_kept"] += len(out[2])

    def _before_resultant(self, args):
        if any(frame[0] == "disc_points" for frame in self.stack):
            self.extra["disc_points.resultants"] += 1

    def _after_macaulay(self, args, out):
        self.extra["resultant.macaulay.cols_max"] = max(self.extra["resultant.macaulay.cols_max"], len(out.cols))

    def _after_disc_points(self, args, out):
        self.extra[f"disc_points.route.{out.strategy}"] += 1

    def metrics(self):
        c, s, x = self.calls, self.self_time, self.extra
        return {
            "cli.parse_s": s["cli.parse"],
            "cli.emit_s": s["cli.emit"],
            "mpoly.mul.calls": c["mpoly.mul"],
            "mpoly.mul.self_s": s["mpoly.mul"],
            "mpoly.exact_div.calls": c["mpoly.exact_div"],
            "mpoly.exact_div.self_s": s["mpoly.exact_div"],
            "mpoly.exact_div.terms_in": x["mpoly.exact_div.terms_in"],
            "det.bareiss.calls": c["det.bareiss"],
            "det.bareiss.self_s": s["det.bareiss"],
            "det.packed.calls": c["det.packed"],
            "det.packed.self_s": s["det.packed"],
            "det.packed.rows_max": x["det.packed.rows_max"],
            "det.strip.self_s": s["det.strip"],
            "det.strip.kept_ratio": x["det.strip.rows_kept"] / x["det.strip.rows_in"] if x["det.strip.rows_in"] else 0.0,
            "resultant.calls": c["resultant"],
            "resultant.self_s": s["resultant"],
            "resultant.macaulay.self_s": s["resultant.macaulay"],
            "resultant.macaulay.cols_max": x["resultant.macaulay.cols_max"],
            "resultant.gcp.calls": c["resultant.gcp"],
            "resultant.gcp.self_s": s["resultant.gcp"],
            "resultant.gcp_ratio": c["resultant.gcp"] / c["resultant"] if c["resultant"] else 0.0,
            "jacobian.minor.self_s": s["jacobian.minor"],
            "disc_points.self_s": s["disc_points"],
            "disc_points.resultants_per_call": x["disc_points.resultants"] / c["disc_points"] if c["disc_points"] else 0.0,
            "disc_points.route.division": x["disc_points.route.division"],
            "disc_points.route.perturbation": x["disc_points.route.perturbation"],
            "disc_hyper.self_s": s["disc_hyper"],
            "oracle.poi_check.self_s": s["oracle.poi_check"],
        }


class CallCounter(_Patches):
    """Bare call counters on the payload-level operations."""

    def __init__(self):
        super().__init__()
        self.counts = {name: [0] for name, _, _ in COUNTERS}
        for name, module, attr in COUNTERS:
            self.replace(module, attr, lambda fn, cell=self.counts[name]: self._count(fn, cell))

    @staticmethod
    def _count(fn, cell):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def metrics(self):
        return {f"{name}.calls": cell[0] for name, cell in self.counts.items()}
