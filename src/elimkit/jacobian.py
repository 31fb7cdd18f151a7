"""Jacobian minors, the bordered Jacobian, and Hessians.

For n-1 forms f_1, ..., f_{n-1} in n variables, the i-th Jacobian minor
is J_i = (-1)^{n-i} times the determinant of the partial-derivative
matrix with column i deleted.  In two variables this reads J_1 = -df/dX2
and J_2 = +df/dX1.  All J_i are homogeneous of the same degree
sum(d_j - 1).
"""

from __future__ import annotations

from .determinants import det_poly_matrix
from .errors import SignatureMismatch
from .mpoly import check_forms, form_degrees, partial_derivative

__all__ = ["jac_minor", "jac_full", "jacobian_degree", "hessian", "hess_det"]


def _validate(fs, sig):
    if sig.r != sig.nvars - 1 or sig.r < 1:
        raise SignatureMismatch(
            f"need n-1 >= 1 forms in n variables, got r={sig.r}, n={sig.nvars}"
        )
    check_forms(fs, sig)


def jacobian_degree(sig):
    """Common degree of every minor: sum(d_j - 1)."""
    return sum(d - 1 for d in sig.degrees)


def jac_minor(fs, sig, i):
    """J_i (1-based), with the (-1)^{n-i} sign built in."""
    _validate(fs, sig)
    n = sig.nvars
    if not 1 <= i <= n:
        raise SignatureMismatch(f"minor index {i} out of range 1..{n}")
    cols = [k for k in range(1, n + 1) if k != i]
    mat = [[partial_derivative(f, k) for k in cols] for f in fs]
    det = det_poly_matrix(mat)
    if (n - i) % 2:
        det = det.neg()
    return det


def jac_full(fs, sig, F):
    """The bordered determinant J(f_1, ..., f_{n-1}, F).

    Expanding along the last row gives sum_i dF/dX_i * J_i.
    """
    _validate(fs, sig)
    form_degrees([*fs, F], sig.nvars)
    n = sig.nvars
    rows = [[partial_derivative(f, k) for k in range(1, n + 1)] for f in fs]
    rows.append([partial_derivative(F, k) for k in range(1, n + 1)])
    return det_poly_matrix(rows)


def hessian(f):
    """Symmetric matrix of second partials, as a list of MultiPoly rows."""
    n = f.nvars
    firsts = [partial_derivative(f, i) for i in range(1, n + 1)]
    return [[partial_derivative(firsts[i], j + 1) for j in range(n)] for i in range(n)]


def hess_det(f):
    if f.nvars == 0:
        raise SignatureMismatch("hessian needs at least one variable")
    return det_poly_matrix(hessian(f))
