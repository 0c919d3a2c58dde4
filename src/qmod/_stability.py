"""Cancellation- and overflow-safe building blocks for complex arithmetic.

Everything here is private to the package.  The two recurring problems
these helpers solve:

* ``e^w - 1`` loses all digits for small ``w`` (the stdlib has no complex
  ``expm1``), and ``1/(e^w - 1)`` overflows long before the quantity it
  feeds becomes negligible;
* products like ``sin(a w) / (e^{i w} - 1)`` pair a hugely growing factor
  with a hugely decaying one.  Rewriting them as differences of single
  exponentials keeps every intermediate bounded whenever the combined
  exponents decay, which is exactly the admissible-cone condition the
  ray sums operate under; but such a difference cancels where its two
  exponents are close, so it is taken only past direct_side, where a
  factor of the direct quotient would overflow: sin_ratio, cos_ratio and
  raysum's P kernel all split there.

The kernels take a scalar or a numpy array: a scalar gives a Python
``complex``, an array an array of the same shape, so a quadrature can
evaluate all its nodes in one call.
"""

from __future__ import annotations

import cmath

import numpy as np

#: the log of the largest double (709.78) less a margin: e^z and expm1(z)
#: stay finite while Re z is below it, sin(z) while |Im z| is
_EXP_LIMIT = 700.0


def cexpm1(w: complex) -> complex:
    """exp(w) - 1 without cancellation near w = 0.

    Uses the identity exp(w) - 1 = 2 exp(w/2) sinh(w/2), accurate for
    all complex w whose result is representable.
    """
    w = complex(w)
    return 2.0 * cmath.exp(0.5 * w) * cmath.sinh(0.5 * w)


def piecewise(z, near, f_near, f_far):
    """f_near on the elements of z where ``near`` holds, f_far on the rest.

    Each branch sees only its own elements, so neither is evaluated where
    it would overflow or lose its digits.  A scalar z gives a Python
    complex, an array z an array of the same shape.
    """
    z = np.asarray(z, dtype=complex)
    near = np.asarray(near)
    out = np.empty(z.shape, dtype=complex)
    out[near] = f_near(z[near])
    out[~near] = f_far(z[~near])
    return complex(out) if out.ndim == 0 else out


def inv_expm1(w):
    """1 / (exp(w) - 1), stable for small w and non-overflowing for
    large |Re w|.

    For Re w >= 0 the equivalent form exp(-w)/(1 - exp(-w)) is used, so
    the exponential only ever sees arguments with Re <= 0.
    """
    return piecewise(
        w,
        np.real(w) < 0.0,
        lambda v: 1.0 / np.expm1(v),
        lambda v: -np.exp(-v) / np.expm1(-v),
    )


def direct_side(nu: complex, w: np.ndarray) -> np.ndarray:
    """Where no factor of trig(nu w)/expm1(iw) can overflow: |Im(nu w)| and
    -Im w below _EXP_LIMIT.  On an admissible ray, one radius."""
    return (np.abs((nu * w).imag) < _EXP_LIMIT) & (-w.imag < _EXP_LIMIT)


def sin_ratio_direct(nu: complex, w: np.ndarray) -> np.ndarray:
    """sin(nu w)/expm1(iw) on direct_side: no difference of nearly equal
    exponentials, so the ratio keeps its relative digits as nu -> 0."""
    ratio = np.sin(nu * w)
    ratio /= np.expm1(1j * w)
    return ratio


def sin_ratio_decaying(nu: complex, w: np.ndarray) -> np.ndarray:
    """sin(nu w)/expm1(iw) past direct_side from one np.exp of an outer
    product, (e^{i(nu-1)w} - e^{-i(nu+1)w}) / (2i(1 - e^{-iw})): on an
    admissible ray all decay, and |nu w| or |w| >= _EXP_LIMIT, so the
    difference cancels by at most 1/|nu w|, where |nu| < 1/_EXP_LIMIT."""
    rates = np.array([1j * (nu - 1.0), -1j * (nu + 1.0), -1j])
    e_a, e_b, e_w = np.exp(np.multiply.outer(rates, w))
    e_a -= e_b
    np.subtract(1.0, e_w, out=e_w)
    e_a /= np.multiply(2j, e_w, out=e_w)
    return e_a


def sin_ratio(nu: complex, w):
    """sin(nu*w) / (exp(i*w) - 1) without overflow or cancellation: the
    direct form on direct_side, the decaying one past it."""
    w = np.asarray(w, dtype=complex)
    near, far = (lambda v: sin_ratio_direct(nu, v)), (lambda v: sin_ratio_decaying(nu, v))
    return piecewise(w, direct_side(nu, w), near, far)


def cos_ratio(nu: complex, w):
    """cos(nu*w) / (exp(i*w) - 1), split as sin_ratio is, past direct_side
    as (e^{i(nu-1)w} + e^{-i(nu+1)w}) / (2(1 - e^{-iw}))."""
    w = np.asarray(w, dtype=complex)
    return piecewise(
        w,
        direct_side(nu, w),
        lambda v: np.cos(nu * v) / np.expm1(1j * v),
        lambda v: (np.exp(1j * (nu - 1.0) * v) + np.exp(-1j * (nu + 1.0) * v))
        / (2.0 * (1.0 - np.exp(-1j * v))),
    )
