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
  exponents are close, so sin_ratio takes it only past _EXP_LIMIT, where
  a factor of the direct form would overflow.

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


def sin_ratio(nu: complex, w):
    """sin(nu*w) / (exp(i*w) - 1) without overflow or cancellation.

    sin(nu w)/expm1(iw) wherever neither factor can overflow, |Im(nu w)|
    and -Im w both below _EXP_LIMIT: no difference of nearly equal
    exponentials is formed, so the ratio keeps its relative digits as
    nu -> 0.  Past that, (e^{i(nu-1)w} - e^{-i(nu+1)w}) / (2i(1 - e^{-iw})),
    whose exponentials all decay where i(nu - 1)w and -i(nu + 1)w have
    negative real part (the admissible-cone condition).  There
    |nu w| >= _EXP_LIMIT or |w| >= _EXP_LIMIT, so the difference loses
    digits only where |nu| is below about 1/_EXP_LIMIT, and then at most
    a factor 1/|nu w|.
    """
    w = np.asarray(w, dtype=complex)
    return piecewise(
        w,
        (np.abs((nu * w).imag) < _EXP_LIMIT) & (-w.imag < _EXP_LIMIT),
        lambda v: np.sin(nu * v) / np.expm1(1j * v),
        lambda v: (np.exp(1j * (nu - 1.0) * v) - np.exp(-1j * (nu + 1.0) * v))
        / (2j * (1.0 - np.exp(-1j * v))),
    )


def cos_ratio(nu: complex, w):
    """cos(nu*w) / (exp(i*w) - 1), same regime as :func:`sin_ratio`."""
    return piecewise(
        w,
        np.abs(w) * (1.0 + abs(nu)) < 1.0,
        lambda v: np.cos(nu * v) * inv_expm1(1j * v),
        lambda v: (np.exp(1j * (nu - 1.0) * v) + np.exp(-1j * (nu + 1.0) * v))
        / (2.0 * (1.0 - np.exp(-1j * v))),
    )
