"""Modular transformation tools for the q-Pochhammer symbol.

The infinite product (x; q)_oo loses all meaning as |q| -> 1, yet it
satisfies an exact transformation law connecting (tau, nu) to
(-1/tau, nu/tau), where q = e^{2 pi i tau} and x = e^{2 pi i nu}.  This
package evaluates both sides of that law (and its eta, theta, Lambert
and Gamma-function corollaries) with controlled error, exposing every
identity as a residual check.

Layout:

- ``specialfns``: Bernoulli numbers, the building-block function f, the
  dilogarithm, and Binet's function mu (with log-Gamma as a wrapper
  over it).
- ``qcore``: q-Pochhammer products and series, the Jackson q-Gamma
  function, Dedekind eta, Jacobi theta, Lambert sums, and the
  ``ModularPoint`` container.  Every series fixes its length before its
  first term, from a tail bound below ``TERM_TOL`` (1e-16), and raises
  ``ConvergenceError`` at once when that length exceeds ``MAX_TERMS``
  (10^6).
- ``raysum``: certified quadrature along rays, the correction integral
  P and its derivatives, G (the integral g^+ in closed form), P's
  divergent series at q -> 1 with its closed-form coefficients A_n, the
  K_N norm integrals, and the almost-modular function M.
- ``modularity``: residual evaluation of each transformation law, plus
  the asymptotic table machinery.
- ``cli``: the ``qmod`` command line front end.
"""

from .errors import ConvergenceError, DomainError
from .qcore import MAX_TERMS, TERM_TOL, ModularPoint, euler_series, eta, q_gamma, qpochhammer
from .raysum import RaySpec, choose_ray, big_G, P_minus, P_plus

__all__ = [
    "ConvergenceError",
    "DomainError",
    "MAX_TERMS",
    "TERM_TOL",
    "ModularPoint",
    "RaySpec",
    "choose_ray",
    "euler_series",
    "eta",
    "q_gamma",
    "qpochhammer",
    "big_G",
    "P_minus",
    "P_plus",
]

__version__ = "0.1.0"
