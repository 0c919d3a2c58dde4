"""Modular transformation tools for the q-Pochhammer symbol.

The infinite product (x; q)_oo loses all meaning as |q| -> 1, yet it
satisfies an exact transformation law connecting (tau, nu) to
(-1/tau, nu/tau), where q = e^{2 pi i tau} and x = e^{2 pi i nu}.  This
package evaluates both sides of that law (and its eta, theta, Lambert
and Gamma-function corollaries) with controlled error, exposing every
identity as a residual check.

Layout:

- ``specialfns``: Bernoulli numbers, the building-block functions B and
  f, the dilogarithm, and Binet's function mu (with log-Gamma and
  digamma as wrappers over it).
- ``qcore``: q-Pochhammer products and series, the Jackson q-Gamma
  function, Dedekind eta, Jacobi theta, Lambert sums, and the
  ``ModularPoint`` container.
- ``raysum``: certified quadrature along rays, the correction integrals
  P, g^+ and G, their derivatives, the A_n moment integrals, K_N norm
  integrals, and the almost-modular function M.
- ``modularity``: residual evaluation of each transformation law, plus
  the asymptotic table machinery.
- ``cli``: the ``qmod`` command line front end.
"""

from .errors import ConvergenceError, DomainError
from .qcore import ModularPoint, Truncation, euler_series, eta, q_gamma, qpochhammer
from .raysum import RaySpec, choose_ray, g_plus, big_G, P_minus, P_plus

__all__ = [
    "ConvergenceError",
    "DomainError",
    "ModularPoint",
    "Truncation",
    "RaySpec",
    "choose_ray",
    "euler_series",
    "eta",
    "q_gamma",
    "qpochhammer",
    "g_plus",
    "big_G",
    "P_minus",
    "P_plus",
]

__version__ = "0.1.0"
