"""Power-basis polynomials as the ChebyshevPoly that blockcalc.qsvt_transform applies.

A ChebyshevPoly evaluates sum_k c_k T_k(2x), so the power term a_k x^k is
(a_k / 2^k) (2x)^k: cheb_poly converts the scaled coefficients with numpy's
poly2cheb, as chebyshev.approx_derivative converts a poly F'.  Tests take
their expected values from numpy's Polynomial on the same a_k, which shares
no code with ChebyshevPoly's evaluation.
"""

from numpy.polynomial import chebyshev as ncheb

from blockgd.chebyshev import ChebyshevPoly


def cheb_poly(power_coeffs) -> ChebyshevPoly:
    """The ChebyshevPoly equal to sum_k power_coeffs[k] * x**k, with sup error 0."""
    mapped = [a / 2.0**k for k, a in enumerate(power_coeffs)]
    return ChebyshevPoly(tuple(ncheb.poly2cheb(mapped)), 0.0)
