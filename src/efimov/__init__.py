"""Numerical toolkit for three-body Efimov physics with short-range
resonant interactions.

Library layers
--------------
numerics          quadrature, root finding, level isolation
two_body          potentials, zero-energy scattering, form factors, dimer poles
channels          hyperangular channel exponents s_n
hyperradial       1D hyperradial bound states, three-body phase
universal         zero-range universal formula and relations
stm               momentum-space integral equations (the quantitative oracle)
born_oppenheimer  heavy-heavy-light adiabatic picture
cli               batch front-end

All internal physics is in natural units hbar = m = 1; unit conversion
happens only at the CLI boundary.
"""

__version__ = "0.1.0"

from .channels import LAMBDA0, S0

__all__ = ["S0", "LAMBDA0", "__version__"]
