"""Imaginary-shift deformation algebra in radical-tracked form.

Square roots of the shifted potential products never get evaluated: they
ride along as the factors of a PowerProduct, with exponents in (1/8)Z.
Comparisons happen on a power that clears them (a plain rational-function
identity, zero tolerance) plus a sign check at a real sample point where
every tracked radicand is positive.
"""

from fractions import Fraction

from casorati.determinants import casoratian_imag
from casorati.idqm import (
    Shifted,
    check_potential_product_identity,
    check_prefactor_gg,
    deformed_potential_vd,
    two_path_compare_idqm,
)
from casorati.poly import Poly, RationalFn

x = Poly([0, 1])
V = RationalFn(x + 2)
gamma = Fraction(1)

# ---------------------------------------------------------------------------
# The *-operation conjugates coefficients; V V* products at conjugate
# arguments are |.|^2-shaped, which is what keeps radicands real.
# ---------------------------------------------------------------------------
v = Shifted.of(V)
print("star(x + 2) == x + 2 (real V):", v.star() == v)

# ---------------------------------------------------------------------------
# The deformed potential function: a rational cofactor times the square
# root of a shifted V V* product, the factors cof^1 and rad^(1/2), each kept
# as shifted atoms and multiplied out here only to print it.
# ---------------------------------------------------------------------------
vd = deformed_potential_vd(V, [x * x], gamma, Poly.one(), casoratian_imag([x * x], gamma))
(cof, _), (rad, _) = vd.factors
print("V_D cofactor:", cof.expand().reduce())
print("V_D radicand:", rad.expand().reduce())

# ---------------------------------------------------------------------------
# The two prefactor-collapse identities that make the staged route close.
# ---------------------------------------------------------------------------
print("\nprefactor collapse  (l=2, m=2):",
      check_prefactor_gg(V, gamma, 2, 2).passed)
print("potential product   (l=1, m=1):",
      check_potential_product_identity(V, [x * x], gamma, 1).passed)

# ---------------------------------------------------------------------------
# Two-path equality with polynomial stand-ins: one-shot versus staged.
# ---------------------------------------------------------------------------
report = two_path_compare_idqm(V, [x * x], [x + 1], x ** 3, gamma)
print("\ntwo-path (l=1, m=1):", report.passed, "|", report.note)
report = two_path_compare_idqm(V, [x * x, x + 3], [x + 1], x ** 3 - x, gamma)
print("two-path (l=2, m=1):", report.passed, "|", report.note)
