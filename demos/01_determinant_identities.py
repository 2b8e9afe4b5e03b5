"""Tour of the three determinant families and their structural identities.

Everything here is exact: coefficients are Gaussian rationals, so "equal"
means identical reduced objects, never "close".
"""

from fractions import Fraction

from casorati import ExpPoly, Poly, casoratian_imag, casoratian_real, wronskian
from casorati.identities import (
    check_cas_real_corollary,
    check_classical_limit,
    check_sum_formula,
    check_theorem,
    run_identity_suite,
)
from casorati.sampling import SamplerConfig

x = Poly([0, 1])

# ---------------------------------------------------------------------------
# The three families on tiny inputs
# ---------------------------------------------------------------------------
print("W[x, x^2]          =", wronskian([ExpPoly(x), ExpPoly(x * x)]).p)
print("W[e^{+}, e^{-}]    =", wronskian([ExpPoly(1, a=1), ExpPoly(1, a=-1)]).p,
      " (prefactors cancel)")
print("W_g[x, x^2], g=2   =", casoratian_imag([x, x * x], 2))
print("W_C[x, x^2]        =", casoratian_real([x, x * x]))

# ---------------------------------------------------------------------------
# The two-column identities: the m = 2 rows of the three theorems, checked
# by check_theorem with us = [g, h].  Note the x+1 shift on the real-shift
# right-hand factor: it is the signature difference between the lattice
# family and the other two.
# ---------------------------------------------------------------------------
fs = [x, x * x + 1]
g, h = x + 2, x ** 3
for name, report in [
    ("differential ", check_theorem("wronskian", [ExpPoly(f, a=-1) for f in fs],
                                    [ExpPoly(g, a=-1), ExpPoly(h, a=-1)])),
    ("imag shift   ", check_theorem("cas-imag", fs, [g, h], Fraction(1, 2))),
    ("real shift   ", check_theorem("cas-real", fs, [g, h])),
]:
    print(f"two-column {name}: lhs == rhs -> {report.passed}")

# ---------------------------------------------------------------------------
# The corollaries are verified radical-free: both sides squared (and to the
# 4th power for the signed lattice variant), then cross-multiplied.
# ---------------------------------------------------------------------------
report = check_cas_real_corollary([x + 2], [Poly.one(), x * x], x ** 3)
print("real-shift corollary, squared + signed:", report.passed, "|", report.note)

# ---------------------------------------------------------------------------
# The binomial sum formula and the shrinking-shift limit
# ---------------------------------------------------------------------------
print("sum formula (j <= 10):", check_sum_formula(10).passed)
print("classical limit ([x, x^2], 4 halvings):",
      check_classical_limit([x, x * x], Fraction(1), 4).passed)

# ---------------------------------------------------------------------------
# A seeded mini-sweep over all 18 checkers; the full acceptance run uses
# 200 trials per checker (see tests/test_acceptance.py).
# ---------------------------------------------------------------------------
reports = run_identity_suite(SamplerConfig(trials=5, master_seed=42))
failures = [r for r in reports if not r.passed]
print(f"mini-sweep: {len(reports)} checks, {len(failures)} failures")
