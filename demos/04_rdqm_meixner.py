"""The full lattice pipeline on the Meixner model, at 256-bit precision.

Builds the tri-diagonal model, solves negative-energy seeds by recurrence,
deforms with a mixed seed set, replays the square-root-rule derivation step
by step (no radical is ever evaluated), compares the two deformation routes,
and verifies the spectrum of the truncated deformed Hamiltonian.
"""

from fractions import Fraction

import mpmath

from casorati.rdqm import (
    build_meixner_model,
    darboux_chain_replay,
    residual,
    solve_seed_at_energy,
    spectrum_check,
    two_path_compare_rdqm,
)

model = build_meixner_model(Fraction(2), Fraction(1, 3), n_max=8, x_max=80,
                            precision_bits=256)
print("eigenpair residual at n=3:", mpmath.nstr(residual(model, model.eigen(3), 3), 5))

# ---------------------------------------------------------------------------
# Seeds at generic negative energies, marched by the three-term recurrence;
# admissibility (definite sign) is checked, not assumed.
# ---------------------------------------------------------------------------
dv = [Fraction(-3, 5), Fraction(-17, 10)]
seeds = [solve_seed_at_energy(model, e) for e in dv]
print("seed sign-definiteness:",
      [all(v > 0 for v in s.values) or all(v < 0 for v in s.values) for s in seeds])

# ---------------------------------------------------------------------------
# Step-by-step replay of the tracked-radical derivation.  The intermediate
# seed sets violate the admissibility condition (that is the point), yet the
# closed form is reached with the correct emergent sign at every step.
# ---------------------------------------------------------------------------
tol = mpmath.mpf(10) ** -25
for rep in darboux_chain_replay(model, dv, [1, 2], 0, tol):
    print(f"  step s={rep.params['s']}: pass={rep.passed} "
          f"deviation={rep.params['max_relative_deviation']} "
          f"emergent sign={rep.params['sigma_s1']}")

# ---------------------------------------------------------------------------
# Two-path equality with the exact sign, and the spectrum of the truncated
# deformed Hamiltonian: levels 1 and 2 are gone, everything else survives.
# ---------------------------------------------------------------------------
report = two_path_compare_rdqm(model, dv, [1, 2], 0, tol, compare_up_to=40)
print("\ntwo-path n=0:", report.passed,
      "deviation:", report.params["max_relative_deviation"],
      "epsilon_D:", report.params["epsilon"])

spectrum = spectrum_check(model, dv, [1, 2], 60, 5,
                          mpmath.mpf(10) ** -8, mpmath.mpf(10) ** -9)
print("\nlowest 5 deformed eigenvalues:")
for value, expected in zip(spectrum["eigenvalues"], spectrum["expected"]):
    print(f"  {value}   (expected {expected})")
print("truncation sensitivity:", spectrum["sensitivity"])
