"""Multi-step Darboux transformations on the harmonic model, exactly.

The model: potential x^2, bound states H_n(x) e^{-x^2/2} at shifted energies
2n, and negative-energy companions q_v(x) e^{+x^2/2} at -2v-2.  Both kinds
are polynomial-times-Gaussian, so deformations stay inside exact arithmetic.
"""

from casorati.oqm import (
    build_harmonic_model,
    deformed_eigenfunction,
    deformed_potential,
    degree_census,
    two_path_compare,
    verify_schrodinger,
)
from casorati.seeds import krein_adler_check

model = build_harmonic_model(n_max=6, v_max=3)
print("levels:", [str(model.eigen_energy(n)) for n in range(5)])
print("negative-energy seeds:", [str(energy) for energy, _ in model.aux[:3]])

# ---------------------------------------------------------------------------
# One virtual-type seed: the potential picks up a constant, nothing is
# deleted, and every level stays an exact solution of the deformed equation.
# ---------------------------------------------------------------------------
seed = model.aux_state(0)
u_d = deformed_potential(model, [seed])
print("\nU_D for the e^{x^2/2} seed:", u_d)
phi = deformed_eigenfunction(model, [seed], 0)
print("phi_D0:", phi.reduce())
print("deformed equation holds exactly:",
      verify_schrodinger(u_d, phi, model.raw_energy(0)))

# ---------------------------------------------------------------------------
# Deleting eigenstates needs the Krein-Adler condition for positive norms.
# ---------------------------------------------------------------------------
print("\nKrein-Adler {1,2}:", krein_adler_check([1, 2]))
print("Krein-Adler {2}:  ", krein_adler_check([2]))

# ---------------------------------------------------------------------------
# Two interpretations of the same deformation: all seeds at once, or the
# virtual seeds first and then eigenstates of the intermediate system.  The
# resulting eigenfunctions must be identical as reduced exact quotients.
# ---------------------------------------------------------------------------
for d_v, d_e, n in [((0,), (1, 2), 0), ((0, 1), (1, 2), 3), ((0, 1), (1, 2), 4)]:
    report = two_path_compare(model, d_v, d_e, n)
    print(f"two-path d_v={d_v} d_e={d_e} n={n}: {report.passed}")

# ---------------------------------------------------------------------------
# The polynomial-degree census distinguishes the two deformation classes:
# a prefix missing set (virtual-only) versus gaps (eigenstate deletions).
# ---------------------------------------------------------------------------
print()
for d_v, d_e in [((0,), ()), ((), (1, 2)), ((0, 1), (1, 2))]:
    census = degree_census(model, d_v, d_e, 6)
    print(f"census d_v={d_v} d_e={d_e}: degrees={census.degrees} "
          f"missing={census.missing} -> {census.classification}")
