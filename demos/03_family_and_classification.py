#!/usr/bin/env python3
"""The one-parameter family, its invariant, and catalog classification.

Run:  python3 demos/03_family_and_classification.py
"""

from fractions import Fraction

from lietriple import catalog
from lietriple.scalars import GaussianRational, QI_I, parse_scalar, scalar_str

G = GaussianRational

print("=== The family member at lambda = 2 ===")
system = catalog.instantiate("T4,6", G(2))
for ijk in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
    print(f"[e{ijk[0]},e{ijk[1]},e{ijk[2]}] =", system.product(*ijk))

print("\n=== The invariant xi separates isomorphism classes ===")
print("xi(2)   =", scalar_str(catalog.xi(G(2))))
print("xi(1/2) =", scalar_str(catalog.xi(G(Fraction(1, 2)))), " (same class)")
print("xi(3)   =", scalar_str(catalog.xi(G(3))), " (different class)")
print("orbit of 2:", [scalar_str(v) for v in catalog.lambda_orbit(G(2))])

print("\n=== Explicit isomorphism witnesses between family members ===")
for k in range(2, 7):
    target, witness = catalog.family_isomorphism(k, G(2))
    moved = catalog.instantiate("T4,6", G(2)).change_basis(witness)
    print(f"sigma_{k}: 2 -> {scalar_str(target)}, exact witness:",
          moved == catalog.instantiate("T4,6", target))

print("\n=== Derivation dimensions split the family ===")
for lam in (G(1), G(-2), G(Fraction(-1, 2)), G(2), G(5), QI_I):
    print(f"lambda = {scalar_str(lam)}: dim Der =",
          catalog.instantiate("T4,6", lam).derivations()[0])

print("\n=== Classifying disguised systems ===")
# a dense change of basis, and a sparse one with a Gaussian entry
dense = [[parse_scalar(x) for x in row] for row in (
    ("1", "1/2+1/4*i", "0", "-1"),
    ("-1/2+1/2*i", "-2+1/4*i", "-3", "2+1/2*i"),
    ("-3/4", "4/3", "2", "-2"),
    ("-3/4", "3/4", "4", "-3/2"))]
sparse = [[0, 0, QI_I, 0],
          [1, 1, 0, 2 + QI_I],
          [1, 0, 0, 2 + QI_I],
          [0, 0, -1, 1]]
for lam in (G(2), G(7), QI_I):
    hidden = catalog.instantiate("T4,6", lam).change_basis(dense)
    result = catalog.classify(hidden)
    in_orbit = result.lam in catalog.lambda_orbit(lam)
    print(f"conjugate of lambda = {scalar_str(lam)} -> {result.name}, "
          f"recovered {scalar_str(result.lam)} ({result.confidence}); "
          f"in the right orbit: {in_orbit}")

hidden = catalog.instantiate("T4,8").change_basis(sparse)
result = catalog.classify(hidden)
print("conjugate of T4,8 ->", result.name, f"({result.confidence})")

print("\n=== The published derivation table, recomputed ===")
for row in catalog.table1_report():
    lam = f" lambda={row['lambda']}" if row["lambda"] else ""
    flag = "ok" if row["match"] else "MISMATCH"
    print(f"{row['system']}{lam}: computed {row['computed']}, published {row['published']} [{flag}]")
