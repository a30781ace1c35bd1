#!/usr/bin/env python3
"""Tour of the core objects: building systems, checking axioms, invariants.

Run:  python3 demos/01_systems_and_invariants.py
"""

from lietriple import QI_I, catalog, complete_table, direct_sum, lts_from_lie

print("=== Building a system from a partial multiplication table ===")
# only the generating product is listed; antisymmetry and the cyclic identity
# close the rest, and the completed tensor is axiom-checked
t32 = complete_table(3, {(1, 2, 1): [0, 0, 1]})
print("dim:", t32.dim)
print("[e1,e2,e1] =", t32.product(1, 2, 1))
print("[e2,e1,e1] =", t32.product(2, 1, 1), " (forced by antisymmetry)")
print("axioms:", t32.check_axioms())

print("\n=== The cyclic identity can force products ===")
t45 = catalog.instantiate("T4,5")
print("[e2,e3,e1] =", t45.product(2, 3, 1))
print("[e3,e1,e2] =", t45.product(3, 1, 2))
print("[e1,e2,e3] =", t45.product(1, 2, 3), " (forced: the cyclic sum must vanish)")

print("\n=== Structural invariants ===")
for name in ("T4,2", "T4,5", "T4,7", "T4,8"):
    system = catalog.instantiate(name)
    nil = system.nilpotency()
    print(f"{name}: Ann {system.annihilator().dim}, [T,T,T] {system.derived().dim}, "
          f"Der {system.derivations()[0]}, orbit {system.orbit_dimension()}, "
          f"series {list(nil.series_dims)}")

print("\n=== Direct sums and systems induced by Lie algebras ===")
t42 = direct_sum(catalog.instantiate("T3,2"), catalog.instantiate("T1,1"))
print("T3,2 + point == T4,2:", t42 == catalog.instantiate("T4,2"))

# sl2 with [e,f] = h, [h,e] = 2e, [h,f] = -2f induces [x,y,z] = [[x,y],z]
z = [0, 0, 0]
bracket = [[list(z) for _ in range(3)] for _ in range(3)]
bracket[0][1] = [0, 0, 1]
bracket[1][0] = [0, 0, -1]
bracket[2][0] = [2, 0, 0]
bracket[0][2] = [-2, 0, 0]
bracket[2][1] = [0, -2, 0]
bracket[1][2] = [0, 2, 0]
sl2 = lts_from_lie(bracket)
print("sl2 triple product [e,f,e] =", sl2.product(1, 2, 1))
print("sl2 nilpotent:", sl2.nilpotency().is_nilpotent,
      "- the series stabilizes at dimension",
      sl2.nilpotency().series_dims[-1])

print("\n=== Fingerprints are basis-change invariants ===")
# a unimodular change of basis with a Gaussian entry
g = [[-1, 0, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0],
     [0, 1, 0, -1 + QI_I]]
system = catalog.instantiate("T4,9")
moved = system.change_basis(g)
print("fingerprint:", system.fingerprint())
print("after a random basis change:", moved.fingerprint() == system.fingerprint())
