#!/usr/bin/env python3
"""Cocycle cohomology and the annihilator-extension construction.

Every nilpotent system of dimension n with an m-dimensional annihilator is an
extension of an (n-m)-dimensional one by a cocycle; this script walks the
machinery that rebuilds the whole dimension-4 classification that way.

Run:  python3 demos/02_cohomology_and_extensions.py
"""

from lietriple import catalog
from lietriple.cohomology import (
    Cocycle,
    a_theta,
    coboundary_space,
    cocycle_space,
    cohomology,
)
from lietriple.extension import ExtensionSpec, extend, extension_annihilator, in_ts

t21 = catalog.instantiate("T2,1")
t31 = catalog.instantiate("T3,1")
t32 = catalog.instantiate("T3,2")

print("=== Cocycle spaces of the small systems ===")
for name, system in (("T2,1", t21), ("T3,1", t31), ("T3,2", t32)):
    z3 = cocycle_space(system)
    b3 = coboundary_space(system)
    h3, _ = cohomology(system)
    print(f"{name}: dim Z3 = {z3.dim}, dim B3 = {b3.dim}, dim H3 = {h3}")

print("\n=== Extending the abelian plane by one cocycle ===")
theta = Cocycle(t21, {(1, 2, 1): 1})
built = extend(ExtensionSpec(t21, [theta]))
print("T2,1 extended by D[1,2,1] equals T3,2:", built == t32)
print("annihilator of the extension:", extension_annihilator(ExtensionSpec(t21, [theta])).dim)

print("\n=== The two-dimensional extension gives T4,3 ===")
spec = ExtensionSpec(t21, [Cocycle(t21, {(1, 2, 1): 1}), Cocycle(t21, {(1, 2, 2): 1})])
print("equals T4,3:", extend(spec) == catalog.instantiate("T4,3"))

print("\n=== Extensions of T3,1 via the trace-zero matrix encoding ===")
theta = Cocycle(t31, {(2, 3, 2): 1, (1, 3, 3): -1})
print("encoding of D[2,3,2] - D[1,3,3]:")
for row in a_theta(theta):
    print("  ", [str(x) for x in row])
print("lies in the good stratum (zero radical meet, independent class):",
      in_ts(ExtensionSpec(t31, [theta])))
print("extension equals T4,4:", extend(ExtensionSpec(t31, [theta])) == catalog.instantiate("T4,4"))

print("\n=== The three extensions of T3,2 ===")
for coeffs, name in (
    ({(1, 2, 3): 1, (1, 3, 2): 1}, "T4,7"),
    ({(1, 3, 1): 1, (1, 2, 2): 1}, "T4,8"),
    ({(1, 3, 1): 1}, "T4,9"),
):
    built = extend(ExtensionSpec(t32, [Cocycle(t32, coeffs)]))
    target = catalog.instantiate(name)
    print(f"class {sorted(coeffs)} -> {name}:",
          built.fingerprint() == target.fingerprint())

print("\n=== Cohomologous cocycles give isomorphic extensions ===")
from lietriple.cohomology import coboundary_of

theta = Cocycle(t32, {(1, 2, 1): -1, (1, 2, 2): -2, (1, 3, 1): 2})
shifted = theta + coboundary_of(t32, [-3, -3, 3])
a = extend(ExtensionSpec(t32, [theta]))
b = extend(ExtensionSpec(t32, [shifted]))
print("fingerprints agree:", a.fingerprint() == b.fingerprint())
