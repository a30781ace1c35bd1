#!/usr/bin/env python3
"""Orbit degenerations: witness verification, evidence, and the diagram.

Run:  python3 demos/04_degenerations.py
"""

from lietriple import catalog
from lietriple import degeneration as dg
from lietriple.scalars import GaussianRational, RationalFunction

G = GaussianRational

print("=== Verifying a parametrized-basis witness ===")
witness = dg.table2_witness(9)  # needs the imaginary unit in one basis vector
print("basis rows:", witness.basis.to_strings())
report = dg.verify_degeneration(witness)
print(report)

print("\n=== Transported constants and their limits ===")
system = catalog.instantiate("T4,3")
basis = dg.table2_witness(7).basis
moved = dg.transport_constants(system, basis)
for idx in ((1, 2, 1, 3), (1, 2, 2, 4)):
    i, j, k, p = idx
    value = RationalFunction.of(moved[i - 1][j - 1][k - 1][p - 1])
    print(f"c'{idx} = {value}  ->  limit {value.limit_at_zero()}")

print("\n=== A family degeneration with a parametrized index ===")
family = dg.table4_witness()
print("index function f(t) =", family.index_fn)
print(dg.verify_degeneration(family))

print("\n=== Non-degenerations: two exact levels ===")
# a necessary-condition certificate: dim [T,T,T] cannot grow
cert = dg.necessary_conditions(catalog.instantiate("T4,5"), catalog.instantiate("T4,9"))
print("T4,5 -/-> T4,9 :", cert)

# a flattening rank, z -> [.,.,z], cannot grow either
cert = dg.necessary_conditions(catalog.instantiate("T4,9"), catalog.instantiate("T4,3"))
print("T4,9 -/-> T4,3 :", cert, "| Z ranks", cert.values["Z"])

# separating-set membership with a Borel-stability proof; the locus is
# stable under the lower-triangular Lie algebra, hence under its connected group
separating = dg.table3_separating_set(3)
print("T4,9 in its separating set:", separating.contains(catalog.instantiate("T4,9")))
print("T4,3 in it:", separating.contains(catalog.instantiate("T4,3")))
print(dg.borel_stability_evidence(separating))

print("\n=== The degeneration diagram ===")
graph = dg.degeneration_graph(4)
for stratum in sorted({n.figure_stratum for n in graph.nodes}, reverse=True):
    members = [n for n in graph.nodes if n.figure_stratum == stratum]
    names = ", ".join(f"{n.name} (orbit {n.orbit_dim})" for n in members)
    print(f"stratum {stratum:2d}: {names}")
for edge in sorted(graph.edges, key=lambda e: (e.source, e.target)):
    print(f"  {edge.source} -> {edge.target}  [{edge.kind}]")
print("maximal nodes:", ", ".join(graph.maximal))

graph3 = dg.degeneration_graph(3)
print("\ndimension 3:", ", ".join(f"{n.name} (orbit {n.orbit_dim})" for n in graph3.nodes),
      "| maximal:", ", ".join(graph3.maximal))
