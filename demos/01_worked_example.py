"""Worked example: a pluricanonical metric on a 3-step nilpotent algebra.

The algebra has brackets [e2,e4] = e1, [e3,e4] = e2.  With the almost
complex structure J e1 = e3, J e2 = e4 and the orthonormal metric, every
derived tensor is exact rational, so everything below prints in closed form.
"""
from lcak import (LieAlgebra, AlmostHermitianStructure, classify_metric,
                  covariant_one_form, star_ricci, verify_equivalences)

alg = LieAlgebra(4, {(2, 4): {1: 1}, (3, 4): {2: 1}})
print("algebra valid:", alg.validate().ok, "| unimodular:", alg.is_unimodular()[0])

J = [[0, 0, -1, 0],
     [0, 0, 0, -1],
     [1, 0, 0, 0],
     [0, 1, 0, 0]]
s = AlmostHermitianStructure(alg, J)

print("\nfundamental form  F  =", s.F)
print("dF                   =", s.F.d())

lee = s.lee_form()
print("\nLee form       theta =", lee.theta, " (solves dF = theta ^ F exactly)")
print("d theta              =", lee.theta.d())
print("Lee field          T =", lee.T)
print("characteristic     V =", lee.V, "  (i_V F = theta, and J V = T)")

print("\nNijenhuis N(e1, e2)  =", s.nijenhuis(s.basis_vector(0), s.basis_vector(1)))
print("image of N spans     =", [list(v) for v in s.nijenhuis_image()])

dtheta = covariant_one_form(s, lee.theta)
print("\nD theta (rows = direction):")
print(dtheta)
parts = s.split_tensor(dtheta)
print("J-invariant part of D theta vanishes:", (parts["j_plus"] == 0).all())

print("\nd(J theta)           =", lee.jtheta.d())
print("-|theta|^2 F + theta ^ J theta =",
      -1 * lee.norm_sq * s.F + lee.theta.wedge(lee.jtheta))

rho = star_ricci(s)
print("\nstar-Ricci form      =", rho, "   rho*(T, JT) =", rho(lee.T, lee.JT))

report = classify_metric(s)
interesting = ("is_lcs", "first_kind", "adapted", "pluricanonical",
               "anti_pluricanonical", "vaisman", "is_gauduchon")
print("\nflags:")
for key in interesting:
    print(f"  {key:<20} {report.flags[key]}")

eq = verify_equivalences(s, report=report)
print("\ntheorem-level equivalences consistent:", eq["all_consistent"])
print("g([T, JT], JT) =", eq["unimodular_bracket"]["g_T_JT_JT"],
      " (zero iff pluricanonical, on unimodular algebras with T orth im N)")
