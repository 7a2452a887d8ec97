"""Levi-Civita connection, curvature, and the canonical Ricci forms.

Everything is algebraic: the Koszul formula collapses to structure
constants, and the curvature convention R_{X,Y} = D_{[X,Y]} - [D_X, D_Y]
is validated by computing the first canonical Ricci form two independent
ways (from the curvature of nabla^0, and as rho* + Phi).
"""
import numpy as np

from lcak import (AlmostHermitianStructure, LieAlgebra, canonical_connection_forms,
                  covariant_J, covariant_one_form, star_ricci)
from lcak.catalogs import catalog_entry
from lcak.fuzzing import random_compatible_pair, random_unimodular_4d

s = catalog_entry("A4_1")
table = s.connection
print("connection table (D_{e_i} e_j columns), direction e2:")
print(table.gamma[1])
print("torsion residual :", table.torsion_residual())
print("metric residual  :", table.metric_residual())
print("Koszul residual  :", table.koszul_residual())

lee = s.lee_form()
dth = covariant_one_form(s, lee.theta)
print("\nD theta =", dth.tolist())

print("\nD_T J and D_JT J vanish (T is orthogonal to im N):")
for label, x in [("T", lee.T), ("JT", lee.JT)]:
    total = sum(float(x[i]) * np.asarray(covariant_J(s, i), dtype=float).max()
                for i in range(4))
    dj = sum((x[i] * covariant_J(s, i) for i in range(4)),
             np.zeros((4, 4), dtype=object))
    print(f"  |D_{label} J| =", max(abs(float(v)) for v in np.asarray(dj).ravel()))

curv = s.curvature
print("\ncurvature invariants: antisym", curv.antisymmetry_residual(),
      "| pair symmetry", curv.pair_symmetry_residual(),
      "| first Bianchi", curv.bianchi_residual())

rho = star_ricci(s)
print("\nstar-Ricci rho* =", rho)
rf = canonical_connection_forms(s)
print("Phi            =", rf.phi)
print("gamma^0        =", rf.gamma0, "  (two computations agree:",
      rf.gamma0_identity_residual == 0, ")")
print("Chern  gamma^1 =", rf.chern)
print("Bismut gamma^-1=", rf.bismut)

# the identity gamma^0 = rho* + Phi also holds on random float structures
rng = np.random.default_rng(5)
alg = random_unimodular_4d(rng)
jm, g = random_compatible_pair(rng, 4)
sf = AlmostHermitianStructure(alg, jm, g)
rff = canonical_connection_forms(sf)
print("\nrandom structure: |gamma0 - (rho* + Phi)| =",
      f"{rff.gamma0_identity_residual:.2e}")
