"""Exterior calculus on a Lie algebra: wedge, d, contraction, Hodge star.

The differential is the Chevalley-Eilenberg one (d a (X,Y) = -a([X,Y]) on
1-forms); d^2 = 0 is literally the Jacobi identity, demonstrated at the end.
"""
from fractions import Fraction

from lcak import KForm, LieAlgebra, AlmostHermitianStructure, form_inner_product, hodge_star

alg = LieAlgebra(4, {(2, 4): {1: 1}, (3, 4): {2: 1}})

e = [KForm.basis_one_form(alg, i) for i in range(4)]
print("d e^1 =", e[0].d(), "   (the only relations are [e2,e4]=e1, [e3,e4]=e2)")
print("d e^2 =", e[1].d())
print("d e^3 =", e[2].d(), "  d e^4 =", e[3].d())

alpha = 2 * e[0] - 3 * e[2]
beta = e[1].wedge(e[3])
print("\nalpha            =", alpha)
print("alpha ^ alpha    =", alpha.wedge(alpha))
print("alpha ^ beta     =", alpha.wedge(beta))
print("Leibniz check    :", (alpha.wedge(beta)).d() ==
      alpha.d().wedge(beta) - alpha.wedge(beta.d()))

# contraction is an antiderivation: i_X(a ^ b) = a(X) b - a ^ i_X b
x = [Fraction(0), Fraction(1), Fraction(0), Fraction(2)]  # e2 + 2 e4
lhs = alpha.wedge(beta).contract(x)
rhs = alpha(x) * beta - alpha.wedge(beta.contract(x))
print("\ni_X antiderivation check:", lhs == rhs, "  i_X(alpha^beta) =", lhs)

s = AlmostHermitianStructure(alg, [[0, 0, -1, 0], [0, 0, 0, -1],
                                   [1, 0, 0, 0], [0, 1, 0, 0]])
print("\nvolume F^2/2     =", s.volume, "  (orientation making F^n/n! positive)")
print("star F           =", hodge_star(s.F, s.g_inv, s.volume), " (self-dual)")
two = e[0].wedge(e[1])
print("star e^12        =", hodge_star(two, s.g_inv, s.volume))
print("<e^13, e^13>     =", form_inner_product(e[0].wedge(e[2]),
                                               e[0].wedge(e[2]), s.g_inv))

theta = s.lee_form().theta
cartan_lhs = s.F.lie_derivative(s.lee_form().T)
cartan_rhs = s.F.d().contract(s.lee_form().T) + s.F.contract(s.lee_form().T).d()
print("\nCartan formula L_T F = i_T dF + d i_T F:", cartan_lhs == cartan_rhs)
print("L_T F =", cartan_lhs, " (the Lee field preserves F)")

# d . d = 0 encodes Jacobi: break it and watch d^2 fail.  The Jacobi
# defect of these constants points along e3, so probe with e^3.
bad = {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {1: 1}}
broken = LieAlgebra(3, bad)
report = broken.validate()
print("\nnon-Jacobi constants: ok =", report.ok,
      " residual =", report.jacobi_residual)
omega = KForm.basis_one_form(broken, 2)
print("on that algebra, d(d e^3) =", omega.d().d(), " (nonzero!)")
