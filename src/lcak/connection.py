"""Levi-Civita connection, curvature and the canonical Ricci forms.

For a left-invariant metric the Koszul formula collapses to

    2 g(D_X Y, Z) = g([X,Y], Z) - g([Y,Z], X) + g([Z,X], Y),

and every covariant derivative of an invariant tensor is algebraic:
(D_X phi)(Y, Z) = -phi(D_X Y, Z) - phi(Y, D_X Z).

Curvature follows the convention  R_{X,Y} = D_{[X,Y]} - [D_X, D_Y];
the star-Ricci form is  rho*(X, Y) = -1/2 tr(J o R_{X,Y})  (equivalently
1/2 sum_i g(R_{X,Y} e_i, J e_i) over a g-orthonormal frame), and the
first canonical Hermitian connection is  D - 1/2 J (DJ).

The Christoffel table, the stack of D_{e_i} J and the curvature endomorphisms
are contractions (``Field.einsum``) of the algebra's ``structure_tensor``
with g, g^{-1} and J; each is computed once per structure and read
everywhere after that.  In exact mode every table is a
:class:`~lcak.arith.QArray`, so contractions and their sums run on integer
numerators; float mode runs the same expressions on float arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import arith
from .forms import KForm
from .hermitian import AlmostHermitianStructure


@dataclass
class ConnectionTable:
    """Christoffel data: gamma[i] is the matrix of Y -> D_{e_i} Y, stacked
    into one read-only (dim, dim, dim) array."""
    structure: AlmostHermitianStructure
    gamma: np.ndarray

    def __post_init__(self):
        self.gamma.flags.writeable = False

    @cached_property
    def DJ(self):
        """Stack of the endomorphisms D_{e_i} J = [Gamma_i, J], shape (dim, dim, dim)."""
        f, J, gamma = self.structure.field, self.structure.J, self.gamma
        return f.einsum('iab,bc->iac', gamma, J) - f.einsum('ab,ibc->iac', J, gamma)

    def metric_residual(self) -> float:
        """max |g(D_X Y, Z) + g(Y, D_X Z)| over basis triples."""
        g = self.structure.g
        return arith.max_abs(self.gamma.transpose(0, 2, 1) @ g + g @ self.gamma)

    def torsion_residual(self) -> float:
        """max |D_X Y - D_Y X - [X, Y]| over basis pairs."""
        gamma = self.gamma  # gamma[i, :, j] = D_{e_i} e_j
        return arith.max_abs(gamma.transpose(1, 0, 2) - gamma.transpose(1, 2, 0)
                             - self.structure.alg.structure_tensor)

    def koszul_residual(self) -> float:
        """Defect of the Koszul formula itself, all basis triples."""
        s = self.structure
        lhs = 2 * s.field.einsum('imj,mk->ijk', self.gamma, s.g)
        return arith.max_abs(lhs - _koszul_table(s))


def _koszul_table(structure):
    """Koszul table w[i,j,k] = 2 g(D_{e_i} e_j, e_k)
    = g([e_i,e_j],e_k) - g([e_j,e_k],e_i) + g([e_k,e_i],e_j)."""
    # cg[i, j, k] = g([e_i, e_j], e_k)
    cg = structure.field.einsum('lij,lk->ijk', structure.alg.structure_tensor, structure.g)
    return cg - cg.transpose(2, 0, 1) + cg.transpose(1, 2, 0)


def levi_civita(structure: AlmostHermitianStructure) -> ConnectionTable:
    """Connection table from the left-invariant Koszul formula."""
    f = structure.field
    gamma = f.einsum('mk,ijk->imj', structure.g_inv, _koszul_table(structure))
    return ConnectionTable(structure=structure, gamma=f.scalar(1, 2) * gamma)


# ---------------------------------------------------------------------------
# covariant derivatives of invariant tensors
# ---------------------------------------------------------------------------

def covariant_one_form(structure, theta):
    """D theta as the 2-tensor (X, Y) -> (D_X theta)(Y) = -theta(D_X Y)."""
    vec = theta.vector() if isinstance(theta, KForm) else theta
    return -structure.field.einsum('m,imj->ij', vec, structure.connection.gamma)


def covariant_J(structure, i):
    """(D_{e_i} J) as an endomorphism matrix: [Gamma_i, J]."""
    return structure.connection.DJ[i]


def covariant_F(structure, i) -> KForm:
    """(D_{e_i} F); equals g((D_{e_i} J) ., .)."""
    fm, gi = structure.f_matrix, structure.connection.gamma[i]
    return KForm.from_matrix(structure.alg, -(gi.T @ fm + fm @ gi))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

@dataclass
class CurvatureTensor:
    """R_{e_i, e_j} endomorphisms plus the (0,4) components on demand."""
    structure: AlmostHermitianStructure
    endos: np.ndarray  # endos[i][j] = matrix of R_{e_i, e_j}

    def endomorphism(self, i, j):
        return self.endos[i][j]

    @cached_property
    def components(self):
        """R4[i][j][k][l] = g(R_{e_i,e_j} e_k, e_l)."""
        s = self.structure
        return self.endos.transpose(0, 1, 3, 2) @ s.g

    def antisymmetry_residual(self) -> float:
        comp = self.components
        return max(arith.max_abs(comp + comp.transpose(1, 0, 2, 3)),
                   arith.max_abs(comp + comp.transpose(0, 1, 3, 2)))

    def pair_symmetry_residual(self) -> float:
        comp = self.components
        return arith.max_abs(comp - comp.transpose(2, 3, 0, 1))

    def bianchi_residual(self) -> float:
        """First Bianchi identity on basis triples."""
        r = self.endos.transpose(0, 1, 3, 2)  # r[i, j, k] = R_{e_i, e_j} e_k
        return arith.max_abs(r + r.transpose(2, 0, 1, 3) + r.transpose(1, 2, 0, 3))


def curvature_of(structure, gamma) -> CurvatureTensor:
    """Curvature of an arbitrary connection table, R_{X,Y} = D_{[X,Y]} - [D_X, D_Y]."""
    f, c = structure.field, structure.alg.structure_tensor
    prod = f.einsum('iab,jbc->ijac', gamma, gamma)  # prod[i, j] = Gamma_i Gamma_j
    bracket = f.einsum('kij,kab->ijab', c, gamma)   # D_{[e_i, e_j]}
    return CurvatureTensor(structure=structure,
                           endos=bracket - (prod - prod.transpose(1, 0, 2, 3)))


def curvature(structure) -> CurvatureTensor:
    return curvature_of(structure, structure.connection.gamma)


def star_ricci(structure, curv: CurvatureTensor = None) -> KForm:
    """rho*(X, Y) = -1/2 tr(J o R_{X,Y}); frame independent.

    With the curvature of the Levi-Civita connection (the default) this is
    the star-Ricci form; with the curvature of a Hermitian connection nabla it
    is its Hermitian-Ricci form 1/2 sum_i g(R^nabla_{X,Y} e_i, J e_i).
    """
    curv = curv or structure.curvature
    prod = structure.J @ curv.endos  # prod[i, j] = J R_{e_i, e_j}
    return KForm.from_matrix(structure.alg, structure.field.scalar(-1, 2)
                             * prod.trace(axis1=2, axis2=3))


def torsion_potential(structure):
    """The endomorphisms -1/2 J (D_{e_i} J) defining the first canonical
    connection, stacked as a (dim, dim, dim) array."""
    f = structure.field
    return f.einsum('ab,ibc->iac', f.scalar(-1, 2) * structure.J, structure.connection.DJ)


def first_canonical_connection(structure) -> ConnectionTable:
    """nabla^0 = D - 1/2 J (DJ)."""
    return ConnectionTable(structure=structure,
                           gamma=structure.connection.gamma + torsion_potential(structure))


def phi_form(structure) -> KForm:
    """Phi(X, Y) = 1/4 <J (D_X J), D_Y J>_g = 1/4 tr(g^-1 (J D_X J)^T g D_Y J)."""
    s, dj = structure, structure.connection.DJ
    jdj = (s.J @ dj).transpose(0, 2, 1)[:, None]  # (J D_{e_i} J)^T at [i, 0]
    prod = s.g_inv @ jdj @ s.g @ dj  # [i, j]: the product traced
    return KForm.from_matrix(s.alg, s.field.scalar(1, 4) * prod.trace(axis1=2, axis2=3))


@dataclass
class RicciForms:
    """Star-Ricci, Phi, and the Hermitian-Ricci forms of the canonical family."""
    rho_star: KForm
    phi: KForm
    gamma0: KForm           # from the curvature of nabla^0
    gamma0_identity_residual: float  # | gamma0 - (rho* + Phi) |

    structure: AlmostHermitianStructure = None

    def gamma(self, t):
        """gamma^t = gamma^0 - (t (n-1)/2) d J theta  (t = 1 Chern, -1 Bismut)."""
        s = self.structure
        return self.gamma0 + (-t * s.field.scalar(s.n - 1, 2)) * s.lee_form().djtheta

    @property
    def chern(self):
        return self.gamma(1)

    @property
    def bismut(self):
        return self.gamma(-1)


def canonical_connection_forms(structure) -> RicciForms:
    """Compute gamma^0 two independent ways and package the family."""
    rho = star_ricci(structure)
    phi = phi_form(structure)
    gamma0 = star_ricci(structure,
                        curvature_of(structure, first_canonical_connection(structure).gamma))
    diff = gamma0 - (rho + phi)
    scale = max(1.0, rho.max_abs(), phi.max_abs(), gamma0.max_abs())
    return RicciForms(rho_star=rho, phi=phi, gamma0=gamma0,
                      gamma0_identity_residual=diff.max_abs() / scale,
                      structure=structure)
