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
everywhere after that.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import arith
from .forms import KForm
from .hermitian import AlmostHermitianStructure, Tensor2


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
        f, J = self.structure.field, self.structure.J
        return f.einsum('iab,bc->iac', self.gamma, J) - f.einsum('ab,ibc->iac', J, self.gamma)

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
    gamma = f.einsum('mk,ijk->imj', f.scalar(1, 2) * structure.g_inv, _koszul_table(structure))
    return ConnectionTable(structure=structure, gamma=gamma)


# ---------------------------------------------------------------------------
# covariant derivatives of invariant tensors
# ---------------------------------------------------------------------------

def covariant_one_form(structure, theta) -> Tensor2:
    """D theta as the 2-tensor (X, Y) -> (D_X theta)(Y) = -theta(D_X Y)."""
    vec = theta.vector() if isinstance(theta, KForm) else np.asarray(theta)
    return Tensor2(structure.alg, -structure.field.einsum('m,imj->ij', vec,
                                                         structure.connection.gamma))


def covariant_J(structure, i):
    """(D_{e_i} J) as an endomorphism matrix: [Gamma_i, J]."""
    return structure.connection.DJ[i]


def covariant_F(structure, i) -> KForm:
    """(D_{e_i} F); equals g((D_{e_i} J) ., .)."""
    return KForm.from_matrix(structure.alg,
                             -(structure.connection.gamma[i].T @ structure.f_matrix
                               + structure.f_matrix @ structure.connection.gamma[i]))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

@dataclass
class CurvatureTensor:
    """R_{e_i, e_j} endomorphisms plus the (0,4) components on demand."""
    structure: AlmostHermitianStructure
    endos: np.ndarray  # endos[i][j] = matrix of R_{e_i, e_j}
    _components: object = field(default=None, repr=False)

    def endomorphism(self, i, j):
        return self.endos[i][j]

    @property
    def components(self):
        """R4[i][j][k][l] = g(R_{e_i,e_j} e_k, e_l)."""
        if self._components is None:
            g = self.structure.g
            dim = self.structure.dim
            comp = [[(self.endos[i][j].T @ g) for j in range(dim)] for i in range(dim)]
            self._components = comp
        return self._components

    def antisymmetry_residual(self) -> float:
        comp = self.components
        dim = self.structure.dim
        worst = 0.0
        for i in range(dim):
            for j in range(dim):
                worst = max(worst, arith.max_abs(comp[i][j] + comp[j][i]))
                worst = max(worst, arith.max_abs(comp[i][j] + comp[i][j].T))
        return worst

    def pair_symmetry_residual(self) -> float:
        comp = self.components
        dim = self.structure.dim
        worst = 0.0
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    for l in range(dim):
                        worst = max(worst, abs(float(comp[i][j][k, l] - comp[k][l][i, j])))
        return worst

    def bianchi_residual(self) -> float:
        """First Bianchi identity on basis triples."""
        dim = self.structure.dim
        worst = 0.0
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    v = (self.endos[i][j][:, k] + self.endos[j][k][:, i]
                         + self.endos[k][i][:, j])
                    worst = max(worst, arith.max_abs(v))
        return worst


def curvature_of(structure, gamma) -> CurvatureTensor:
    """Curvature of an arbitrary connection table, R_{X,Y} = D_{[X,Y]} - [D_X, D_Y]."""
    f = structure.field
    prod = f.einsum('iab,jbc->ijac', gamma, gamma)  # prod[i, j] = Gamma_i Gamma_j
    endos = (f.einsum('kij,kab->ijab', structure.alg.structure_tensor, gamma)
             - (prod - prod.transpose(1, 0, 2, 3)))
    return CurvatureTensor(structure=structure, endos=endos)


def curvature(structure) -> CurvatureTensor:
    return curvature_of(structure, structure.connection.gamma)


def star_ricci(structure, curv: CurvatureTensor = None) -> KForm:
    """rho*(X, Y) = -1/2 tr(J o R_{X,Y}); frame independent.

    With the curvature of the Levi-Civita connection (the default) this is
    the star-Ricci form; with the curvature of a Hermitian connection nabla it
    is its Hermitian-Ricci form 1/2 sum_i g(R^nabla_{X,Y} e_i, J e_i).
    """
    curv = curv or structure.curvature
    dim = structure.dim
    half = structure.field.scalar(1, 2)
    coeffs = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            val = -half * np.trace(structure.J @ curv.endos[i][j])
            if val != 0:
                coeffs[(i, j)] = val
    return KForm(structure.alg, 2, coeffs)


def star_ricci_frame_sum(structure, frame) -> KForm:
    """rho* computed as 1/2 sum_i g(R_{X,Y} f_i, J f_i) over the given frame.

    Cross-check for the trace formula; ``frame`` rows must be g-orthonormal.
    """
    curv = structure.curvature
    g = structure.g
    J = structure.J
    dim = structure.dim
    coeffs = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            val = 0
            for f in frame:
                val = val + 0.5 * (curv.endos[i][j] @ f) @ g @ (J @ f)
            if val != 0:
                coeffs[(i, j)] = val
    return KForm(structure.alg, 2, coeffs)


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
    """Phi(X, Y) = 1/4 <J (D_X J), D_Y J>_g."""
    dim = structure.dim
    quarter = structure.field.scalar(1, 4)
    djs = structure.connection.DJ
    coeffs = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            val = quarter * structure.endo_inner(structure.J @ djs[i], djs[j])
            if val != 0:
                coeffs[(i, j)] = val
    return KForm(structure.alg, 2, coeffs)


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
        lee = s.lee_form()
        djt = lee.jtheta.d()
        return self.gamma0 + (-t * s.field.scalar(s.n - 1, 2)) * djt

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
