"""Almost abelian algebras: the (a, b, v, A) parametrization and the
4-dimensional unimodular classification.

The algebra has the abelian ideal n = span(e_1 .. e_{2n-1}); everything is
encoded by ad_{e_{2n}} restricted to n, written in the splitting
R e_1 + n_1 (n_1 = span(e_2 .. e_{2n-1})) as the block matrix

        [ a  b ]
        [ v  A ],    a real, b and v in n_1, A an endomorphism of n_1.

The distinguished structure is J e_i = e_{2n+1-i} (i <= n) with the
orthonormal metric, so F = e^1 ^ e^{2n} + ... + e^n ^ e^{n+1}.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import arith
from .algebra import LieAlgebra
from .arith import DEFAULT_TOL
from .errors import Degenerate, DimensionMismatch, PreconditionFailed, UnsupportedDimension
from .forms import KForm
from .hermitian import AlmostHermitianStructure, preset_j


@dataclass
class AlmostAbelianParams:
    """Data (a, b, v, A) of ad_{e_{2n}} restricted to the abelian ideal."""
    n: int
    a: object
    b: tuple
    v: tuple
    A: tuple  # rows, (2n-2) x (2n-2)

    def __post_init__(self):
        if self.n < 2:
            raise UnsupportedDimension("need n >= 2")
        m = 2 * self.n - 2
        self.b = tuple(self.b)
        self.v = tuple(self.v)
        self.A = tuple(tuple(row) for row in self.A)
        if len(self.b) != m or len(self.v) != m:
            raise DimensionMismatch("b and v must have length 2n-2")
        if len(self.A) != m or any(len(r) != m for r in self.A):
            raise DimensionMismatch("A must be (2n-2) x (2n-2)")

    @property
    def exact(self):
        return arith.all_exact([self.a, *self.b, *self.v, *(x for row in self.A for x in row)])

    @property
    def dim(self):
        return 2 * self.n

    def trace_a(self):
        return sum(self.A[i][i] for i in range(2 * self.n - 2))

    def ad_matrix(self):
        """ad_{e_{2n}}|_n as a (2n-1) x (2n-1) matrix over (e_1, .., e_{2n-1})."""
        rows = [[self.a, *self.b]] + [[vi, *row] for vi, row in zip(self.v, self.A)]
        return arith.Field(self.exact).array(rows)


def build_almost_abelian(params: AlmostAbelianParams, tol=DEFAULT_TOL):
    """The Lie algebra and its adapted orthonormal almost Hermitian structure."""
    dim = params.dim
    ad = params.ad_matrix()
    brackets = {(dim, c + 1): {r + 1: ad[r, c] for r in range(dim - 1) if ad[r, c] != 0}
                for c in range(dim - 1)}
    alg = LieAlgebra(dim, brackets, exact=params.exact, tol=tol)
    structure = AlmostHermitianStructure(alg, preset_j("mirror", dim))
    return alg, structure


def lee_form_aa(params: AlmostAbelianParams, structure=None) -> KForm:
    """Lee form of the built structure from the parametrized formula.

    The closed-form value (Jv)^flat - (tr A) e^{2n} equals (n-1) theta in the
    normalization dF = theta ^ F; the division by (n-1) keeps this function
    in agreement with the generic Lee-form solver (factor 1 in dim 4).
    """
    if structure is None:
        _, structure = build_almost_abelian(params)
    field = structure.field
    v_full = field.array([0, *params.v, 0])
    theta_vec = structure.g @ (structure.J @ v_full)
    theta_vec[-1] = theta_vec[-1] - field.scalar(params.trace_a())
    if params.n > 2:
        theta_vec = field.scalar(1, params.n - 1) * theta_vec
    return KForm.from_vector(structure.alg, theta_vec)


def pluricanonical_conditions_aa(params: AlmostAbelianParams) -> dict:
    """Residual vectors of the three dim-4 condition systems.

    The systems are derived on the unimodular locus a + tr A = 0, where they
    all vanish exactly on the pluricanonical LCS members; off it they can
    disagree with the flags (a = -1, b = (-1, 0), v = (1, 0), A = 0 is
    pluricanonical, yet two of its residuals are nonzero).

    closed_lee:          A21 v1 = A11 v2,  A22 v1 = A12 v2
    lee_orthogonal_imN:  A11 v1 + A21 v2 = -a b1,  A12 v1 + A22 v2 = -a b2
    dtheta_anti_invariant: a = 0,  A22 v1 = A21 v2,  A12 v1 = A11 v2
    """
    if params.n != 2:
        raise UnsupportedDimension("the condition systems are derived in dim 4")
    a = params.a
    b1, b2 = params.b
    v1, v2 = params.v
    (a11, a12), (a21, a22) = params.A
    closed = [a21 * v1 - a11 * v2, a22 * v1 - a12 * v2]
    orth = [a11 * v1 + a21 * v2 + a * b1, a12 * v1 + a22 * v2 + a * b2]
    anti = [a, a22 * v1 - a21 * v2, a12 * v1 - a11 * v2]
    out = {
        "closed_lee": [arith.to_float(x) for x in closed],
        "lee_orthogonal_imN": [arith.to_float(x) for x in orth],
        "dtheta_anti_invariant": [arith.to_float(x) for x in anti],
    }
    out["max_residual"] = max(abs(x) for vals in
                              (out["closed_lee"], out["lee_orthogonal_imN"],
                               out["dtheta_anti_invariant"]) for x in vals)
    return out


@dataclass
class ClassLabel:
    """Isomorphism label of a classified algebra plus its invariants."""
    name: str  # A4_1 | A3_4_plus_A1 | A3_6_plus_A1 | abelian | other
    invariants: dict

    def as_dict(self):
        return {"name": self.name, "invariants": self.invariants}


def ad_jordan_type(alg: LieAlgebra) -> str:
    """Real-Jordan type of ad_{e_4} restricted to span(e_1, e_2, e_3).

    Works straight off the built algebra (independent of any (a, b, v, A)
    bookkeeping) via the characteristic polynomial and nilpotency ranks:

    * ``semisimple_real``: eigenvalues {0, r, -r}, r > 0 real;
    * ``rotation``: eigenvalues {0, i s, -i s};
    * ``nilpotent_j3`` / ``nilpotent_j2`` / ``zero``: nilpotent with the
      indicated Jordan block sizes;
    * ``general`` otherwise.
    """
    if alg.dim != 4:
        raise UnsupportedDimension("Jordan cross-check is for dim 4")
    field = alg.field
    ad4 = alg.ad_basis(3)
    m = ad4[:3, :3]
    scale = arith.max_abs(m)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    det = arith.determinant(m, field)
    sigma2 = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
              + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
              + m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
    if not (field.is_zero(tr, scale) and field.is_zero(det, scale)):
        return "general"
    if not field.is_zero(sigma2, scale):
        return "semisimple_real" if sigma2 < 0 else "rotation"
    if arith.rank(m, field) == 0:
        return "zero"
    if arith.rank(m @ m, field) == 0:
        return "nilpotent_j2"
    return "nilpotent_j3"


def classify_4d(params: AlmostAbelianParams, tol=DEFAULT_TOL) -> ClassLabel:
    """Classify a unimodular dim-4 pluricanonical family member by sign(b.v).

    Preconditions, decided in the field of the built algebra: unimodular,
    then the condition systems vanish (they are derived on that locus; hence
    a = 0 and A = 0), v != 0.
    Cross-validated against the Jordan type of the built ad_{e_4}.
    """
    if params.n != 2:
        raise UnsupportedDimension("classification is for dim 4")
    alg, _ = build_almost_abelian(params, tol=tol)
    field = alg.field
    if not alg.is_unimodular()[0]:
        raise PreconditionFailed("parameters are not unimodular")
    if not field.is_zero(pluricanonical_conditions_aa(params)["max_residual"]):
        raise PreconditionFailed("pluricanonical condition systems do not vanish")
    b_zero = field.is_zero(params.b)
    v_zero = field.is_zero(params.v)
    if v_zero and b_zero:
        raise Degenerate("v = 0 and b = 0: abelian algebra")
    if v_zero:
        raise PreconditionFailed("v must be nonzero")
    jordan = ad_jordan_type(alg)
    bv = sum(x * y for x, y in zip(params.b, params.v))
    invariants = {
        "b_dot_v": arith.to_float(bv),
        "jordan_type": jordan,
        "unimodular": True,
    }
    if field.is_zero(bv):
        name = "A4_1" if not b_zero else "other"
        if b_zero:
            invariants["note"] = "two-step nilpotent (heisenberg3 + line)"
    elif bv > 0:
        name = "A3_4_plus_A1"
    else:
        name = "A3_6_plus_A1"
    expected_jordan = {"A4_1": "nilpotent_j3", "A3_4_plus_A1": "semisimple_real",
                       "A3_6_plus_A1": "rotation", "other": "nilpotent_j2"}[name]
    invariants["jordan_cross_check"] = jordan == expected_jordan
    return ClassLabel(name=name, invariants=invariants)
