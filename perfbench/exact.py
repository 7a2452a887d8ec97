"""Exact rational linear algebra used to build inputs and to check outputs.

Nothing here calls lcak: the changes of basis the benchmark feeds in and the
checks it makes on feasibility witnesses are computed independently of the
code under test.  Matrices are lists of rows of ``Fraction``; structure
constants are a dense ``c[i][j][k]`` with ``[e_i, e_j] = sum_k c[i][j][k] e_k``
(0-based).
"""
from __future__ import annotations

from fractions import Fraction


def zeros(n, m):
    return [[Fraction(0)] * m for _ in range(n)]


def matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a):
    return [list(row) for row in zip(*a)]


def inverse(a):
    """Gauss-Jordan inverse; raises ZeroDivisionError when singular."""
    n = len(a)
    aug = [list(a[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def is_positive_definite(m):
    """Symmetric and every pivot of elimination without pivoting positive."""
    n = len(m)
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(n)):
        return False
    a = [list(row) for row in m]
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return True


def dense_constants(dim, sparse):
    """Dense antisymmetric constants from ``{(i, j, k): c}`` (1-based, i < j)."""
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), val in sparse.items():
        c[i - 1][j - 1][k - 1] = Fraction(val)
        c[j - 1][i - 1][k - 1] = -Fraction(val)
    return c


def change_basis(c, j, g, p):
    """Constants, J and g in the basis e'_a = sum_k p[k][a] e_k."""
    dim = len(p)
    pinv = inverse(p)
    # [e'_a, e'_b] = sum_{i,j} p[i][a] p[j][b] [e_i, e_j], then e_k -> pinv
    c2 = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            vec = [Fraction(0)] * dim
            for i in range(dim):
                if p[i][a] == 0:
                    continue
                for jj in range(dim):
                    if p[jj][b] == 0:
                        continue
                    w = p[i][a] * p[jj][b]
                    row = c[i][jj]
                    for k in range(dim):
                        if row[k] != 0:
                            vec[k] += w * row[k]
            for cc in range(dim):
                val = sum((pinv[cc][k] * vec[k] for k in range(dim)), Fraction(0))
                c2[a][b][cc] = val
                c2[b][a][cc] = -val
    return c2, matmul(matmul(pinv, j), p), matmul(matmul(transpose(p), g), p)


def two_form_matrix(dim, coeffs):
    """Antisymmetric matrix of ``{(i, j): value}`` (0-based, i < j)."""
    m = zeros(dim, dim)
    for (i, j), val in coeffs.items():
        m[i][j] = val
        m[j][i] = -val
    return m


def d_two_form(c, omega):
    """Largest |d omega(e_a, e_b, e_c)| with the Chevalley-Eilenberg d:
    d omega(X, Y, Z) = -omega([X,Y], Z) + omega([X,Z], Y) - omega([Y,Z], X)."""
    dim = len(omega)

    def om_bracket(x, y, z):  # omega([e_x, e_y], e_z)
        return sum((c[x][y][k] * omega[k][z] for k in range(dim)), Fraction(0))

    worst = Fraction(0)
    for a in range(dim):
        for b in range(a + 1, dim):
            for cc in range(b + 1, dim):
                val = -om_bracket(a, b, cc) + om_bracket(a, cc, b) - om_bracket(b, cc, a)
                worst = max(worst, abs(val))
    return worst


def check_compatible_form(c, j, omega):
    """Independent exact check of a feasibility witness omega.

    Returns the list of properties that fail: ``closed`` (d omega = 0),
    ``j_invariant`` (omega(J., J.) = omega) and ``positive``
    (omega(., J.) positive definite)."""
    bad = []
    if d_two_form(c, omega) != 0:
        bad.append("closed")
    if matmul(matmul(transpose(j), omega), j) != omega:
        bad.append("j_invariant")
    if not is_positive_definite(matmul(omega, j)):
        bad.append("positive")
    return bad
