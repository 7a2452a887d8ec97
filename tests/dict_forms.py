"""The dict-backed exterior algebra, kept as the reference for ``lcak.forms``.

A form here is a dict {increasing 0-based index tuple: coefficient} holding
its nonzero coefficients only.  Signs come from inversion counting, minors
from cofactor expansion, and d from the structure constants of
``sparse_constants()``, so nothing below reads the dense tables the library
uses.  Every function returns a new dict.
"""
from itertools import combinations

import numpy as np


def merge_sign(left, right):
    """Sign for sorting the concatenation of two increasing tuples.

    Returns (sign, merged_tuple); sign 0 when the tuples intersect.
    """
    overlap = set(left) & set(right)
    if overlap:
        return 0, ()
    inversions = 0
    for x in left:
        for y in right:
            if x > y:
                inversions += 1
    merged = tuple(sorted(left + right))
    return (-1) ** inversions, merged


def sort_sign(indices):
    """(sign, sorted tuple) of an arbitrary index tuple; sign 0 on repeats."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return 0, ()
    sign = 1
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if idx[i] > idx[j]:
                sign = -sign
    return sign, tuple(sorted(idx))


def _small_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total = total + ((-1) ** j) * rows[0][j] * _small_det(minor)
    return total


def add_term(coeffs, key, val):
    """coeffs[key] += val, dropping the key when the sum is zero."""
    s = coeffs.get(key, 0) + val
    if s == 0:
        coeffs.pop(key, None)
    else:
        coeffs[key] = s


def wedge(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            sign, merged = merge_sign(ka, kb)
            if sign:
                add_term(out, merged, sign * va * vb)
    return out


def contract(a, x):
    """(i_X alpha)(Y...) = alpha(X, Y...)."""
    out = {}
    for key, val in a.items():
        for pos, idx in enumerate(key):
            if x[idx] != 0:
                add_term(out, key[:pos] + key[pos + 1:], ((-1) ** pos) * val * x[idx])
    return out


def d(alg, a):
    """Chevalley-Eilenberg differential, from d e^k = -sum_{i<j} c^k_ij e^ij
    extended as an antiderivation."""
    de = [{} for _ in range(alg.dim)]
    for (i, j, k), v in alg.sparse_constants().items():
        de[k - 1][(i - 1, j - 1)] = -v
    out = {}
    for key, val in a.items():
        for pos, idx in enumerate(key):
            term = wedge(wedge({key[:pos]: 1}, de[idx]), {key[pos + 1:]: 1})
            for k, v in term.items():
                add_term(out, k, ((-1) ** pos) * val * v)
    return out


def derive_along(a, degree, dim, m):
    """The derivation -sum_p alpha(..., M e_jp, ...), probed key by key."""
    m = np.asarray(m)
    out = {}
    for key in combinations(range(dim), degree):
        val = 0
        probe = list(key)
        for pos in range(degree):
            col = m[:, key[pos]]
            for idx in range(dim):
                if col[idx] == 0:
                    continue
                probe[pos] = idx
                sign, sorted_key = sort_sign(tuple(probe))
                if sign and sorted_key in a:
                    val = val - col[idx] * sign * a[sorted_key]
            probe[pos] = key[pos]
        if val != 0:
            out[key] = val
    return out


def evaluate(a, degree, vectors):
    """alpha(v_1, ..., v_k), one determinant per coefficient."""
    if degree == 0:
        return a.get((), 0)
    total = 0
    for key, val in a.items():
        sub = [[vectors[b][key[r]] for b in range(degree)] for r in range(degree)]
        total = total + val * _small_det(sub)
    return total


def inner_product(a, b, g_inv):
    """<alpha, beta> with <e^I, e^J> = det(g^{-1}[I, J])."""
    if () in a or () in b:
        return a.get((), 0) * b.get((), 0)
    total = 0
    for ka, va in a.items():
        for kb, vb in b.items():
            total = total + va * vb * _small_det([[g_inv[i, j] for j in kb] for i in ka])
    return total


def hodge_star(a, degree, dim, g_inv, vol_coeff):
    """alpha ^ star(beta) = <alpha, beta> vol with vol = vol_coeff e^{1...dim}."""
    full = tuple(range(dim))
    out = {}
    for key in combinations(full, degree):
        m = inner_product({key: 1}, a, g_inv)
        if m != 0:
            comp = tuple(i for i in full if i not in key)
            sign, _ = merge_sign(key, comp)
            add_term(out, comp, sign * m * vol_coeff)
    return out
