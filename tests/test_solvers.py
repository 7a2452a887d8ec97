"""The exact solvers of ``lcak.arith`` against the Fraction-row reference.

``fraction_solvers`` keeps the solvers that eliminated over lists of
Fractions (and Sylvester's criterion with one elimination per leading minor);
the integer elimination must give the same QArrays, printing the same bytes,
on seeded random rational matrices of every shape the package meets.
"""
from fractions import Fraction

import numpy as np
import pytest

import fraction_solvers as ref
from lcak import arith
from lcak.arith import Field, QArray, as_qarray
from lcak.errors import DegenerateMetric

EXACT = Field(True)

# pairwise coprime denominators, and numerators beyond int64
DENOMINATORS = (1, 1, 2, 3, 2 ** 40, 3 ** 25, 5 ** 17, 7 ** 14)


def _entry(rng):
    kind = rng.integers(5)
    if kind <= 1:  # zeros make pivot searches skip rows and columns
        return Fraction(0)
    num = int(rng.integers(-9, 10))
    if kind == 2:
        num += (1 if num >= 0 else -1) * (2 ** 63 + int(rng.integers(2 ** 62)))
    return Fraction(num, DENOMINATORS[rng.integers(len(DENOMINATORS))])


def _matrix(rng, n, m, rank=None):
    """An n x m Fraction array, of the given rank (at most) when one is given."""
    if rank is not None:
        return np.asarray(as_qarray(_matrix(rng, n, rank)) @ as_qarray(_matrix(rng, rank, m)))
    return np.array([_entry(rng) for _ in range(n * m)], dtype=object).reshape(n, m)


def _invertible(rng, n):
    while True:
        a = _matrix(rng, n, n)
        if ref.determinant(a) != 0:
            return a


SHAPES = [(0, 3), (1, 1), (1, 4), (2, 5), (3, 7), (5, 2), (7, 3), (4, 4), (6, 6), (8, 8)]


def _cases():
    rng = np.random.default_rng(1968)
    for seed in range(6):
        for n, m in SHAPES:
            yield f"{seed}-{n}x{m}", _matrix(rng, n, m)
            for rank in sorted({1, min(n, m) - 1} if min(n, m) > 1 else ()):
                yield f"{seed}-{n}x{m}-rank{rank}", _matrix(rng, n, m, rank)


CASES = dict(_cases())


def _printed(x):
    """What a solver output prints as, with the QArray numerators and denominators."""
    if isinstance(x, (list, tuple)):
        return [_printed(v) for v in x]
    if isinstance(x, QArray):
        return repr(x), x.num.tolist(), x.den
    return repr(x), type(x).__name__


@pytest.mark.parametrize("name", CASES)
def test_kernels_match_the_fraction_rows(name):
    a = CASES[name]
    for arg in (a, as_qarray(a)):
        assert _printed(arith.nullspace(arg, EXACT)) == _printed(ref.nullspace(a))
        assert _printed(arith.row_space(arg, EXACT)) == _printed(ref.row_space(a))
    assert arith.rank(a, EXACT) == len(ref.row_space(a))


@pytest.mark.parametrize("name", CASES)
def test_solutions_match_the_fraction_rows(name):
    a = CASES[name]
    n, m = a.shape
    rng = np.random.default_rng(len(name) * n + m)
    x = _matrix(rng, m, 1)[:, 0]
    # consistent (b in the image) and, unless a is onto, inconsistent
    for b in (np.asarray(as_qarray(a) @ as_qarray(x)) if n else np.zeros(0, dtype=object),
              _matrix(rng, n, 1)[:, 0]):
        got = arith.solve_least_squares(as_qarray(a), as_qarray(b), EXACT)
        assert _printed(got) == _printed(ref.solve_least_squares(a, b))


@pytest.mark.parametrize("name", [k for k, a in CASES.items() if a.shape[0] == a.shape[1]])
def test_square_solvers_match_the_fraction_rows(name):
    a = CASES[name]
    q = as_qarray(a)
    assert _printed(arith.determinant(q, EXACT)) == _printed(ref.determinant(a))
    assert EXACT.is_nondegenerate(q) == (ref.determinant(a) != 0)
    if ref.determinant(a) == 0:
        with pytest.raises(DegenerateMetric):
            arith.invert(q, EXACT)
        return
    inv = arith.invert(q, EXACT)
    assert _printed(inv) == _printed(ref.invert(a))
    assert np.all(inv @ q == EXACT.eye(len(a)))


def test_singular_systems_raise():
    singular = as_qarray(np.array([[1, 2], [Fraction(1, 2), 1]], dtype=object))
    with pytest.raises(DegenerateMetric):
        arith.invert(singular, EXACT)
    with pytest.raises(DegenerateMetric):
        arith.invert(EXACT.zeros(3, 3), EXACT)
    assert arith.determinant(singular, EXACT) == 0


# -- positive definiteness --------------------------------------------------------------

# [[0,1],[1,0]] and this 4x4 block sum need row exchanges; the 4x4 one needs
# two, so the sign of the exchanges is + and every pivot is positive, yet
# it is indefinite
TWO_EXCHANGES = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]


SIGNS = {"definite": 1, "semidefinite": 0, "indefinite": -1, "negative definite": -1}


def _symmetric(rng, n, kind):
    """P^T D P with P random and invertible and D diagonal: positive, positive
    but one zero, positive but one negative, or negative (Sylvester's law of
    inertia then gives its kind)."""
    p = _invertible(rng, n)
    d = [_entry(rng) for _ in range(n)]
    d = [abs(x) if x else Fraction(1) for x in d]
    if kind in ("semidefinite", "indefinite"):
        d[rng.integers(n)] *= SIGNS[kind]
    elif kind == "negative definite":
        d = [-x for x in d]
    p = as_qarray(p)
    return p.T @ EXACT.array(np.diag(d)) @ p


def _symmetric_cases():
    rng = np.random.default_rng(1850)
    for n in (1, 2, 3, 4, 6, 8):
        for kind in ("definite", "semidefinite", "indefinite", "negative definite"):
            if n > 1 or kind in ("definite", "negative definite"):
                yield f"{kind}-{n}", kind, _symmetric(rng, n, kind)
    for name, m in (("[[0,0],[0,1]]", [[0, 0], [0, 1]]), ("[[0,1],[1,0]]", [[0, 1], [1, 0]]),
                    ("two exchanges", TWO_EXCHANGES), ("zero", [[0, 0], [0, 0]]),
                    ("0x0", np.zeros((0, 0), dtype=object)), ("identity", np.eye(3, dtype=int))):
        yield name, "definite" if name in ("identity", "0x0") else "not definite", EXACT.array(m)


SYMMETRIC = {name: (kind, m) for name, kind, m in _symmetric_cases()}


@pytest.mark.parametrize("name", SYMMETRIC)
def test_positive_definite_is_sylvester(name):
    kind, m = SYMMETRIC[name]
    assert np.all(m == m.T)
    want = kind == "definite"
    assert ref.is_positive_definite(np.asarray(m)) == want
    assert arith.is_positive_definite(m, EXACT) == want
    assert arith.is_positive_definite(np.asarray(m), EXACT) == want


# -- no Fraction inside an elimination -----------------------------------------------------

def test_exact_solvers_build_no_fractions(monkeypatch):
    """On QArray input the solvers eliminate on integer numerators: the only
    Fraction they build is the scalar that ``determinant`` returns."""
    rng = np.random.default_rng(5)
    full, low = as_qarray(_invertible(rng, 5)), as_qarray(_matrix(rng, 6, 4, 2))
    b, wide_b = as_qarray(_matrix(rng, 5, 1)[:, 0]), as_qarray(_matrix(rng, 6, 1)[:, 0])
    definite = full.T @ full
    runs = {
        "nullspace": lambda: arith.nullspace(low, EXACT),
        "nullspace of no rows": lambda: arith.nullspace(EXACT.zeros(0, 3), EXACT),
        "row_space": lambda: arith.row_space(low, EXACT),
        "rank": lambda: arith.rank(low.T, EXACT),
        "solve_least_squares": lambda: arith.solve_least_squares(full, b, EXACT),
        "inconsistent solve_least_squares": lambda: arith.solve_least_squares(low, wide_b, EXACT),
        "invert": lambda: arith.invert(full, EXACT),
        "is_positive_definite": lambda: arith.is_positive_definite(definite, EXACT),
        "not is_positive_definite": lambda: arith.is_positive_definite(-definite, EXACT),
        "determinant": lambda: arith.determinant(full, EXACT),
        "singular determinant": lambda: arith.determinant(low[:4], EXACT),
        "is_nondegenerate": lambda: EXACT.is_nondegenerate(full),
    }
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    counts = {}
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", staticmethod(counting_new))
        for name, run in runs.items():
            built.clear()
            run()
            counts[name] = len(built)
    one = {"determinant", "singular determinant", "is_nondegenerate"}
    assert counts == {name: 1 if name in one else 0 for name in runs}
