"""Dense linear algebra over the two scalar backends.

Exact rational matrices are reduced with hand-rolled Gaussian elimination
over ``Fraction``; the complex backend delegates rank-sensitive decisions
to numpy SVD with a relative singular-value threshold.

The kernels take and return nested lists: a matrix is a list of rows of
backend scalars, a vector a list.  Every other matrix of the package is a
numpy array; callers hand a kernel ``array.tolist()``.  ``any_singular``
alone takes an array, to test a whole stack of matrices at once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from .scalars import Backend

Matrix = List[list]
Vector = list


# -- exact elimination ------------------------------------------------------

def _rref_exact(m: Matrix):
    """In-place reduced row echelon form; returns pivot column list."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def nullspace_form(vectors: Sequence[Vector]) -> List[Vector]:
    """The basis ``nullspace`` gives for any exact system whose solutions
    are spanned by the given independent vectors.

    That basis is 1 at one free column and 0 at the others, and the free
    columns are the positions where a solution can have its last nonzero
    entry; so it is the reduced row echelon form with the columns reversed.
    """
    m = [list(reversed(v)) for v in vectors]
    pivots = _rref_exact(m)
    return [list(reversed(row)) for row in reversed(m[:len(pivots)])]


def _to_np(a: Matrix) -> np.ndarray:
    """Always two-dimensional, so that an empty matrix stays 0 x c."""
    cols = len(a[0]) if a else 0
    return np.array([[complex(x) for x in row] for row in a],
                    dtype=complex).reshape(len(a), cols)


def _rank_tol(s: np.ndarray, backend: Backend) -> np.ndarray:
    """The singular values above which a matrix has rank: max(eps, 1e-8 *
    largest singular value), along the last axis of ``s``."""
    return np.maximum(backend.eps, 1e-8 * s.max(axis=-1, initial=0.0))


def rank(a: Matrix, backend: Backend) -> int:
    if not a or not a[0]:
        return 0
    if backend.exact:
        m = [list(row) for row in a]
        return len(_rref_exact(m))
    s = np.linalg.svd(_to_np(a), compute_uv=False)
    return int((s > _rank_tol(s, backend)).sum())


def nullspace(a: Matrix, ncols: Optional[int] = None, backend: Backend = None) -> List[Vector]:
    """Basis of {x : a @ x = 0}. ``ncols`` is needed when a has no rows."""
    if ncols is None:
        ncols = len(a[0]) if a else 0
    if not a or ncols == 0:
        return [[backend.one() if j == i else backend.zero() for j in range(ncols)]
                for i in range(ncols)]
    if backend.exact:
        m = [list(row) for row in a]
        pivots = _rref_exact(m)
        pivset = set(pivots)
        basis = []
        for free in range(ncols):
            if free in pivset:
                continue
            vec = [Fraction(0)] * ncols
            vec[free] = Fraction(1)
            for r, pc in enumerate(pivots):
                vec[pc] = -m[r][free]
            basis.append(vec)
        return basis
    mat = _to_np(a)
    u, s, vh = np.linalg.svd(mat)
    tol = _rank_tol(s, backend)
    rnk = int((s > tol).sum())
    return [list(vh[i].conj()) for i in range(rnk, ncols)]


def solve(a: Matrix, b: Vector, backend: Backend) -> Optional[Vector]:
    """One solution of a @ x = b, or None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if backend.exact:
        m = [list(row) + [bv] for row, bv in zip(a, b)]
        pivots = _rref_exact(m)
        if cols in pivots:
            return None
        x = [Fraction(0)] * cols
        for r, pc in enumerate(pivots):
            x[pc] = m[r][cols]
        return x
    mat = _to_np(a)
    bv = np.array([complex(v) for v in b], dtype=complex)
    x, _, _, _ = np.linalg.lstsq(mat, bv, rcond=None)
    resid = mat @ x - bv
    scale = 1 + max(np.abs(bv).max(initial=0.0), np.abs(mat).max(initial=0.0))
    if np.abs(resid).max(initial=0.0) > backend.eps * scale * 1e3:
        return None
    return list(x)


def inv(a: Matrix, backend: Backend) -> Optional[Matrix]:
    n = len(a)
    if backend.exact:
        m = [list(row) + [Fraction(int(i == j)) for j in range(n)]
             for i, row in enumerate(a)]
        pivots = _rref_exact(m)
        if pivots != list(range(n)):
            return None
        return [row[n:] for row in m]
    mat = _to_np(a)
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size and s.min() <= _rank_tol(s, backend):
        return None
    return [list(r) for r in np.linalg.inv(mat)]


def any_singular(mats: np.ndarray, backend: Backend) -> bool:
    """Whether ``inv`` would return None for some matrix of an array of
    shape (..., n, n) and dtype ``backend.dtype``.  On the complex backend
    this is one batched SVD with the tolerance of ``_rank_tol``."""
    if backend.exact:
        count = int(np.prod(mats.shape[:-2]))
        flat = mats.reshape((count,) + mats.shape[-2:]).tolist()
        return any(inv(m, backend) is None for m in flat)
    s = np.linalg.svd(mats, compute_uv=False)
    return bool((s.min(axis=-1, initial=np.inf) <= _rank_tol(s, backend)).any())


def det(a: Matrix, backend: Backend):
    n = len(a)
    if n == 0:
        return backend.one()
    if not backend.exact:
        return complex(np.linalg.det(_to_np(a)))
    m = [list(row) for row in a]
    d = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            d = -d
        d *= m[c][c]
        pv = m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / pv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d


# -- incremental row spaces -------------------------------------------------

class RowSpace:
    """Incrementally built span of row vectors with membership tests."""

    def __init__(self, ncols: int, backend: Backend):
        self.ncols = ncols
        self.backend = backend
        self.rows: List[Vector] = []      # original independent rows
        self._ech: List[Vector] = []      # echelonized copies
        self._piv: List[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: Vector) -> Vector:
        v = list(vec)
        for erow, pc in zip(self._ech, self._piv):
            if not self.backend.is_zero(v[pc]):
                f = v[pc] / erow[pc]
                v = [x - f * y for x, y in zip(v, erow)]
        return v

    def contains(self, vec: Vector) -> bool:
        v = self._reduce(vec)
        if self.backend.exact:
            return all(x == 0 for x in v)
        scale = 1 + max((abs(x) for x in vec), default=0.0)
        return all(abs(x) <= self.backend.eps * scale * 1e3 for x in v)

    def add(self, vec: Vector) -> bool:
        """Add a row if independent; returns True when the span grew."""
        v = self._reduce(vec)
        if self.backend.exact:
            pc = next((i for i, x in enumerate(v) if x != 0), None)
        else:
            scale = 1 + max((abs(x) for x in vec), default=0.0)
            best = max(range(len(v)), key=lambda i: abs(v[i]), default=None)
            pc = best if best is not None and abs(v[best]) > self.backend.eps * scale * 1e3 else None
        if pc is None:
            return False
        self.rows.append(list(vec))
        self._ech.append(v)
        self._piv.append(pc)
        return True

    def coords(self, vec: Vector) -> Optional[Vector]:
        """Coefficients expressing vec over self.rows, or None."""
        if not self.rows:
            return [] if self.contains(vec) else None
        a = [list(col) for col in zip(*self.rows)]
        return solve(a, list(vec), self.backend)


def row_space_basis(rows: Sequence[Vector], ncols: int, backend: Backend) -> List[Vector]:
    sp = RowSpace(ncols, backend)
    for r in rows:
        sp.add(r)
    return sp.rows


# -- characteristic polynomial and rational roots (exact backend) -----------

def charpoly(a: Matrix) -> List[Fraction]:
    """Coefficients [c_0..c_n] of det(xI - A), ascending, exact input."""
    n = len(a)
    a = np.array(a, dtype=object).reshape(n, n)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = np.full((n, n), Fraction(0), dtype=object)
    diag = np.arange(n)
    c = Fraction(1)
    for k in range(1, n + 1):
        # Faddeev-LeVerrier iteration
        m = a @ m
        m[diag, diag] += c
        c = -np.trace(a @ m) / k
        coeffs[n - k] = c
    return coeffs


def rational_roots(coeffs: Sequence[Fraction]) -> List[Fraction]:
    """All rational roots (with multiplicity ignored) of the polynomial."""
    # strip trailing/leading zero structure
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return [Fraction(0)]
    roots = []
    shift = 0
    while cs[0] == 0:
        cs.pop(0)
        shift = 1
    if shift:
        roots.append(Fraction(0))
    if len(cs) <= 1:
        return roots
    from math import gcd
    den = 1
    for c in cs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in cs]
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(v):
        out = []
        d = 1
        while d * d <= v:
            if v % d == 0:
                out.extend([d, v // d])
            d += 1
        return sorted(set(out))

    for p in divisors(a0) if a0 else [0]:
        for q in divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                val = Fraction(0)
                for c in reversed(cs):
                    val = val * cand + c
                if val == 0:
                    roots.append(cand)
    return roots
