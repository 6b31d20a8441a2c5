"""Connection-presented difference equations and their tensor calculus.

An equation of rank n is a free k-module with the G-action recorded by one
n x n matrix of functions per group element (the connection), subject to
the cocycle law  E^{gg'} = g(E^{g'}) E^g  and E^e = id.

Coordinates are row vectors: an element with coordinate functions f
transforms as  f |-> g(f) . E^g.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .errors import BackendMismatch, InconsistentConnection, SingularGeneratorMatrix
from .scalars import Backend, Fn
from .space import Group


@dataclass(frozen=True)
class KMatrix:
    """A matrix over k = F(S): entries are functions on the space."""

    entries: Tuple[Tuple[Fn, ...], ...]
    backend: Backend

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def npoints(self) -> int:
        return len(self.entries[0][0]) if self.entries and self.entries[0] else 0

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Fn]], backend: Backend) -> "KMatrix":
        return KMatrix(tuple(tuple(r) for r in rows), backend)

    @staticmethod
    def identity(n: int, size: int, backend: Backend) -> "KMatrix":
        one, zero = Fn.one(size, backend), Fn.zero(size, backend)
        return KMatrix(tuple(tuple(one if i == j else zero for j in range(n))
                             for i in range(n)), backend)

    @staticmethod
    def from_point_matrices(mats: Sequence[linalg.Matrix], backend: Backend) -> "KMatrix":
        """Build from one scalar matrix per point."""
        n = len(mats[0])
        m = len(mats[0][0]) if n else 0
        rows = []
        for i in range(n):
            row = []
            for j in range(m):
                row.append(Fn(tuple(backend.coerce(mat[i][j]) for mat in mats), backend))
            rows.append(tuple(row))
        return KMatrix(tuple(rows), backend)

    @staticmethod
    def from_scalar_matrix(mat: linalg.Matrix, size: int, backend: Backend) -> "KMatrix":
        """Constant-in-space matrix."""
        return KMatrix(tuple(tuple(Fn.constant(v, size, backend) for v in row)
                             for row in mat), backend)

    def at_point(self, y: int) -> linalg.Matrix:
        return [[f.values[y] for f in row] for row in self.entries]

    def mul(self, other: "KMatrix") -> "KMatrix":
        z = Fn.zero(self.npoints, self.backend)
        rows = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = z
                for t in range(self.ncols):
                    acc = acc + self.entries[i][t] * other.entries[t][j]
                row.append(acc)
            rows.append(tuple(row))
        return KMatrix(tuple(rows), self.backend)

    def add(self, other: "KMatrix") -> "KMatrix":
        return KMatrix(tuple(tuple(a + b for a, b in zip(ra, rb))
                             for ra, rb in zip(self.entries, other.entries)), self.backend)

    def sub(self, other: "KMatrix") -> "KMatrix":
        return KMatrix(tuple(tuple(a - b for a, b in zip(ra, rb))
                             for ra, rb in zip(self.entries, other.entries)), self.backend)

    def scale_fn(self, f: Fn) -> "KMatrix":
        return KMatrix(tuple(tuple(f * a for a in row) for row in self.entries), self.backend)

    def scale(self, c) -> "KMatrix":
        return KMatrix(tuple(tuple(a.scale(c) for a in row) for row in self.entries),
                       self.backend)

    def transpose(self) -> "KMatrix":
        return KMatrix(tuple(zip(*self.entries)), self.backend)

    def g_act(self, group: Group, g: int) -> "KMatrix":
        """Apply g to every entry: (g.f)(x) = f(g^{-1}x)."""
        ginv = group.image(group.inv[g])
        return KMatrix(tuple(tuple(f.translate(ginv) for f in row)
                             for row in self.entries), self.backend)

    def inverse(self) -> Optional["KMatrix"]:
        mats = []
        for y in range(self.npoints):
            m = linalg.inv(self.at_point(y), self.backend)
            if m is None:
                return None
            mats.append(m)
        return KMatrix.from_point_matrices(mats, self.backend)

    def det(self) -> Fn:
        vals = tuple(linalg.det(self.at_point(y), self.backend)
                     for y in range(self.npoints))
        return Fn(vals, self.backend)

    def kron(self, other: "KMatrix") -> "KMatrix":
        """Row (i,j), column (r,u): self_{ir} * other_{ju}, row-major."""
        rows = []
        for i in range(self.nrows):
            for j in range(other.nrows):
                row = []
                for r in range(self.ncols):
                    for u in range(other.ncols):
                        row.append(self.entries[i][r] * other.entries[j][u])
                rows.append(tuple(row))
        return KMatrix(tuple(rows), self.backend)

    def block_diag(self, other: "KMatrix") -> "KMatrix":
        z1 = Fn.zero(self.npoints, self.backend)
        rows = []
        for r in self.entries:
            rows.append(tuple(r) + (z1,) * other.ncols)
        for r in other.entries:
            rows.append((z1,) * self.ncols + tuple(r))
        return KMatrix(tuple(rows), self.backend)

    def eq(self, other: "KMatrix") -> bool:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(a.eq(b) for ra, rb in zip(self.entries, other.entries)
                   for a, b in zip(ra, rb))

    def is_zero(self) -> bool:
        return all(f.is_zero() for row in self.entries for f in row)


Coords = Tuple[Fn, ...]  # coordinates of a module element (row vector over k)


# Scalars compared per batch in Equation.validate: the temporaries of one
# batch stay at a few hundred KB, whatever |G| is.
_BATCH_SCALARS = 1 << 12


def stack(mats: Sequence[KMatrix], nrows: int, ncols: int, size: int,
          backend: Backend) -> np.ndarray:
    """nrows x ncols matrices over k as one array of shape
    (len(mats), size, nrows, ncols) and dtype ``backend.dtype``: entry
    [a, y] is the scalar matrix of mats[a] at the point y."""
    flat = [f.values for m in mats for row in m.entries for f in row]
    arr = np.array(flat, dtype=backend.dtype)
    return arr.reshape(len(mats), nrows, ncols, size).transpose(0, 3, 1, 2)


def unstack(arr: np.ndarray, backend: Backend) -> Tuple[KMatrix, ...]:
    """The inverse of ``stack``: one KMatrix per leading index of an array
    of shape (N, |S|, nrows, ncols), its entries the array's scalars."""
    return tuple(KMatrix(tuple(tuple(Fn(tuple(vals), backend) for vals in row)
                               for row in mat.tolist()), backend)
                 for mat in arr.transpose(0, 2, 3, 1))


def mul_in_order(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last two axes of complex arrays, rounded exactly as
    ``KMatrix.mul`` rounds: every entry sums its terms in order, starting
    from 0, and every term is Python's complex product, computed on the real
    and imaginary parts apart.  (numpy's complex ``matmul`` may sum in
    another order, and so differ in the last bit.)"""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    shape = np.broadcast_shapes(a.shape[:-1] + (1,), b.shape[:-2] + (1, b.shape[-1]))
    re, im = np.zeros(shape), np.zeros(shape)
    for t in range(a.shape[-1]):
        xr, xi = ar[..., :, t, None], ai[..., :, t, None]
        yr, yi = br[..., None, t, :], bi[..., None, t, :]
        re = re + (xr * yr - xi * yi)
        im = im + (xr * yi + xi * yr)
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def first_mismatch(lhs: np.ndarray, rhs: np.ndarray,
                   backend: Backend) -> Optional[int]:
    """The least index a with lhs[a] != rhs[a] under ``backend.eq_array``,
    or None when every block agrees."""
    same = backend.eq_array(lhs, rhs).all(axis=tuple(range(1, lhs.ndim)))
    bad = np.flatnonzero(~same)
    return int(bad[0]) if bad.size else None


@dataclass(frozen=True)
class Equation:
    """A rank-n equation presented by its connection matrices."""

    group: Group
    backend: Backend
    rank: int
    conn: Tuple[KMatrix, ...]  # indexed by group element id

    def validate(self) -> None:
        """Check E^e = I and the cocycle law for generators x all elements.

        By induction on word length that gives the law for every pair (G is
        finite, so positive words reach every element).  At (g, g^-1) it
        reads g(E^{g^-1}) . E^g = I: every E^g is invertible, with the
        inverse that law predicts.

        The connection is gathered once into an array C of shape
        (|G|, |S|, n, n) (see ``stack``) and written as C = A / d with
        ``Backend.integral``, so over the rationals every product below
        multiplies Python ints (d = 1 on the complex backend).  Then
        E^e = I reads A[e] == d I, and for a generator g the law, scaled by
        d^2, is one batched ``matmul`` and comparison of d A[g g'] with
        g(A[g']) . A[g], where g(A[g'])(y) = A[g'](g^-1 y), over consecutive
        slices of g' holding about ``_BATCH_SCALARS`` scalars each, so the
        temporaries stay small whatever |G| is.  A failure names the first
        pair in generator order, then g' ascending, as a pointwise scan
        would.  Rank 0 has nothing to check.  Complex products may round
        in the last bit unlike ``KMatrix.mul``; only an eps near machine
        precision can see that.
        """
        group, be = self.group, self.backend
        conn, d = be.integral(
            stack(self.conn, self.rank, self.rank, group.space.size, be))
        if not be.eq_array(conn[0], d * np.eye(self.rank, dtype=be.dtype)).all():
            raise InconsistentConnection("E^e is not the identity")
        step = max(1, _BATCH_SCALARS // max(1, conn[0].size))
        for g in group.generator_ids:
            ginv_image = group.elements[group.inv[g]]
            products = group.mul_ids(g, np.arange(group.order))
            for start in range(0, group.order, step):
                stop = min(start + step, group.order)
                lhs = d * conn[products[start:stop]]
                rhs = conn[start:stop, ginv_image] @ conn[g]
                bad = first_mismatch(lhs, rhs, be)
                if bad is not None:
                    raise InconsistentConnection(
                        f"cocycle violated at elements ({g}, {start + bad})")

    def inverse(self, g: int) -> KMatrix:
        """(E^g)^-1 = g(E^{g^-1}): the cocycle law at (g, g^-1), so it holds
        for every equation that validates; no pointwise inversion."""
        return self.conn[self.group.inv[g]].g_act(self.group, g)


def trivial_equation(group: Group, backend: Backend, rank: int = 1) -> Equation:
    """The equation 1 (and its powers): identity connection everywhere."""
    size = group.space.size
    ident = KMatrix.identity(rank, size, backend)
    return Equation(group, backend, rank, tuple(ident for _ in range(group.order)))


_FRACTION = np.frompyfunc(Fraction, 2, 1)


def complete_connection(group: Group, backend: Backend,
                        generator_matrices: Dict[str, KMatrix]) -> Equation:
    """Extend generator connection data to all of G by the cocycle law.

    Raises InconsistentConnection when an element reached by two words gets
    conflicting matrices, SingularGeneratorMatrix for non-invertible input.
    Breadth first from E^e = I: each level sets E^{s g'} = s(E^{g'}) . E^s
    for every element g' of the level before (in order) and generator s
    (in the order of ``group.generators``).  An element keeps the matrix of
    the first such product that reaches it, and every later product that
    reaches it must agree with it; that is all that Equation.validate
    checks.

    The connection is one array of shape (|G|, |S|, n, n) (see ``stack``),
    and each level is one batched product over its elements and all the
    generators.  The generator matrices are checked for singularity in one
    batch per generator (``linalg.any_singular``).  The products are
    those of ``KMatrix.mul``, bit for bit: on the complex backend by
    ``mul_in_order``; over the rationals on Python ints, E^g being
    A[g] / d^depth(g) with d the common denominator of the generator
    matrices (``Backend.integral``), so that a product of depth L + 1 is
    A[g'] . (d E^s) over d^(L+1).
    """
    if set(generator_matrices) != set(group.generators):
        raise InconsistentConnection(
            f"need one matrix per generator {sorted(group.generators)}")
    size = group.space.size
    rank = next(iter(generator_matrices.values())).nrows
    stacked = {}
    for name, mat in generator_matrices.items():
        if mat.nrows != rank or mat.ncols != rank:
            raise InconsistentConnection(f"generator {name!r} has wrong shape")
        stacked[name] = stack([mat], rank, rank, size, backend)[0]
        if linalg.any_singular(stacked[name], backend):
            raise SingularGeneratorMatrix(f"generator {name!r} singular at some point")

    mats, d = backend.integral(np.stack([stacked[name]
                                         for name in group.generators]))
    gens = np.array(list(group.generators.values()))
    gens_inv_images = group.elements[[group.inv[s] for s in gens]]
    conn = np.zeros((group.order, size, rank, rank), dtype=backend.dtype)
    conn[0] = np.eye(rank, dtype=backend.dtype)
    depth = np.full(group.order, -1)
    depth[0] = 0
    frontier = np.array([0])
    level = 0
    while frontier.size:
        level += 1
        # candidate (g', s) at [g', s]: s(E^{g'}) . E^s, reaching s g'; in
        # the order of a pointwise pass, element of the level, then generator
        moved = conn[frontier[:, None, None], gens_inv_images]
        cands = moved @ mats if backend.exact else mul_in_order(moved, mats)
        cands = cands.reshape(-1, size, rank, rank)
        targets = group.mul_ids(gens, frontier[:, None]).ravel()
        first: Dict[int, int] = {}  # new element -> its first candidate
        for i, (t, new) in enumerate(zip(targets.tolist(),
                                         (depth[targets] < 0).tolist())):
            if new:
                first.setdefault(t, i)
        frontier = np.array(list(first), dtype=np.intp)
        conn[frontier] = cands[list(first.values())]
        depth[frontier] = level
        if backend.exact:
            scale = np.array([d ** (level - int(k)) for k in depth[targets]],
                             dtype=object)
            stored = conn[targets] * scale[:, None, None, None]
        else:
            stored = conn[targets]
        bad = first_mismatch(stored, cands, backend)
        if bad is not None:
            raise InconsistentConnection(
                f"element {targets[bad]} reached with conflicting matrices")
    if (depth < 0).any():
        raise InconsistentConnection("generators do not generate the group")
    if backend.exact:
        denominators = np.array([d ** int(k) for k in depth], dtype=object)
        conn = _FRACTION(conn, denominators[:, None, None, None])
    return Equation(group, backend, rank, unstack(conn, backend))


def act(eq: Equation, g: int, coords: Sequence[Fn]) -> Coords:
    """Coordinates transform as f |-> g(f) . E^g."""
    group = eq.group
    ginv = group.image(group.inv[g])
    shifted = [f.translate(ginv) for f in coords]
    mat = eq.conn[g]
    out = []
    for j in range(eq.rank):
        acc = Fn.zero(group.space.size, eq.backend)
        for i in range(eq.rank):
            acc = acc + shifted[i] * mat.entries[i][j]
        out.append(acc)
    return tuple(out)


def _check_compatible(e: Equation, f: Equation) -> None:
    if e.group is not f.group and e.group != f.group:
        raise BackendMismatch("equations live over different groups")
    e.backend.check_same(f.backend)


def direct_sum(e: Equation, f: Equation) -> Equation:
    _check_compatible(e, f)
    conn = tuple(e.conn[g].block_diag(f.conn[g]) for g in range(e.group.order))
    return Equation(e.group, e.backend, e.rank + f.rank, conn)


def tensor(e: Equation, f: Equation) -> Equation:
    _check_compatible(e, f)
    conn = tuple(e.conn[g].kron(f.conn[g]) for g in range(e.group.order))
    return Equation(e.group, e.backend, e.rank * f.rank, conn)


def dual(e: Equation) -> Equation:
    """(E*)^g = ((E^g)^t)^{-1} = (g(E^{g^-1}))^t, by Equation.inverse."""
    conn = tuple(e.inverse(g).transpose() for g in range(e.group.order))
    return Equation(e.group, e.backend, e.rank, conn)


def hom(e: Equation, f: Equation) -> Equation:
    """Hom_k(E,F)^g = F^g (x) ((E^g)^t)^{-1}; basis d_{ij}, i over F, j over E."""
    _check_compatible(e, f)
    conn = tuple(f.conn[g].kron(e.inverse(g).transpose())
                 for g in range(e.group.order))
    return Equation(e.group, e.backend, e.rank * f.rank, conn)


def sym2_basis(n: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def wedge2_basis(n: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def sym2(e: Equation) -> Equation:
    """Symmetric square on the basis {e_i e_j}, i <= j, lexicographic."""
    basis = sym2_basis(e.rank)
    conn = []
    for g in range(e.group.order):
        m = e.conn[g]
        rows = []
        for (i, j) in basis:
            row = []
            for (k, l) in basis:
                if k == l:
                    row.append(m.entries[i][k] * m.entries[j][k])
                else:
                    row.append(m.entries[i][k] * m.entries[j][l]
                               + m.entries[i][l] * m.entries[j][k])
            rows.append(tuple(row))
        conn.append(KMatrix(tuple(rows), e.backend))
    return Equation(e.group, e.backend, len(basis), tuple(conn))


def wedge2(e: Equation) -> Equation:
    """Exterior square on the basis {e_i ^ e_j}, i < j, lexicographic."""
    basis = wedge2_basis(e.rank)
    conn = []
    for g in range(e.group.order):
        m = e.conn[g]
        rows = []
        for (i, j) in basis:
            row = []
            for (k, l) in basis:
                row.append(m.entries[i][k] * m.entries[j][l]
                           - m.entries[i][l] * m.entries[j][k])
            rows.append(tuple(row))
        conn.append(KMatrix(tuple(rows), e.backend))
    return Equation(e.group, e.backend, len(basis), tuple(conn))


def wedge_top(e: Equation) -> Equation:
    """Top exterior power: rank 1 with connection det(E^g)."""
    conn = tuple(KMatrix(((m.det(),),), e.backend) for m in e.conn)
    return Equation(e.group, e.backend, 1, conn)
