"""Connection-presented difference equations and their tensor calculus.

An equation of rank n is a free k-module with the G-action recorded by one
n x n matrix of functions per group element (the connection), subject to
the cocycle law  E^{gg'} = g(E^{g'}) E^g  and E^e = id.

Coordinates are row vectors: an element with coordinate functions f
transforms as  f |-> g(f) . E^g.

An ``Equation`` stores its connection as one array of shape
(|G|, |S|, n, n), entry [g, y] the scalar matrix E^g(y): complex128 on the
complex backend, Python ints over one common denominator over the
rationals.  Every construction (direct sum, tensor, dual, Hom, Sym^2,
Lambda^2, Lambda^top) is a few batched operations on such arrays, with the
values of the pointwise matrix formulas, bit for bit: complex products go
through ``cmul``, which rounds as Python's complex product does.

Every other matrix over k is an array of shape (|S|, rows, cols), entry
[y] its scalar matrix at y, of ``Backend.dtype`` scalars: ``Fraction``
objects over the rationals, complex128 otherwise.  That holds for
morphisms, operator coefficients and parsed generator matrices; the
coordinates of a module element are one (n, |S|) array, row i the
function f_i.  Matrices over F are arrays of the same scalars too: the
(|H|, dim, dim) matrices of a stabilizer module (``equivalence.HModule``)
and an operator's action matrix.  ``mul`` and ``matmul`` multiply such
arrays with the same rounding.  ``KMatrix``, a matrix over k as a tuple
of functions, is left only for ``Equation.conn``, a read-only view of a
connection as one KMatrix per element, built on first use, for code that
reads it one scalar at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    def from_array(points: np.ndarray, backend: Backend, denom: int = 1) -> "KMatrix":
        """An (|S|, r, c) array, entry [y] the scalar matrix at y, as a
        matrix over k: ``points / denom`` by ``Backend.to_scalars``."""
        rows = backend.to_scalars(points.transpose(1, 2, 0), denom)
        return KMatrix(tuple(tuple(Fn(tuple(v), backend) for v in row)
                             for row in rows), backend)

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
        return KMatrix.from_array(np.array(mats, dtype=self.backend.dtype),
                                  self.backend)

    def eq(self, other: "KMatrix") -> bool:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(a.eq(b) for ra, rb in zip(self.entries, other.entries)
                   for a, b in zip(ra, rb))

    def is_zero(self) -> bool:
        return all(f.is_zero() for row in self.entries for f in row)


# Scalars compared per batch in Equation.validate: the temporaries of one
# batch stay at a few hundred KB, whatever |G| is.
_BATCH_SCALARS = 1 << 12


def cmul(a: np.ndarray, b: np.ndarray,
         out: Optional[np.ndarray] = None) -> np.ndarray:
    """a * b elementwise on complex arrays, rounded as Python's complex
    product: the real and imaginary parts are computed apart.  (numpy's
    complex ``*`` may fuse a multiply and an add, and so differ in the last
    bit.)  Written into ``out`` when it is given."""
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    re, im = out.real, out.imag
    np.multiply(a.real, b.real, out=re)
    np.multiply(a.imag, b.imag, out=im)
    re -= im
    np.multiply(a.real, b.imag, out=im)
    im += a.imag * b.real
    return out


def mul(a: np.ndarray, b: np.ndarray, backend: Backend,
        out: Optional[np.ndarray] = None) -> np.ndarray:
    """a * b elementwise: exact over the rationals, else ``cmul``."""
    return np.multiply(a, b, out=out) if backend.exact else cmul(a, b, out)


def mul_in_order(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last two axes of complex arrays, rounded exactly as
    ``KMatrix.mul`` rounds: every entry sums its terms in order, starting
    from 0, and every term is a ``cmul`` product.  (numpy's complex
    ``matmul`` may sum in another order, and so differ in the last bit.)"""
    shape = np.broadcast_shapes(a.shape[:-1] + (1,), b.shape[:-2] + (1, b.shape[-1]))
    out = np.zeros(shape, dtype=complex)
    term = np.empty(shape, dtype=complex)
    for t in range(a.shape[-1]):
        out += cmul(a[..., :, t, None], b[..., None, t, :], term)
    return out


def matmul(a: np.ndarray, b: np.ndarray, backend: Backend) -> np.ndarray:
    """a @ b over the last two axes of arrays of backend scalars, with the
    values of a product of nested lists that sums every entry in order from
    zero: over the rationals exact, on Python ints over the common
    denominators, as ``Fraction`` objects; on the complex backend by
    ``mul_in_order``."""
    if not backend.exact:
        return mul_in_order(a, b)
    (ia, da), (ib, db) = backend.integral(a), backend.integral(b)
    return backend.scalar_array(ia @ ib, da * db)


def first_mismatch(lhs: np.ndarray, rhs: np.ndarray,
                   backend: Backend) -> Optional[int]:
    """The least index a with lhs[a] != rhs[a] under ``backend.eq_array``,
    or None when every block agrees."""
    same = backend.eq_array(lhs, rhs).all(axis=tuple(range(1, lhs.ndim)))
    bad = np.flatnonzero(~same)
    return int(bad[0]) if bad.size else None


@dataclass(frozen=True, eq=False)
class Equation:
    """A rank-n equation presented by its connection,
    E^g(y) = array[g, y] / denom.

    ``array`` is read-only, of shape (|G|, |S|, n, n).  On the complex
    backend it is complex128 and ``denom`` is 1.  Over the rationals it holds
    Python ints in an object array, brought on construction to the form that
    ``Backend.integral`` gives (``Backend.reduce``: denom is the least common
    denominator), so equal connections have equal arrays and denominators.
    ``==`` compares groups and connections (the dataclass comparison of
    the fields would compare arrays ambiguously).
    """

    group: Group
    backend: Backend
    rank: int
    array: np.ndarray
    denom: int = 1

    def __post_init__(self):
        arr, d = self.backend.reduce(self.array, self.denom)
        arr = arr.view()
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "denom", d)

    @cached_property
    def conn(self) -> Tuple[KMatrix, ...]:
        """The connection as one KMatrix per group element, built on first
        use, for code that reads it one scalar at a time; the package works
        on ``array``."""
        return tuple(KMatrix.from_array(self.array[g], self.backend, self.denom)
                     for g in range(self.group.order))

    def scalars(self, index) -> np.ndarray:
        """``array[index] / denom`` as an array of backend scalars: for
        example ``scalars(g)`` is E^g, of shape (|S|, n, n)."""
        return self.backend.scalar_array(self.array[index], self.denom)

    def inverse(self, g: int) -> np.ndarray:
        """(E^g)^-1 = g(E^{g^-1}), an (|S|, n, n) array of scalars: the
        cocycle law at (g, g^-1), so it holds for every equation that
        validates; no pointwise inversion, only the gather of
        ``_dual_entries``."""
        ginv = self.group.inv[g]
        return self.scalars((ginv, self.group.elements[ginv]))

    def __eq__(self, other):
        """Equal groups and connections equal scalar for scalar: over the
        rationals equal ints over equal denominators, by the canonical
        form."""
        if not isinstance(other, Equation):
            return NotImplemented
        return ((self.group is other.group or self.group == other.group)
                and self.backend == other.backend and self.rank == other.rank
                and self.denom == other.denom
                and self.array.shape == other.array.shape
                and bool((self.array == other.array).all()))

    def __hash__(self):
        return hash((self.group, self.rank, self.denom))

    def validate(self) -> None:
        """Check E^e = I and the cocycle law for generators x all elements.

        By induction on word length that gives the law for every pair (G is
        finite, so positive words reach every element).  At (g, g^-1) it
        reads g(E^{g^-1}) . E^g = I: every E^g is invertible, with the
        inverse that law predicts.

        With C = array and d = denom, E^e = I reads C[e] == d I, and for a
        generator g the law, scaled by d^2, is one batched ``matmul`` and
        comparison of d C[g g'] with g(C[g']) . C[g], where
        g(C[g'])(y) = C[g'](g^-1 y), over consecutive slices of g' holding
        about ``_BATCH_SCALARS`` scalars each, so the temporaries stay small
        whatever |G| is.  Over the rationals every product multiplies
        Python ints.  A failure names the first pair in generator order,
        then g' ascending, as a pointwise scan would.  Rank 0 has nothing
        to check.  Complex products may round in the last bit unlike
        ``KMatrix.mul``; only an eps near machine precision can see that.
        """
        group, be = self.group, self.backend
        conn, d = self.array, self.denom
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


def trivial_equation(group: Group, backend: Backend, rank: int = 1) -> Equation:
    """The equation 1 (and its powers): identity connection everywhere."""
    shape = (group.order, group.space.size, rank, rank)
    return Equation(group, backend, rank,
                    np.broadcast_to(np.eye(rank, dtype=backend.dtype), shape))


def complete_connection(group: Group, backend: Backend,
                        generator_matrices: Dict[str, np.ndarray]) -> Equation:
    """Extend generator connection data to all of G by the cocycle law.

    ``generator_matrices`` maps each generator name to E^s, an (|S|, n, n)
    array of backend scalars.  Raises InconsistentConnection when an
    element reached by two words gets conflicting matrices,
    SingularGeneratorMatrix for non-invertible input.
    Breadth first from E^e = I: each level sets E^{s g'} = s(E^{g'}) . E^s
    for every element g' of the level before (in order) and generator s
    (in the order of ``group.generators``).  An element keeps the matrix of
    the first such product that reaches it, and every later product that
    reaches it must agree with it; that is all that Equation.validate
    checks.

    Each level is one batched product over its elements and all the
    generators.  The generator matrices are checked for singularity in one
    batch per generator (``linalg.any_singular``).  The products are
    those of ``KMatrix.mul``, bit for bit: on the complex backend by
    ``mul_in_order``; over the rationals on Python ints, E^g being
    A[g] / d^depth(g) with d the common denominator of the generator
    matrices (``Backend.integral``), so that a product of depth L + 1 is
    A[g'] . (d E^s) over d^(L+1); at the end every A[g] is brought to the
    deepest level's denominator.
    """
    if set(generator_matrices) != set(group.generators):
        raise InconsistentConnection(
            f"need one matrix per generator {sorted(group.generators)}")
    size = group.space.size
    rank = next(iter(generator_matrices.values())).shape[1]
    for name, mat in generator_matrices.items():
        if mat.shape != (size, rank, rank):
            raise InconsistentConnection(f"generator {name!r} has wrong shape")
        if linalg.any_singular(mat, backend):
            raise SingularGeneratorMatrix(f"generator {name!r} singular at some point")

    mats, d = backend.integral(np.stack([generator_matrices[name]
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
    top = int(depth.max())
    if d != 1:
        scale = np.array([d ** (top - int(k)) for k in depth], dtype=object)
        conn = conn * scale[:, None, None, None]
    return Equation(group, backend, rank, conn, d ** top)


def act(eq: Equation, g: int, coords: np.ndarray) -> np.ndarray:
    """Coordinates, an (n, |S|) array, transform as f |-> g(f) . E^g: at
    every point the row vector of g(f) times E^g, summed in order as
    ``KMatrix.mul`` sums."""
    shifted = coords[:, eq.group.elements[eq.group.inv[g]]].T[:, None, :]
    return matmul(shifted, eq.scalars(g), eq.backend)[:, 0].T


def _check_compatible(e: Equation, f: Equation) -> None:
    if e.group is not f.group and e.group != f.group:
        raise BackendMismatch("equations live over different groups")
    e.backend.check_same(f.backend)


def _entries(e: Equation) -> np.ndarray:
    """The connection entry-major, shape (n, n, |G|, |S|): a view of
    ``array`` whose entry [i, j] is the (|G|, |S|) plane of E^g_ij(y).

    The constructions below fill their results one such plane at a time,
    each one batched operation over all of G and S.  Their temporaries are
    then one plane, not the whole connection: fresh memory is what a large
    temporary costs most."""
    return np.moveaxis(e.array, (2, 3), (0, 1))


def _from_entries(e: Equation, rank: int, entries: np.ndarray,
                  denom: int) -> Equation:
    """An equation over e's group and backend from an entry-major
    connection, stored as a (|G|, |S|, n, n) view of it."""
    return Equation(e.group, e.backend, rank,
                    np.moveaxis(entries, (0, 1), (2, 3)), denom)


def _kron(a: np.ndarray, b: np.ndarray, backend: Backend) -> np.ndarray:
    """Entry-major: row (i, j), column (r, u) is a_ir * b_ju, row-major."""
    (n, n2), (m, m2) = a.shape[:2], b.shape[:2]
    out = np.empty((n * m, n2 * m2) + a.shape[2:], dtype=backend.dtype)
    for i in range(n):
        for j in range(m):
            for r in range(n2):
                for u in range(m2):
                    mul(a[i, r], b[j, u], backend, out[i * m + j, r * m2 + u])
    return out


def _dual_entries(e: Equation) -> np.ndarray:
    """(E*)^g(y) = ((E^g(y))^t)^-1 = E^{g^-1}(g^-1 y)^t, by Equation.inverse:
    one gather and a transpose, entry-major."""
    inv = np.array(e.group.inv)
    return _entries(e)[:, :, inv[:, None], e.group.elements[inv]].swapaxes(0, 1)


def direct_sum(e: Equation, f: Equation) -> Equation:
    _check_compatible(e, f)
    n, m = e.rank, f.rank
    d = math.lcm(e.denom, f.denom)
    out = np.zeros((n + m, n + m) + e.array.shape[:2], dtype=e.backend.dtype)
    out[:n, :n] = _entries(e) if d == e.denom else _entries(e) * (d // e.denom)
    out[n:, n:] = _entries(f) if d == f.denom else _entries(f) * (d // f.denom)
    return _from_entries(e, n + m, out, d)


def tensor(e: Equation, f: Equation) -> Equation:
    _check_compatible(e, f)
    return _from_entries(e, e.rank * f.rank,
                         _kron(_entries(e), _entries(f), e.backend),
                         e.denom * f.denom)


def dual(e: Equation) -> Equation:
    """(E*)^g = ((E^g)^t)^{-1} = (g(E^{g^-1}))^t, by Equation.inverse."""
    return _from_entries(e, e.rank, _dual_entries(e), e.denom)


def hom(e: Equation, f: Equation) -> Equation:
    """Hom_k(E,F)^g = F^g (x) ((E^g)^t)^{-1}; basis d_{ij}, i over F, j over E."""
    _check_compatible(e, f)
    return _from_entries(e, e.rank * f.rank,
                         _kron(_entries(f), _dual_entries(e), e.backend),
                         f.denom * e.denom)


def sym2_basis(n: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def wedge2_basis(n: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _pair_power(e: Equation, basis: List[Tuple[int, int]],
                combine: np.ufunc) -> np.ndarray:
    """Entry-major: entry ((i, j), (k, l)) over the basis pairs is
    combine(m_ik m_jl, m_il m_jk) for k != l and m_ik m_jk for k = l, m the
    entries of E^g(y)."""
    m, be = _entries(e), e.backend
    out = np.empty((len(basis), len(basis)) + m.shape[2:], dtype=be.dtype)
    for r, (i, j) in enumerate(basis):
        for c, (k, l) in enumerate(basis):
            plane = mul(m[i, k], m[j, l], be, out[r, c])
            if k != l:
                combine(plane, mul(m[i, l], m[j, k], be), out=plane)
    return out


def sym2(e: Equation) -> Equation:
    """Symmetric square on the basis {e_i e_j}, i <= j, lexicographic: entry
    m_ik m_jl + m_il m_jk, or m_ik m_jk in a column k = l."""
    basis = sym2_basis(e.rank)
    return _from_entries(e, len(basis), _pair_power(e, basis, np.add),
                         e.denom ** 2)


def wedge2(e: Equation) -> Equation:
    """Exterior square on the basis {e_i ^ e_j}, i < j, lexicographic: entry
    m_ik m_jl - m_il m_jk."""
    basis = wedge2_basis(e.rank)
    return _from_entries(e, len(basis), _pair_power(e, basis, np.subtract),
                         e.denom ** 2)


def wedge_top(e: Equation) -> Equation:
    """Top exterior power: rank 1 with connection det(E^g), one
    ``linalg.det`` per point."""
    be = e.backend
    planes = e.array.shape[:2]
    dets = np.empty(planes + (1, 1), dtype=be.dtype)
    for g, y in np.ndindex(planes):
        dets[g, y, 0, 0] = linalg.det(e.scalars((g, y)).tolist(), be)
    arr, d = be.integral(dets)
    return Equation(e.group, be, 1, arr, d)
