"""Connection-presented difference equations and their tensor calculus.

An equation of rank n is a free k-module with the G-action recorded by one
n x n matrix of functions per group element (the connection), subject to
the cocycle law  E^{gg'} = g(E^{g'}) E^g  and E^e = id.

Coordinates are row vectors: an element with coordinate functions f
transforms as  f |-> g(f) . E^g.

An ``Equation`` stores its connection in one of two forms.  An equation
given by generator data (``complete_connection``) holds one array of shape
(|G|, |S|, n, n), entry [g, y] the scalar matrix E^g(y).  An induced
equation (``equivalence.induce``) holds its base fiber, the (|H|, n, n)
matrices of an H-module, and the ``Cells`` table of its transversal, which
says which of them E^g(y) is; the (|G|, |S|, n, n) array is gathered from
them only when it is read.  Either way the scalars are complex128 on the
complex backend and Python ints over one common denominator over the
rationals, and ``Equation.integral`` reads the matrices of any cells.
Every construction (direct sum, tensor, dual, Hom, Sym^2, Lambda^2,
Lambda^top) is a few batched operations on the entry-major view of the
stored arrays, with the values of the pointwise matrix formulas, bit for
bit: complex products go through ``cmul``, which rounds as Python's complex
product does.  Operands induced over one transversal give an induced
result, computed on their fibers alone.

Every other matrix over k is an array of shape (|S|, rows, cols), entry
[y] its scalar matrix at y, of ``Backend.dtype`` scalars: ``Fraction``
objects over the rationals, complex128 otherwise.  That holds for
morphisms, operator coefficients and parsed generator matrices; the
coordinates of a module element are one (n, |S|) array, row i the
function f_i, and a skew group algebra element keeps its function
coefficients in one (k, |S|) array (``skewalg.SkewOp``).  Matrices over F
are arrays of the same scalars too: the (|H|, dim, dim) matrices of a
stabilizer module (``equivalence.HModule``) and an operator's action
matrix.  ``mul`` and ``matmul`` multiply such arrays with the same
rounding.  ``Equation.conn`` views a connection as one ``KMatrix`` of
``Fn`` entries per element, for code that reads it one scalar at a time.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import linalg
from .errors import (BackendMismatch, ElementNotInH, InconsistentConnection,
                     InvalidHModule, SingularGeneratorMatrix)
from .scalars import Backend
from .space import Group, Subgroup, Transversal, stabilizer, transversal


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
    """a @ b over the last two axes of complex arrays, rounded exactly as a
    product of nested lists of complex numbers: every entry sums its terms
    in order from 0, each a ``cmul`` product (numpy's ``matmul`` may sum in
    another order, and differ in the last bit)."""
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


def read_only(arr: np.ndarray) -> np.ndarray:
    """A view of arr that cannot be written to."""
    view = arr.view()
    view.flags.writeable = False
    return view


class Cells:
    """Which stabilizer element an equation induced over a transversal has
    at each cell: ``table[g, y]`` is the slot in ``subgroup.members`` of
    sigma(y)^-1 g sigma(g^-1 y), and ``inverse[i]`` the slot of the inverse
    of member i.  One per transversal (``cell_table``), kept by the group
    and shared by every equation induced over it; the cells keep the group
    by a weak reference and their subgroup and transversal as ids, so that
    a dropped problem is freed at once.  All of it is computed on
    first use: the table as one (|G|, |S|) array of products
    (``Group.mul_ids``), which raises ElementNotInH when a product leaves
    the subgroup, and for ``base_cells`` the subgroup and the transversal
    too, so an equation that never reads its cells never pays for them.

    Every h of H sits at ``table[h, base]`` when sigma(base) = e, so an
    induced equation's connection holds each of its fiber matrices."""

    def __init__(self, group: Group, subgroup: Optional[Subgroup] = None,
                 sigma: Optional[Transversal] = None):
        self._group = weakref.ref(group)
        self._members = None if subgroup is None else subgroup.members
        self._sigma = None if sigma is None else (sigma.base, sigma.sigma)

    @property
    def transversal(self) -> Transversal:
        if self._sigma is None:
            found = transversal(self._group())
            self._sigma = found.base, found.sigma
        return Transversal(self._group(), *self._sigma)

    @property
    def subgroup(self) -> Subgroup:
        group = self._group()
        if self._members is None:
            self._members = stabilizer(group, self.transversal.base).members
        return Subgroup(group, self._members)

    @cached_property
    def table(self) -> np.ndarray:
        group, size = self._group(), self._group().space.size
        slot = _slots(self.subgroup, np.arange(group.order))
        sig = np.array(self.transversal.sigma)
        inv = np.array(group.inv)
        # in slices of g holding about _BATCH_SCALARS cells, so that the
        # temporaries of the products stay small
        table = np.empty((group.order, size), dtype=np.intp)
        step = max(1, _BATCH_SCALARS // size)
        for start in range(0, group.order, step):
            g = np.arange(start, min(start + step, group.order))
            table[g] = slot[group.mul_ids(inv[sig][None, :], g[:, None],
                                          sig[group.elements[inv[g]]])]
        outside = np.flatnonzero(table < 0)
        if outside.size:
            g, y = divmod(int(outside[0]), group.space.size)
            raise ElementNotInH(
                f"transversal arithmetic left H at (g={g}, y={y})")
        return read_only(table)

    @cached_property
    def inverse(self) -> np.ndarray:
        return _inverse_slots(self.subgroup)


def _slots(sub: Subgroup, ids: np.ndarray) -> np.ndarray:
    """The position of each element id in ``sub.members``, -1 outside H."""
    slot = np.full(sub.group.order, -1)
    slot[list(sub.members)] = np.arange(sub.order)
    return slot[ids]


def _inverse_slots(sub: Subgroup) -> np.ndarray:
    """The slot in ``sub.members`` of the inverse of each member."""
    return _slots(sub, np.array(sub.group.inv)[list(sub.members)])


def base_cells(group: Group) -> Cells:
    """The cells of induction along ``space.transversal(group)`` of modules
    over the stabilizer of the base point, kept by the group; the subgroup
    and the transversal are found on first use."""
    cells = group._cell_tables.get(None)
    if cells is None:
        cells = group._cell_tables[None] = Cells(group)
    return cells


def cell_table(sub: Subgroup, sigma: Transversal) -> Cells:
    """The cells of induction of a module over ``sub`` along sigma: one
    ``Cells`` per (subgroup, transversal), kept by the group, and
    ``base_cells`` for the stabilizer of the base point along
    ``space.transversal``."""
    tables = sub.group._cell_tables
    key = (sub.members, sigma.base, sigma.sigma)
    if key not in tables:
        base = base_cells(sub.group)
        same = (base.subgroup.members, base.transversal.base,
                base.transversal.sigma) == key
        tables[key] = base if same else Cells(sub.group, sub, sigma)
    return tables[key]


@dataclass(frozen=True)
class Fn:
    """A function on the space, one scalar per point: an entry of a
    ``KMatrix`` view."""

    values: tuple
    backend: Backend


class KMatrix:
    """A read-only view of a matrix over k, the (|S|, r, c) array ``points``
    of backend scalars, entry [y] its scalar matrix at y: ``entries[i][j]``
    is the function y -> points[y, i, j], built once per view, for code
    that reads a connection one scalar at a time (``Equation.conn``).

    ``mul``, ``g_act`` and ``inverse`` compute on the array; they are kept
    only because the benchmark's traced mode wraps them by name
    (``perfbench/layers.py``)."""

    def __init__(self, points: np.ndarray, backend: Backend):
        self.points = read_only(points)
        self.backend = backend
        self.entries = tuple(tuple(Fn(tuple(v), backend) for v in row)
                             for row in points.transpose(1, 2, 0).tolist())

    def mul(self, other: "KMatrix") -> "KMatrix":
        return KMatrix(matmul(self.points, other.points, self.backend),
                       self.backend)

    def g_act(self, group: Group, g: int) -> "KMatrix":
        """g applied to every entry: (g.f)(x) = f(g^{-1}x)."""
        return KMatrix(self.points[group.elements[group.inv[g]]], self.backend)

    def inverse(self) -> Optional["KMatrix"]:
        mats = [linalg.inv(m, self.backend) for m in self.points.tolist()]
        if any(m is None for m in mats):
            return None
        return KMatrix(np.array(mats, dtype=self.backend.dtype)
                       .reshape(self.points.shape), self.backend)


class Equation:
    """A rank-n equation presented by its connection,
    E^g(y) = A[g, y] / denom.

    Given ``array``, of shape (|G|, |S|, n, n), that is A itself.  Given
    ``cells`` as well, the equation is induced and ``array`` is the fiber
    F, of shape (|H|, n, n): A[g, y] = F[cells.table[g, y]], gathered by
    ``Equation.array`` only when it is read, and ``module`` is the H-module
    F / denom (given, or built on first use).  On the complex backend the
    scalars are complex128 and ``denom`` is 1.  Over the rationals they are
    Python ints in an object array, brought on construction to the form
    that ``Backend.integral`` gives (``Backend.reduce``: denom is the least
    common denominator), so equal connections have equal arrays and
    denominators.  ``Equation.integral`` reads A at any index; the package
    reads the connection through it alone.  ``==`` compares groups and
    connections: the fibers of two equations induced over one transversal,
    else the gathered arrays.
    """

    def __init__(self, group: Group, backend: Backend, rank: int,
                 array: np.ndarray, denom: int = 1,
                 cells: Optional[Cells] = None, module=None):
        arr, d = backend.reduce(array, denom)
        self.group = group
        self.backend = backend
        self.rank = rank
        self.denom = d
        self.cells = cells
        self._stored = read_only(arr)
        self._module = module

    @property
    def module(self):
        """The fiber H-module of an induced equation, None otherwise."""
        if self._module is None and self.cells is not None:
            from .equivalence import HModule
            self._module = HModule(
                self.cells.subgroup, self.backend, self.rank,
                self.backend.scalar_array(self._stored, self.denom))
        return self._module

    @cached_property
    def array(self) -> np.ndarray:
        """The connection A, read-only, of shape (|G|, |S|, n, n); gathered
        from the fiber on first use for an induced equation."""
        if self.cells is None:
            return self._stored
        return read_only(self._stored[self.cells.table])

    @cached_property
    def conn(self) -> Tuple[KMatrix, ...]:
        """The connection as one ``KMatrix`` view per group element, built
        on first use, for code that reads it one scalar at a time; the
        package works on ``integral``."""
        return tuple(KMatrix(self.scalars(g), self.backend)
                     for g in range(self.group.order))

    def integral(self, index) -> Tuple[np.ndarray, int]:
        """(A[index], denom): the connection at ``index``, any index of the
        first two axes, as ints (or complex) over the denominator.  An
        induced equation reads only the fiber matrices those cells name."""
        if self.cells is None:
            return self._stored[index], self.denom
        return self._stored[self.cells.table[index]], self.denom

    def scalars(self, index) -> np.ndarray:
        """``A[index] / denom`` as an array of backend scalars: for example
        ``scalars(g)`` is E^g, of shape (|S|, n, n)."""
        return self.backend.scalar_array(*self.integral(index))

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
        form.  Two equations induced over one transversal compare fibers:
        their connections gather every fiber matrix from one table."""
        if not isinstance(other, Equation):
            return NotImplemented
        if not ((self.group is other.group or self.group == other.group)
                and self.backend == other.backend and self.rank == other.rank
                and self.denom == other.denom):
            return False
        if self.cells is not None and self.cells is other.cells:
            mine, theirs = self._stored, other._stored
        else:
            mine, theirs = self.array, other.array
        return mine.shape == theirs.shape and bool((mine == theirs).all())

    def __hash__(self):
        return hash((self.group, self.rank, self.denom))

    def validate(self) -> None:
        """Check E^e = I and the cocycle law for generators x all elements.

        By induction on word length that gives the law for every pair (G is
        finite, so positive words reach every element).  At (g, g^-1) it
        reads g(E^{g^-1}) . E^g = I: every E^g is invertible, with the
        inverse that law predicts.

        An induced equation checks its fiber module (``HModule.validate``):
        induction of a module satisfies both laws, because the cell table is
        a cocycle, h(gg', y) = h(g, y) h(g', g^-1 y), with h(e, y) = e.
        Over the rationals that check costs k |H| products (k generators of
        H) and always runs; the complex one scans all |H|^2 pairs, and runs
        when they are no more than the generators x |G| x |S| cells of the
        scan below.  When the module check fails, the scan names the failure.

        With C = array and d = denom, E^e = I reads C[e] == d I, and for a
        generator g the law, scaled by d^2, is one batched ``matmul`` and
        comparison of d C[g g'] with g(C[g']) . C[g], where
        g(C[g'])(y) = C[g'](g^-1 y), over consecutive slices of g' holding
        about ``_BATCH_SCALARS`` scalars each, read by ``integral``, so the
        temporaries stay small whatever |G| is.  Over the rationals every
        product multiplies Python ints.  A failure names the first pair in
        generator order, then g' ascending, as a pointwise scan would.
        Rank 0 has nothing to check.  Complex products may round in the
        last bit unlike ``mul_in_order``; only an eps near machine precision
        can see that.
        """
        group, be = self.group, self.backend
        scan = len(group.generator_ids) * group.order * group.space.size
        if self.cells is not None and (
                be.exact or self.cells.subgroup.order ** 2 <= scan):
            try:
                self.module.validate()
                return
            except InvalidHModule:
                pass
        conn, d = self.integral, self.denom
        eye = np.eye(self.rank, dtype=be.dtype)
        if not be.eq_array(conn(0)[0], d * eye).all():
            raise InconsistentConnection("E^e is not the identity")
        cell = group.space.size * self.rank ** 2
        step = max(1, _BATCH_SCALARS // max(1, cell))
        for g in group.generator_ids:
            ginv_image = group.elements[group.inv[g]]
            products = group.mul_ids(g, np.arange(group.order))
            for start in range(0, group.order, step):
                stop = min(start + step, group.order)
                lhs = d * conn(products[start:stop])[0]
                rhs = conn((slice(start, stop), ginv_image))[0] @ conn(g)[0]
                bad = first_mismatch(lhs, rhs, be)
                if bad is not None:
                    raise InconsistentConnection(
                        f"cocycle violated at elements ({g}, {start + bad})")


def trivial_equation(group: Group, backend: Backend, rank: int = 1) -> Equation:
    """The equation 1 (and its powers): the induced equation of the trivial
    module (``equivalence.trivial_hmodule``) over ``base_cells``, whose
    integral form is the identity over 1 at every element of H; so the
    identity connection everywhere.  |H| = |G| / |S|, G being transitive."""
    eye = np.eye(rank, dtype=backend.dtype)[None]
    return Equation(group, backend, rank,
                    eye.repeat(group.order // group.space.size, axis=0), 1,
                    base_cells(group))


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
    generators.  The generator matrices are tested in order, shape then
    singularity (``linalg.any_singular``): first on the complex backend,
    over the rationals only before a failure is raised, as an exact
    completion has E^{s^m} = I.  The products are those of ``matmul``, bit
    for bit: on the complex backend by ``mul_in_order``; over the
    rationals on Python ints, E^g being A[g] / d^depth(g) with d the
    common denominator of the generator matrices (``Backend.integral``),
    so that a product of depth L + 1 is A[g'] . (d E^s) over d^(L+1); at
    the end every A[g] is brought to the deepest level's denominator.
    """
    if set(generator_matrices) != set(group.generators):
        raise InconsistentConnection(
            f"need one matrix per generator {sorted(group.generators)}")
    size = group.space.size
    rank = next(iter(generator_matrices.values())).shape[1]

    def check(error=None):
        for name, mat in generator_matrices.items():
            if mat.shape != (size, rank, rank):
                raise InconsistentConnection(f"generator {name!r} has wrong shape")
            if linalg.any_singular(mat, backend):
                raise SingularGeneratorMatrix(f"generator {name!r} singular at some point")
        if error is not None:
            raise error
    if not backend.exact or any(mat.shape != (size, rank, rank)
                                for mat in generator_matrices.values()):
        check()
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
        if backend.exact and d != 1:
            scale = np.array([d ** (level - int(k)) for k in depth[targets]],
                             dtype=object)
            stored = conn[targets] * scale[:, None, None, None]
        else:
            stored = conn[targets]
        bad = first_mismatch(stored, cands, backend)
        if bad is not None:
            check(InconsistentConnection(
                f"element {targets[bad]} reached with conflicting matrices"))
    if (depth < 0).any():
        check(InconsistentConnection("generators do not generate the group"))
    top = int(depth.max())
    if d != 1:
        scale = np.array([d ** (top - int(k)) for k in depth], dtype=object)
        conn = conn * scale[:, None, None, None]
    return Equation(group, backend, rank, conn, d ** top)


def act(eq: Equation, g: int, coords: np.ndarray) -> np.ndarray:
    """Coordinates, an (n, |S|) array, transform as f |-> g(f) . E^g: at
    every point the row vector of g(f) times E^g, summed in order as
    ``matmul`` sums."""
    shifted = coords[:, eq.group.elements[eq.group.inv[g]]].T[:, None, :]
    return matmul(shifted, eq.scalars(g), eq.backend)[:, 0].T


def _check_compatible(e: Equation, f: Equation) -> None:
    if e.group is not f.group and e.group != f.group:
        raise BackendMismatch("equations live over different groups")
    e.backend.check_same(f.backend)


def _on_fibers(e: Equation, *others: Equation) -> bool:
    """Whether every operand is induced over one transversal (one group's
    ``cell_table``): a construction then works on the fibers and gives an
    induced equation."""
    return e.cells is not None and all(f.cells is e.cells for f in others)


def _entry_major(arr: np.ndarray) -> np.ndarray:
    """A view of stacked matrices (..., n, n) whose entry [i, j] is the
    plane of the (i, j) entries of all of them."""
    return np.moveaxis(arr, (-2, -1), (0, 1))


def _cell_major(entries: np.ndarray) -> np.ndarray:
    """The inverse of ``_entry_major``."""
    return np.moveaxis(entries, (0, 1), (-2, -1))


def _entries(e: Equation, on_fibers: bool) -> np.ndarray:
    """The stored matrices entry-major: a view whose entry [i, j] is the
    (|H|,) plane of the fiber's rho_ij, or the (|G|, |S|) plane of
    E^g_ij(y).

    The constructions below fill their results one such plane at a time,
    each one batched operation over all its cells.  Their temporaries are
    then one plane, not the whole connection: fresh memory is what a large
    temporary costs most.  The fiber planes hold the values the gathered
    planes repeat, so both give the same scalars, bit for bit.  The
    constructions of ``equivalence.HModule`` run the same helpers on a
    module's planes."""
    return _entry_major(e._stored if on_fibers else e.array)


def _from_entries(e: Equation, rank: int, entries: np.ndarray, denom: int,
                  on_fibers: bool) -> Equation:
    """An equation over e's group and backend from entry-major matrices,
    stored as a view of them: induced over e's cells when the matrices are
    fibers."""
    return Equation(e.group, e.backend, rank, _cell_major(entries), denom,
                    e.cells if on_fibers else None)


def _block_sum(a: np.ndarray, da: int, b: np.ndarray, db: int,
              backend: Backend) -> Tuple[np.ndarray, int]:
    """Entry-major a / da and b / db as the blocks of one block-diagonal
    matrix over the lcm d of the denominators: (entries, d)."""
    n, m = len(a), len(b)
    d = math.lcm(da, db)
    out = np.zeros((n + m, n + m) + a.shape[2:], dtype=backend.dtype)
    out[:n, :n] = a if d == da else a * (d // da)
    out[n:, n:] = b if d == db else b * (d // db)
    return out, d


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


def _inverse_cells(e: Equation, on_fibers: bool) -> tuple:
    """The index, into the cell axes of ``_entries``, of the matrices that
    give (E^g(y))^-1 = E^{g^-1}(g^-1 y) by Equation.inverse: on the fiber
    the slot of h^-1 for each h."""
    if on_fibers:
        return (e.cells.inverse,)
    inv = np.array(e.group.inv)
    return (inv[:, None], e.group.elements[inv])


def _dual_entries(m: np.ndarray, inverse: tuple) -> np.ndarray:
    """The dual's matrices ((E^g(y))^t)^-1 from entry-major matrices m and
    ``_inverse_cells``: one gather and a transpose, entry-major."""
    return m[(slice(None), slice(None)) + inverse].swapaxes(0, 1)


def direct_sum(e: Equation, f: Equation) -> Equation:
    _check_compatible(e, f)
    fib = _on_fibers(e, f)
    return _from_entries(e, e.rank + f.rank, *_block_sum(
        _entries(e, fib), e.denom, _entries(f, fib), f.denom, e.backend), fib)


def tensor(e: Equation, f: Equation) -> Equation:
    _check_compatible(e, f)
    fib = _on_fibers(e, f)
    return _from_entries(e, e.rank * f.rank,
                         _kron(_entries(e, fib), _entries(f, fib), e.backend),
                         e.denom * f.denom, fib)


def dual(e: Equation) -> Equation:
    """(E*)^g = ((E^g)^t)^{-1} = (g(E^{g^-1}))^t, by Equation.inverse."""
    fib = _on_fibers(e)
    return _from_entries(e, e.rank, _dual_entries(
        _entries(e, fib), _inverse_cells(e, fib)), e.denom, fib)


def hom(e: Equation, f: Equation) -> Equation:
    """Hom_k(E,F)^g = F^g (x) ((E^g)^t)^{-1}; basis d_{ij}, i over F, j over E."""
    _check_compatible(e, f)
    fib = _on_fibers(e, f)
    return _from_entries(e, e.rank * f.rank,
                         _kron(_entries(f, fib), _dual_entries(
                             _entries(e, fib), _inverse_cells(e, fib)),
                               e.backend),
                         f.denom * e.denom, fib)


def sym2_basis(n: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def wedge2_basis(n: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _pair_power(m: np.ndarray, basis: List[Tuple[int, int]],
                combine: np.ufunc, be: Backend) -> np.ndarray:
    """Entry-major: entry ((i, j), (k, l)) over the basis pairs is
    combine(m_ik m_jl, m_il m_jk) for k != l and m_ik m_jk for k = l, m
    entry-major matrices."""
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
    fib = _on_fibers(e)
    basis = sym2_basis(e.rank)
    return _from_entries(e, len(basis), _pair_power(
        _entries(e, fib), basis, np.add, e.backend), e.denom ** 2, fib)


def wedge2(e: Equation) -> Equation:
    """Exterior square on the basis {e_i ^ e_j}, i < j, lexicographic: entry
    m_ik m_jl - m_il m_jk."""
    fib = _on_fibers(e)
    basis = wedge2_basis(e.rank)
    return _from_entries(e, len(basis), _pair_power(
        _entries(e, fib), basis, np.subtract, e.backend), e.denom ** 2, fib)


def wedge_top(e: Equation) -> Equation:
    """Top exterior power: rank 1 with connection det(E^g), one
    ``linalg.det`` per stored matrix."""
    be, fib = e.backend, _on_fibers(e)
    stored = e._stored if fib else e.array
    planes = stored.shape[:-2]
    dets = np.empty(planes + (1, 1), dtype=be.dtype)
    for cell in np.ndindex(planes):
        dets[cell] = linalg.det(be.to_scalars(stored[cell], e.denom), be)
    arr, d = be.integral(dets)
    return Equation(e.group, be, 1, arr, d, e.cells if fib else None)
