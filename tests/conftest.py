"""Shared fixtures: small dihedral groups, the standard equation zoo,
independent sympy-based oracles for dimensions computed by the package,
full-group checks (the package itself checks generators only), second
routes to the package's results, and the multiplication table, per-cell
constructions, pointwise operator calculus and nested-list module code
that the package's array code must reproduce exactly, the global
kernel of mu (``ker_mu_basis``), which no task needs, and the per-scalar
report formatter that ``Backend.serialize`` must reproduce.

The pointwise vocabulary all of that speaks lives here too: ``Fn``, a
function on the space as a tuple of scalars, ``KMatrix``, a matrix over k
as a tuple of them, ``conn_of(eq)``, an equation's connection as one
KMatrix per element, and ``PointwiseSkewOp``, the skew group algebra on
``Fn`` coefficients."""

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np
import pytest
import sympy

from gdiff import equivalence, linalg
from gdiff.diffops import RawOperator
from gdiff.equations import (Equation, act, direct_sum, sym2_basis,
                             trivial_equation, wedge2_basis)
from gdiff.errors import (ElementNotInH, InconsistentConnection,
                          SingularGeneratorMatrix)
from gdiff.projection import _chi_scalar
from gdiff.scalars import Backend
from gdiff.solver import Morphism
from gdiff.skewalg import SkewOp
from gdiff.space import (BASE_POINT, Group, dihedral_on_cycle, stabilizer,
                         transversal)


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


# -- matrices as nested lists of scalars, the arithmetic the oracles use ------

def zeros(r, c, backend):
    z = backend.zero()
    return [[z for _ in range(c)] for _ in range(r)]


def identity(n, backend):
    m = zeros(n, n, backend)
    for i in range(n):
        m[i][i] = backend.one()
    return m


def transpose(a):
    return [list(row) for row in zip(*a)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b, backend):
    """a . b, every entry summed in order from zero."""
    bt = transpose(b)
    z = backend.zero()
    return [[sum((x * y for x, y in zip(row, col)), z) for col in bt]
            for row in a]


def mat_vec(a, v, backend):
    z = backend.zero()
    return [sum((x * y for x, y in zip(row, v)), z) for row in a]


def scalar_eq(backend, a, b):
    """Two scalars compared as ``Backend.eq_array`` compares arrays:
    exactly over the rationals, else |a - b| <= eps * (1 + max(|a|, |b|))."""
    if backend.exact:
        return a == b
    return abs(a - b) <= backend.eps * (1 + max(abs(a), abs(b)))


def mat_eq(a, b, backend):
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        return False
    return all(scalar_eq(backend, x, y) for ra, rb in zip(a, b)
               for x, y in zip(ra, rb))


def flatten(a):
    return [x for row in a for x in row]


def unflatten(v, r, c):
    return [list(v[i * c:(i + 1) * c]) for i in range(r)]


def perfbench_module(name):
    """The namespace of perfbench/<name>.py, run from its source: no import
    of perfbench as a package, and nothing written under perfbench/."""
    path = os.path.join(PERFBENCH, f"{name}.py")
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    namespace = {"__name__": f"perfbench_{name}", "__file__": path}
    exec(code, namespace)
    return namespace


# -- functions and matrices over k as tuples of scalars, the way the package
# held them before it worked on arrays ------------------------------------------

def image(group, g):
    """The image array of g as a list: ``image(group, inv[g])`` is what
    ``Fn.translate`` needs to apply g."""
    return group.elements[g].tolist()


@dataclass(frozen=True)
class Fn:
    """An element of k = F(S): one scalar per point of the space."""

    values: tuple
    backend: Backend

    @staticmethod
    def constant(c, size: int, backend: Backend) -> "Fn":
        c = backend.coerce(c)
        return Fn((c,) * size, backend)

    @staticmethod
    def zero(size: int, backend: Backend) -> "Fn":
        return Fn.constant(0, size, backend)

    @staticmethod
    def one(size: int, backend: Backend) -> "Fn":
        return Fn.constant(1, size, backend)

    @staticmethod
    def delta(x: int, size: int, backend: Backend) -> "Fn":
        vals = [backend.zero()] * size
        vals[x] = backend.one()
        return Fn(tuple(vals), backend)

    @staticmethod
    def from_values(values: Sequence[Any], backend: Backend) -> "Fn":
        return Fn(tuple(backend.coerce(v) for v in values), backend)

    def __len__(self) -> int:
        return len(self.values)

    def __add__(self, other: "Fn") -> "Fn":
        self.backend.check_same(other.backend)
        return Fn(tuple(a + b for a, b in zip(self.values, other.values)), self.backend)

    def __sub__(self, other: "Fn") -> "Fn":
        self.backend.check_same(other.backend)
        return Fn(tuple(a - b for a, b in zip(self.values, other.values)), self.backend)

    def __mul__(self, other: "Fn") -> "Fn":
        self.backend.check_same(other.backend)
        return Fn(tuple(a * b for a, b in zip(self.values, other.values)), self.backend)

    def __neg__(self) -> "Fn":
        return Fn(tuple(-a for a in self.values), self.backend)

    def scale(self, c) -> "Fn":
        c = self.backend.coerce(c)
        return Fn(tuple(c * a for a in self.values), self.backend)

    def translate(self, ginv_image: Sequence[int]) -> "Fn":
        """(g.f)(x) = f(g^{-1}x); caller supplies the image array of g^{-1}."""
        return Fn(tuple(self.values[ginv_image[x]] for x in range(len(self.values))), self.backend)

    def is_zero(self) -> bool:
        return all(self.backend.is_zero(v) for v in self.values)

    def eq(self, other: "Fn") -> bool:
        return all(scalar_eq(self.backend, a, b) for a, b in zip(self.values, other.values))


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
        ginv = image(group, group.inv[g])
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


def conn_of(eq):
    """The connection of an equation as one KMatrix per group element, its
    scalars read through ``Equation.integral``."""
    return tuple(KMatrix.from_array(arr, eq.backend, d)
                 for arr, d in map(eq.integral, range(eq.group.order)))


def act_on_function(group: Group, g: int, f: Fn) -> Fn:
    """(g.f)(x) = f(g^{-1} x)."""
    return f.translate(image(group, group.inv[g]))


@dataclass(frozen=True)
class PointwiseSkewOp:
    """Finite formal sum sum_g a_g . g with a_g in k; zero terms pruned."""

    group: Group
    backend: Backend
    terms: Tuple[Tuple[int, Fn], ...]  # sorted by element id

    @staticmethod
    def from_terms(group: Group, backend: Backend, terms: Dict[int, Fn]) -> "PointwiseSkewOp":
        pruned = {g: f for g, f in terms.items() if not f.is_zero()}
        return PointwiseSkewOp(group, backend, tuple(sorted(pruned.items())))

    def __add__(self, other: "PointwiseSkewOp") -> "PointwiseSkewOp":
        self.backend.check_same(other.backend)
        out = {g: f for g, f in self.terms}
        for g, f in other.terms:
            out[g] = out[g] + f if g in out else f
        return PointwiseSkewOp.from_terms(self.group, self.backend, out)

    def __neg__(self) -> "PointwiseSkewOp":
        return PointwiseSkewOp(self.group, self.backend, tuple((g, -f) for g, f in self.terms))

    def __sub__(self, other: "PointwiseSkewOp") -> "PointwiseSkewOp":
        return self + (-other)


def pointwise_skew_mul(a: PointwiseSkewOp, b: PointwiseSkewOp) -> PointwiseSkewOp:
    """(f g)(h g') = (f . g(h)) gg', extended bilinearly."""
    a.backend.check_same(b.backend)
    group = a.group
    out: Dict[int, Fn] = {}
    for g, f in a.terms:
        for gp, h in b.terms:
            gh = f * act_on_function(group, g, h)
            key = group.mul(g, gp)
            out[key] = out[key] + gh if key in out else gh
    return PointwiseSkewOp.from_terms(group, a.backend, out)


def pointwise_apply(a: PointwiseSkewOp, f: Fn) -> Fn:
    """(sum_g a_g g) f = sum_g a_g . g(f)."""
    a.backend.check_same(f.backend)
    out = Fn.zero(a.group.space.size, a.backend)
    for g, coeff in a.terms:
        out = out + coeff * act_on_function(a.group, g, f)
    return out


def pointwise_skew_op(a: SkewOp) -> PointwiseSkewOp:
    """The package's SkewOp with the same coefficients, as Fn terms."""
    return PointwiseSkewOp(a.group, a.backend, tuple(
        (g, Fn(tuple(row), a.backend))
        for g, row in zip(a.elements, a.coeffs.tolist())))


@pytest.fixture(scope="session")
def g3():
    return dihedral_on_cycle(3)


@pytest.fixture(scope="session")
def g4():
    return dihedral_on_cycle(4)


@pytest.fixture(scope="session")
def g6():
    return dihedral_on_cycle(6)


@pytest.fixture(scope="session")
def rational():
    return Backend.rational()


@pytest.fixture(scope="session")
def cplx():
    return Backend.complex()


def sign_equation(group, be):
    fam = equivalence.builtin_irreducibles(stabilizer(group, 0), be)
    return equivalence.induce(fam["sign"], transversal(group))


def rank2_equation(group, be, mat=((1, -2), (0, -1))):
    """Induced from a non-diagonal involution of the order-2 stabilizer."""
    sub = stabilizer(group, 0)
    t = next(h for h in sub.members if h != 0)
    mod = equivalence.hmodule_from_matrices(
        sub, be, {0: [[1, 0], [0, 1]], t: [list(r) for r in mat]})
    return equivalence.induce(mod, transversal(group))


def random_involution(rng):
    """P diag(1,-1) P^{-1} for a random invertible rational P."""
    while True:
        p = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
        if det != 0:
            break
    pinv = [[p[1][1] / det, -p[0][1] / det], [-p[1][0] / det, p[0][0] / det]]
    d = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
    tmp = [[sum(d[i][k] * pinv[k][j] for k in range(2)) for j in range(2)]
           for i in range(2)]
    return [[sum(p[i][k] * tmp[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]


def equation_zoo(group, be):
    one = trivial_equation(group, be)
    sign = sign_equation(group, be)
    return {
        "one": one,
        "sign": sign,
        "both": direct_sum(one, sign),
        "rank2": rank2_equation(group, be),
    }


# -- the group and connection builders as they were before they worked on
# arrays: a |G| x |G| table, and per-cell Python loops -------------------------

def perm_compose(a, b):
    """(a o b)(x) = a(b(x)) on image tuples."""
    return tuple(a[b[i]] for i in range(len(a)))


def perm_inverse(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def mult_table(group):
    """The eager multiplication table: entry [a][b] is the id of a o b, found
    by composing image tuples and looking the result up by its whole image."""
    elems = [tuple(row) for row in group.elements.tolist()]
    index = {p: i for i, p in enumerate(elems)}
    return tuple(tuple(index[perm_compose(a, b)] for b in elems) for a in elems)


def pointwise_induce(mod, sigma):
    """induce as a loop over the cells (g, y), each stabilizer element read
    from the table and each rho matrix put in point by point."""
    group, be = mod.subgroup.group, mod.backend
    mult = mult_table(group)
    rho = list_rho(mod)
    conn = []
    for g in range(group.order):
        mats = []
        for y in range(group.space.size):
            gy = group.elements[group.inv[g]][y]
            h = mult[group.inv[sigma.sigma[y]]][mult[g][sigma.sigma[gy]]]
            if h not in rho:
                raise ElementNotInH(
                    f"transversal arithmetic left H at (g={g}, y={y})")
            mats.append(rho[h])
        conn.append(KMatrix(tuple(
            tuple(Fn(tuple(be.coerce(mat[i][j]) for mat in mats), be)
                  for j in range(mod.dim)) for i in range(mod.dim)), be))
    return equation_from_kmatrices(group, mod.backend, mod.dim, tuple(conn))


def pointwise_completion(group, backend, generator_matrices):
    """complete_connection as a breadth-first pass over single elements,
    each product a ``KMatrix.mul`` and each comparison a ``KMatrix.eq``.
    The generator matrices are (|S|, n, n) arrays, as the package takes
    them."""
    mult = mult_table(group)
    generator_matrices = {name: KMatrix.from_array(mat, backend)
                          for name, mat in generator_matrices.items()}
    rank = next(iter(generator_matrices.values())).nrows
    for name, mat in generator_matrices.items():
        if mat.inverse() is None:
            raise SingularGeneratorMatrix(
                f"generator {name!r} singular at some point")
    conn = [None] * group.order
    conn[0] = KMatrix.identity(rank, group.space.size, backend)
    frontier = [0]
    while frontier:
        nxt = []
        for gp in frontier:
            for name, gid in group.generators.items():
                target = mult[gid][gp]
                mat = conn[gp].g_act(group, gid).mul(generator_matrices[name])
                if conn[target] is None:
                    conn[target] = mat
                    nxt.append(target)
                elif not conn[target].eq(mat):
                    raise InconsistentConnection(
                        f"element {target} reached with conflicting matrices")
        frontier = nxt
    return equation_from_kmatrices(group, backend, rank, tuple(conn))


def bits(v):
    """A scalar as something that tells apart any two different bit
    patterns (the sign of a complex zero included), and a ``Fraction``
    from an int."""
    return (v.real.hex(), v.imag.hex()) if isinstance(v, complex) else (type(v), v)


def scalar_bits(eq):
    """``bits`` of every connection scalar."""
    return kmatrix_bits(conn_of(eq))


def kmatrix_bits(mats):
    """``bits`` of every scalar of a sequence of KMatrix, entry by entry,
    point after point."""
    return [bits(v) for m in mats for row in m.entries for f in row
            for v in f.values]


def array_bits(arr):
    """``bits`` of every scalar of an array, in its order."""
    return [bits(v) for v in np.asarray(arr).ravel().tolist()]


def stack(mats, nrows, ncols, size, backend):
    """nrows x ncols matrices over k gathered, scalar by scalar, into one
    array of shape (len(mats), size, nrows, ncols) and dtype
    ``backend.dtype``: entry [a, y] is the scalar matrix of mats[a] at y."""
    flat = [f.values for m in mats for row in m.entries for f in row]
    arr = np.array(flat, dtype=backend.dtype)
    return arr.reshape(len(mats), nrows, ncols, size).transpose(0, 3, 1, 2)


def equation_from_kmatrices(group, backend, rank, mats):
    """The equation with E^g = mats[g], for oracles that build a connection
    one KMatrix per group element."""
    arr, d = backend.integral(stack(mats, rank, rank, group.space.size,
                                    backend))
    return Equation(group, backend, rank, arr, d)


def kmatrix_of(phi):
    """A morphism's matrix in the pointwise form, one function per entry,
    for oracles and assertions that read it as a KMatrix."""
    be = phi.source.backend
    return KMatrix(tuple(tuple(Fn(tuple(vals), be) for vals in row)
                         for row in phi.matrix.transpose(1, 2, 0).tolist()),
                   be)


def morphism_from_kmatrix(src, dst, mat):
    """The morphism src -> dst whose matrix is the KMatrix mat."""
    return Morphism(src, dst, stack([mat], src.rank, dst.rank,
                                    src.group.space.size, src.backend)[0])


# -- the tensor constructions as they were before they worked on arrays: one
# KMatrix per group element, built entry by entry from Fn products ------------

def kron(a, b):
    """Row (i,j), column (r,u): a_{ir} * b_{ju}, row-major."""
    rows = []
    for i in range(a.nrows):
        for j in range(b.nrows):
            rows.append(tuple(a.entries[i][r] * b.entries[j][u]
                              for r in range(a.ncols) for u in range(b.ncols)))
    return KMatrix(tuple(rows), a.backend)


def block_diag(a, b):
    z = Fn.zero(a.npoints or b.npoints, a.backend)
    rows = [tuple(r) + (z,) * b.ncols for r in a.entries]
    rows += [(z,) * a.ncols + tuple(r) for r in b.entries]
    return KMatrix(tuple(rows), a.backend)


def pointwise_det(m, size):
    """det of a KMatrix, one ``linalg.det`` per point (the size is given:
    a matrix without rows has no points to count)."""
    return Fn(tuple(linalg.det(m.at_point(y), m.backend)
                    for y in range(size)), m.backend)


def pointwise_dual_matrix(conn, group, g):
    """((E^g)^t)^-1 = (g(E^{g^-1}))^t by the cocycle law, on KMatrix: conn
    the connection (``conn_of``)."""
    return conn[group.inv[g]].g_act(group, g).transpose()


def _pair_matrix(m, basis, entry):
    return KMatrix(tuple(tuple(entry(m, i, j, k, l) for (k, l) in basis)
                         for (i, j) in basis), m.backend)


def _sym2_entry(m, i, j, k, l):
    if k == l:
        return m.entries[i][k] * m.entries[j][k]
    return (m.entries[i][k] * m.entries[j][l]
            + m.entries[i][l] * m.entries[j][k])


def _wedge2_entry(m, i, j, k, l):
    return (m.entries[i][k] * m.entries[j][l]
            - m.entries[i][l] * m.entries[j][k])


def pointwise_construction(name, e, f=None):
    """The connection of a construction on e (and f), one KMatrix per
    element: direct_sum, tensor, dual, hom, sym2, wedge2 or wedge_top."""
    group = e.group
    ce, cf = conn_of(e), f is not None and conn_of(f)
    if name == "direct_sum":
        conn = [block_diag(ce[g], cf[g]) for g in range(group.order)]
    elif name == "tensor":
        conn = [kron(ce[g], cf[g]) for g in range(group.order)]
    elif name == "dual":
        conn = [pointwise_dual_matrix(ce, group, g) for g in range(group.order)]
    elif name == "hom":
        conn = [kron(cf[g], pointwise_dual_matrix(ce, group, g))
                for g in range(group.order)]
    elif name in ("sym2", "wedge2"):
        basis, entry = ((sym2_basis(e.rank), _sym2_entry) if name == "sym2"
                        else (wedge2_basis(e.rank), _wedge2_entry))
        conn = [_pair_matrix(ce[g], basis, entry)
                for g in range(group.order)]
    else:
        conn = [KMatrix(((pointwise_det(m, group.space.size),),), e.backend)
                for m in ce]
    return conn


# -- independent oracles (sympy elimination, full-group systems) -------------

def sympy_nullity(rows, ncols):
    """Nullspace dimension by sympy's elimination (exact inputs only)."""
    if not rows:
        return ncols
    m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
    return ncols - m.rank()


def full_hom_system(src, dst):
    """The intertwining system assembled over ALL group elements (the
    package solves generators only); rows of exact rationals."""
    group = src.group
    n, m, size = src.rank, dst.rank, group.space.size
    src_conn, dst_conn = conn_of(src), conn_of(dst)

    def idx(i, j, y):
        return (i * m + j) * size + y

    rows = []
    for g in range(group.order):
        ginv_img = group.elements[group.inv[g]]
        for i in range(n):
            for k in range(m):
                for y in range(size):
                    row = [Fraction(0)] * (n * m * size)
                    for j in range(n):
                        row[idx(j, k, y)] += src_conn[g].entries[i][j].values[y]
                    for j in range(m):
                        row[idx(i, j, ginv_img[y])] -= dst_conn[g].entries[j][k].values[y]
                    rows.append(row)
    return rows


def hom_dim_oracle(src, dst):
    return sympy_nullity(full_hom_system(src, dst),
                         src.rank * dst.rank * src.group.space.size)


def sympy_nullspace(rows, ncols):
    """Nullspace basis by sympy's elimination, as lists of Fractions."""
    if not rows:
        return [[Fraction(int(i == j)) for j in range(ncols)]
                for i in range(ncols)]
    m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
    return [[Fraction(int(x.p), int(x.q)) for x in vec]
            for vec in m.nullspace()]


def sympy_nullspace_form(vectors):
    """``linalg.nullspace_form`` by sympy's elimination: the reduced row
    echelon form of the column-reversed vectors, its nonzero rows reversed
    back and in reverse order, as lists of Fractions."""
    if not vectors:
        return []
    m = sympy.Matrix([[sympy.Rational(x) for x in reversed(v)]
                      for v in vectors])
    rref, pivots = m.rref()
    return [[Fraction(int(x.p), int(x.q)) for x in list(rref.row(r))[::-1]]
            for r in reversed(range(len(pivots)))]


# -- full-group checks --------------------------------------------------------

def cocycle_everywhere(eq):
    """E^{gg'} = g(E^{g'}) . E^g for every pair of group elements."""
    group = eq.group
    mult = mult_table(group)
    conn = conn_of(eq)
    return all(conn[mult[g][gp]].eq(conn[gp].g_act(group, g).mul(conn[g]))
               for g in range(group.order) for gp in range(group.order))


def intertwines_everywhere(phi):
    """E^g . phi = g(phi) . F^g for every group element."""
    group = phi.source.group
    mat = kmatrix_of(phi)
    src, dst = conn_of(phi.source), conn_of(phi.target)
    return all(src[g].mul(mat).eq(mat.g_act(group, g).mul(dst[g]))
               for g in range(group.order))


def pointwise_validate(eq):
    """Equation.validate as a loop over scalar-tuple matrices, the way it ran
    before the batched check: E^e = I, then the cocycle law for generators x
    elements in generator order, g' ascending.  The message of the first
    failure, or None."""
    group = eq.group
    conn = conn_of(eq)
    if not conn[0].eq(KMatrix.identity(eq.rank, group.space.size,
                                       eq.backend)):
        return "E^e is not the identity"
    mult = mult_table(group)
    for g in group.generator_ids:
        for gp in range(group.order):
            lhs = conn[mult[g][gp]]
            rhs = conn[gp].g_act(group, g).mul(conn[g])
            if not lhs.eq(rhs):
                return f"cocycle violated at elements ({g}, {gp})"
    return None


def pointwise_intertwines(phi):
    """Morphism.validate as a loop over the generators, the way it ran
    before the batched check.  The message of the first failure, or None."""
    group = phi.source.group
    mat = kmatrix_of(phi)
    src, dst = conn_of(phi.source), conn_of(phi.target)
    for g in group.generator_ids:
        lhs = src[g].mul(mat)
        rhs = mat.g_act(group, g).mul(dst[g])
        if not lhs.eq(rhs):
            return f"intertwining fails for group element {g}"
    return None


def pointwise_hom_space(src, dst):
    """hom_space as it ran before the batched transport: each fiber
    intertwiner P moved to every point y by two scalar matrix products,
    T_src(y)^-1 . (P . T_dst(y)).  The basis vectors, unknowns in the order
    (i, j, y), put in ``nullspace_form`` over the rationals, by sympy
    (``sympy_nullspace_form``), not by the kernel under test."""
    group, be = src.group, src.backend
    n, m, size = src.rank, dst.rank, group.space.size
    sigma = transversal(group).sigma
    src_conn, dst_conn = conn_of(src), conn_of(dst)
    t_src_inv = [src_conn[group.inv[s]].at_point(BASE_POINT) for s in sigma]
    t_dst = [dst_conn[s].at_point(y) for y, s in enumerate(sigma)]
    vecs = []
    for p in equivalence.intertwiner_space(equivalence.fiber(src),
                                           equivalence.fiber(dst)).tolist():
        mats = [mat_mul(t_src_inv[y], mat_mul(p, t_dst[y], be), be)
                for y in range(size)]
        vecs.append([mats[y][i][j] for i in range(n) for j in range(m)
                     for y in range(size)])
    return sympy_nullspace_form(vecs) if be.exact else vecs


def fiber_projection_route(eq, chi):
    """frobenius_projection by a second route: project in the base fiber,
    conjugate by transport.

    Pi(y) = T(y)^{-1} . P . T(y) with T(y) = E^{sigma(y)}(y) and P the
    base-fiber isotypic projection, one scalar matrix product at a time.
    """
    group = eq.group
    be = eq.backend
    sub = chi.subgroup
    sig = transversal(group)
    rho = list_rho(equivalence.fiber(eq))
    coeff = _chi_scalar(chi.dim, be) / _chi_scalar(sub.order, be)
    p = zeros(eq.rank, eq.rank, be)
    for h in sub.members:
        w = coeff * _chi_scalar(chi.values[sub.inv(h)], be)
        p = mat_add(p, mat_scale(w, rho[h]))
    mats = []
    for t in eq.scalars((list(sig.sigma),
                         list(range(group.space.size)))).tolist():
        tinv = linalg.inv(t, be)
        mats.append(mat_mul(tinv, mat_mul(p, t, be), be))
    pi = Morphism(eq, eq, np.array(mats, dtype=be.dtype))
    pi.validate()
    return pi


def fixed_everywhere(eq, alpha):
    """g.alpha = alpha for every group element."""
    return all(eq.backend.eq_array(act(eq, g, alpha), alpha).all()
               for g in range(eq.group.order))


def seeded_rng(seed=0):
    return random.Random(seed)


def random_values(rng, shape, be):
    """An array of random scalars of the given shape, drawn in its order."""
    vals = [be.random(rng) for _ in range(int(np.prod(shape)))]
    return np.array(vals, dtype=be.dtype).reshape(shape)


def random_matrix(rng, nrows, ncols, size, be):
    """A random matrix over k as a (size, nrows, ncols) array, drawn entry
    by entry, point after point."""
    return random_values(rng, (nrows, ncols, size), be).transpose(2, 0, 1)


def random_kmatrix(rng, nrows, ncols, size, be):
    return KMatrix.from_array(random_matrix(rng, nrows, ncols, size, be), be)


def gauged_equation(rng, eq):
    """E'^g = g(T)^{-1} . E^g . T for a random pointwise-invertible T: the
    same equation in other coordinates.  It satisfies the cocycle law, but
    unlike the induced zoo equations its E'^g(y) are not involutions, so a
    connection matrix and its inverse differ."""
    t = None
    while t is None or t.inverse() is None:
        t = random_kmatrix(rng, eq.rank, eq.rank, eq.group.space.size,
                           eq.backend)
    tinv = t.inverse()
    conn = tuple(tinv.g_act(eq.group, g).mul(e_g).mul(t)
                 for g, e_g in enumerate(conn_of(eq)))
    return equation_from_kmatrices(eq.group, eq.backend, eq.rank, conn)


# -- the operator quotient over every row -------------------------------------

def difn_quotient_oracle(op, solutions):
    """E_Delta's fiber and the morphisms phi_e, computed the way diffops did
    before it worked on the base fiber: as the quotient of all of
    Difn(source, 1) (every |S| x n|S| matrix, flattened row-major) by the
    span of the products L . mu(Delta) with the matrix units L of
    Difn(target, 1).  The delta idempotent at the base point cuts the fiber
    out of the quotient, and the stabilizer acts by permuting rows.

    Returns (HModule, one KMatrix per solution in ``solutions``)."""
    be, group = op.source.backend, op.source.group
    size = group.space.size
    ncols, tcols = op.source.rank * size, op.target.rank * size
    dim = size * ncols
    combined = linalg.RowSpace(dim, be)
    action = op.action.tolist()
    for y in range(size):
        for c in range(tcols):
            unit = zeros(size, tcols, be)
            unit[y][c] = be.one()
            combined.add(flatten(mat_mul(unit, action, be)))
    im_dim = combined.dim
    qreps = [b for b in identity(dim, be) if combined.add(b)]

    def qcoords(vec):
        c = combined.coords(vec)
        assert c is not None
        return c[im_dim:]

    def q_lift(coeffs):
        out = [be.zero()] * dim
        for c, rep in zip(coeffs, qreps):
            out = [x + c * yv for x, yv in zip(out, rep)]
        return out

    def act_delta(vec):
        out = [be.zero()] * dim
        out[BASE_POINT * ncols:(BASE_POINT + 1) * ncols] = \
            vec[BASE_POINT * ncols:(BASE_POINT + 1) * ncols]
        return out

    def act_g(g, vec):
        ginv_img = group.elements[group.inv[g]]
        return [x for y in range(size)
                for x in vec[ginv_img[y] * ncols:(ginv_img[y] + 1) * ncols]]

    fiber_basis = linalg.row_space_basis(
        [qcoords(act_delta(rep)) for rep in qreps], len(qreps), be)
    sub = stabilizer(group, BASE_POINT)
    ft = transpose(fiber_basis)
    rho = []
    for h in sub.members:
        rho.append([linalg.solve(ft, qcoords(act_g(h, q_lift(c))), be)
                    for c in fiber_basis])
        assert all(row is not None for row in rho[-1])
    dim = len(fiber_basis)
    mod = equivalence.HModule(sub, be, dim, np.array(rho, dtype=be.dtype)
                              .reshape(sub.order, dim, dim))
    lifts = [unflatten(q_lift(c), size, ncols) for c in fiber_basis]
    mats = []
    for coords in solutions:
        vec_e = coords.ravel().tolist()
        mats.append(KMatrix(tuple(
            (Fn.constant(mat_vec(lift, vec_e, be)[BASE_POINT], size,
                         be),) for lift in lifts), be))
    return mod, mats


# -- the operator calculus as it ran on KMatrix coefficients and Fn
# coordinates, before it worked on arrays --------------------------------------

def kmatrix_terms(theta):
    """An operator's coefficients, one KMatrix per group element."""
    be = theta.source.backend
    return {g: KMatrix.from_array(mat, be) for g, mat in theta.terms.items()}


def pointwise_inverse(conn, group, g):
    """(E^g)^-1 = g(E^{g^-1}) by the cocycle law, on KMatrix: conn the
    connection (``conn_of``)."""
    return conn[group.inv[g]].g_act(group, g)


def pointwise_mu(theta):
    """mu, one scalar at a time: entry (j, y), (k, g^-1 y) of term g sums
    theta^g_ij(y) E^g_ki(y) over i from zero, and the terms are added in
    dict order."""
    src, dst = theta.source, theta.target
    group, be = src.group, src.backend
    n, m, size = src.rank, dst.rank, group.space.size
    mat = zeros(m * size, n * size, be)
    src_conn = conn_of(src)
    for g, coef in kmatrix_terms(theta).items():
        ginv_img = image(group, group.inv[g])
        e_g = src_conn[g]
        for y in range(size):
            p = ginv_img[y]
            for j in range(m):
                for k in range(n):
                    acc = be.zero()
                    for i in range(n):
                        acc = acc + (coef.entries[i][j].values[y]
                                     * e_g.entries[k][i].values[y])
                    mat[j * size + y][k * size + p] = \
                        mat[j * size + y][k * size + p] + acc
    return mat


def pointwise_compose_raw(theta2, theta1):
    """compose_raw's coefficients, one KMatrix per element: the g'g
    coefficient gains (E1^g')^-1 . g'(C_g) . (E2^g' . D_g')."""
    e1, e2 = theta1.source, theta1.target
    group = e1.group
    conn1, conn2 = conn_of(e1), conn_of(e2)
    out = {}
    for gp, d_mat in kmatrix_terms(theta2).items():
        e1_inv = pointwise_inverse(conn1, group, gp)
        right = conn2[gp].mul(d_mat)
        for g, c_mat in kmatrix_terms(theta1).items():
            mat = e1_inv.mul(c_mat.g_act(group, gp)).mul(right)
            key = group.mul(gp, g)
            out[key] = out[key].add(mat) if key in out else mat
    return out


def pointwise_skew_action(a, theta):
    """skew_action's coefficients, one KMatrix per element, for a
    PointwiseSkewOp a: the g g' coefficient gains
    a_g . ((E1^g)^-1 . g(C_g') . E2^g)."""
    e1, e2 = theta.source, theta.target
    group, be = e1.group, e1.backend
    conn1, conn2 = conn_of(e1), conn_of(e2)
    out = {}
    for g, a_g in a.terms:
        e1_inv = pointwise_inverse(conn1, group, g)
        for gp, c_mat in kmatrix_terms(theta).items():
            mat = e1_inv.mul(c_mat.g_act(group, g)).mul(conn2[g])
            mat = KMatrix(tuple(tuple(a_g * f for f in row)
                                for row in mat.entries), be)
            key = group.mul(g, gp)
            out[key] = out[key].add(mat) if key in out else mat
    return out


def ker_mu_basis(src, dst):
    """F-basis of ker mu inside the free coefficient space (n.m.|G|.|S|):
    the global system, one row per entry of mu, on nested lists."""
    group, be = src.group, src.backend
    n, m, size = src.rank, dst.rank, group.space.size
    nunk = n * m * group.order * size

    def uidx(i: int, j: int, g: int, y: int) -> int:
        return ((i * m + j) * group.order + g) * size + y

    rows = []
    for g in range(group.order):
        ginv_img = image(group, group.inv[g])
        e_g = src.scalars(g).tolist()
        for y in range(size):
            p = ginv_img[y]
            for j in range(m):
                for k in range(n):
                    # one row of mu per (output entry (j,y), input entry (k,p))
                    row = [be.zero()] * nunk
                    for i in range(n):
                        row[uidx(i, j, g, y)] = e_g[y][k][i]
                    rows.append((j * size + y, k * size + p, row))
    # rows computed per (g, ...) target the same mu entry when g^{-1}y
    # collides; accumulate them
    acc = {}
    for out_i, in_i, row in rows:
        key = (out_i, in_i)
        if key in acc:
            acc[key] = [x + yv for x, yv in zip(acc[key], row)]
        else:
            acc[key] = row
    system = [acc[k] for k in sorted(acc)]
    out = []
    for vec in linalg.nullspace(system, nunk, be):
        # unknown (i, j, g, y) -> theta^g_ij(y)
        coeffs = np.array(vec, dtype=be.dtype).reshape(n, m, group.order, size)
        terms = {g: mat for g, mat in enumerate(coeffs.transpose(2, 3, 0, 1))
                 if not be.is_zero(mat).all()}
        out.append(RawOperator(src, dst, terms))
    return out


def pointwise_act(eq, g, coords):
    """g.f = g(f) . E^g for coordinates given as an (n, |S|) array: the row
    of translated functions times E^g by ``KMatrix.mul``.  One Fn per
    coordinate."""
    be = eq.backend
    ginv_img = image(eq.group, eq.group.inv[g])
    row = tuple(Fn(tuple(f), be).translate(ginv_img) for f in coords.tolist())
    arr, d = eq.integral(g)
    return KMatrix((row,), be).mul(KMatrix.from_array(arr, be, d)).entries[0]


# -- the module layer as it ran on nested lists, one matrix per element id,
# before it worked on arrays ----------------------------------------------------

def list_rho(mod):
    """A module's matrices as nested lists of scalars, keyed by element id."""
    return dict(zip(mod.subgroup.members, mod.rho.tolist()))


def loop_intertwiner_rows(u, v):
    """The intertwining system row by row: for h != e, i and k, a row of
    zeros over the unknowns P_jl (column j m + l) gains rho_U(h)_ij at
    (j, k) and then loses rho_V(h)_lk at (i, l)."""
    be = u.backend
    n, m = u.dim, v.dim
    ru_all, rv_all = list_rho(u), list_rho(v)
    rows = []
    for h in u.subgroup.members:
        if h == 0:
            continue
        ru, rv = ru_all[h], rv_all[h]
        for i in range(n):
            for k in range(m):
                row = [be.zero()] * (n * m)
                for j in range(n):
                    row[j * m + k] = row[j * m + k] + ru[i][j]
                for j in range(m):
                    row[i * m + j] = row[i * m + j] - rv[j][k]
                rows.append(row)
    return rows


def loop_direct_sum(u, v):
    """The block-diagonal matrices, keyed by element id."""
    be = u.backend
    ru, rv = list_rho(u), list_rho(v)
    return {h: [row + [be.zero()] * v.dim for row in ru[h]]
            + [[be.zero()] * u.dim + row for row in rv[h]]
            for h in u.subgroup.members}


def loop_tensor(u, v):
    """Row (i, j), column (r, s) of rho_U(h) (x) rho_V(h) is
    rho_U(h)_ir * rho_V(h)_js, keyed by element id."""
    ru, rv = list_rho(u), list_rho(v)

    def kron(a, b):
        return [[a[i][r] * b[j][c] for r in range(len(a[0]))
                 for c in range(len(b[0]))]
                for i in range(len(a)) for j in range(len(b))]
    return {h: kron(ru[h], rv[h]) for h in u.subgroup.members}


def loop_close_rho(sub, be, partial):
    """The closure of generator matrices (nested lists) under
    rho(ab) = rho(b) rho(a), one product at a time in dict order."""
    dim = len(next(iter(partial.values())))
    rho = {0: identity(dim, be)}
    rho.update(partial)
    changed = True
    while changed:
        changed = False
        for a in list(rho):
            for b in list(rho):
                ab = sub.mult(a, b)
                if ab not in rho:
                    rho[ab] = mat_mul(rho[b], rho[a], be)
                    changed = True
    return rho


def loop_character(mod):
    """The trace of each matrix summed from zero, keyed by element id."""
    return {h: sum((m[i][i] for i in range(mod.dim)), mod.backend.zero())
            for h, m in list_rho(mod).items()}


def loop_validate(mod):
    """HModule.validate as a scan over the element ids: rho(e) = I, then for
    each a a test of rho(a) for singularity and of rho(ab) = rho(b) rho(a)
    for b in order.  The message of the first failure, or None."""
    be, sub = mod.backend, mod.subgroup
    rho = list_rho(mod)
    if not mat_eq(rho[0], identity(mod.dim, be), be):
        return "rho(e) is not the identity"
    for a in sub.members:
        if linalg.inv(rho[a], be) is None:
            return f"rho of element {a} is singular"
        for b in sub.members:
            if not mat_eq(rho[sub.mult(a, b)], mat_mul(rho[b], rho[a], be), be):
                return f"rho is not an anti-homomorphism at ({a},{b})"
    return None


# -- report serialization as it ran before reports held arrays: one call per
# scalar ----------------------------------------------------------------------

def serialize_scalar(a, be):
    """One scalar as a report wrote it: "p/q" over the rationals, [re, im]
    on the complex backend."""
    if be.exact:
        return str(a)
    return [a.real, a.imag]


def serialize_oracle(obj, be):
    """Nested lists (or tuples) of scalars, each one ``serialize_scalar``d."""
    if isinstance(obj, (list, tuple)):
        return [serialize_oracle(x, be) for x in obj]
    return serialize_scalar(obj, be)
