"""Difference-operator calculus: the action map mu, the quotient module of
operators, composition, the equation attached to an operator, and classical
difference systems.

A raw operator from E1 (rank n) to E2 (rank m) is a coefficient tensor
theta^g, one n x m matrix of functions per group element, stored as an
(|S|, n, m) array of backend scalars (the layout of ``Morphism.matrix``);
it acts on coordinates f, an (n, |S|) array, by

    (theta f)_j(y) = sum_{i,k,g} theta^g_{ij}(y) . f_k(g^{-1}y) . E1^g_{ki}(y)

Two raw operators are the same difference operator exactly when their
assembled F-linear action matrices agree (the quotient by ker mu).  Every
product of matrices over k is one ``equations.matmul`` over the points,
and g(C), the translate of a coefficient by g, is one gather along the
point axis.

The equation E_Delta of an operator Delta is fixed by its base fiber, like
every equation.  That fiber is (F^{n|S|})^* / rowspace(mu(Delta)), of rank
n|S| - rank mu(Delta), and the stabilizer acts on it trivially; so
E_Delta comes from one row space over n|S| columns, not from a quotient of
the |S| x n|S| matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from . import linalg
from .equations import Equation, matmul, mul, read_only, trivial_equation
from .equivalence import HModule, induce, trivial_hmodule
from .errors import GDiffError
from .scalars import Backend
from .skewalg import SkewOp
from .solver import Morphism, constant_morphism, hom_space
from .space import BASE_POINT, Group, stabilizer, transversal


@dataclass(frozen=True)
class RawOperator:
    """theta^g = terms[g], a read-only (|S|, rank(source), rank(target))
    array of ``Backend.dtype`` scalars: ``Fraction`` objects over the
    rationals, complex128 otherwise."""

    source: Equation
    target: Equation
    terms: Dict[int, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "terms", {
            g: read_only(mat) for g, mat in self.terms.items()})

    def add(self, other: "RawOperator") -> "RawOperator":
        out = dict(self.terms)
        for g, mat in other.terms.items():
            out[g] = out[g] + mat if g in out else mat
        return RawOperator(self.source, self.target, out)


def delta_op(a: SkewOp, eq: Equation) -> RawOperator:
    """The operator Delta_a : e -> a.e on eq itself: theta^g = a_g . I."""
    n = eq.rank
    ident = np.broadcast_to(eq.backend.eye(n), (eq.group.space.size, n, n))
    return RawOperator(eq, eq, {
        g: mul(f[:, None, None], ident, eq.backend)
        for g, f in zip(a.elements, a.coeffs)})


def mu(theta: RawOperator) -> np.ndarray:
    """Action matrix from source coordinates (n|S| over F, index k|S|+p)
    to target coordinates (m|S|, index j|S|+y): an (m|S|, n|S|) array of
    backend scalars.

    Term g puts (E^g(y) . theta^g(y))_kj at row (j, y) and column
    (k, g^-1 y), one ``matmul`` and one scatter; the terms are added in the
    order of ``theta.terms``, starting from zero."""
    src, dst = theta.source, theta.target
    group, be = src.group, src.backend
    n, m, size = src.rank, dst.rank, group.space.size
    mat = np.full((m, size, n, size), be.zero(), dtype=be.dtype)
    points = np.arange(size)
    for g, coef in theta.terms.items():
        prod = matmul(src.scalars(g), coef, be)
        ginv_img = group.elements[group.inv[g]]
        mat[:, points, :, ginv_img] += prod.transpose(0, 2, 1)
    return mat.reshape(m * size, n * size)


def apply_action(action: np.ndarray, coords: np.ndarray,
                 dst: Equation) -> np.ndarray:
    """Apply an action matrix to module-element coordinates."""
    out = matmul(action, coords.reshape(-1, 1), dst.backend)
    return out.reshape(dst.rank, dst.group.space.size)


@dataclass(frozen=True, eq=False)
class DiffOperator:
    """Canonical form (the mu-image matrix, an array) plus one
    representative."""

    source: Equation
    target: Equation
    action: np.ndarray
    rep: RawOperator

    def eq(self, other: "DiffOperator") -> bool:
        return (self.action.shape == other.action.shape and bool(
            self.source.backend.eq_array(self.action, other.action).all()))

    def apply(self, coords: np.ndarray) -> np.ndarray:
        return apply_action(self.action, coords, self.target)


def canonicalize(theta: RawOperator) -> DiffOperator:
    return DiffOperator(theta.source, theta.target, mu(theta), theta)


def check_composable(theta1: RawOperator, theta2: RawOperator) -> None:
    """Raise GDiffError unless theta2 o theta1 is defined: theta1 ends at
    the equation where theta2 starts."""
    if theta1.target is not theta2.source and theta1.target != theta2.source:
        raise GDiffError("operator composition: the first operator's target "
                         "is not the second operator's source")


def compose_raw(theta2: RawOperator, theta1: RawOperator) -> RawOperator:
    """Representative of theta2 o theta1 (theta1 applied first) by the
    tensor formula: the g'g coefficient gains (E1^g')^{-1}.g'(C_g).E2^g'.D_g'
    with C from theta1 and D from theta2."""
    check_composable(theta1, theta2)
    e1, e2 = theta1.source, theta1.target
    group, be = e1.group, e1.backend
    out: Dict[int, np.ndarray] = {}
    for gp, d_mat in theta2.terms.items():
        e1_inv = e1.inverse(gp)
        right = matmul(e2.scalars(gp), d_mat, be)
        moved = group.elements[group.inv[gp]]  # g'(C)(y) = C(g'^-1 y)
        for g, c_mat in theta1.terms.items():
            mat = matmul(matmul(e1_inv, c_mat[moved], be), right, be)
            key = group.mul(gp, g)
            out[key] = out[key] + mat if key in out else mat
    return RawOperator(e1, theta2.target, out)


def compose(second: DiffOperator, first: DiffOperator) -> DiffOperator:
    """second o first: the product of the canonical action matrices, with the
    tensor-formula representative (mu of it is that product)."""
    rep = compose_raw(second.rep, first.rep)
    product = matmul(second.action, first.action, first.source.backend)
    return DiffOperator(first.source, second.target, product, rep)


def skew_action(a: SkewOp, theta: RawOperator) -> RawOperator:
    """The left A-action a.theta (so that mu(a.theta) = mu(Delta_a) mu(theta))."""
    e1, e2 = theta.source, theta.target
    group, be = e1.group, e1.backend
    out: Dict[int, np.ndarray] = {}
    for g, a_g in zip(a.elements, a.coeffs):
        e1_inv = e1.inverse(g)
        e2_g = e2.scalars(g)
        moved = group.elements[group.inv[g]]  # g(C)(y) = C(g^-1 y)
        for gp, c_mat in theta.terms.items():
            mat = matmul(matmul(e1_inv, c_mat[moved], be), e2_g, be)
            mat = mul(mat, a_g[:, None, None], be)
            key = group.mul(g, gp)
            out[key] = out[key] + mat if key in out else mat
    return RawOperator(e1, e2, out)


def classical_solutions(op: DiffOperator) -> List[np.ndarray]:
    """F-basis of C(Delta) = {e : Delta(e) = 0}, each an (n, |S|) array of
    coordinates."""
    be = op.source.backend
    n, size = op.source.rank, op.source.group.space.size
    return [np.array(vec, dtype=be.dtype).reshape(n, size)
            for vec in linalg.nullspace(op.action.tolist(), n * size, be)]


# -- Difn(E, 1) on the base fiber and the equation of an operator ----------

class _DifnModule:
    """Difn_*(E, 1): the F-linear maps from sections of E (n|S|
    coordinates, index k|S|+p) to functions on S, written as |S| x n|S|
    matrices whose row y is the functional evaluated at y.

    Every such matrix is an operator: the single-term operator delta_y e_i g
    has mu-image column i of E^g(y) in row y at the columns of the point
    g^{-1}y, each E^g(y) is invertible and G is transitive.  So the base
    fiber, the rows at BASE_POINT, is all of (F^{n|S|})^*.  The group acts
    by permuting rows, (g.L)[y] = L[g^{-1}y], and every h in the stabilizer
    H fixes BASE_POINT, so H acts on that fiber by the identity.
    """

    def __init__(self, eq: Equation):
        self.group = eq.group
        self.be = eq.backend
        self.size = eq.group.space.size
        self.ncols = eq.rank * self.size


@dataclass
class _QuotientData:
    """E_Delta together with the data needed to evaluate cosets on
    classical solutions."""

    equation: Equation
    hmodule: HModule
    columns: List[int]       # C: fiber basis element i is the class of the
                             # coordinate functional e_{columns[i]}
    source_module: _DifnModule


def _quotient_module(op: DiffOperator) -> _QuotientData:
    """E_Delta = Difn(source, 1) / (Difn(target, 1) o Delta), on its fiber.

    Row y of nabla o Delta is (row y of nabla) . mu(Delta), so the image of
    precomposition is rowspace(mu(Delta)) in every row, and the base fiber
    of the quotient is (F^{n|S|})^* / rowspace(mu(Delta)): rank
    n|S| - rank mu(Delta), with H acting trivially (see _DifnModule).  Its
    basis is the classes of the unit functionals e_c that extend the rows of
    mu(Delta) greedily, c ascending.
    """
    be = op.source.backend
    group = op.source.group
    w1 = _DifnModule(op.source)
    space = linalg.RowSpace(w1.ncols, be)
    for row in op.action.tolist():
        space.add(row)
    units = be.eye(w1.ncols).tolist()
    columns = [c for c in range(w1.ncols) if space.add(units[c])]
    # exact arithmetic puts every added e_c in the span; only a tolerance
    # can leave one without coordinates
    if not be.exact and any(space.coords(units[c]) is None for c in columns):
        raise GDiffError("operator module vector has no coordinates "
                         "within the tolerance")
    mod = trivial_hmodule(stabilizer(group, BASE_POINT), be, len(columns))
    mod.validate()
    eq_delta = induce(mod, transversal(group))
    return _QuotientData(eq_delta, mod, columns, w1)


def equation_of(op: DiffOperator) -> Equation:
    """The equation attached to the operator: the cokernel of precomposition
    on Difn(target, 1), induced back from its base-point fiber."""
    return _quotient_module(op).equation


def solution_morphism(data: _QuotientData, coords: np.ndarray) -> Morphism:
    """phi_e : E_Delta -> 1 attached to a classical solution e, given by
    its (n, |S|) coordinates.

    The class of e_c sends e to its coordinate c; (sigma(y).e_c)(e) evaluated
    at y collapses to that base-point value, so each entry is a constant."""
    triv = trivial_equation(data.source_module.group, data.source_module.be)
    phi = constant_morphism(data.equation, triv,
                            coords.ravel()[data.columns, None])
    phi.validate()
    return phi


def embed_solutions(op: DiffOperator) -> Dict[str, object]:
    """Embed C(Delta) into Hom_A(E_Delta, 1) and report the comparison."""
    data = _quotient_module(op)
    sols = classical_solutions(op)
    be = op.source.backend
    flat = [solution_morphism(data, coords).matrix.transpose(1, 2, 0)
            .ravel().tolist() for coords in sols]
    injective = (linalg.rank(flat, be) == len(sols)) if sols else True
    triv = trivial_equation(op.source.group, be)
    hom_dim = len(hom_space(data.equation, triv))
    return {
        "solution_dim": len(sols),
        "hom_dim": hom_dim,
        "injective": injective,
        "embeds": injective and len(sols) <= hom_dim,
        "rank_equation": data.equation.rank,
    }


# -- classical systems -------------------------------------------------------

@dataclass(frozen=True)
class ClassicalSystem:
    """sum_k (sum_g c^j_{kg} g) f_k = 0 for j = 1..m, over n unknowns; each
    coefficient c^j_{kg} is an (|S|,) array of backend scalars."""

    group: Group
    backend: Backend
    unknowns: int
    coeffs: Dict[Tuple[int, int, int], np.ndarray]  # (j, k, g) -> c^j_{kg}

    @property
    def equations(self) -> int:
        return 1 + max((j for (j, _, _) in self.coeffs), default=-1)


def ingest_classical(sys: ClassicalSystem) -> DiffOperator:
    """Canonical operator for a classical system: trivial connections on
    both sides, theta^g_{kj} = c^j_{kg}, the terms in ascending g."""
    be, group = sys.backend, sys.group
    n, m = sys.unknowns, sys.equations
    src = trivial_equation(group, be, n)
    dst = trivial_equation(group, be, m)
    shape = (group.space.size, n, m)
    terms = {g: np.full(shape, be.zero(), dtype=be.dtype)
             for g in sorted({g for (_, _, g) in sys.coeffs})}
    for (j, k, g), coeff in sys.coeffs.items():
        terms[g][:, k, j] += coeff
    return canonicalize(RawOperator(src, dst, terms))
