"""Solving equations: Hom_A(E,F) bases, kernels and images, isomorphism
search, simplicity tests and direct-sum decomposition.

A morphism E -> F with matrix phi (rank(E) x rank(F), row convention:
phi(e_i) = sum_j phi_{ij} f_j) intertwines the connections:
E^g . phi = g(phi) . F^g at every point, for every group element.

Hom spaces are solved in the base fiber: a morphism is determined by its
value at the base point, an intertwiner of the stabilizer modules, and is
transported from there along the transversal.  Morphisms are verified on
the generators only, which implies intertwining for the whole group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .equations import Equation, first_mismatch, matmul, mul, read_only
from .equivalence import HModule, fiber, induce, intertwiner_space
from .errors import (CompositionMismatch, NotASolution, NotHStable,
                     SplittingInconclusive)
from .scalars import Backend
from .space import BASE_POINT, transversal

SIMPLE = "simple"
NOT_SIMPLE = "not_simple"
UNDETERMINED = "undetermined"

DEFAULT_RETRY_BUDGET = 8


@dataclass(frozen=True, eq=False)
class Morphism:
    """A morphism source -> target.  ``matrix`` is read-only, of shape
    (|S|, rank(source), rank(target)) and dtype ``Backend.dtype``: entry [y]
    is the scalar matrix phi(y), ``Fraction`` objects over the rationals,
    complex128 on the complex backend.  A rank 0 is a zero in the shape."""

    source: Equation
    target: Equation
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", read_only(self.matrix))

    def validate(self) -> None:
        """Intertwining on the generators; by induction on word length it
        then holds for every group element.

        One batched comparison of E^g . phi with g(phi) . F^g for all
        generators g at once, on the generator rows of the connection
        arrays (see ``equations.Equation``).  phi is written as A / d by
        ``Backend.integral``, so over the rationals the check is
        (E^g . phi) d_F == (g(phi) . F^g) d_E on Python ints (phi's
        denominator cancels).  A failure names the first generator.
        """
        group, be = self.source.group, self.source.backend
        gens = list(group.generator_ids)
        phi, _ = be.integral(self.matrix)
        src, d_src = self.source.integral(gens)
        dst, d_dst = self.target.integral(gens)
        moved = phi[group.elements[[group.inv[g] for g in gens]]]
        i = first_mismatch((src @ phi) * d_dst, (moved @ dst) * d_src, be)
        if i is not None:
            raise NotASolution(f"intertwining fails for group element {gens[i]}")

    def is_valid(self) -> bool:
        try:
            self.validate()
        except NotASolution:
            return False
        return True

    def at_point(self, x: int) -> linalg.Matrix:
        """The fiber map phi(x) as a scalar matrix."""
        return self.matrix[x].tolist()


def constant_morphism(src: Equation, dst: Equation, mat: np.ndarray) -> Morphism:
    """The map src -> dst with the scalar matrix mat, a (rank(src),
    rank(dst)) array of backend scalars, at every point."""
    return Morphism(src, dst, np.broadcast_to(mat, (src.group.space.size,) + mat.shape))


def identity_morphism(eq: Equation) -> Morphism:
    return constant_morphism(eq, eq, eq.backend.eye(eq.rank))


def zero_morphism(src: Equation, dst: Equation) -> Morphism:
    be = src.backend
    return constant_morphism(src, dst, np.full((src.rank, dst.rank), be.zero(),
                                               dtype=be.dtype))


def compose(first: Morphism, second: Morphism) -> Morphism:
    """first: E -> F, second: F -> G; result E -> G (apply first, then second)."""
    if first.target is not second.source and first.target != second.source:
        raise CompositionMismatch("composition mismatch: the first morphism's "
                                  "target is not the second morphism's source")
    return Morphism(first.source, second.target,
                    matmul(first.matrix, second.matrix, first.source.backend))


def hom_space(src: Equation, dst: Equation) -> List[Morphism]:
    """F-basis of Hom_A(src, dst), solved in the base fiber.

    Each intertwiner P of the fibers is transported along the transversal:
    phi(y) = T_src(y)^-1 . P . T_dst(y) with T(y) = E^{sigma(y)}(y), and
    T(y)^-1 = E^{sigma(y)^-1}(base) by the cocycle law.  The transport is
    one batched product of three arrays, T_src^-1 of shape (|S|, n, n), the
    intertwiners (k, n, m) and T_dst (|S|, m, m), each A / d (the first and
    the last gathered from the connection arrays, the intertwiners written
    so by ``Backend.integral``), giving the (k, |S|, n, m) matrices of the
    basis.  Complex entries are used as the product gives them.  Over the
    rationals the product runs on Python ints, and the basis is the one
    elimination of the intertwining system gives for the unknowns
    phi_ij(y) in the order (i, j, y): ``nullspace_form`` of the integer
    products, as a common denominator does not change a row echelon form;
    it reduces them fraction-free and makes each entry a ``Fraction`` once.
    """
    src.backend.check_same(dst.backend)
    group = src.group
    be = src.backend
    basis = intertwiner_space(fiber(src), fiber(dst))
    if not len(basis):
        return []
    sigma = np.array(transversal(group).sigma)
    t_src_inv, _ = src.integral((np.array(group.inv)[sigma], BASE_POINT))
    p, _ = be.integral(basis)
    t_dst, _ = dst.integral((sigma, np.arange(len(sigma))))
    moved = t_src_inv @ (p[:, None] @ t_dst)
    if be.exact:
        k, size, n, m = moved.shape
        vecs = moved.transpose(0, 2, 3, 1).reshape(k, -1).tolist()
        moved = np.array(linalg.nullspace_form(vecs), dtype=object)
        moved = moved.reshape(k, n, m, size).transpose(0, 3, 1, 2)
    return [Morphism(src, dst, mat) for mat in moved]


def symmetries(eq: Equation) -> List[Morphism]:
    return hom_space(eq, eq)


def is_injective(phi: Morphism) -> bool:
    p = phi.at_point(BASE_POINT)
    return linalg.rank(p, phi.source.backend) == phi.source.rank


def is_surjective(phi: Morphism) -> bool:
    p = phi.at_point(BASE_POINT)
    return linalg.rank(p, phi.source.backend) == phi.target.rank


def is_isomorphism(phi: Morphism) -> bool:
    return phi.source.rank == phi.target.rank and is_injective(phi)


def _subfiber_module(fib: HModule, basis_rows) -> HModule:
    """The H-module carried by an H-stable row subspace of a fiber: the
    images B . rho(h) of the basis rows B, one product for all h, written
    in coordinates over B."""
    be = fib.backend
    d, order = len(basis_rows), fib.subgroup.order
    rows = np.array(basis_rows, dtype=be.dtype).reshape(d, fib.dim)
    images = matmul(rows, fib.rho, be).reshape(order * d, fib.dim)
    bt = rows.T.tolist()
    coords = []
    for img in images.tolist():
        coeffs = linalg.solve(bt, img, be)
        if coeffs is None:
            raise NotHStable("subspace is not H-stable")
        coords.append(coeffs)
    return HModule(fib.subgroup, be, d, np.array(coords, dtype=be.dtype)
                   .reshape(order, d, d))


def sub_equation(eq: Equation, basis_rows: Sequence[linalg.Vector]) -> Tuple[Equation, Morphism]:
    """Transport an H-stable subspace of the base fiber to a subobject.

    Returns the induced equation plus its embedding, whose matrix at y is
    B . E^{sigma(y)}(y) (transport of the fiber basis along the transversal).
    """
    return _subobject(eq, _subfiber_module(fiber(eq), basis_rows), basis_rows)


def _subobject(eq: Equation, sub: HModule,
               basis_rows) -> Tuple[Equation, Morphism]:
    """``sub_equation`` for the module ``sub`` the basis rows carry."""
    group = eq.group
    be = eq.backend
    sig = transversal(group)
    sub_eq = induce(sub, sig)
    rows = np.array(basis_rows, dtype=be.dtype).reshape(sub.dim, eq.rank)
    transport = eq.scalars((list(sig.sigma), np.arange(group.space.size)))
    emb = Morphism(sub_eq, eq, matmul(rows[None], transport, be))
    emb.validate()
    return sub_eq, emb


def kernel(phi: Morphism) -> Tuple[Equation, Morphism]:
    """The subobject {v : phi(v) = 0} of the source, with its embedding."""
    # left nullspace: rows v with v . phi(base) = 0
    basis = linalg.nullspace(phi.matrix[BASE_POINT].T.tolist(),
                             phi.source.rank, phi.source.backend)
    return sub_equation(phi.source, basis)


def image(phi: Morphism) -> Tuple[Equation, Morphism]:
    """The image subobject of the target, with its embedding."""
    basis = linalg.row_space_basis(phi.at_point(BASE_POINT), phi.target.rank,
                                   phi.source.backend)
    return sub_equation(phi.target, basis)


def factor_through_image(phi: Morphism, img_eq: Equation, emb: Morphism) -> Morphism:
    """The corestriction pi with phi = pi . emb, solved pointwise."""
    be = phi.source.backend
    size = phi.source.group.space.size
    rows = []
    for y in range(size):
        psi_t = emb.matrix[y].T.tolist()
        for target in phi.at_point(y):
            x = linalg.solve(psi_t, target, be)
            if x is None:
                raise NotASolution("morphism does not factor through the image")
            rows.append(x)
    pi = Morphism(phi.source, img_eq, np.array(rows, dtype=be.dtype)
                  .reshape(size, phi.source.rank, img_eq.rank))
    pi.validate()
    return pi


def random_combination(arrays: Sequence[np.ndarray], rng: random.Random,
                       be: Backend) -> np.ndarray:
    """sum_k c_k arrays[k], the c_k drawn by ``be.random`` in order and the
    terms summed left to right, each product rounded as the product of two
    scalars."""
    out = None
    for arr in arrays:
        term = mul(np.array(be.random(rng), dtype=be.dtype), arr, be)
        out = term if out is None else out + term
    return out


def find_isomorphism(src: Equation, dst: Equation,
                     seed: int = 0) -> Optional[Morphism]:
    """An explicit isomorphism src -> dst found inside hom_space, or None.
    Between rank-0 equations that is the empty map, the basis being empty."""
    if src.rank != dst.rank:
        return None
    if not src.rank:
        return zero_morphism(src, dst)
    basis = hom_space(src, dst)
    if not basis:
        return None
    rng = random.Random(seed)
    mixed = (Morphism(src, dst, random_combination(
        [phi.matrix for phi in basis], rng, src.backend))
        for _ in range(DEFAULT_RETRY_BUDGET))
    return next((phi for phi in chain(basis, mixed) if is_isomorphism(phi)),
                None)


def _scalar_matrices(mats: np.ndarray, be: Backend) -> np.ndarray:
    """Which matrices of a (k, n, n) array are multiples of the identity:
    one comparison for all of them."""
    eye = np.eye(mats.shape[-1], dtype=bool)
    scalar = np.where(eye, mats[:, :1, :1], be.zero())
    return be.eq_array(mats, scalar).all(axis=(1, 2))


def is_simple(eq: Equation, seed: int = 0) -> str:
    """Tri-state simplicity via the fiber span criterion.

    Span of {rho(h)} of dimension d^2 certifies absolute simplicity; over
    the complex backend anything less is reducible (the span is the full
    commutant-of-commutant); over exact rationals a proper invariant
    subspace is exhibited when possible, else UNDETERMINED.
    """
    fib = fiber(eq)
    be = eq.backend
    d = fib.dim
    if d == 0:
        return NOT_SIMPLE
    span = linalg.RowSpace(d * d, be)
    for row in fib.rho.reshape(-1, d * d).tolist():
        span.add(row)
    if span.dim == d * d:
        return SIMPLE
    if not be.exact:
        return NOT_SIMPLE
    comm = intertwiner_space(fib, fib)
    if len(comm) == 1:
        # indecomposable with End = F; semisimple ambient category => simple
        return SIMPLE
    if _find_stable_splitting(fib, comm, seed) is not None:
        return NOT_SIMPLE
    return UNDETERMINED


def _generalized_eigenrows(m: np.ndarray, roots: list,
                           be: Backend) -> List[List[linalg.Vector]]:
    """For each root lam, the rows v with v . (M - lam I)^d = 0: the
    powers of all the shifted matrices S, one batched product per step.
    The first power is S + 0: I . S has the entries of S, its zeros made
    positive by the sum from zero."""
    d = len(m)
    shifted = np.repeat(m[None], len(roots), axis=0)
    diag = np.arange(d)
    shifted[:, diag, diag] -= np.array(roots, dtype=be.dtype)[:, None]
    power = shifted + be.zero()
    for _ in range(d - 1):
        power = matmul(power, shifted, be)
    return [linalg.nullspace(p.T.tolist(), d, be) for p in power]


def _eigenvalue_split(m: np.ndarray, be: Backend) -> Optional[List[List[linalg.Vector]]]:
    """Partition of F^d (rows) into >= 2 generalized eigenspaces of M, or None."""
    d = len(m)
    if be.exact:
        roots = linalg.rational_roots(linalg.charpoly(m.tolist()))
    else:
        vals = np.linalg.eigvals(m)
        scale = 1 + max((abs(v) for v in vals), default=0.0)
        tol = be.eigenvalue_tol(scale)
        roots = []
        for v in vals:
            if all(abs(v - r) > tol for r in roots):
                roots.append(complex(v))
    if len(roots) < 2:
        return None
    spaces = [basis for basis in _generalized_eigenrows(m, roots, be) if basis]
    if len(spaces) < 2 or sum(map(len, spaces)) != d:
        return None
    return spaces


def _find_stable_splitting(fib: HModule, comm: np.ndarray,
                           seed: int) -> Optional[List[List[linalg.Vector]]]:
    """Generalized eigenspaces of a random commutant element, if separating.

    The element is a ``random_combination`` of the commutant basis plus
    zero, which makes its zeros positive, as a sum that starts from zero
    gives them."""
    be = fib.backend
    rng = random.Random(seed)
    candidates = list(comm[~_scalar_matrices(comm, be)])
    for _ in range(DEFAULT_RETRY_BUDGET):
        for m in candidates:
            split = _eigenvalue_split(m, be)
            if split is not None:
                return split
        mixed = random_combination(comm, rng, be) + be.zero()
        candidates = [] if _scalar_matrices(mixed[None], be)[0] else [mixed]
    return None


def decompose(eq: Equation, seed: int = 0) -> List[Tuple[Equation, Morphism]]:
    """Split into indecomposable summands with embeddings, by random-
    endomorphism eigenspace splitting of the fiber, depth first (a stack)."""
    fib = fiber(eq)
    be = eq.backend
    leaves: List[Tuple[HModule, np.ndarray]] = []
    stack = [(be.eye(eq.rank), 0)]
    while stack:
        basis_rows, depth = stack.pop()
        sub = _subfiber_module(fib, basis_rows)
        comm = intertwiner_space(sub, sub)
        if len(comm) <= 1:
            leaves.append((sub, basis_rows))
            continue
        split = _find_stable_splitting(sub, comm, seed + depth)
        if split is None:
            raise SplittingInconclusive(
                "no separating endomorphism found within the retry budget")
        stack.extend((matmul(np.array(coeffs, dtype=be.dtype), basis_rows, be),
                      depth + 1) for coeffs in reversed(split))
    return [_subobject(eq, sub, rows) for sub, rows in leaves]
