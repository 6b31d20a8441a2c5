"""Invariant structures: G-fixed vectors, conserved quantities along
solutions, self-duality via invariant forms, and composition principles.

A vector alpha in an equation is invariant when g.alpha = alpha for every
group element; symmetric/antisymmetric forms on E live as invariant
vectors of sym2/wedge2 of the dual equation.

A vector is given by its coordinates, an (n, |S|) array of backend
scalars, row i the function alpha_i.  Invariant vectors are the solutions
Hom_A(1, E), so they are solved in the base fiber like every hom space.
Invariance is checked on the generators only: the action is a group
action, so that covers the whole group.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import linalg
from .equations import (Equation, act, dual, hom, matmul, mul, sym2,
                        sym2_basis, tensor, trivial_equation, wedge2,
                        wedge2_basis, wedge_top)
from .errors import NotASolution, NotInvariant, UnknownPower
from .solver import (DEFAULT_RETRY_BUDGET, Morphism, hom_space,
                     is_isomorphism, random_combination)


def invariant_vectors(eq: Equation) -> List[np.ndarray]:
    """F-basis of {alpha : g.alpha = alpha for all g}, each an (n, |S|)
    array: the solutions Hom_A(1, eq), whose unknowns alpha_i(y) keep the
    order (i, y)."""
    one = trivial_equation(eq.group, eq.backend)
    return [phi.matrix[:, 0, :].T for phi in hom_space(one, eq)]


def is_invariant(eq: Equation, alpha: np.ndarray) -> bool:
    """g.alpha = alpha on the generators, hence on the whole group: one
    batched comparison per generator."""
    be = eq.backend
    return all(be.eq_array(act(eq, g, alpha), alpha).all()
               for g in eq.group.generator_ids)


def _check_solution(phi: Morphism) -> None:
    if not phi.is_valid():
        raise NotASolution("the supplied map does not intertwine the connections")


def conserved_quantity_check(eq: Equation, alpha: np.ndarray,
                             solutions: Sequence[Morphism],
                             power: str = "sym2") -> Dict[str, object]:
    """Push an invariant structure forward along solutions of type 1 and
    assert the result is a constant function.

    power = "sym2": alpha lives in sym2(eq), one or two solutions phi, psi
    (psi = phi when one is given); the value at y is f(y)^T t(y) g(y), with
    f, g the first columns of phi, psi and t the symmetric matrix of alpha
    in monomial coordinates (``_form_from_sym2``: t_ii = alpha_ii,
    t_ij = t_ji = alpha_ij / 2 for i < j).
    power = "wedge_top": alpha lives in wedge_top(eq) (a single coordinate)
    and rank(eq) solutions are contracted through the determinant.
    """
    for phi in solutions:
        _check_solution(phi)
    be = eq.backend
    if power == "sym2":
        host = sym2(eq)
        if not is_invariant(host, alpha):
            raise NotInvariant("alpha is not an invariant of sym2(E)")
        phi = solutions[0]
        psi = solutions[1] if len(solutions) > 1 else solutions[0]
        t = _form_from_sym2(eq, alpha)
        value = matmul(matmul(phi.matrix.transpose(0, 2, 1), t, be),
                       psi.matrix, be)[:, 0, 0]
    elif power == "wedge_top":
        host = wedge_top(eq)
        if not is_invariant(host, alpha):
            raise NotInvariant("alpha is not an invariant of wedge_top(E)")
        if len(solutions) != eq.rank:
            raise NotASolution(f"wedge_top needs {eq.rank} solutions")
        # column k at y: the first column of solution k
        cols = np.stack([phi.matrix[:, :, 0] for phi in solutions], axis=2)
        dets = np.array([linalg.det(m, be) for m in cols.tolist()],
                        dtype=be.dtype)
        value = mul(alpha[0], dets, be)
    else:
        raise UnknownPower(f"unknown power {power!r}")
    return {
        "constant": bool(be.eq_array(value, value[0]).all()),
        "values": value.tolist(),
    }


def _form_from_sym2(eq: Equation, alpha: np.ndarray) -> np.ndarray:
    """alpha in sym2(dual E), an (N, |S|) array of scalars, as the
    (|S|, n, n) array of a bilinear form t.

    sym2 uses monomial coordinates, which sit in the tensor square as
    s_ii = e_i (x) e_i and s_ij = (e_i (x) e_j + e_j (x) e_i) / 2 for i < j;
    so t_ii = alpha_(ii) and t_ij = t_ji = alpha_(ij) / 2.
    """
    be = eq.backend
    half = np.array(be.coerce(Fraction(1, 2)), dtype=be.dtype)
    t = _zero_form(eq)
    for a, (i, j) in zip(alpha, sym2_basis(eq.rank)):
        if i == j:
            t[i, i] = a
        else:
            t[i, j] = t[j, i] = mul(half, a, be)
    return np.moveaxis(t, 2, 0)


def _form_from_wedge2(eq: Equation, alpha: np.ndarray) -> np.ndarray:
    """alpha in wedge2(dual E), an (N, |S|) array of scalars, as the
    (|S|, n, n) array of an antisymmetric form: t_ij = alpha_(ij) = -t_ji
    for i < j."""
    t = _zero_form(eq)
    for a, (i, j) in zip(alpha, wedge2_basis(eq.rank)):
        t[i, j] = t[i, j] + a
        t[j, i] = t[j, i] - a
    return np.moveaxis(t, 2, 0)


def _zero_form(eq: Equation) -> np.ndarray:
    """An (n, n, |S|) array of zeros: a form, entry-major."""
    be = eq.backend
    return np.full((eq.rank, eq.rank, eq.group.space.size), be.zero(),
                   dtype=be.dtype)


def self_dual_check(eq: Equation, seed: int = 0) -> Optional[Morphism]:
    """Search the invariant symmetric and antisymmetric forms on E for one
    with everywhere-nonvanishing determinant; return F_alpha : E -> dual(E).
    The basis forms are tried first, then random combinations within each
    family (``random_combination``)."""
    be = eq.backend
    dual_eq = dual(eq)
    families = {_form_from_sym2: invariant_vectors(sym2(dual_eq)),
                _form_from_wedge2: invariant_vectors(wedge2(dual_eq))}

    def build(form, alpha: np.ndarray) -> Optional[Morphism]:
        t = form(eq, alpha)
        # nondegeneracy audited at every point, not just the base point
        if any(be.is_zero(linalg.det(m, be)) for m in t.tolist()):
            return None
        phi = Morphism(eq, dual_eq, t)
        phi.validate()
        return phi if is_isomorphism(phi) else None

    rng = random.Random(seed)
    tries = chain(((form, alpha) for form, fam in families.items()
                   for alpha in fam),
                  ((form, random_combination(fam, rng, be))
                   for _ in range(DEFAULT_RETRY_BUDGET)
                   for form, fam in families.items() if fam))
    return next((phi for phi in (build(*t) for t in tries) if phi is not None),
                None)


def composition_principle(src: Equation, dst: Equation, alpha: np.ndarray,
                          phi: Morphism, psi: Morphism) -> Morphism:
    """Contract two solutions through an invariant of
    sym2(dual(hom(E,F))) (x) hom(E,F); the result is again a solution.

    A morphism's hom(E,F)-coordinates are its entries phi_ji, index
    (i target, j source) -> i*rank(E) + j."""
    _check_solution(phi)
    _check_solution(psi)
    be = src.backend
    size = src.group.space.size
    n, m = src.rank, dst.rank
    h = hom(src, dst)
    host = tensor(sym2(dual(h)), h)
    if not is_invariant(host, alpha):
        raise NotInvariant("alpha is not invariant in the composition host")
    fa = phi.matrix.transpose(2, 1, 0).reshape(m * n, size)
    fb = psi.matrix.transpose(2, 1, 0).reshape(m * n, size)
    out = np.full((h.rank, size), be.zero(), dtype=be.dtype)
    for s_idx, (a, b) in enumerate(sym2_basis(h.rank)):
        pair = (mul(fa[a], fb[a], be) if a == b else
                mul(fa[a], fb[b], be) + mul(fa[b], fb[a], be))
        for c in range(h.rank):
            out[c] = out[c] + mul(alpha[s_idx * h.rank + c], pair, be)
    result = Morphism(src, dst, out.reshape(m, n, size).transpose(2, 1, 0))
    try:
        result.validate()
    except NotASolution:
        raise NotASolution("contracted map fails the intertwining equation")
    return result
