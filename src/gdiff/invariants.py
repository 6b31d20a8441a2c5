"""Invariant structures: G-fixed vectors, conserved quantities along
solutions, self-duality via invariant forms, and composition principles.

A vector alpha in an equation is invariant when g.alpha = alpha for every
group element; symmetric/antisymmetric forms on E live as invariant
vectors of sym2/wedge2 of the dual equation.

Invariant vectors are the solutions Hom_A(1, E), so they are solved in the
base fiber like every hom space.  Invariance is checked on the generators
only: the action is a group action, so that covers the whole group.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .equations import (Coords, Equation, KMatrix, act, dual, sym2,
                        sym2_basis, trivial_equation, wedge2, wedge2_basis)
from .errors import NotASolution, NotInvariant
from .scalars import Fn
from .solver import Morphism, hom_space, is_isomorphism

DEFAULT_RETRY_BUDGET = 8


def invariant_vectors(eq: Equation) -> List[Coords]:
    """F-basis of {alpha : g.alpha = alpha for all g}: the solutions
    Hom_A(1, eq), whose unknowns alpha_i(y) keep the order (i, y)."""
    one = trivial_equation(eq.group, eq.backend)
    return [phi.matrix.entries[0] for phi in hom_space(one, eq)]


def is_invariant(eq: Equation, coords: Coords) -> bool:
    """g.alpha = alpha on the generators, hence on the whole group."""
    return all(all(a.eq(b) for a, b in zip(act(eq, g, coords), coords))
               for g in eq.group.generator_ids)


def _check_solution(phi: Morphism) -> None:
    if not phi.is_valid():
        raise NotASolution("the supplied map does not intertwine the connections")


def conserved_quantity_check(eq: Equation, alpha: Coords,
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
    size = eq.group.space.size
    if power == "sym2":
        host = sym2(eq)
        if not is_invariant(host, alpha):
            raise NotInvariant("alpha is not an invariant of sym2(E)")
        phi = solutions[0]
        psi = solutions[1] if len(solutions) > 1 else solutions[0]
        t = _form_from_sym2(eq, alpha)
        value = phi.matrix.transpose().mul(t).mul(psi.matrix).entries[0][0]
    elif power == "wedge_top":
        from .equations import wedge_top
        host = wedge_top(eq)
        if not is_invariant(host, alpha):
            raise NotInvariant("alpha is not an invariant of wedge_top(E)")
        if len(solutions) != eq.rank:
            raise NotASolution(f"wedge_top needs {eq.rank} solutions")
        cols = [[phi.matrix.entries[i][0] for i in range(eq.rank)]
                for phi in solutions]
        mats = []
        for y in range(size):
            mats.append([[cols[k][i].values[y] for k in range(eq.rank)]
                         for i in range(eq.rank)])
        value = alpha[0] * Fn(tuple(linalg.det(m, be) for m in mats), be)
    else:
        raise ValueError(f"unknown power {power!r}")
    return {
        "constant": value.is_constant(),
        "values": list(value.values),
    }


def _form_from_sym2(eq: Equation, alpha: Coords) -> KMatrix:
    """alpha in sym2(dual E) as a bilinear-form matrix t over k.

    sym2 uses monomial coordinates, which sit in the tensor square as
    s_ii = e_i (x) e_i and s_ij = (e_i (x) e_j + e_j (x) e_i) / 2 for i < j;
    so t_ii = alpha_(ii) and t_ij = t_ji = alpha_(ij) / 2.
    """
    n = eq.rank
    z = Fn.zero(eq.group.space.size, eq.backend)
    t = [[z for _ in range(n)] for _ in range(n)]
    for a, (i, j) in zip(alpha, sym2_basis(n)):
        if i == j:
            t[i][i] = a
        else:
            t[i][j] = t[j][i] = a.scale(Fraction(1, 2))
    return KMatrix.from_rows(t, eq.backend)


def _form_from_wedge2(eq: Equation, alpha: Coords) -> KMatrix:
    n = eq.rank
    z = Fn.zero(eq.group.space.size, eq.backend)
    t = [[z for _ in range(n)] for _ in range(n)]
    for a, (i, j) in zip(alpha, wedge2_basis(n)):
        t[i][j] = t[i][j] + a
        t[j][i] = t[j][i] - a
    return KMatrix.from_rows(t, eq.backend)


def self_dual_check(eq: Equation, seed: int = 0,
                    budget: int = DEFAULT_RETRY_BUDGET) -> Optional[Morphism]:
    """Search the invariant symmetric and antisymmetric forms on E for one
    with everywhere-nonvanishing determinant; return F_alpha : E -> dual(E)."""
    be = eq.backend
    dual_eq = dual(eq)
    candidates: List[Tuple[str, Coords]] = []
    if eq.rank >= 1:
        for a in invariant_vectors(sym2(dual_eq)):
            candidates.append(("sym2", a))
    if eq.rank >= 2:
        for a in invariant_vectors(wedge2(dual_eq)):
            candidates.append(("wedge2", a))

    def build(kind: str, alpha: Coords) -> Optional[Morphism]:
        t = (_form_from_sym2 if kind == "sym2" else _form_from_wedge2)(eq, alpha)
        # nondegeneracy audited at every point, not just the base point
        for y in range(eq.group.space.size):
            if be.is_zero(linalg.det(t.at_point(y), be)):
                return None
        phi = Morphism(eq, dual_eq, t)
        phi.validate()
        return phi if is_isomorphism(phi) else None

    for kind, alpha in candidates:
        found = build(kind, alpha)
        if found is not None:
            return found
    # random combinations within each family
    rng = random.Random(seed)
    for _ in range(budget):
        for kind in ("sym2", "wedge2"):
            fam = [a for k, a in candidates if k == kind]
            if not fam:
                continue
            mix = fam[0]
            mix = tuple(f.scale(be.random(rng)) for f in mix)
            for extra in fam[1:]:
                c = be.random(rng)
                mix = tuple(m + f.scale(c) for m, f in zip(mix, extra))
            found = build(kind, mix)
            if found is not None:
                return found
    return None


def _hom_coords(phi: Morphism) -> List[Fn]:
    """Flatten a morphism into hom(E,F)-coordinates: index (i target, j
    source) -> i*rank(E) + j."""
    n = phi.source.rank
    m = phi.target.rank
    return [phi.matrix.entries[j][i] for i in range(m) for j in range(n)]


def composition_principle(src: Equation, dst: Equation, alpha: Coords,
                          phi: Morphism, psi: Morphism) -> Morphism:
    """Contract two solutions through an invariant of
    sym2(dual(hom(E,F))) (x) hom(E,F); the result is again a solution."""
    from .equations import hom, tensor

    _check_solution(phi)
    _check_solution(psi)
    be = src.backend
    size = src.group.space.size
    h = hom(src, dst)
    host = tensor(sym2(dual(h)), h)
    if not is_invariant(host, alpha):
        raise NotInvariant("alpha is not invariant in the composition host")
    fa = _hom_coords(phi)
    fb = _hom_coords(psi)
    hrank = h.rank
    sbasis = sym2_basis(hrank)
    out = [Fn.zero(size, be) for _ in range(hrank)]
    for s_idx, (a, b) in enumerate(sbasis):
        pair = fa[a] * fb[a] if a == b else fa[a] * fb[b] + fa[b] * fb[a]
        for c in range(hrank):
            out[c] = out[c] + alpha[s_idx * hrank + c] * pair
    n, m = src.rank, dst.rank
    rows = [[out[i * n + j] for i in range(m)] for j in range(n)]
    result = Morphism(src, dst, KMatrix.from_rows(rows, be))
    try:
        result.validate()
    except NotASolution:
        raise NotASolution("contracted map fails the intertwining equation")
    return result
