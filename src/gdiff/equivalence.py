"""Fiber/induction equivalence between equations and modules over the
base-point stabilizer H.

Orientation: fibers carry a row action v |-> v . rho(h), which makes rho an
anti-homomorphism: rho(h1 h2) = rho(h2) . rho(h1).  The transversal always
satisfies sigma(base) = e so that fiber(induce(V)) returns literally equal
matrices.

A module holds its matrices as one array, like every matrix of the
package (see ``equations``), and over the rationals it validates on
Python ints, over generators of H x elements (``HModule.validate``).

An induced equation is stored as its module and the cell table of its
transversal (``equations.cell_table``, built once per transversal):
``fiber`` of it is that module, it validates as the module (on the
complex backend unless H is so large that the global scan costs less),
and the constructions of equations induced over one transversal are
computed on the modules.  Only an equation given by generator data holds
its whole connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from . import linalg
from .equations import (_BATCH_SCALARS, Equation, _slots, cell_table, matmul,
                        read_only)
from .errors import InvalidHModule, NoIsoFound
from .scalars import Backend
from .space import BASE_POINT, Subgroup, Transversal, stabilizer

IrredFamily = Dict[str, "HModule"]


@dataclass(frozen=True, eq=False)
class HModule:
    """A module over the stabilizer subgroup.  ``rho`` is read-only, of
    shape (|H|, dim, dim) and dtype ``Backend.dtype`` (``Fraction`` objects
    over the rationals, complex128 otherwise): rho[i] is the row-action
    matrix of the element ``subgroup.members[i]``."""

    subgroup: Subgroup
    backend: Backend
    dim: int
    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", read_only(self.rho))

    def validate(self) -> None:
        """rho(e) = I, and rho(ab) = rho(b) . rho(a) with rho(a) invertible
        for all (a, b).  Over the rationals d A[sb] == A[b] . A[s] on ints
        (rho = A / d) for the ``Subgroup.generators`` s and all b suffice,
        by induction on word length, and rho(a^-1) . rho(a) = I.  Else
        (tolerance equality is not transitive), or on a failure, a scan in
        slices of about ``equations._BATCH_SCALARS`` scalars of pairs and
        one batched singularity test names the first failure of a scan
        over a in member order that tests rho(a) for singularity, then the
        pairs (a, b), b in order."""
        be, sub, rho = self.backend, self.subgroup, self.rho
        members = np.array(sub.members)
        if not be.eq_array(rho[_slots(sub, 0)], be.eye(self.dim)).all():
            raise InvalidHModule("rho(e) is not the identity")
        if be.exact:
            ints, d = be.integral(rho)
            if all((d * ints[_slots(sub, sub.group.mul_ids(s, members))]
                    == ints @ ints[_slots(sub, s)]).all()
                   for s in sub.generators):
                return
        step = max(1, _BATCH_SCALARS // max(1, sub.order * self.dim ** 2))
        last, b = sub.order - 1, None
        for start in range(0, sub.order, step):
            a = slice(start, start + step)
            ab = _slots(sub, sub.group.mul_ids(members[a, None], members))
            # [a, b]: rho(ab) against rho(b) . rho(a)
            same = be.eq_array(rho[ab], matmul(rho, rho[a, None], be))
            same = same.all(axis=(2, 3))
            bad = np.flatnonzero(~same.all(axis=1))
            if bad.size:
                last = start + int(bad[0])
                b = int(np.flatnonzero(~same[bad[0]])[0])
                break
        if linalg.any_singular(rho[:last + 1], be):
            a = next(a for a in range(last + 1)
                     if linalg.any_singular(rho[a:a + 1], be))
            raise InvalidHModule(f"rho of element {members[a]} is singular")
        if b is not None:
            raise InvalidHModule("rho is not an anti-homomorphism at "
                                 f"({members[last]},{members[b]})")


def trivial_hmodule(sub: Subgroup, backend: Backend, dim: int = 1) -> HModule:
    return HModule(sub, backend, dim,
                   np.broadcast_to(backend.eye(dim), (sub.order, dim, dim)))


def character_hmodule(sub: Subgroup, backend: Backend, values: Dict[int, object]) -> HModule:
    """One-dimensional module from scalar values per subgroup element."""
    rho = np.array([backend.coerce(values[h]) for h in sub.members],
                   dtype=backend.dtype)
    mod = HModule(sub, backend, 1, rho.reshape(sub.order, 1, 1))
    mod.validate()
    return mod


def hmodule_from_matrices(sub: Subgroup, backend: Backend,
                          mats: Dict[int, linalg.Matrix]) -> HModule:
    """The module with rho(h) = mats[h] for every element id h of the
    subgroup, each scalar coerced into the backend."""
    dim = len(next(iter(mats.values())))
    rho = np.array([[[backend.coerce(v) for v in row] for row in mats[h]]
                    for h in sub.members], dtype=backend.dtype)
    mod = HModule(sub, backend, dim, rho.reshape(sub.order, dim, dim))
    mod.validate()
    return mod


def intertwiner_rows(u: HModule, v: HModule) -> np.ndarray:
    """The system of ``intertwiner_space``: one row per (h, i, k), h != e,
    over the unknowns P_jl at column j m + l (m = v.dim), holding
    rho_U(h)_ij at (j, k), then -rho_V(h)_lk at (i, l), each added to a
    row of zeros in that order, which gives every scalar of a loop over the
    rows."""
    be = u.backend
    n, m = u.dim, v.dim
    keep = [a for a, h in enumerate(u.subgroup.members) if h != 0]
    ru, rv = u.rho[keep], v.rho[keep]
    rows = np.full((len(keep), n, m, n, m), be.zero(), dtype=be.dtype)
    i, k = np.arange(n)[:, None], np.arange(m)
    rows[:, i, k, :, k] += ru.transpose(1, 0, 2)[:, None]
    rows[:, i, k, i, :] -= rv.transpose(0, 2, 1)[:, None]
    return rows.reshape(len(keep) * n * m, n * m)


def intertwiner_space(u: HModule, v: HModule) -> np.ndarray:
    """Basis of {P : rho_U(h) P = P rho_V(h) for all h in H}, a (k, n, m)
    array: P is the fiber matrix of a morphism U -> V (n = u.dim,
    m = v.dim)."""
    n, m = u.dim, v.dim
    basis = linalg.nullspace(intertwiner_rows(u, v).tolist(), n * m, u.backend)
    return np.array(basis, dtype=u.backend.dtype).reshape(len(basis), n, m)


def fiber(eq: Equation) -> HModule:
    """Evaluate the connection at the base point over the stabilizer: for
    an equation induced with sigma(base) = e, its module."""
    sub = stabilizer(eq.group, BASE_POINT)
    cells = eq.cells
    if (cells is not None and cells.subgroup == sub
            and cells.transversal.sigma[BASE_POINT] == 0):
        return eq.module
    return HModule(sub, eq.backend, eq.rank,
                   eq.scalars((list(sub.members), BASE_POINT)))


def induce(mod: HModule, sigma: Transversal) -> Equation:
    """The induced equation: K^g(y) = rho(sigma(y)^{-1} g sigma(g^{-1}y)).

    It keeps the module, over the rationals as ints over their common
    denominator (``Backend.integral``), and the shared ``cell_table`` of
    sigma, whose elements are checked to lie in H once per transversal; its
    connection array is gathered from them when it is read.
    """
    cells = cell_table(mod.subgroup, sigma)
    cells.table  # built now: a transversal that leaves H fails here
    rho, d = mod.backend.integral(mod.rho)
    return Equation(mod.subgroup.group, mod.backend, mod.dim, rho, d, cells,
                    mod)


def roundtrip_iso(eq: Equation, seed: int = 0):
    """Explicit isomorphism E -> induce(fiber(E), sigma)."""
    from .solver import find_isomorphism
    from .space import transversal

    target = induce(fiber(eq), transversal(eq.group))
    iso = find_isomorphism(eq, target, seed=seed)
    if iso is None:
        raise NoIsoFound("no isomorphism onto the induced fiber module")
    return iso


def builtin_irreducibles(sub: Subgroup, backend: Backend) -> IrredFamily:
    """The irreducible modules of a cyclic or dihedral stabilizer; of any
    other stabilizer, the trivial module alone.

    Rational backend: only the modules with rational matrices are returned
    (always including trivial, and sign when H has even order structure).
    """
    out: IrredFamily = {"trivial": trivial_hmodule(sub, backend)}
    if sub.order == 1:
        return out
    # try to realize H as generated by at most two elements: a rotation r
    # of maximal order and (for dihedral H) a reflection
    members = list(sub.members)
    orders = {}
    for h in members:
        k, cur = 1, h
        while cur != 0:
            cur = sub.mult(cur, h)
            k += 1
        orders[h] = k
    r = max(members, key=lambda h: orders[h])
    n = orders[r]
    power = {}  # r^k -> k: the rotation subgroup
    cur = 0
    for k in range(n):
        power[cur] = k
        cur = sub.mult(cur, r)

    if n == sub.order:
        # cyclic: characters r^k -> zeta^{jk}
        if n % 2 == 0:
            out["sign"] = character_hmodule(sub, backend,
                                            {h: (-1) ** power[h] for h in members})
        if not backend.exact:
            import cmath
            for j in range(1, n):
                if n % 2 == 0 and j == n // 2:
                    continue  # that's the sign character
                vals = {h: cmath.exp(2j * cmath.pi * j * power[h] / n) for h in members}
                out[f"chi{j}"] = character_hmodule(sub, backend, vals)
        return out

    # dihedral: a reflection t outside the rotation subgroup with
    # t^2 = e and t r t^-1 = r^-1, and |H| = 2 ord(r); then every other
    # element is r^k t
    t = next(h for h in members if h not in power)
    if (sub.mult(t, t) != 0 or sub.group.mul(t, r, sub.inv(t)) != sub.inv(r)
            or sub.order != 2 * n):
        return out
    # k with h = r^k, or with h = r^k t off the rotations
    rot = {h: power[h] if h in power else power[sub.mult(h, sub.inv(t))]
           for h in members}
    out["sign"] = character_hmodule(
        sub, backend, {h: 1 if h in power else -1 for h in members})
    if n % 2 == 0:
        for name, rs, ts in (("chi_rot", -1, 1), ("chi_mix", -1, -1)):
            out[name] = character_hmodule(sub, backend, {
                h: rs ** rot[h] if h in power else (rs ** rot[h]) * ts
                for h in members})
    if not backend.exact and n > 2:
        import cmath
        for j in range(1, (n - 1) // 2 + (1 if n % 2 else 0) + 1):
            if 2 * j == n or j >= n:
                continue
            z = cmath.exp(2j * cmath.pi * j / n)
            rho = {h: [[z ** rot[h], 0j], [0j, z ** (-rot[h])]] if h in power
                   else [[0j, z ** (-rot[h])], [z ** rot[h], 0j]]
                   for h in members}
            try:
                out[f"rot{j}"] = hmodule_from_matrices(sub, backend, rho)
            except InvalidHModule:
                pass
    return out
