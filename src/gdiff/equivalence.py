"""Fiber/induction equivalence between equations and modules over the
base-point stabilizer H.

Orientation: fibers carry a row action v |-> v . rho(h), which makes rho an
anti-homomorphism: rho(h1 h2) = rho(h2) . rho(h1).  The transversal always
satisfies sigma(base) = e so that fiber(induce(V)) returns literally equal
matrices.

A module holds its matrices as one array, like every matrix of the package
(see ``equations``).  Its direct sum, tensor product and dual run the
entry-major helpers of the equation constructions on its matrices, so
there is one code for each construction, with the values of the
per-element matrix formulas bit for bit: complex products go through
``equations.cmul``.

An induced equation is stored as its module and the cell table of its
transversal (``equations.cell_table``, built once per transversal):
``fiber`` of it is that module, it validates as the module unless H is so
large that the global scan costs less, and the constructions of equations
induced over one transversal are computed on the modules.  Only an
equation given by generator data holds its whole connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from . import linalg
from .equations import (_BATCH_SCALARS, Equation, _block_sum, _cell_major,
                        _dual_entries, _entry_major, _inverse_slots, _kron,
                        _slots, cell_table, matmul, read_only)
from .errors import ElementNotInH, InvalidHModule, NoIsoFound
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
        """rho(e) = I, and for all pairs (a, b) rho(ab) = rho(b) . rho(a)
        with every rho(a) invertible: one batched product and comparison
        per slice of consecutive a holding about
        ``equations._BATCH_SCALARS`` scalars of pairs, so the temporaries
        stay small whatever |H| is, and one batched singularity test.  A
        failure is the first of a scan over a in the order of the members
        that tests rho(a) for singularity, then the pairs (a, b), b in
        order."""
        be, sub, rho = self.backend, self.subgroup, self.rho
        members = np.array(sub.members)
        if not be.eq_array(rho[_slots(sub, 0)], be.eye(self.dim)).all():
            raise InvalidHModule("rho(e) is not the identity")
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


def _module_entries(u: HModule) -> Tuple[np.ndarray, int]:
    """The module's matrices entry-major, as ints over their common
    denominator over the rationals (``Backend.integral``): the stored form
    of an induced equation's fiber, which the constructions of
    ``equations`` take."""
    rho, d = u.backend.integral(u.rho)
    return _entry_major(rho), d


def _module(u: HModule, dim: int, entries: np.ndarray, d: int) -> HModule:
    """The module over u's subgroup with the entry-major matrices
    entries / d."""
    return HModule(u.subgroup, u.backend, dim,
                   u.backend.scalar_array(_cell_major(entries), d))


def hmodule_direct_sum(u: HModule, v: HModule) -> HModule:
    """The block assignment of ``equations.direct_sum``."""
    (a, da), (b, db) = _module_entries(u), _module_entries(v)
    return _module(u, u.dim + v.dim, *_block_sum(a, da, b, db, u.backend))


def hmodule_tensor(u: HModule, v: HModule) -> HModule:
    """rho(h) = rho_U(h) (x) rho_V(h): ``equations._kron``."""
    (a, da), (b, db) = _module_entries(u), _module_entries(v)
    return _module(u, u.dim * v.dim, _kron(a, b, u.backend), da * db)


def hmodule_dual(u: HModule) -> HModule:
    """rho*(h) = (rho(h)^t)^-1 = rho(h^-1)^t: the gather and transpose of
    ``equations.dual``."""
    a, d = _module_entries(u)
    return _module(u, u.dim,
                   _dual_entries(a, (_inverse_slots(u.subgroup),)), d)


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


def intertwiner_dim(u: HModule, v: HModule) -> int:
    return len(intertwiner_space(u, v))


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


def transversal_independence(mod: HModule, sig1: Transversal, sig2: Transversal):
    """Explicit isomorphism induce(mod, sig1) -> induce(mod, sig2) from the
    gauge gamma(y) = sig2(y)^{-1} sig1(y) in H: its matrix at y is
    rho(gamma(y)), one gather from the rho matrices."""
    from .solver import Morphism

    group = mod.subgroup.group
    gamma = _slots(mod.subgroup, group.mul_ids(
        np.array(group.inv)[list(sig2.sigma)], np.array(sig1.sigma)))
    outside = np.flatnonzero(gamma < 0)
    if outside.size:
        raise ElementNotInH(f"gauge element not in H at point {outside[0]}")
    phi = Morphism(induce(mod, sig1), induce(mod, sig2), mod.rho[gamma])
    phi.validate()
    return phi


def roundtrip_iso(eq: Equation, seed: int = 0):
    """Explicit isomorphism E -> induce(fiber(E), sigma)."""
    from .solver import find_isomorphism
    from .space import transversal

    target = induce(fiber(eq), transversal(eq.group))
    iso = find_isomorphism(eq, target, seed=seed)
    if iso is None:
        raise NoIsoFound("no isomorphism onto the induced fiber module")
    return iso


def grothendieck_check(u: HModule, v: HModule, seed: int = 0) -> Dict[str, bool]:
    """Verify induction respects direct sum, tensor product and dual,
    each isomorphism exhibited explicitly."""
    from . import equations as eqs
    from .solver import find_isomorphism
    from .space import transversal

    sig = transversal(u.subgroup.group)

    def ind(m):
        return induce(m, sig)

    report = {}
    pairs = {
        "direct_sum": (ind(hmodule_direct_sum(u, v)), eqs.direct_sum(ind(u), ind(v))),
        "tensor": (ind(hmodule_tensor(u, v)), eqs.tensor(ind(u), ind(v))),
        "dual": (ind(hmodule_dual(u)), eqs.dual(ind(u))),
    }
    for name, (a, b) in pairs.items():
        report[name] = find_isomorphism(a, b, seed=seed) is not None
    return report


def builtin_irreducibles(sub: Subgroup, backend: Backend) -> IrredFamily:
    """The irreducible modules of a cyclic or dihedral stabilizer.

    Rational backend: only the modules with rational matrices are returned
    (always including trivial, and sign when H has even order structure).
    """
    group = sub.group
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
    cyc = set()
    cur = 0
    for _ in range(n):
        cyc.add(cur)
        cur = sub.mult(cur, r)
    power = {}
    cur = 0
    for k in range(n):
        power[cur] = k
        cur = sub.mult(cur, r)

    if len(cyc) == sub.order:
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

    # dihedral: pick a reflection t outside the rotation subgroup
    t = next(h for h in members if h not in cyc)
    out["sign"] = character_hmodule(
        sub, backend, {h: 1 if h in cyc else -1 for h in members})
    if n % 2 == 0:
        for name, rs, ts in (("chi_rot", -1, 1), ("chi_mix", -1, -1)):
            vals = {}
            ok = True
            for h in members:
                if h in cyc:
                    vals[h] = rs ** power[h]
                else:
                    hr = sub.mult(h, sub.inv(t))  # h = hr * t with hr a rotation
                    if hr not in cyc:
                        ok = False
                        break
                    vals[h] = (rs ** power[hr]) * ts
            if ok:
                out[name] = character_hmodule(sub, backend, vals)
    if not backend.exact and n > 2:
        import cmath
        for j in range(1, (n - 1) // 2 + (1 if n % 2 else 0) + 1):
            if 2 * j == n or j >= n:
                continue
            z = cmath.exp(2j * cmath.pi * j / n)
            rho = {}
            ok = True
            for h in members:
                if h in cyc:
                    k = power[h]
                    rho[h] = [[z ** k, 0j], [0j, z ** (-k)]]
                else:
                    hr = sub.mult(h, sub.inv(t))
                    if hr not in cyc:
                        ok = False
                        break
                    k = power[hr]
                    rho[h] = [[0j, z ** (-k)], [z ** k, 0j]]
            if ok:
                try:
                    out[f"rot{j}"] = hmodule_from_matrices(sub, backend, rho)
                except InvalidHModule:
                    pass
    return out
