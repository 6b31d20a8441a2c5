"""Fiber/induction equivalence between equations and modules over the
base-point stabilizer H.

Orientation: fibers carry a row action v |-> v . rho(h), which makes rho an
anti-homomorphism: rho(h1 h2) = rho(h2) . rho(h1).  The transversal always
satisfies sigma(base) = e so that fiber(induce(V)) returns literally equal
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from . import linalg
from .equations import Equation
from .errors import ElementNotInH, NoIsoFound
from .scalars import Backend
from .space import BASE_POINT, Subgroup, Transversal, stabilizer

IrredFamily = Dict[str, "HModule"]


@dataclass(frozen=True)
class HModule:
    """A module over the stabilizer subgroup, with row-action matrices."""

    subgroup: Subgroup
    backend: Backend
    dim: int
    rho: Dict[int, linalg.Matrix]  # keyed by parent-group element id

    def validate(self) -> None:
        be = self.backend
        ident = linalg.identity(self.dim, be)
        if not linalg.mat_eq(self.rho[0], ident, be):
            raise ValueError("rho(e) is not the identity")
        for a in self.subgroup.members:
            if linalg.inv(self.rho[a], be) is None:
                raise ValueError(f"rho of element {a} is singular")
            for b in self.subgroup.members:
                lhs = self.rho[self.subgroup.mult(a, b)]
                rhs = linalg.mat_mul(self.rho[b], self.rho[a], be)
                if not linalg.mat_eq(lhs, rhs, be):
                    raise ValueError(f"rho is not an anti-homomorphism at ({a},{b})")

    def mat(self, h: int) -> linalg.Matrix:
        if h not in self.rho:
            raise ElementNotInH(f"element {h} is not in the stabilizer")
        return self.rho[h]


def trivial_hmodule(sub: Subgroup, backend: Backend, dim: int = 1) -> HModule:
    ident = linalg.identity(dim, backend)
    return HModule(sub, backend, dim, {h: ident for h in sub.members})


def character_hmodule(sub: Subgroup, backend: Backend, values: Dict[int, object]) -> HModule:
    """One-dimensional module from scalar values per subgroup element."""
    rho = {h: [[backend.coerce(values[h])]] for h in sub.members}
    mod = HModule(sub, backend, 1, rho)
    mod.validate()
    return mod


def hmodule_from_matrices(sub: Subgroup, backend: Backend,
                          mats: Dict[int, linalg.Matrix]) -> HModule:
    dim = len(next(iter(mats.values())))
    rho = {h: [[backend.coerce(v) for v in row] for row in m] for h, m in mats.items()}
    mod = HModule(sub, backend, dim, rho)
    mod.validate()
    return mod


def hmodule_direct_sum(u: HModule, v: HModule) -> HModule:
    be = u.backend
    rho = {}
    for h in u.subgroup.members:
        a, b = u.rho[h], v.rho[h]
        top = [row + [be.zero()] * v.dim for row in a]
        bot = [[be.zero()] * u.dim + row for row in b]
        rho[h] = top + bot
    return HModule(u.subgroup, be, u.dim + v.dim, rho)


def _kron(a: linalg.Matrix, b: linalg.Matrix) -> linalg.Matrix:
    return [[a[i][r] * b[j][u] for r in range(len(a[0])) for u in range(len(b[0]))]
            for i in range(len(a)) for j in range(len(b))]


def hmodule_tensor(u: HModule, v: HModule) -> HModule:
    rho = {h: _kron(u.rho[h], v.rho[h]) for h in u.subgroup.members}
    return HModule(u.subgroup, u.backend, u.dim * v.dim, rho)


def hmodule_dual(u: HModule) -> HModule:
    rho = {}
    for h in u.subgroup.members:
        m = linalg.inv(linalg.transpose(u.rho[h]), u.backend)
        if m is None:
            raise ValueError("singular rho in dual")
        rho[h] = m
    return HModule(u.subgroup, u.backend, u.dim, rho)


def intertwiner_space(u: HModule, v: HModule) -> List[linalg.Matrix]:
    """Basis of {P : rho_U(h) P = P rho_V(h) for all h in H}.

    P is the fiber matrix of a morphism U -> V (u.dim x v.dim).
    """
    be = u.backend
    n, m = u.dim, v.dim
    rows = []
    for h in u.subgroup.members:
        if h == 0:
            continue
        ru, rv = u.rho[h], v.rho[h]
        # unknowns P_{ik}, index i*m + k
        for i in range(n):
            for k in range(m):
                row = [be.zero()] * (n * m)
                for j in range(n):
                    row[j * m + k] = row[j * m + k] + ru[i][j]
                for j in range(m):
                    row[i * m + j] = row[i * m + j] - rv[j][k]
                rows.append(row)
    basis = linalg.nullspace(rows, n * m, be)
    return [linalg.unflatten(vec, n, m) for vec in basis]


def intertwiner_dim(u: HModule, v: HModule) -> int:
    return len(intertwiner_space(u, v))


def fiber(eq: Equation) -> HModule:
    """Evaluate the connection at the base point over the stabilizer."""
    sub = stabilizer(eq.group, BASE_POINT)
    mats = eq.scalars((list(sub.members), BASE_POINT)).tolist()
    return HModule(sub, eq.backend, eq.rank, dict(zip(sub.members, mats)))


def _rho_array(mod: HModule) -> np.ndarray:
    """The rho matrices, coerced, as one (|H|, dim, dim) array of backend
    scalars in the order of ``subgroup.members``."""
    be = mod.backend
    rho = [[[be.coerce(v) for v in row] for row in mod.rho[h]]
           for h in mod.subgroup.members]
    return np.array(rho, dtype=be.dtype).reshape(len(rho), mod.dim, mod.dim)


def _slots(sub: Subgroup, ids: np.ndarray) -> np.ndarray:
    """The position of each element id in ``sub.members``, -1 outside H."""
    slot = np.full(sub.group.order, -1)
    slot[list(sub.members)] = np.arange(sub.order)
    return slot[ids]


def induce(mod: HModule, sigma: Transversal) -> Equation:
    """Connection of the induced equation: K^g(y) = rho(sigma(y)^{-1} g sigma(g^{-1}y)).

    The stabilizer elements of all cells (g, y) are one (|G|, |S|) array of
    products (``Group.mul_ids``), and the connection array gathers the |H|
    rho matrices, coerced once (over the rationals to ints over their
    common denominator, ``Backend.integral``), by one index into it.
    """
    group = mod.subgroup.group
    sig = np.array(sigma.sigma)
    inv = np.array(group.inv)
    cells = _slots(mod.subgroup, group.mul_ids(
        inv[sig][None, :], np.arange(group.order)[:, None],
        sig[group.elements[inv]]))
    outside = np.flatnonzero(cells < 0)
    if outside.size:
        g, y = divmod(int(outside[0]), group.space.size)
        raise ElementNotInH(f"transversal arithmetic left H at (g={g}, y={y})")
    rho, d = mod.backend.integral(_rho_array(mod))
    return Equation(group, mod.backend, mod.dim, rho[cells], d)


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
    phi = Morphism(induce(mod, sig1), induce(mod, sig2), _rho_array(mod)[gamma])
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
                mod = HModule(sub, backend, 2, rho)
                try:
                    mod.validate()
                    out[f"rot{j}"] = mod
                except ValueError:
                    pass
    return out
