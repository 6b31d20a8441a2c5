"""Finite homogeneous space: points, the transitive permutation group,
stabilizers, and coset transversals.

Conventions: points are indexed 0..|S|-1 and the base point for every
fiber construction is index 0.  Group elements are canonicalized by their
permutation image arrays; element 0 is always the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .errors import GroupTooLarge, NotTransitive
from .scalars import Fn

BASE_POINT = 0
DEFAULT_GROUP_CAP = 10 ** 6


@dataclass(frozen=True)
class FiniteSpace:
    """The underlying set S with ordered, unique point labels."""

    points: Tuple[str, ...]

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValueError("space needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise ValueError("point labels must be unique")

    @property
    def size(self) -> int:
        return len(self.points)

    @staticmethod
    def cycle(n: int) -> "FiniteSpace":
        """The vertex set of the cyclic graph C_n, labels x1..xn."""
        return FiniteSpace(tuple(f"x{i + 1}" for i in range(n)))


Perm = Tuple[int, ...]  # image[i] = index of g . x_i


def perm_compose(a: Perm, b: Perm) -> Perm:
    """(a o b)(x) = a(b(x))."""
    return tuple(a[b[i]] for i in range(len(a)))


def perm_inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def perm_is_valid(a: Sequence[int], size: int) -> bool:
    return len(a) == size and sorted(a) == list(range(size))


def parse_cycles(text: str, size: int) -> Perm:
    """Parse disjoint cycle notation with 1-based labels, e.g. "(1 2 3)(4 5)"."""
    image = list(range(size))
    body = text.strip()
    if body in ("", "e", "()"):
        return tuple(image)
    depth = 0
    cycles: List[List[int]] = []
    cur: List[str] = []
    tok = ""
    for ch in body + " ":
        if ch == "(":
            depth += 1
            cur = []
        elif ch == ")":
            if tok:
                cur.append(tok)
                tok = ""
            depth -= 1
            cycles.append([int(t) - 1 for t in cur])
        elif ch in " ,":
            if tok:
                cur.append(tok)
                tok = ""
        else:
            tok += ch
    if depth != 0:
        raise ValueError(f"unbalanced cycle notation: {text!r}")
    for cyc in cycles:
        if any(not 0 <= p < size for p in cyc):
            raise ValueError(f"point out of range in {text!r}")
        for i, p in enumerate(cyc):
            image[p] = cyc[(i + 1) % len(cyc)]
    if not perm_is_valid(image, size):
        raise ValueError(f"not a permutation: {text!r}")
    return tuple(image)


@dataclass(frozen=True)
class Group:
    """A transitive permutation group, fully enumerated.

    ``mult[a][b]`` is the index of the composite a o b (apply b first),
    ``inv[a]`` the index of the inverse.  Element 0 is the identity.
    """

    space: FiniteSpace
    elements: Tuple[Perm, ...]
    mult: Tuple[Tuple[int, ...], ...]
    inv: Tuple[int, ...]
    generators: Dict[str, int] = field(default_factory=dict)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def generator_ids(self) -> Tuple[int, ...]:
        """The distinct element ids of the generators, ascending."""
        return tuple(sorted(set(self.generators.values())))

    def act_point(self, g: int, x: int) -> int:
        return self.elements[g][x]

    def word(self, text: str) -> int:
        """Resolve a product of generator names like "s*t" or "s^-1*t"."""
        out = 0
        for part in text.replace(" ", "").split("*"):
            if not part:
                continue
            if "^" in part:
                name, expo = part.split("^")
                k = int(expo)
            else:
                name, k = part, 1
            if name == "e":
                continue
            if name not in self.generators:
                raise KeyError(f"unknown generator {name!r}")
            g = self.generators[name]
            if k < 0:
                g, k = self.inv[g], -k
            for _ in range(k):
                out = self.mult[out][g]
        return out


def enumerate_group(space: FiniteSpace, generators: Dict[str, Sequence[int]],
                    cap: int = DEFAULT_GROUP_CAP) -> Group:
    """Breadth-first closure of the generators under composition.

    Raises NotTransitive when the action has more than one orbit and
    GroupTooLarge past the element cap.  Elements are keyed by their image
    arrays, so the enumerated action is faithful by construction.
    """
    n = space.size
    gen_perms: Dict[str, Perm] = {}
    for name, image in generators.items():
        img = tuple(image)
        if not perm_is_valid(img, n):
            raise ValueError(f"generator {name!r} is not a permutation of {n} points")
        gen_perms[name] = img

    ident = tuple(range(n))
    index: Dict[Perm, int] = {ident: 0}
    elems: List[Perm] = [ident]
    frontier = [ident]
    while frontier:
        nxt: List[Perm] = []
        for g in frontier:
            for p in gen_perms.values():
                h = perm_compose(p, g)
                if h not in index:
                    if len(elems) >= cap:
                        raise GroupTooLarge(f"more than {cap} elements")
                    index[h] = len(elems)
                    elems.append(h)
                    nxt.append(h)
        frontier = nxt

    orbit = {BASE_POINT}
    for g in elems:
        orbit.add(g[BASE_POINT])
    if len(orbit) != n:
        raise NotTransitive(f"orbit of base point has size {len(orbit)} != {n}")

    mult = tuple(tuple(index[perm_compose(a, b)] for b in elems) for a in elems)
    inv = tuple(index[perm_inverse(a)] for a in elems)
    gens = {name: index[p] for name, p in gen_perms.items()}
    return Group(space, tuple(elems), mult, inv, gens)


def dihedral_on_cycle(n: int) -> Group:
    """Symmetry group D_2n of the cyclic graph C_n: s = left translation
    (s.x_i = x_{i-1}), t = reflection fixing x_1."""
    space = FiniteSpace.cycle(n)
    s = tuple((i - 1) % n for i in range(n))
    t = tuple((-i) % n for i in range(n))
    gens = {"s": s, "t": t} if n > 2 else {"s": s}
    return enumerate_group(space, gens)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by element ids of the parent group."""

    group: Group
    members: Tuple[int, ...]

    def __post_init__(self):
        assert 0 in self.members

    @property
    def order(self) -> int:
        return len(self.members)

    def mult(self, a: int, b: int) -> int:
        return self.group.mult[a][b]

    def inv(self, a: int) -> int:
        return self.group.inv[a]

    def __contains__(self, g: int) -> bool:
        return g in set(self.members)


def stabilizer(group: Group, x: int) -> Subgroup:
    """The isotropy subgroup H_x = {g : g.x = x}."""
    if not 0 <= x < group.space.size:
        raise IndexError(f"point index {x} out of range")
    members = tuple(g for g in range(group.order) if group.elements[g][x] == x)
    return Subgroup(group, members)


@dataclass(frozen=True)
class Transversal:
    """sigma[y] is a group element with sigma[y] . base = y; sigma[base] = e."""

    group: Group
    base: int
    sigma: Tuple[int, ...]


def transversal(group: Group, base: int = BASE_POINT) -> Transversal:
    """First-found coset representatives in enumeration order; identity at base."""
    n = group.space.size
    sigma = [None] * n
    sigma[base] = 0
    for g in range(group.order):
        y = group.elements[g][base]
        if sigma[y] is None:
            sigma[y] = g
    if any(s is None for s in sigma):
        raise NotTransitive("transversal incomplete; action not transitive")
    return Transversal(group, base, tuple(sigma))


def alternate_transversal(group: Group, base: int = BASE_POINT) -> Transversal:
    """Last-found representatives (still identity at base); a second
    deterministic choice for transversal-independence checks."""
    n = group.space.size
    sigma = [None] * n
    for g in range(group.order):
        y = group.elements[g][base]
        sigma[y] = g
    sigma[base] = 0
    return Transversal(group, base, tuple(sigma))


def act_on_function(group: Group, g: int, f: Fn) -> Fn:
    """(g.f)(x) = f(g^{-1} x)."""
    return f.translate(group.elements[group.inv[g]])
