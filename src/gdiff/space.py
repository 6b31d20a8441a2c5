"""Finite homogeneous space: points, the transitive permutation group,
stabilizers, and coset transversals.

Conventions: points are indexed 0..|S|-1 and the base point for every
fiber construction is index 0.  Group elements are canonicalized by their
permutation image arrays, held as the rows of one integer array; element 0
is always the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import GroupTooLarge, NotTransitive

BASE_POINT = 0
# Entries (|G| x |S| point indices) the element array of a group may hold:
# 128 MB as 64-bit integers.
DEFAULT_ENTRY_CAP = 1 << 24


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


@dataclass(frozen=True, eq=False)
class Group:
    """A transitive permutation group, fully enumerated.

    ``elements`` is one (|G|, |S|) integer array: row g is the image array
    of element g (``elements[g][x]`` is the index of g.x).  Element 0 is the
    identity and the rows follow the breadth-first order of
    ``enumerate_group``.  ``inv[a]`` is the id of the inverse.

    ``base`` is a base of the action (Sims), an integer array of points
    whose images determine an element, so an element is found from its base
    images alone, by a
    binary search of the sorted keys ``_keys`` (``_ids[i]`` is the element
    with key ``_keys[i]``).  Products are computed on demand by ``mul`` and,
    batched, ``mul_ids``; no |G| x |G| table is built.  Groups are equal
    when their spaces, generators and elements are.

    ``_cell_tables`` keeps the cell tables of induction over the group,
    built on demand (``equations.cell_table``).
    """

    space: FiniteSpace
    elements: np.ndarray
    inv: Tuple[int, ...]
    generators: Dict[str, int]
    base: np.ndarray
    _keys: np.ndarray = field(repr=False)
    _ids: np.ndarray = field(repr=False)
    _cell_tables: dict = field(default_factory=dict, repr=False)

    def __eq__(self, other):
        if not isinstance(other, Group):
            return NotImplemented
        return (self.space == other.space and self.generators == other.generators
                and np.array_equal(self.elements, other.elements))

    def __hash__(self):
        return hash((self.space, self.order))

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def generator_ids(self) -> Tuple[int, ...]:
        """The distinct element ids of the generators, ascending."""
        return tuple(sorted(set(self.generators.values())))

    def lookup(self, images: np.ndarray) -> np.ndarray:
        """Ids of the elements whose images of ``base`` are the rows of
        ``images``, an array of shape (..., len(base))."""
        rows = np.ascontiguousarray(images, dtype=np.intp)
        return self._ids[self._keys.searchsorted(rows.view(self._keys.dtype)[..., 0])]

    def mul_ids(self, *factors) -> np.ndarray:
        """Ids of the products f1 o f2 o ... (the last factor applied first)
        for broadcast arrays of element ids."""
        images = self.elements[np.asarray(factors[-1])[..., None], self.base]
        for f in reversed(factors[:-1]):
            images = self.elements[np.asarray(f)[..., None], images]
        return self.lookup(images)

    def mul(self, *factors: int) -> int:
        """The id of the product f1 o f2 o ... of element ids."""
        images = self.base
        for f in reversed(factors):
            images = self.elements[f][images]
        return int(self.lookup(images))

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
                out = self.mul(out, g)
        return out


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One comparable scalar (raw bytes) per row of an integer array of
    shape (..., k), so rows can be sorted and binary-searched."""
    rows = np.ascontiguousarray(rows, dtype=np.intp)
    width = rows.shape[-1] * rows.itemsize
    return rows.view(np.dtype((np.void, width)))[..., 0]


def _distinct_rows(rows: np.ndarray) -> int:
    keys = np.sort(_row_keys(rows))
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def _base(elements: np.ndarray) -> np.ndarray:
    """BASE_POINT, then each point in turn that tells apart two elements
    agreeing on the points chosen before, until the images determine the
    element."""
    base = [BASE_POINT]
    seen = _distinct_rows(elements[:, base])
    for x in range(elements.shape[1]):
        if seen == len(elements):
            break
        finer = _distinct_rows(elements[:, base + [x]])
        if finer > seen:
            base.append(x)
            seen = finer
    return np.array(base, dtype=np.intp)


def _first_rows(points: np.ndarray, size: int) -> np.ndarray:
    """For each point y < size, the least i with points[i] == y; raises
    NotTransitive when some point is missing."""
    if np.count_nonzero(np.bincount(points, minlength=size)) != size:
        raise NotTransitive("transversal incomplete; action not transitive")
    order = np.argsort(points, kind="stable")
    return order[np.searchsorted(points[order], np.arange(size))]


def enumerate_group(space: FiniteSpace, generators: Dict[str, Sequence[int]],
                    cap: int = DEFAULT_ENTRY_CAP) -> Group:
    """Breadth-first closure of the generators under composition.

    Each level composes every generator with the level before, a frontier
    element g before the next and the generators in their given order
    within it; new elements get ids in that order.  Raises NotTransitive
    when the action has more than one orbit and GroupTooLarge when the
    (|G|, |S|) element array would hold more than ``cap`` entries.
    Elements are keyed by their image arrays, so the enumerated action is
    faithful by construction.
    """
    n = space.size
    for name, image in generators.items():
        if not perm_is_valid(tuple(image), n):
            raise ValueError(f"generator {name!r} is not a permutation of {n} points")
    gens = np.array([list(image) for image in generators.values()],
                    dtype=np.intp).reshape(len(generators), n)

    rows = [np.arange(n, dtype=np.intp)]
    index: Dict[bytes, int] = {rows[0].tobytes(): 0}
    frontier = rows[0][None, :]
    while len(frontier):
        # row (g, p) is p o g: p[g[x]]
        nxt = []
        for h in gens[:, frontier].transpose(1, 0, 2).reshape(-1, n):
            key = h.tobytes()
            if key not in index:
                if (len(rows) + 1) * n > cap:
                    raise GroupTooLarge(f"more than {cap} entries in the "
                                        "element array")
                index[key] = len(rows)
                rows.append(h)
                nxt.append(h)
        frontier = np.array(nxt, dtype=np.intp).reshape(-1, n)
    elements = np.array(rows, dtype=np.intp)

    orbit = np.count_nonzero(np.bincount(elements[:, BASE_POINT], minlength=n))
    if orbit != n:
        raise NotTransitive(f"orbit of base point has size {orbit} != {n}")

    base = _base(elements)
    keys = _row_keys(elements[:, base])
    ids = np.argsort(keys)
    keys = keys[ids]
    # the inverse of a permutation array is its argsort
    inv_images = np.argsort(elements, axis=1)[:, base]
    inv = tuple(ids[np.searchsorted(keys, _row_keys(inv_images))].tolist())
    gens_ids = {name: index[row.tobytes()]
                for name, row in zip(generators, gens)}
    return Group(space, elements, inv, gens_ids, base, keys, ids)


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

    @cached_property
    def generators(self) -> Tuple[int, ...]:
        """Members generating the subgroup, greedy: each one outside the
        closure of those before it; O(k |H|) products for k of them."""
        inside, gens = {0}, []
        for h in self.members:
            if h not in inside:
                gens.append(h)
                new = list(inside)
                while new:
                    found = self.group.mul_ids(np.array(new)[:, None], gens)
                    new = list(set(found.ravel().tolist()) - inside)
                    inside.update(new)
        return tuple(gens)

    def mult(self, a: int, b: int) -> int:
        return self.group.mul(a, b)

    def inv(self, a: int) -> int:
        return self.group.inv[a]

    def __contains__(self, g: int) -> bool:
        return g in set(self.members)


def stabilizer(group: Group, x: int) -> Subgroup:
    """The isotropy subgroup H_x = {g : g.x = x}."""
    if not 0 <= x < group.space.size:
        raise IndexError(f"point index {x} out of range")
    members = np.flatnonzero(group.elements[:, x] == x)
    return Subgroup(group, tuple(members.tolist()))


@dataclass(frozen=True)
class Transversal:
    """sigma[y] is a group element with sigma[y] . base = y; sigma[base] = e."""

    group: Group
    base: int
    sigma: Tuple[int, ...]


def transversal(group: Group, base: int = BASE_POINT) -> Transversal:
    """First-found coset representatives in enumeration order; identity at base."""
    first = _first_rows(group.elements[:, base], group.space.size)
    return Transversal(group, base, tuple(first.tolist()))

