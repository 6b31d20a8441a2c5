"""Independent check of the expected dimensions, by sympy elimination of
the intertwining and invariance systems written over the whole group.

The package solves over the generators with its own elimination; this
module shares neither, only the connection matrices.  It runs the solve
template at a small n on the rational backend and compares each nullity
with the dimension the workloads expect.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Dict, List

from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from gdiff import equations, problem

import workloads

ORACLE_N = 6

# dim Hom(E, dual E) behind each expected self_dual=True verdict.
SELF_DUAL_HOM_DIMS = {"both": 2, "r2": 2}


def _nullity(rows: List[List[Fraction]], ncols: int) -> int:
    distinct = list({tuple(r) for r in rows if any(r)})
    if not distinct:
        return ncols
    mat = DomainMatrix([[QQ(x.numerator, x.denominator) for x in r]
                        for r in distinct], (len(distinct), ncols), QQ)
    return ncols - mat.rank()


def hom_system(src, dst) -> List[List[Fraction]]:
    """E^g(y) phi(y) - phi(g^-1 y) F^g(y) = 0 for every g and y."""
    group = src.group
    n, m, size = src.rank, dst.rank, group.space.size

    def idx(i, j, y):
        return (i * m + j) * size + y

    rows = []
    for g in range(group.order):
        ginv = group.elements[group.inv[g]]
        e_g, f_g = src.conn[g], dst.conn[g]
        for i in range(n):
            for k in range(m):
                for y in range(size):
                    row = [Fraction(0)] * (n * m * size)
                    for j in range(n):
                        row[idx(j, k, y)] += e_g.entries[i][j].values[y]
                    for j in range(m):
                        row[idx(i, j, ginv[y])] -= f_g.entries[j][k].values[y]
                    rows.append(row)
    return rows


def invariant_system(eq) -> List[List[Fraction]]:
    """sum_i alpha_i(g^-1 y) E^g_ij(y) - alpha_j(y) = 0 for every g and y."""
    group = eq.group
    n, size = eq.rank, group.space.size
    rows = []
    for g in range(group.order):
        ginv = group.elements[group.inv[g]]
        for j in range(n):
            for y in range(size):
                row = [Fraction(0)] * (n * size)
                for i in range(n):
                    row[i * size + ginv[y]] += eq.conn[g].entries[i][j].values[y]
                row[j * size + y] -= 1
                rows.append(row)
    return rows


def _claims(tasks):
    """(label, source, target or None, expected nullity) per checked task;
    a None target means the invariants of the source."""
    for t in tasks:
        kind = t["task"]
        if kind == "solve":
            yield f"Hom({t['source']}, {t['target']})", t["source"], \
                t["target"], t["expect_dim"]
        elif kind == "symmetries":
            yield f"End({t['equation']})", t["equation"], t["equation"], \
                t["expect_dim"]
        elif kind == "invariants":
            yield f"invariants({t['equation']})", t["equation"], None, \
                t["expect_dim"]
        elif kind == "selfdual":
            name = t["equation"]
            yield f"Hom({name}, {name}*)", name, name + "*", \
                SELF_DUAL_HOM_DIMS[name]


def check(involution, workdir: str) -> Dict[str, str]:
    """Mismatches between oracle and expected dimensions, by claim."""
    prob_json, _ = workloads.solve_problem(ORACLE_N, "rational", involution)
    [path] = workloads.write_files([("oracle", prob_json, [])], workdir)
    eqs = dict(problem.load_problem(path).equations)
    os.remove(path)
    for name in SELF_DUAL_HOM_DIMS:
        eqs[name + "*"] = equations.dual(eqs[name])
    bad = {}
    for label, a, b, want in _claims(prob_json["tasks"]):
        src = eqs[a]
        if b is None:
            got = _nullity(invariant_system(src), src.rank * ORACLE_N)
        else:
            dst = eqs[b]
            got = _nullity(hom_system(src, dst),
                           src.rank * dst.rank * ORACLE_N)
        if got != want:
            bad[label] = f"oracle {got}, expected {want}"
    return bad
