"""Seeded problem files for the benchmark workloads and the report line
every task must produce.

A workload is an ordered list of problem files.  Each file comes with the
expected text-report line of each of its tasks (the part after
``task <i> <kind>: ``).  The seed picks the involution behind the rank-2
H-module and is passed to the tasks' randomized searches; none of the
expected lines depends on it.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from typing import List, Tuple

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# Frozen copies of the test corpus files, with the lines `gdiff run` gives.
CORPUS_EXPECTED = {
    "c3_basic.json": [
        "ok rank=1", "ok dimension=1", "ok dimension=0", "ok dimension=2",
        "ok summand_ranks=[1, 1]", "ok verdict=simple", "ok dim=1",
        "ok rank=1", "ok", "ok idempotent=True", "ok dimension=1",
        "ok self_dual=True", "ok zero=True", "ok dimension=2", "ok rank=2",
        "ok embeds=True",
    ],
    "c6_complex.json": [
        "ok rank=2", "ok dimension=2", "ok dimension=0",
        "ok summand_ranks=[1, 1]", "ok verdict=simple", "ok idempotent=True",
        "ok dimension=1", "ok self_dual=True",
    ],
}

# Tasks that fail at the seed commit although the expected line is right:
# (file, task) -> (start of the line they give instead, what is wrong).
# They stay in the mix and count against the failure share; any other
# wrong line, from these tasks too, makes a run incorrect.
KNOWN_DEFECTS = {
    ("solve", "selfdual r2"): (
        "FAIL error=NotASolution:",
        "self_dual_check raises NotASolution although Hom(r2, r2*) has "
        "dimension 2"),
}


def is_known_defect(file: str, task: str, got) -> bool:
    known = KNOWN_DEFECTS.get((file, task))
    return known is not None and got is not None and got.startswith(known[0])

ProblemSpec = Tuple[str, dict, List[str]]  # (name, problem JSON, expected lines)


def involution(seed: int) -> List[List[Fraction]]:
    """P diag(1,-1) P^{-1} for a random P with entries in -3..3 and
    determinant +-1, redrawn until no entry of the result is zero, so that
    every seed gives an integer involution of the same sparsity."""
    rng = random.Random(seed)
    while True:
        p = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
        if det not in (1, -1):
            continue
        pinv = [[p[1][1] * det, -p[0][1] * det], [-p[1][0] * det, p[0][0] * det]]
        sign = (1, -1)
        inv = [[sum(p[i][k] * sign[k] * pinv[k][j] for k in range(2))
                for j in range(2)] for i in range(2)]
        if all(inv[i][j] for i in range(2) for j in range(2)):
            return [[Fraction(v) for v in row] for row in inv]


def _mat(m) -> List[List[str]]:
    return [[str(Fraction(v)) for v in row] for row in m]


def _task(kind: str, expected: str, **refs) -> Tuple[dict, str]:
    return dict(task=kind, **refs), expected


def solve_problem(n: int, backend: str, involution) -> Tuple[dict, List[str]]:
    """The solve template: dihedral n-cycle, the equation zoo and the tasks
    whose cost is dominated by hom spaces and their verification."""
    tasks = [
        _task("validate", "ok rank=4", equation="b4"),
        _task("solve", "ok dimension=8", source="b4", target="b4",
              expect_dim=8),
        _task("solve", "ok dimension=1", source="both", target="one",
              expect_dim=1),
        _task("symmetries", "ok dimension=2", equation="r2", expect_dim=2),
        _task("symmetries", "ok dimension=8", equation="t2", expect_dim=8),
        _task("decompose", "ok summand_ranks=[1, 1, 1, 1]", equation="b4"),
        _task("simple", "ok verdict=not_simple", equation="r2"),
        _task("roundtrip", "ok", equation="r2"),
        _task("project", "ok idempotent=True", equation="both",
              character_of="one"),
        _task("invariants", "ok dimension=1", equation="star", expect_dim=1),
        _task("selfdual", "ok self_dual=True", equation="both"),
        _task("selfdual", "ok self_dual=True", equation="r2"),
        _task("induce", "ok rank=2", hmodule="v2", expect_rank=2),
    ]
    prob = {
        "space": {"cycle": n},
        "group": {"dihedral_cycle": n},
        "backend": backend,
        "hmodules": {
            "vsign": {"builtin": "sign"},
            "v2": {"dim": 2, "rho": {"t": _mat(involution)}},
        },
        "equations": {
            "one": {"trivial": 1},
            "sign": {"induce": "vsign"},
            "both": {"direct_sum": ["one", "sign"]},
            "b4": {"direct_sum": ["both", "both"]},
            "r2": {"induce": "v2"},
            "t2": {"tensor": ["r2", "both"]},
            "star": {"dual": "both"},
            "sign_g": {"generators": {"s": [[1]], "t": [[-1]]}},
            "r2g": {"generators": {"s": [[1, 0], [0, 1]],
                                   "t": _mat(involution)}},
        },
        "tasks": [t for t, _ in tasks],
    }
    return prob, [e for _, e in tasks]


def _shift_term(unknown: int, word: str, coeff: int) -> dict:
    return {"unknown": unknown, "word": word, "coeff": coeff}


def operator_problem(n: int, backend: str) -> Tuple[dict, List[str]]:
    """Three classical shift systems and two raw operators on the n-cycle."""
    systems = {
        "first": {"unknowns": 1, "equations": [
            [_shift_term(0, "s", 1), _shift_term(0, "e", -1)]]},
        "second": {"unknowns": 1, "equations": [
            [_shift_term(0, "s", 1), _shift_term(0, "s^-1", 1),
             _shift_term(0, "e", -2)]]},
        "coupled": {"unknowns": 2, "equations": [
            [_shift_term(0, "s", 1), _shift_term(1, "e", -1)],
            [_shift_term(1, "s", 1), _shift_term(0, "e", -1)]]},
    }
    # f0(s^2 x) = f0(x): one free value per orbit of s^2, gcd(2, n) of them
    dims = {"first": 1, "second": 1, "coupled": 2 if n % 2 == 0 else 1}
    tasks = []
    for name, dim in dims.items():
        tasks += [
            _task("classical", f"ok dimension={dim}", system=name,
                  expect_dim=dim),
            _task("equation_of", f"ok rank={dim}", system=name,
                  expect_rank=dim),
            _task("embed", "ok embeds=True", system=name),
        ]
    tasks.append(_task("compose", "ok", first="fwd", second="bwd"))
    prob = {
        "space": {"cycle": n},
        "group": {"dihedral_cycle": n},
        "backend": backend,
        "equations": {"one": {"trivial": 1}},
        "systems": systems,
        "operators": {
            "fwd": {"source": "one", "target": "one", "terms": [
                {"word": "s", "matrix": [[1]]},
                {"word": "e", "matrix": [[-1]]}]},
            "bwd": {"source": "one", "target": "one", "terms": [
                {"word": "s^-1", "matrix": [[1]]},
                {"word": "e", "matrix": [[-1]]}]},
        },
        "tasks": [t for t, _ in tasks],
    }
    return prob, [e for _, e in tasks]


def _corpus(name: str) -> Tuple[dict, List[str]]:
    with open(os.path.join(DATA_DIR, name), encoding="utf-8") as fh:
        return json.load(fh), CORPUS_EXPECTED[name]


WORKLOADS = ("exact-solve", "numeric-large", "operator-calculus")
# Size n of the dihedral n-cycle of each workload's main file.
CYCLE = {"exact-solve": 10, "numeric-large": 44, "operator-calculus": 7}


def build(workload: str, seed: int) -> List[ProblemSpec]:
    """The workload's problem files, in the order a pass runs them."""
    rho_t = involution(seed)
    if workload == "exact-solve":
        files = [("solve", solve_problem(CYCLE[workload], "rational", rho_t)),
                 ("c3_basic", _corpus("c3_basic.json"))]
    elif workload == "numeric-large":
        files = [("solve", solve_problem(CYCLE[workload], "complex", rho_t)),
                 ("c6_complex", _corpus("c6_complex.json"))]
    elif workload == "operator-calculus":
        files = [("operators", operator_problem(CYCLE[workload], "rational"))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [(name, prob, expected) for name, (prob, expected) in files]


def write_files(specs: List[ProblemSpec], directory: str) -> List[str]:
    """Write each problem as JSON under ``directory``; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, prob, _ in specs:
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(prob, fh, indent=1)
        paths.append(path)
    return paths

