"""Declarative problem files: parsing, task execution, report building.

A problem file is JSON with a space, a group, a backend, named equations /
H-modules / classical systems / raw operators, and an ordered task list.
Reports are deterministic for a fixed (file, seed) pair.  A task's result
holds arrays of scalars (a morphism as its matrix [i][j][y]); a structured
report formats them before it is dumped, one ``Backend.serialize`` per
array.

Scalar entries: integers, "p/q" strings, [re, im] pairs (complex backend),
or {"values": [...]} for a pointwise function on the space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from . import (diffops, equations as eqmod, equivalence, invariants, linalg,
               projection, solver)
from .equations import Equation, complete_connection, trivial_equation
from .errors import GDiffError, InvalidHModule, ProblemFileError
from .scalars import Backend
from .space import (BASE_POINT, DEFAULT_ENTRY_CAP, FiniteSpace, Group,
                    dihedral_on_cycle, enumerate_group, parse_cycles,
                    stabilizer, transversal)

TOP_KEYS = {"space", "group", "backend", "epsilon", "equations", "hmodules",
            "systems", "operators", "tasks"}

# Scalars (|G| x |S| x rank^2) a connection declared in a file may need: an
# equation's rank (a construction's from its operands, a generator matrix's
# from its size), an hmodule's dim and a system's unknowns are bounded by it
# before anything is built.
MAX_CONNECTION_SCALARS = 1 << 24


def _check_object(obj: Any, allowed, where: str) -> None:
    """obj must be a JSON object whose keys all lie in ``allowed``."""
    if not isinstance(obj, dict):
        raise ProblemFileError(f"{where} must be a JSON object")
    extra = set(obj) - set(allowed)
    if extra:
        raise ProblemFileError(f"unknown keys {sorted(extra)} in {where}")


@dataclass
class Problem:
    space: FiniteSpace
    group: Group
    backend: Backend
    equations: Dict[str, Equation] = field(default_factory=dict)
    hmodules: Dict[str, equivalence.HModule] = field(default_factory=dict)
    systems: Dict[str, diffops.ClassicalSystem] = field(default_factory=dict)
    operators: Dict[str, diffops.RawOperator] = field(default_factory=dict)
    tasks: List[Dict[str, Any]] = field(default_factory=list)


def _nonneg_int(value: Any, where: str) -> int:
    try:
        out = int(value)
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"{where}: not an integer: {value!r}") from exc
    if out < 0:
        raise ProblemFileError(f"{where}: negative: {value!r}")
    return out


def _rank(value: Any, where: str, prob: Problem) -> int:
    """A non-negative rank whose connection, |G| x |S| x rank^2 scalars,
    stays within MAX_CONNECTION_SCALARS."""
    rank = _nonneg_int(value, where)
    cells = prob.group.order * prob.space.size
    if cells * rank * rank > MAX_CONNECTION_SCALARS:
        raise ProblemFileError(
            f"{where}: rank {rank} needs {cells} x {rank}^2 connection "
            f"scalars, more than {MAX_CONNECTION_SCALARS}")
    return rank


def _scalar(obj: Any, be: Backend, where: str):
    """One scalar of the file (see ``Backend.parse``); a value that is no
    number, such as "x" or "1/0", is a ProblemFileError."""
    try:
        return be.parse(obj)
    except (ValueError, ZeroDivisionError, OverflowError, TypeError) as exc:
        raise ProblemFileError(f"{where}: bad scalar {obj!r}") from exc


def _word(prob: Problem, text: Any, where: str) -> int:
    try:
        return prob.group.word(text)
    except (AttributeError, KeyError, ValueError) as exc:
        raise ProblemFileError(f"{where}: bad group word {text!r}") from exc


def _pair(obj: Dict[str, Any], key: str, where: str):
    names = obj[key]
    if not isinstance(names, list) or len(names) != 2:
        raise ProblemFileError(f"{where}: {key!r} needs a list of two names")
    return names


def _ref(table: Dict[str, Any], kind: str, obj: Dict[str, Any], key: str,
         where: str = "task"):
    """The entry of ``table`` (the problem's equations, operators, ...) that
    ``obj[key]`` names."""
    name = obj.get(key)
    if not isinstance(name, str) or name not in table:
        raise ProblemFileError(f"{where} references undefined {kind} {name!r}")
    return table[name]


def _parse_fn(obj: Any, size: int, be: Backend, where: str) -> np.ndarray:
    """A function on the space, as an (|S|,) array of backend scalars."""
    out = np.empty(size, dtype=be.dtype)
    out[:] = _parse_values(obj, size, be, where)
    return out


def _parse_values(obj: Any, size: int, be: Backend, where: str):
    """The values of a function on the space: one scalar for a constant,
    else the list of its |S| scalars."""
    if isinstance(obj, dict):
        _check_object(obj, {"values"}, "function entry")
        vals = obj.get("values")
        if not isinstance(vals, list) or len(vals) != size:
            raise ProblemFileError(f"pointwise entry needs {size} values")
        return [_scalar(v, be, where) for v in vals]
    return _scalar(obj, be, where)


def _check_matrix(obj: Any) -> Tuple[int, int]:
    """The (rows, columns) of a matrix of the file, checked before any of
    it is parsed."""
    if not isinstance(obj, list) or not obj or any(
            not isinstance(row, list) or len(row) != len(obj[0]) for row in obj):
        raise ProblemFileError("matrix must be a non-empty list of rows "
                               "of equal length")
    return len(obj), len(obj[0])


def _parse_kmatrix(obj: Any, size: int, be: Backend,
                   where: str) -> np.ndarray:
    """A matrix over k (one ``_check_matrix`` passed), as an
    (|S|, rows, cols) array of backend scalars."""
    out = np.empty((size, len(obj), len(obj[0])), dtype=be.dtype)
    for i, row in enumerate(obj):
        for j, v in enumerate(row):
            out[:, i, j] = _parse_values(v, size, be, where)
    return out


def _cycle_size(value: Any, where: str) -> int:
    """The size n of a cycle: a transitive group on n points has at least n
    elements, so its element array needs at least n^2 entries."""
    n = int(value)
    if n * n > DEFAULT_ENTRY_CAP:
        raise ProblemFileError(f"{where} {n}: a transitive group on it needs "
                               f"more than {DEFAULT_ENTRY_CAP} entries")
    return n


def _build_space(obj: Any) -> FiniteSpace:
    _check_object(obj, {"cycle", "points"}, "space")
    try:
        if "cycle" in obj:
            return FiniteSpace.cycle(_cycle_size(obj["cycle"], "space cycle"))
        if "points" in obj:
            return FiniteSpace(tuple(obj["points"]))
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"bad space: {exc}") from exc
    raise ProblemFileError("space needs 'cycle' or 'points'")


def _build_group(obj: Any, space: FiniteSpace) -> Group:
    _check_object(obj, {"generators", "dihedral_cycle"}, "group")
    if "dihedral_cycle" in obj:
        try:
            group = dihedral_on_cycle(_cycle_size(obj["dihedral_cycle"],
                                                  "dihedral_cycle"))
        except (TypeError, ValueError) as exc:
            raise ProblemFileError(f"bad dihedral_cycle: {exc}") from exc
        if group.space != space:
            raise ProblemFileError("dihedral_cycle size disagrees with the space")
        return group
    if "generators" not in obj:
        raise ProblemFileError("group needs 'generators' or 'dihedral_cycle'")
    if not isinstance(obj["generators"], dict):
        raise ProblemFileError("group 'generators' must map names to cycles")
    gens = {}
    for name, text in obj["generators"].items():
        if not isinstance(text, str):
            raise ProblemFileError(f"group generator {name!r}: cycles must "
                                   "be a string")
        try:
            gens[name] = parse_cycles(text, space.size)
        except ValueError as exc:
            raise ProblemFileError(f"group generator {name!r}: {exc}") from exc
    return enumerate_group(space, gens)


# The rank of each construction from its operands' ranks, bounded before
# the construction is built; the first three take two operands.
_CONSTRUCTION_RANKS = {
    "direct_sum": lambda n, m: n + m, "tensor": lambda n, m: n * m,
    "hom": lambda n, m: n * m, "dual": lambda n: n,
    "sym2": lambda n: n * (n + 1) // 2, "wedge2": lambda n: n * (n - 1) // 2,
    "wedge_top": lambda n: 1}


def _build_equation(name: str, obj: Dict[str, Any], prob: Problem) -> Equation:
    where = f"equation {name!r}"
    _check_object(obj, {"trivial", "generators", "direct_sum", "tensor",
                        "dual", "sym2", "wedge2", "wedge_top", "hom",
                        "induce"}, where)

    def ref(other: Any) -> Equation:
        if not isinstance(other, str) or other not in prob.equations:
            raise ProblemFileError(f"{where} references undefined {other!r}")
        return prob.equations[other]

    if "trivial" in obj:
        rank = _rank(obj["trivial"], where, prob)
        return trivial_equation(prob.group, prob.backend, rank)
    if "generators" in obj:
        if not isinstance(obj["generators"], dict) or not obj["generators"]:
            raise ProblemFileError(f"{where}: 'generators' must map "
                                   "generator names to matrices")
        mats = {}
        for gname, m in obj["generators"].items():
            _rank(max(_check_matrix(m)), f"{where} generator {gname!r}", prob)
            mats[gname] = _parse_kmatrix(m, prob.space.size, prob.backend,
                                         where)
        return complete_connection(prob.group, prob.backend, mats)
    for key, rank_of in _CONSTRUCTION_RANKS.items():
        if key in obj:
            names = (_pair(obj, key, where)
                     if key in ("direct_sum", "tensor", "hom") else [obj[key]])
            operands = [ref(x) for x in names]
            _rank(rank_of(*(e.rank for e in operands)), where, prob)
            return getattr(eqmod, key)(*operands)
    if "induce" in obj:
        mod = _ref(prob.hmodules, "hmodule", obj, "induce", where)
        return equivalence.induce(mod, transversal(prob.group))
    raise ProblemFileError(f"{where} has no recognized constructor")


def _close_rho(sub, be: Backend, partial: Dict[int, list]) -> np.ndarray:
    """Close generator matrices of a subgroup module, nested lists of
    backend scalars, under the (anti-)multiplication rule
    rho(ab) = rho(b) rho(a); the (|H|, dim, dim) array of the module."""
    dim = len(next(iter(partial.values())))
    rho = {0: be.eye(dim)}
    rho.update((h, np.array(m, dtype=be.dtype).reshape(dim, dim))
               for h, m in partial.items())
    changed = True
    while changed:
        changed = False
        for a in list(rho):
            for b in list(rho):
                ab = sub.mult(a, b)
                if ab not in rho:
                    rho[ab] = eqmod.matmul(rho[b], rho[a], be)
                    changed = True
    if set(rho) != set(sub.members):
        raise ProblemFileError("hmodule matrices do not generate the stabilizer")
    return np.stack([rho[h] for h in sub.members])


def _build_hmodule(name: str, obj: Dict[str, Any], prob: Problem
                   ) -> equivalence.HModule:
    _check_object(obj, {"builtin", "character", "dim", "rho"},
                  f"hmodule {name!r}")
    sub = stabilizer(prob.group, BASE_POINT)
    be = prob.backend
    if "builtin" in obj:
        try:
            family = equivalence.builtin_irreducibles(sub, be)
        except InvalidHModule as exc:  # a tolerance too coarse for the backend
            raise ProblemFileError(f"hmodule {name!r}: {exc}") from exc
        if not isinstance(obj["builtin"], str) or obj["builtin"] not in family:
            raise ProblemFileError(f"no builtin hmodule {obj['builtin']!r}; "
                                   f"have {sorted(family)}")
        return family[obj["builtin"]]
    for key in ("character", "rho"):
        if key in obj and (not isinstance(obj[key], dict) or not obj[key]):
            raise ProblemFileError(f"hmodule {name!r}: {key!r} must map "
                                   "words to values")
    where = f"hmodule {name!r}"
    if "character" in obj:
        partial = {_word(prob, w, where): [[_scalar(v, be, where)]]
                   for w, v in obj["character"].items()}
        rho = _close_rho(sub, be, partial)
        return _validated(name, equivalence.HModule(sub, be, 1, rho))
    if "rho" in obj:
        dim = _rank(obj.get("dim"), f"hmodule {name!r} dim", prob)
        for m in obj["rho"].values():
            if _check_matrix(m) != (dim, dim):
                raise ProblemFileError(f"hmodule {name!r}: matrix is "
                                       f"{len(m)} x {len(m[0])}, not "
                                       f"{dim} x {dim}")
        partial = {_word(prob, w, where):
                   [[_scalar(v, be, where) for v in row] for row in m]
                   for w, m in obj["rho"].items()}
        for h in partial:
            if h not in sub:
                raise ProblemFileError(f"hmodule {name!r}: element outside "
                                       "the stabilizer")
        rho = _close_rho(sub, be, partial)
        return _validated(name, equivalence.HModule(sub, be, dim, rho))
    raise ProblemFileError(f"hmodule {name!r} has no recognized constructor")


def _validated(name: str, mod: equivalence.HModule) -> equivalence.HModule:
    try:
        mod.validate()
    except InvalidHModule as exc:
        raise ProblemFileError(f"hmodule {name!r}: {exc}") from exc
    return mod


def _build_system(name: str, obj: Dict[str, Any], prob: Problem
                  ) -> diffops.ClassicalSystem:
    _check_object(obj, {"unknowns", "equations"}, f"system {name!r}")
    size = prob.space.size
    if not isinstance(obj.get("equations"), list):
        raise ProblemFileError(f"system {name!r} needs a list of 'equations'")
    unknowns = _rank(obj.get("unknowns"), f"system {name!r}", prob)
    coeffs: Dict[tuple, np.ndarray] = {}
    for j, terms in enumerate(obj["equations"]):
        where = f"system {name!r} equation {j}"
        if not isinstance(terms, list):
            raise ProblemFileError(f"{where} must be a list of terms")
        for term in terms:
            _check_object(term, {"unknown", "word", "coeff"}, where)
            g = _word(prob, term.get("word"), where)
            k = _nonneg_int(term.get("unknown"), where)
            if k >= unknowns:
                raise ProblemFileError(f"{where}: unknown {k} out of range "
                                       f"for {unknowns} unknowns")
            key = (j, k, g)
            fn = _parse_fn(term.get("coeff"), size, prob.backend, where)
            coeffs[key] = coeffs[key] + fn if key in coeffs else fn
    return diffops.ClassicalSystem(prob.group, prob.backend, unknowns, coeffs)


def _build_operator(name: str, obj: Dict[str, Any], prob: Problem
                    ) -> diffops.RawOperator:
    _check_object(obj, {"source", "target", "terms"}, f"operator {name!r}")
    src = _ref(prob.equations, "equation", obj, "source", f"operator {name!r}")
    dst = _ref(prob.equations, "equation", obj, "target", f"operator {name!r}")
    if not isinstance(obj.get("terms"), list):
        raise ProblemFileError(f"operator {name!r} needs a list of 'terms'")
    terms: Dict[int, np.ndarray] = {}
    for item in obj["terms"]:
        where = f"operator {name!r} term"
        _check_object(item, {"word", "matrix"}, where)
        g = _word(prob, item.get("word"), where)
        rows, cols = _check_matrix(item.get("matrix"))
        if (rows, cols) != (src.rank, dst.rank):
            raise ProblemFileError(f"{where}: matrix is {rows} x {cols}, "
                                   f"not {src.rank} x {dst.rank}")
        mat = _parse_kmatrix(item["matrix"], prob.space.size, prob.backend,
                             where)
        terms[g] = terms[g] + mat if g in terms else mat
    return diffops.RawOperator(src, dst, terms)


def load_problem(path: str, backend_override: Optional[str] = None,
                 epsilon_override: Optional[float] = None) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ProblemFileError(f"cannot read problem file: {exc}") from exc
    _check_object(data, TOP_KEYS, "problem file")
    for key in ("space", "group"):
        if key not in data:
            raise ProblemFileError(f"missing required section {key!r}")

    backend_name = backend_override or data.get("backend", "rational")
    eps = epsilon_override
    if eps is None:
        try:
            eps = float(data.get("epsilon", 1e-9))
        except (TypeError, ValueError) as exc:
            raise ProblemFileError(f"bad epsilon: {exc}") from exc
    if backend_name == "rational":
        backend = Backend.rational()
    elif backend_name == "complex":
        backend = Backend.complex(eps)
    else:
        raise ProblemFileError(f"unknown backend {backend_name!r}")

    space = _build_space(data["space"])
    group = _build_group(data["group"], space)
    prob = Problem(space, group, backend)
    for key, build, table in (("hmodules", _build_hmodule, prob.hmodules),
                              ("equations", _build_equation, prob.equations),
                              ("systems", _build_system, prob.systems),
                              ("operators", _build_operator, prob.operators)):
        section = data.get(key, {})
        if not isinstance(section, dict):
            raise ProblemFileError(f"{key} must be a JSON object of named "
                                   "entries")
        for name, obj in section.items():
            table[name] = build(name, obj, prob)
    tasks = data.get("tasks", [])
    if not isinstance(tasks, list):
        raise ProblemFileError("tasks must be a list")
    for i, task in enumerate(tasks):
        if not isinstance(task, dict):
            raise ProblemFileError(f"task {i} must be a JSON object")
    prob.tasks = tasks
    return prob


# -- task execution ----------------------------------------------------------

# The references of each task kind: (key, kind of definition it names).
# classical, equation_of and embed name an "operator" or else a "system".
TASK_REFS: Dict[str, tuple] = {
    "validate": (("equation", "equation"),),
    "solve": (("source", "equation"), ("target", "equation")),
    "symmetries": (("equation", "equation"),),
    "decompose": (("equation", "equation"),),
    "simple": (("equation", "equation"),),
    "fiber": (("equation", "equation"),),
    "induce": (("hmodule", "hmodule"),),
    "roundtrip": (("equation", "equation"),),
    "project": (("equation", "equation"), ("character_of", "equation")),
    "invariants": (("equation", "equation"),),
    "selfdual": (("equation", "equation"),),
    "classical": (),
    "equation_of": (),
    "embed": (),
    "compose": (("first", "operator"), ("second", "operator")),
    "assert_zero_action": (("operator", "operator"),),
}


def task_refs(prob: Problem, task: Dict[str, Any]) -> Dict[str, Any]:
    """The definitions a task names, by key; raises ProblemFileError for an
    unknown task kind or a name the problem does not define."""
    kind = task.get("task")
    if not isinstance(kind, str) or kind not in TASK_REFS:
        raise ProblemFileError(f"unknown task kind {kind!r}")
    refs = TASK_REFS[kind]
    if kind in ("classical", "equation_of", "embed"):
        if "operator" in task:
            refs = (("operator", "operator"),)
        elif "system" in task:
            refs = (("system", "system"),)
        else:
            raise ProblemFileError("task needs an 'operator' or 'system' "
                                   "reference")
    # the problem keeps the definitions of a kind in its attribute kind + "s"
    return {key: _ref(getattr(prob, what + "s"), what, task, key)
            for key, what in refs}


def check_tasks(prob: Problem) -> None:
    """Resolve every task's references, as ``gdiff validate`` does, and
    refuse a composition of operators that can only fail."""
    for i, task in enumerate(prob.tasks):
        try:
            refs = task_refs(prob, task)
            if task["task"] == "compose":
                diffops.check_composable(refs["first"], refs["second"])
        except GDiffError as exc:
            raise ProblemFileError(f"task {i}: {exc}") from exc


def run_task(prob: Problem, task: Dict[str, Any], seed: int) -> Dict[str, Any]:
    kind = task.get("task")
    be = prob.backend
    refs = task_refs(prob, task)
    result: Dict[str, Any] = {}
    ok = True

    if kind == "validate":
        eq = refs["equation"]
        eq.validate()
        result["rank"] = eq.rank
    elif kind in ("solve", "symmetries"):
        src = refs.get("source", refs.get("equation"))
        basis = solver.hom_space(src, refs.get("target", src))
        result["dimension"] = len(basis)
        result["basis"] = [b.matrix.transpose(1, 2, 0) for b in basis]
    elif kind == "decompose":
        parts = solver.decompose(refs["equation"], seed=seed)
        result["summand_ranks"] = sorted(p.rank for p, _ in parts)
    elif kind == "simple":
        result["verdict"] = solver.is_simple(refs["equation"], seed=seed)
    elif kind == "fiber":
        mod = equivalence.fiber(refs["equation"])
        result["dim"] = mod.dim
        result["rho"] = dict(zip(map(str, mod.subgroup.members), mod.rho))
    elif kind == "induce":
        eq = equivalence.induce(refs["hmodule"], transversal(prob.group))
        eq.validate()
        result["rank"] = eq.rank
    elif kind == "roundtrip":
        iso = equivalence.roundtrip_iso(refs["equation"], seed=seed)
        result["isomorphism"] = iso.matrix.transpose(1, 2, 0)
    elif kind == "project":
        chi = projection.character(refs["character_of"])
        pi = projection.frobenius_projection(refs["equation"], chi)
        result["matrix"] = pi.matrix.transpose(1, 2, 0)
        result["idempotent"] = bool(be.eq_array(
            eqmod.matmul(pi.matrix, pi.matrix, be), pi.matrix).all())
    elif kind == "invariants":
        basis = invariants.invariant_vectors(refs["equation"])
        result["dimension"] = len(basis)
        result["basis"] = basis
    elif kind == "selfdual":
        found = invariants.self_dual_check(refs["equation"], seed=seed)
        result["self_dual"] = found is not None
        if found is not None:
            result["form"] = found.matrix.transpose(1, 2, 0)
    elif kind in ("classical", "equation_of", "embed"):
        if "operator" in refs:
            op = diffops.canonicalize(refs["operator"])
        else:
            op = diffops.ingest_classical(refs["system"])
        if kind == "classical":
            sols = diffops.classical_solutions(op)
            result["dimension"] = len(sols)
            result["basis"] = sols
        elif kind == "equation_of":
            result["rank"] = diffops.equation_of(op).rank
        else:
            result.update(diffops.embed_solutions(op))
            ok = bool(result["embeds"])
    elif kind == "compose":
        first = diffops.canonicalize(refs["first"])
        second = diffops.canonicalize(refs["second"])
        comp = diffops.compose(second, first)
        result["action_rank"] = linalg.rank(comp.action.tolist(), be)
    else:  # assert_zero_action
        op = diffops.canonicalize(refs["operator"])
        ok = bool(be.is_zero(op.action).all())
        result["zero"] = ok

    if "expect_dim" in task and "dimension" in result:
        ok = ok and (result["dimension"] == task["expect_dim"])
    if "expect_rank" in task and "rank" in result:
        ok = ok and (result["rank"] == task["expect_rank"])
    result["ok"] = ok
    return result


def run_problem(prob: Problem, seed: int = 0) -> Dict[str, Any]:
    report: Dict[str, Any] = {
        "backend": prob.backend.name,
        "seed": seed,
        "tasks": [],
    }
    all_ok = True
    for i, task in enumerate(prob.tasks):
        entry: Dict[str, Any] = {"index": i, "task": task.get("task")}
        try:
            entry["result"] = run_task(prob, task, seed)
            entry["ok"] = entry["result"].pop("ok")
        except GDiffError as exc:
            entry["ok"] = False
            entry["error"] = f"{type(exc).__name__}: {exc}"
        all_ok = all_ok and entry["ok"]
        report["tasks"].append(entry)
    report["pass"] = all_ok
    return report


def _json_values(obj: Any, be: Backend) -> Any:
    """A report as plain JSON values, in one walk: each array of scalars
    (and each scalar of the backend) is formatted by one
    ``Backend.serialize`` call, which refuses anything else."""
    if isinstance(obj, dict):
        return {k: _json_values(v, be) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_values(v, be) for v in obj]
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    return be.serialize(obj)


def format_report(report: Dict[str, Any], fmt: str) -> str:
    if fmt == "structured":
        return json.dumps(_json_values(report, Backend(report["backend"])),
                          sort_keys=True, indent=2) + "\n"
    lines = [f"backend={report['backend']} seed={report['seed']}"]
    for entry in report["tasks"]:
        status = "ok" if entry["ok"] else "FAIL"
        extra = ""
        if "error" in entry:
            extra = f" error={entry['error']}"
        else:
            res = entry["result"]
            keys = [k for k in ("dimension", "rank", "summand_ranks", "verdict",
                                "self_dual", "idempotent", "zero", "embeds",
                                "dim") if k in res]
            extra = "".join(f" {k}={res[k]}" for k in keys)
        lines.append(f"task {entry['index']} {entry['task']}: {status}{extra}")
    lines.append("pass" if report["pass"] else "fail")
    return "\n".join(lines) + "\n"
