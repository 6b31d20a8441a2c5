"""Declarative problem files: parsing, task execution, report building.

A problem file is JSON with a space, a group, a backend, named equations /
H-modules / classical systems / raw operators, and an ordered task list.
Reports are deterministic for a fixed (file, seed) pair.

Scalar entries: integers, "p/q" strings, [re, im] pairs (complex backend),
or {"values": [...]} for a pointwise function on the space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from . import (diffops, equations as eqmod, equivalence, invariants, linalg,
               projection, solver)
from .equations import Equation, KMatrix, complete_connection, trivial_equation
from .errors import GDiffError, ProblemFileError
from .scalars import Backend, Fn
from .space import (BASE_POINT, FiniteSpace, Group, dihedral_on_cycle,
                    enumerate_group, parse_cycles, stabilizer, transversal)

TOP_KEYS = {"space", "group", "backend", "epsilon", "equations", "hmodules",
            "systems", "operators", "tasks"}


def _reject_unknown(obj: Dict[str, Any], allowed, where: str) -> None:
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


def _parse_fn(obj: Any, size: int, be: Backend) -> Fn:
    if isinstance(obj, dict):
        _reject_unknown(obj, {"values"}, "function entry")
        vals = obj.get("values")
        if not isinstance(vals, list) or len(vals) != size:
            raise ProblemFileError(f"pointwise entry needs {size} values")
        return Fn(tuple(be.parse(v) for v in vals), be)
    return Fn.constant(be.parse(obj), size, be)


def _parse_kmatrix(obj: Any, size: int, be: Backend) -> KMatrix:
    if not isinstance(obj, list) or not obj or any(
            not isinstance(row, list) or len(row) != len(obj[0]) for row in obj):
        raise ProblemFileError("matrix must be a non-empty list of rows "
                               "of equal length")
    return KMatrix.from_rows([[_parse_fn(v, size, be) for v in row]
                              for row in obj], be)


def _build_space(obj: Any) -> FiniteSpace:
    _reject_unknown(obj, {"cycle", "points"}, "space")
    try:
        if "cycle" in obj:
            return FiniteSpace.cycle(int(obj["cycle"]))
        if "points" in obj:
            return FiniteSpace(tuple(obj["points"]))
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"bad space: {exc}") from exc
    raise ProblemFileError("space needs 'cycle' or 'points'")


def _build_group(obj: Any, space: FiniteSpace) -> Group:
    _reject_unknown(obj, {"generators", "dihedral_cycle"}, "group")
    if "dihedral_cycle" in obj:
        try:
            group = dihedral_on_cycle(int(obj["dihedral_cycle"]))
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
        try:
            gens[name] = parse_cycles(text, space.size)
        except ValueError as exc:
            raise ProblemFileError(f"group generator {name!r}: {exc}") from exc
    return enumerate_group(space, gens)


def _build_equation(name: str, obj: Dict[str, Any], prob: Problem) -> Equation:
    _reject_unknown(obj, {"trivial", "generators", "direct_sum", "tensor",
                          "dual", "sym2", "wedge2", "wedge_top", "hom",
                          "induce"}, f"equation {name!r}")
    size = prob.space.size

    def ref(other: str) -> Equation:
        if other not in prob.equations:
            raise ProblemFileError(f"equation {name!r} references "
                                   f"undefined {other!r}")
        return prob.equations[other]

    if "trivial" in obj:
        rank = _nonneg_int(obj["trivial"], f"equation {name!r}")
        return trivial_equation(prob.group, prob.backend, rank)
    if "generators" in obj:
        mats = {gname: _parse_kmatrix(m, size, prob.backend)
                for gname, m in obj["generators"].items()}
        return complete_connection(prob.group, prob.backend, mats)
    if "direct_sum" in obj:
        a, b = _pair(obj, "direct_sum", f"equation {name!r}")
        return eqmod.direct_sum(ref(a), ref(b))
    if "tensor" in obj:
        a, b = _pair(obj, "tensor", f"equation {name!r}")
        return eqmod.tensor(ref(a), ref(b))
    if "hom" in obj:
        a, b = _pair(obj, "hom", f"equation {name!r}")
        return eqmod.hom(ref(a), ref(b))
    if "dual" in obj:
        return eqmod.dual(ref(obj["dual"]))
    if "sym2" in obj:
        return eqmod.sym2(ref(obj["sym2"]))
    if "wedge2" in obj:
        return eqmod.wedge2(ref(obj["wedge2"]))
    if "wedge_top" in obj:
        return eqmod.wedge_top(ref(obj["wedge_top"]))
    if "induce" in obj:
        mod = prob.hmodules.get(obj["induce"])
        if mod is None:
            raise ProblemFileError(f"equation {name!r} references undefined "
                                   f"hmodule {obj['induce']!r}")
        return equivalence.induce(mod, transversal(prob.group))
    raise ProblemFileError(f"equation {name!r} has no recognized constructor")


def _close_rho(sub, be: Backend, partial: Dict[int, list]) -> Dict[int, list]:
    """Close generator matrices of a subgroup module under the (anti-)
    multiplication rule rho(ab) = rho(b) rho(a)."""
    dim = len(next(iter(partial.values())))
    rho = {0: linalg.identity(dim, be)}
    rho.update(partial)
    changed = True
    while changed:
        changed = False
        for a in list(rho):
            for b in list(rho):
                ab = sub.mult(a, b)
                if ab not in rho:
                    rho[ab] = linalg.mat_mul(rho[b], rho[a], be)
                    changed = True
    if set(rho) != set(sub.members):
        raise ProblemFileError("hmodule matrices do not generate the stabilizer")
    return rho


def _build_hmodule(name: str, obj: Dict[str, Any], prob: Problem
                   ) -> equivalence.HModule:
    _reject_unknown(obj, {"builtin", "character", "dim", "rho"},
                    f"hmodule {name!r}")
    sub = stabilizer(prob.group, BASE_POINT)
    be = prob.backend
    if "builtin" in obj:
        family = equivalence.builtin_irreducibles(sub, be)
        if obj["builtin"] not in family:
            raise ProblemFileError(f"no builtin hmodule {obj['builtin']!r}; "
                                   f"have {sorted(family)}")
        return family[obj["builtin"]]
    if "character" in obj:
        partial = {_word(prob, w, f"hmodule {name!r}"): [[be.parse(v)]]
                   for w, v in obj["character"].items()}
        rho = _close_rho(sub, be, partial)
        mod = equivalence.HModule(sub, be, 1, rho)
        mod.validate()
        return mod
    if "rho" in obj:
        partial = {_word(prob, w, f"hmodule {name!r}"):
                   [[be.parse(v) for v in row] for row in m]
                   for w, m in obj["rho"].items()}
        for h in partial:
            if h not in sub:
                raise ProblemFileError(f"hmodule {name!r}: element outside "
                                       "the stabilizer")
        rho = _close_rho(sub, be, partial)
        dim = _nonneg_int(obj.get("dim"), f"hmodule {name!r} dim")
        mod = equivalence.HModule(sub, be, dim, rho)
        mod.validate()
        return mod
    raise ProblemFileError(f"hmodule {name!r} has no recognized constructor")


def _build_system(name: str, obj: Dict[str, Any], prob: Problem
                  ) -> diffops.ClassicalSystem:
    _reject_unknown(obj, {"unknowns", "equations"}, f"system {name!r}")
    size = prob.space.size
    coeffs: Dict[tuple, Fn] = {}
    for j, terms in enumerate(obj["equations"]):
        for term in terms:
            where = f"system {name!r} equation {j}"
            _reject_unknown(term, {"unknown", "word", "coeff"}, where)
            g = _word(prob, term.get("word"), where)
            key = (j, _nonneg_int(term.get("unknown"), where), g)
            fn = _parse_fn(term.get("coeff"), size, prob.backend)
            coeffs[key] = coeffs[key] + fn if key in coeffs else fn
    unknowns = _nonneg_int(obj.get("unknowns"), f"system {name!r}")
    return diffops.ClassicalSystem(prob.group, prob.backend, unknowns, coeffs)


def _eq_ref(prob: Problem, obj: Dict[str, Any], key: str,
            where: str = "task") -> Equation:
    name = obj.get(key)
    if name not in prob.equations:
        raise ProblemFileError(f"{where} references undefined equation {name!r}")
    return prob.equations[name]


def _build_operator(name: str, obj: Dict[str, Any], prob: Problem
                    ) -> diffops.RawOperator:
    _reject_unknown(obj, {"source", "target", "terms"}, f"operator {name!r}")
    src = _eq_ref(prob, obj, "source", f"operator {name!r}")
    dst = _eq_ref(prob, obj, "target", f"operator {name!r}")
    if not isinstance(obj.get("terms"), list):
        raise ProblemFileError(f"operator {name!r} needs a list of 'terms'")
    terms: Dict[int, KMatrix] = {}
    for item in obj["terms"]:
        _reject_unknown(item, {"word", "matrix"}, f"operator {name!r} term")
        g = _word(prob, item.get("word"), f"operator {name!r} term")
        mat = _parse_kmatrix(item.get("matrix"), prob.space.size, prob.backend)
        terms[g] = terms[g].add(mat) if g in terms else mat
    return diffops.RawOperator(src, dst, terms)


def load_problem(path: str, backend_override: Optional[str] = None,
                 epsilon_override: Optional[float] = None) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ProblemFileError(f"cannot read problem file: {exc}") from exc
    if not isinstance(data, dict):
        raise ProblemFileError("problem file must be a JSON object")
    _reject_unknown(data, TOP_KEYS, "problem file")
    for key in ("space", "group"):
        if key not in data:
            raise ProblemFileError(f"missing required section {key!r}")

    backend_name = backend_override or data.get("backend", "rational")
    eps = epsilon_override if epsilon_override is not None \
        else float(data.get("epsilon", 1e-9))
    if backend_name == "rational":
        backend = Backend.rational()
    elif backend_name == "complex":
        backend = Backend.complex(eps)
    else:
        raise ProblemFileError(f"unknown backend {backend_name!r}")

    space = _build_space(data["space"])
    group = _build_group(data["group"], space)
    prob = Problem(space, group, backend)
    for name, obj in data.get("hmodules", {}).items():
        prob.hmodules[name] = _build_hmodule(name, obj, prob)
    for name, obj in data.get("equations", {}).items():
        prob.equations[name] = _build_equation(name, obj, prob)
    for name, obj in data.get("systems", {}).items():
        prob.systems[name] = _build_system(name, obj, prob)
    for name, obj in data.get("operators", {}).items():
        prob.operators[name] = _build_operator(name, obj, prob)
    tasks = data.get("tasks", [])
    if not isinstance(tasks, list):
        raise ProblemFileError("tasks must be a list")
    prob.tasks = tasks
    return prob


# -- task execution ----------------------------------------------------------

def _ser_fn(f: Fn, be: Backend):
    return [be.serialize(v) for v in f.values]


def _ser_kmatrix(m: KMatrix, be: Backend):
    return [[_ser_fn(f, be) for f in row] for row in m.entries]


def _ser_coords(coords, be: Backend):
    return [_ser_fn(f, be) for f in coords]


def run_task(prob: Problem, task: Dict[str, Any], seed: int) -> Dict[str, Any]:
    kind = task.get("task")
    be = prob.backend
    result: Dict[str, Any] = {}
    ok = True

    if kind == "validate":
        eq = _eq_ref(prob, task, "equation")
        eq.validate()
        result["rank"] = eq.rank
    elif kind == "solve":
        basis = solver.hom_space(_eq_ref(prob, task, "source"),
                                 _eq_ref(prob, task, "target"))
        result["dimension"] = len(basis)
        result["basis"] = [_ser_kmatrix(b.matrix, be) for b in basis]
    elif kind == "symmetries":
        basis = solver.symmetries(_eq_ref(prob, task, "equation"))
        result["dimension"] = len(basis)
        result["basis"] = [_ser_kmatrix(b.matrix, be) for b in basis]
    elif kind == "decompose":
        parts = solver.decompose(_eq_ref(prob, task, "equation"), seed=seed)
        result["summand_ranks"] = sorted(p.rank for p, _ in parts)
    elif kind == "simple":
        result["verdict"] = solver.is_simple(_eq_ref(prob, task, "equation"),
                                             seed=seed)
    elif kind == "fiber":
        mod = equivalence.fiber(_eq_ref(prob, task, "equation"))
        result["dim"] = mod.dim
        result["rho"] = {str(h): [[be.serialize(v) for v in row]
                                  for row in mod.rho[h]]
                         for h in mod.subgroup.members}
    elif kind == "induce":
        name = task.get("hmodule")
        if name not in prob.hmodules:
            raise ProblemFileError(f"task references undefined hmodule {name!r}")
        eq = equivalence.induce(prob.hmodules[name], transversal(prob.group))
        eq.validate()
        result["rank"] = eq.rank
    elif kind == "roundtrip":
        iso = equivalence.roundtrip_iso(_eq_ref(prob, task, "equation"),
                                        seed=seed)
        result["isomorphism"] = _ser_kmatrix(iso.matrix, be)
    elif kind == "project":
        eq = _eq_ref(prob, task, "equation")
        chi = projection.character(_eq_ref(prob, task, "character_of"))
        pi = projection.frobenius_projection(eq, chi)
        result["matrix"] = _ser_kmatrix(pi.matrix, be)
        result["idempotent"] = pi.matrix.mul(pi.matrix).eq(pi.matrix)
    elif kind == "invariants":
        eq = _eq_ref(prob, task, "equation")
        basis = invariants.invariant_vectors(eq)
        result["dimension"] = len(basis)
        result["basis"] = [_ser_coords(c, be) for c in basis]
    elif kind == "selfdual":
        found = invariants.self_dual_check(_eq_ref(prob, task, "equation"),
                                           seed=seed)
        result["self_dual"] = found is not None
        if found is not None:
            result["form"] = _ser_kmatrix(found.matrix, be)
    elif kind == "classical":
        op = _op_from_task(prob, task)
        sols = diffops.classical_solutions(op)
        result["dimension"] = len(sols)
        result["basis"] = [_ser_coords(c, be) for c in sols]
    elif kind == "equation_of":
        op = _op_from_task(prob, task)
        eq = diffops.equation_of(op)
        result["rank"] = eq.rank
    elif kind == "embed":
        op = _op_from_task(prob, task)
        result.update(diffops.embed_solutions(op))
        ok = bool(result["embeds"])
    elif kind == "compose":
        first = diffops.canonicalize(prob.operators[task["first"]])
        second = diffops.canonicalize(prob.operators[task["second"]])
        comp = diffops.compose(second, first)
        result["action_rank"] = linalg.rank(comp.action, be)
    elif kind == "assert_zero_action":
        op = diffops.canonicalize(prob.operators[task["operator"]])
        ok = linalg.mat_is_zero(op.action, be)
        result["zero"] = ok
    else:
        raise ProblemFileError(f"unknown task kind {kind!r}")

    if "expect_dim" in task and "dimension" in result:
        ok = ok and (result["dimension"] == task["expect_dim"])
    if "expect_rank" in task and "rank" in result:
        ok = ok and (result["rank"] == task["expect_rank"])
    result["ok"] = ok
    return result


def _op_from_task(prob: Problem, task: Dict[str, Any]) -> diffops.DiffOperator:
    if "operator" in task:
        return diffops.canonicalize(prob.operators[task["operator"]])
    if "system" in task:
        return diffops.ingest_classical(prob.systems[task["system"]])
    raise ProblemFileError("task needs an 'operator' or 'system' reference")


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
        except (GDiffError, ValueError, KeyError) as exc:
            entry["ok"] = False
            entry["error"] = f"{type(exc).__name__}: {exc}"
        all_ok = all_ok and entry["ok"]
        report["tasks"].append(entry)
    report["pass"] = all_ok
    return report


def format_report(report: Dict[str, Any], fmt: str) -> str:
    if fmt == "structured":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
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
