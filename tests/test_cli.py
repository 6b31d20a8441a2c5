import contextlib
import copy
import gc
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (gauged_equation, perfbench_module, rank2_equation,
                      seeded_rng)
from gdiff import diffops, equivalence, linalg, problem
from gdiff.cli import main
from gdiff.scalars import Backend
from gdiff.space import dihedral_on_cycle

DATA = os.path.join(os.path.dirname(__file__), "data")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def path(name):
    return os.path.join(DATA, name)


def test_dropped_problem_is_freed_without_the_cyclic_collector():
    # a loaded and run problem holds no reference cycle: its group (which
    # keeps the shared cell tables) is freed as soon as the problem is
    # dropped, so peak memory does not wait for a collection
    gc.disable()
    try:
        prob = problem.load_problem(path("c3_basic.json"))
        assert problem.run_problem(prob)["pass"]
        group = weakref.ref(prob.group)
        assert group()._cell_tables
        del prob
        assert group() is None
    finally:
        gc.enable()


def test_run_basic_corpus_exits_zero(capsys):
    assert main(["run", path("c3_basic.json")]) == 0
    out = capsys.readouterr().out
    assert out.endswith("pass\n")
    assert "FAIL" not in out


def test_run_complex_corpus_exits_zero(capsys):
    assert main(["run", path("c6_complex.json")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("backend=complex")
    assert out.endswith("pass\n")


def test_failed_expectation_exits_one(capsys):
    assert main(["run", path("failing.json")]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and out.endswith("fail\n")


def test_unknown_key_exits_two(capsys):
    assert main(["run", path("unknown_key.json")]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_corrupted_connection_exits_two(capsys):
    assert main(["run", path("corrupted_connection.json")]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_missing_file_exits_two(capsys):
    assert main(["run", path("no_such_file.json")]) == 2


def _write_mutated(tmp_path, mutate):
    """Write a copy of c3_basic.json changed by `mutate`; return its path."""
    with open(path("c3_basic.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    mutate(data)
    target = tmp_path / "mutated.json"
    target.write_text(json.dumps(data))
    return str(target)


def _run_mutated(tmp_path, capsys, mutate):
    """Run a copy of c3_basic.json changed by `mutate`; return (code, stderr)."""
    code = main(["run", _write_mutated(tmp_path, mutate)])
    return code, capsys.readouterr().err


def _assert_one_line_error(code, err):
    assert code == 2
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_out_of_range_cycle_point_exits_two(tmp_path, capsys):
    def mutate(data):
        data["group"]["generators"]["s"] = "(1 2 9)"
    _assert_one_line_error(*_run_mutated(tmp_path, capsys, mutate))


def test_group_without_generators_exits_two(tmp_path, capsys):
    def mutate(data):
        data["group"] = {}
    _assert_one_line_error(*_run_mutated(tmp_path, capsys, mutate))


def test_operator_with_undefined_target_exits_two(tmp_path, capsys):
    def mutate(data):
        data["operators"]["alt"]["target"] = "nope"
    _assert_one_line_error(*_run_mutated(tmp_path, capsys, mutate))


def test_non_integer_space_cycle_exits_two(tmp_path, capsys):
    def mutate(data):
        data["space"] = {"cycle": "x"}
    _assert_one_line_error(*_run_mutated(tmp_path, capsys, mutate))


def _set(path, value):
    """A mutation that sets data[path[0]][path[1]]... to value."""
    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return mutate


def _delete(path):
    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        del data[path[-1]]
    return mutate


MALFORMED = {
    "operator_without_terms": _delete(["operators", "alt", "terms"]),
    "term_without_word": _delete(["operators", "alt", "terms", 0, "word"]),
    "term_word_unknown_generator": _set(
        ["operators", "alt", "terms", 1, "word"], "zz"),
    "hmodule_rho_unknown_generator": _set(
        ["hmodules", "v2", "rho"], {"zz": [[1, 0], [0, 1]]}),
    "system_unknown_not_integer": _set(
        ["systems", "triple", "equations", 0, 0, "unknown"], "q"),
    "hmodule_dim_not_integer": _set(["hmodules", "v2", "dim"], "x"),
    "negative_trivial_rank": _set(["equations", "one", "trivial"], -1),
    "ragged_generator_matrix": _set(
        ["equations", "sign", "generators"],
        {"s": [[1, 2], [3]], "t": [[1, 0], [0, 1]]}),
    "one_element_direct_sum": _set(["equations", "both", "direct_sum"],
                                   ["one"]),
    "values_not_a_list": _set(
        ["equations", "sign", "generators", "s"], [[{"values": 3}]]),
    "group_generators_as_list": _set(["group", "generators"],
                                     ["(1 2 3)", "(2 3)"]),
    # a section of the wrong JSON type
    "system_without_equations": _delete(["systems", "triple", "equations"]),
    "system_equations_not_a_list": _set(["systems", "triple", "equations"], 3),
    "system_equation_not_a_list": _set(
        ["systems", "triple", "equations", 0], 3),
    "operator_term_not_an_object": _set(["operators", "alt", "terms", 0], 5),
    "hmodule_rho_as_list": _set(["hmodules", "v2", "rho"], [1]),
    "hmodule_rho_matrix_not_a_list": _set(["hmodules", "v2", "rho", "t"], 3),
    "hmodule_character_not_an_object": _set(
        ["hmodules", "vsign", "character"], 3),
    "equations_section_as_list": _set(["equations"], []),
    "equation_not_an_object": _set(["equations", "one"], 3),
    "equation_generators_as_list": _set(
        ["equations", "sign", "generators"], [[[1]], [[-1]]]),
    "dual_of_a_list": _set(["equations", "star"], {"dual": ["one"]}),
    "task_not_an_object": _set(["tasks", 0], 3),
    "epsilon_not_a_number": _set(["epsilon"], "x"),
    "group_generator_not_a_string": _set(["group", "generators", "s"], 5),
    "hmodule_builtin_as_list": _set(["hmodules", "vsign"], {"builtin": []}),
    "induce_a_list": _set(["equations", "rank2"], {"induce": ["v2"]}),
    # values of the right type that do not fit together
    "hmodule_dim_disagrees_with_matrices": _set(["hmodules", "v2", "dim"], 3),
    "system_unknown_out_of_range": _set(
        ["systems", "triple", "equations", 0, 0, "unknown"], 5),
    # scalars that are no numbers, and an operator matrix of the wrong shape
    "operator_matrix_entry_not_a_number": _set(
        ["operators", "alt", "terms", 0, "matrix"], [["x"]]),
    "system_coeff_divides_by_zero": _set(
        ["systems", "triple", "equations", 0, 0, "coeff"], "1/0"),
    "operator_matrix_with_an_empty_row": _set(
        ["operators", "alt", "terms", 0, "matrix"], [[]]),
    "operator_matrix_larger_than_the_ranks": _set(
        ["operators", "alt", "terms", 0, "matrix"], [[1, 0], [0, 1]]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_problem_file_exits_two(tmp_path, capsys, case):
    _assert_one_line_error(*_run_mutated(tmp_path, capsys, MALFORMED[case]))


@pytest.mark.parametrize("index, kind, key",
                         [(12, "assert_zero_action", "operator"),
                          (13, "classical", "system")])
def test_undefined_task_reference_fails_the_task(tmp_path, capsys, index,
                                                 kind, key):
    # named like an undefined equation, not a bare KeyError
    target = _write_mutated(tmp_path, _set(["tasks", index, key], "zz"))
    assert main(["run", target]) == 1
    assert (f"task {index} {kind}: FAIL error=ProblemFileError: task "
            f"references undefined {key} 'zz'\n") in capsys.readouterr().out


def test_composing_operators_between_other_equations_fails(tmp_path,
                                                           capsys):
    # o ends at sign and alt starts at one: equal ranks, but no composition
    added = []

    def add_mismatch(data):
        data["operators"]["o"] = {"source": "one", "target": "sign", "terms": [
            {"word": "e", "matrix": [[1]]}]}
        added.append(len(data["tasks"]))
        data["tasks"].append({"task": "compose", "first": "o",
                              "second": "alt"})

    assert main(["run", _write_mutated(tmp_path, add_mismatch)]) == 1
    out = capsys.readouterr().out
    assert re.findall(r"^task .*error=.*$", out, re.M) == [
        f"task {added[0]} compose: FAIL error=GDiffError: operator "
        "composition: the first operator's target is not the second "
        "operator's source"]


def test_validate_refuses_operators_that_do_not_compose(tmp_path, capsys):
    # the compose task above, alone: `run` can only fail it, so `validate`
    # refuses the file with one error line
    def mismatch_only(data):
        data["operators"]["o"] = {"source": "one", "target": "sign", "terms": [
            {"word": "e", "matrix": [[1]]}]}
        data["tasks"] = [{"task": "compose", "first": "o", "second": "alt"}]

    target = _write_mutated(tmp_path, mismatch_only)
    assert main(["validate", target]) == 2
    assert capsys.readouterr().err == (
        "error: task 0: operator composition: the first operator's target "
        "is not the second operator's source\n")
    assert main(["run", target]) == 1
    assert "task 0 compose: FAIL error=GDiffError" in capsys.readouterr().out


def test_empty_generator_map_exits_two(tmp_path, capsys):
    # on one point the group may have no generators; the equation still
    # needs its matrices
    target = tmp_path / "one_point.json"
    target.write_text(json.dumps({
        "space": {"points": ["a"]}, "group": {"generators": {}},
        "equations": {"e": {"generators": {}}}}))
    _assert_one_line_error(main(["run", str(target)]),
                           capsys.readouterr().err)


@pytest.mark.parametrize("epsilon", ["1", "3"])
def test_coarse_epsilon_exits_two(capsys, epsilon):
    # at such a tolerance the builtin modules of the complex file no longer
    # validate: one error line, not a traceback
    code = main(["run", path("c6_complex.json"), "--epsilon", epsilon])
    _assert_one_line_error(code, capsys.readouterr().err)


def test_zero_epsilon_fails_tasks_without_traceback(capsys):
    # at zero tolerance the operator calculus finds no quotient coordinates;
    # that is a task failure with a report line, not a crash
    assert main(["run", path("c3_basic.json"), "--backend", "complex",
                 "--epsilon", "0"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "task 14 equation_of: FAIL error=GDiffError" in captured.out
    assert captured.out.endswith("fail\n")


@pytest.mark.parametrize("rho, message", [
    ([[1, 0], [0, 2]], "rho is not an anti-homomorphism at (2,2)"),
    ([[0, 0], [0, 0]], "rho of element 2 is singular")])
def test_invalid_hmodule_is_a_file_error(tmp_path, capsys, rho, message):
    # HModule.validate raises InvalidHModule; loading names the module
    target = _write_mutated(tmp_path, _set(["hmodules", "v2", "rho", "t"],
                                           rho))
    assert main(["run", target]) == 2
    assert capsys.readouterr().err == f"error: hmodule 'v2': {message}\n"


def test_character_outside_the_stabilizer_is_refused(tmp_path, capsys):
    # s moves the base point: a character given on it is refused before
    # its closure, as a rho given on it is
    target = _write_mutated(tmp_path, _set(["hmodules", "vsign", "character"],
                                           {"s": "-1"}))
    assert main(["run", target]) == 2
    assert capsys.readouterr().err == \
        "error: hmodule 'vsign': element outside the stabilizer\n"


def symmetric_problem(n, hmodules, equations=None, tasks=()):
    """A rational problem on S_n acting on n points, from the n-cycle a,
    b = (2 3) and c = (2 3 ... n); b and c generate the stabilizer of the
    first point, S_{n-1}."""
    cycles = {"a": range(1, n + 1), "b": (2, 3), "c": range(2, n + 1)}
    return {"space": {"points": [str(i) for i in range(1, n + 1)]},
            "group": {"generators": {
                name: "(" + " ".join(map(str, points)) + ")"
                for name, points in cycles.items()}},
            "hmodules": hmodules, "equations": equations or {},
            "tasks": list(tasks)}


@pytest.mark.parametrize("module", [
    {"character": {"c": "1"}},
    {"dim": 2, "rho": {"c": [[0, -1], [1, -1]]}}])
def test_matrices_that_do_not_generate_the_stabilizer_name_the_module(
        tmp_path, capsys, module):
    # on S4 the stabilizer is S3, and c = (2 3 4) alone generates only A3
    target = tmp_path / "s4.json"
    target.write_text(json.dumps(symmetric_problem(4, {"v": module})))
    assert main(["run", str(target)]) == 2
    assert capsys.readouterr().err == \
        "error: hmodule 'v': matrices do not generate the stabilizer\n"


def is_odd(image):
    """Whether a permutation, as its image array, has an odd number of
    inversions."""
    image = list(image)
    return sum(x > y for i, x in enumerate(image) for y in image[i + 1:]) % 2


def test_module_on_a_large_stabilizer_given_on_two_words(tmp_path, capsys):
    # S6 on 6 points: H = S5 has 120 elements.  The module is closed from
    # the involution m at b and the identity at c (a 5-cycle, even): the
    # trivial module plus the sign in another basis, m at the odd elements
    m = [[3, -4], [2, -3]]
    target = tmp_path / "s6.json"
    target.write_text(json.dumps(symmetric_problem(
        6, {"v2": {"dim": 2, "rho": {"b": m, "c": [[1, 0], [0, 1]]}}},
        {"r2": {"induce": "v2"}},
        [{"task": "validate", "equation": "r2"},
         {"task": "fiber", "equation": "r2"},
         {"task": "decompose", "equation": "r2"}])))
    prob = problem.load_problem(str(target))
    mod = prob.hmodules["v2"]
    assert mod.subgroup.order == 120
    assert [rho.tolist() for rho in mod.rho] == [
        m if is_odd(prob.group.elements[h]) else [[1, 0], [0, 1]]
        for h in mod.subgroup.members]
    assert main(["run", str(target)]) == 0
    assert capsys.readouterr().out == (
        "backend=rational seed=0\n"
        "task 0 validate: ok rank=2\n"
        "task 1 fiber: ok dim=2\n"
        "task 2 decompose: ok summand_ranks=[1, 1]\n"
        "pass\n")


@pytest.mark.parametrize("backend", ["rational", "complex"])
def test_builtin_trivial_on_a_stabilizer_neither_cyclic_nor_dihedral(
        tmp_path, capsys, backend):
    # S5 on 5 points: H = S4, whose element of largest order is a 4-cycle;
    # the builtins are then the trivial module alone, and induce and solve
    target = tmp_path / "s5.json"
    target.write_text(json.dumps(symmetric_problem(
        5, {"one": {"builtin": "trivial"}}, {"e": {"induce": "one"}},
        [{"task": "validate", "equation": "e"},
         {"task": "solve", "source": "e", "target": "e"}])))
    assert main(["run", str(target), "--backend", backend]) == 0
    assert capsys.readouterr().out == (
        f"backend={backend} seed=0\n"
        "task 0 validate: ok rank=1\n"
        "task 1 solve: ok dimension=1\n"
        "pass\n")


@pytest.mark.parametrize("backend", ["rational", "complex"])
def test_builtin_sign_on_a_stabilizer_neither_cyclic_nor_dihedral(
        tmp_path, capsys, backend):
    target = tmp_path / "s5.json"
    target.write_text(json.dumps(symmetric_problem(
        5, {"sign": {"builtin": "sign"}})))
    assert main(["validate", str(target), "--backend", backend]) == 2
    assert capsys.readouterr().err == \
        "error: no builtin hmodule 'sign'; have ['trivial']\n"


def test_exact_loads_make_no_singularity_test(tmp_path, monkeypatch):
    # an exact module check or generator completion that passes proves its
    # matrices invertible, so loading the exact-solve benchmark files tests
    # none for singularity; the complex backend keeps its tests
    workloads = perfbench_module("workloads")
    paths = workloads["write_files"](workloads["build"]("exact-solve", 1),
                                     str(tmp_path))
    calls = []
    real = linalg.any_singular
    monkeypatch.setattr(linalg, "any_singular",
                        lambda *args: calls.append(args) or real(*args))
    for target in paths:
        problem.load_problem(target)
    assert calls == []
    problem.load_problem(path("c6_complex.json"))
    assert calls


def test_unstable_subspace_fails_the_task(tmp_path, capsys):
    # near machine precision the eigenvalue split of a gauged Sym^2 finds
    # rows that are not H-stable within the tolerance: the decompose task
    # fails with the error's own type, as every task failure is a GDiffError
    group, be = dihedral_on_cycle(4), Backend.rational()
    gauged = gauged_equation(seeded_rng(4), rank2_equation(group, be))
    gens = {name: [[{"values": [str(v) for v in gauged.scalars(g)[:, i, j]]}
                    for j in range(2)] for i in range(2)]
            for name, g in group.generators.items()}
    target = tmp_path / "gauged.json"
    target.write_text(json.dumps({
        "space": {"cycle": 4}, "group": {"dihedral_cycle": 4},
        "equations": {"g2": {"generators": gens}, "gs": {"sym2": "g2"}},
        "tasks": [{"task": "decompose", "equation": "gs"}]}))
    assert main(["run", str(target), "--backend", "complex",
                 "--epsilon", "1e-14"]) == 1
    assert capsys.readouterr().out.splitlines()[1] == (
        "task 0 decompose: FAIL error=NotHStable: subspace is not H-stable")


# Each mutation declares a connection of 10^9 x 10^9 matrices; the bound
# must refuse it before the constructor it names is called with that rank.
HUGE_RANKS = {
    "trivial_rank": (["equations", "one", "trivial"], problem,
                     "trivial_equation"),
    "hmodule_dim": (["hmodules", "v2", "dim"], equivalence, "HModule"),
    "system_unknowns": (["systems", "triple", "unknowns"], diffops,
                        "ClassicalSystem"),
}


@pytest.mark.parametrize("case", sorted(HUGE_RANKS))
def test_huge_rank_is_refused_before_anything_is_built(tmp_path, capsys,
                                                       monkeypatch, case):
    path, module, constructor = HUGE_RANKS[case]
    build = getattr(module, constructor)

    def guarded(*args, **kwargs):
        # arguments may be arrays, which have no truth value: compare ints
        if any(isinstance(a, int) and a == 10 ** 9
               for a in (*args, *kwargs.values())):
            raise AssertionError(f"{constructor} called for a huge rank")
        return build(*args, **kwargs)

    monkeypatch.setattr(module, constructor, guarded)
    code, err = _run_mutated(tmp_path, capsys, _set(path, 10 ** 9))
    _assert_one_line_error(code, err)
    assert "connection scalars" in err


def tensor_tower(extra):
    """Generator data a of rank 2 on D64 and its tensor powers up to
    d = a^(x6) of rank 64, whose connection needs 8192 x 64^2 scalars, twice
    the bound; ``extra`` adds equations built from them."""
    return {
        "space": {"cycle": 64}, "group": {"dihedral_cycle": 64},
        "equations": {
            "a": {"generators": {"s": [[1, 0], [0, 1]], "t": [[1, 0], [0, -1]]}},
            "b": {"tensor": ["a", "a"]}, "c": {"tensor": ["b", "a"]},
            "d": {"tensor": ["c", "c"]}, **extra},
        "tasks": [{"task": "validate", "equation": "d"}]}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("extra", [{}, {"e": {"tensor": ["d", "d"]}}],
                         ids=["d", "e"])
def test_tensor_tower_is_refused_before_it_is_built(tmp_path, capsys,
                                                    command, extra):
    target = tmp_path / "tower.json"
    target.write_text(json.dumps(tensor_tower(extra)))
    code = main([command, str(target)])
    err = capsys.readouterr().err
    _assert_one_line_error(code, err)
    assert err == ("error: equation 'd': rank 64 needs 8192 x 64^2 "
                   "connection scalars, more than 16777216\n")


# One oversized result per constructor on D3 (18 cells): the equations,
# a bound that admits every operand, and what the refusal names; a is
# generator data of rank 2, which needs 18 x 2^2 = 72 scalars.  dual and
# wedge_top never have a larger rank than their operand.
GENERATORS = {"generators": {"s": [[1, 0], [0, 1]], "t": [[1, 0], [0, -1]]}}
OVERSIZED = {
    "generators": ({"a": GENERATORS}, 71, "equation 'a' generator 's'", 2),
    "direct_sum": ({"a": GENERATORS, "x": {"direct_sum": ["a", "a"]}}, 72,
                   "equation 'x'", 4),
    "tensor": ({"a": GENERATORS, "x": {"tensor": ["a", "a"]}}, 72,
               "equation 'x'", 4),
    "hom": ({"a": GENERATORS, "x": {"hom": ["a", "a"]}}, 72,
            "equation 'x'", 4),
    "sym2": ({"a": GENERATORS, "x": {"sym2": "a"}}, 72, "equation 'x'", 3),
    "wedge2": ({"a": GENERATORS, "b": {"direct_sum": ["a", "a"]},
                "x": {"wedge2": "b"}}, 288, "equation 'x'", 6),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_construction_is_refused_before_it_is_built(
        tmp_path, capsys, monkeypatch, case, command):
    eqs, bound, where, rank = OVERSIZED[case]
    monkeypatch.setattr(problem, "MAX_CONNECTION_SCALARS", bound)

    def refuse(*args, **kwargs):
        raise AssertionError(f"{case} built past the bound")

    if case == "generators":
        monkeypatch.setattr(problem, "_parse_kmatrix", refuse)
    else:
        monkeypatch.setattr(problem.eqmod, case, refuse)
    target = tmp_path / "oversized.json"
    target.write_text(json.dumps({
        "space": {"cycle": 3}, "group": {"dihedral_cycle": 3},
        "equations": eqs, "tasks": []}))
    code = main([command, str(target)])
    err = capsys.readouterr().err
    _assert_one_line_error(code, err)
    assert err.startswith(f"error: {where}: rank {rank} needs 18 x {rank}^2 "
                          "connection scalars")


def test_operator_term_shape_is_checked_before_it_is_parsed(
        tmp_path, capsys, monkeypatch):
    parse = problem._parse_kmatrix

    def guarded(obj, *args):
        if len(obj) == 3:
            raise AssertionError("term parsed before its shape was checked")
        return parse(obj, *args)

    monkeypatch.setattr(problem, "_parse_kmatrix", guarded)
    code, err = _run_mutated(tmp_path, capsys, lambda data: data[
        "operators"]["alt"]["terms"][0].update(matrix=[[1] * 3] * 3))
    _assert_one_line_error(code, err)
    assert "matrix is 3 x 3, not 1 x 1" in err


def test_rank_bound_is_exact(capsys, monkeypatch):
    # D3 on 3 points: the largest declared rank, hmodule v2's dim 2, needs
    # 6 x 3 x 2^2 = 72 connection scalars
    monkeypatch.setattr(problem, "MAX_CONNECTION_SCALARS", 72)
    assert main(["validate", path("c3_basic.json")]) == 0
    monkeypatch.setattr(problem, "MAX_CONNECTION_SCALARS", 71)
    assert main(["validate", path("c3_basic.json")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: hmodule 'v2' dim: rank 2 needs 18 x 2^2 connection scalars")


@pytest.mark.parametrize("key", ["equation", "operator", "system", "hmodule"])
def test_validate_resolves_task_references(tmp_path, capsys, key):
    index = {"equation": 0, "operator": 12, "system": 13, "hmodule": 7}[key]
    target = _write_mutated(tmp_path, _set(["tasks", index, key], "zz"))
    assert main(["validate", target]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: task {index}: task references undefined {key} "
                   "'zz'\n")


def test_validate_rejects_an_unknown_task_kind(tmp_path, capsys):
    target = _write_mutated(tmp_path, _set(["tasks", 3, "task"], "nope"))
    assert main(["validate", target]) == 2
    assert capsys.readouterr().err == \
        "error: task 3: unknown task kind 'nope'\n"


def test_validate_subcommand(capsys):
    assert main(["validate", path("c3_basic.json")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("valid:")
    assert "tasks=16" in out


def test_validate_rejects_bad_file(capsys):
    assert main(["validate", path("unknown_key.json")]) == 2


def test_structured_format_is_json(capsys):
    assert main(["run", path("c3_basic.json"), "--format", "structured"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert len(report["tasks"]) == 16
    assert all(entry["ok"] for entry in report["tasks"])


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["run", path("c3_basic.json"), "--format", "structured",
                 "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    report = json.loads(target.read_text())
    assert report["pass"] is True


def test_reports_are_byte_identical_for_fixed_seed(tmp_path):
    outs = []
    for i in range(2):
        target = tmp_path / f"r{i}.json"
        assert main(["run", path("c3_basic.json"), "--seed", "0",
                     "--format", "structured", "--output", str(target)]) == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


def test_text_reports_also_deterministic(tmp_path):
    outs = []
    for i in range(2):
        target = tmp_path / f"r{i}.txt"
        assert main(["run", path("c6_complex.json"), "--seed", "3",
                     "--output", str(target)]) == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


def test_backend_override_flag(capsys):
    assert main(["run", path("c3_basic.json"), "--backend", "complex",
                 "--epsilon", "1e-8"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("backend=complex")


def test_seed_recorded_in_report(capsys):
    assert main(["run", path("c3_basic.json"), "--seed", "7",
                 "--format", "structured"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 7


def _console_script_code(name):
    """The body of the console script that an install makes for `name`.

    Reads the entry point from `[project.scripts]` of the checkout's
    `pyproject.toml` and returns the code an installed script runs:
    import the target, call it, exit with its return value.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = spec.partition(":")
    return f"import sys; from {module} import {attr}; sys.exit({attr}())"


def test_console_script_installed():
    # Run the checkout's declared entry point as an installed `gdiff`
    # would, so the test needs no install and checks this checkout.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _console_script_code("gdiff"),
         "run", path("c3_basic.json")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.endswith("pass\n")


@pytest.mark.skipif(shutil.which("gdiff") is None,
                    reason="no gdiff executable on PATH (package not installed)")
def test_gdiff_on_path_runs_basic_corpus():
    proc = subprocess.run(["gdiff", "run", path("c3_basic.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.endswith("pass\n")


# -- single random mutations of the two corpus files --------------------------

FUZZ_POOL = ("x", "1/0", [[]], [["x"]], 10 ** 9)
FUZZ_FILES = {}
for _name in ("c3_basic.json", "c6_complex.json"):
    with open(path(_name), encoding="utf-8") as _fh:
        FUZZ_FILES[_name] = json.load(_fh)


def _value_paths(node, prefix=()):
    """The path of every value inside a JSON document, outer ones first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _value_paths(value, prefix + (key,))


def _at(doc, where):
    for key in where:
        doc = doc[key]
    return doc


def _fuzz_sites(doc):
    """Where each kind of mutation applies: a key to drop, a value to
    replace by one of FUZZ_POOL, a generator cycle that can name a point
    outside the space, a reference to a defined name."""
    paths = list(_value_paths(doc))
    names = {n for section in ("equations", "hmodules", "operators", "systems")
             for n in doc.get(section, {})}
    return {
        "drop": [p for p in paths if isinstance(_at(doc, p[:-1]), dict)],
        "retype": paths,
        "point": [p for p in paths if p[:2] == ("group", "generators")
                  and isinstance(_at(doc, p), str)],
        "undefined": [p for p in paths if isinstance(_at(doc, p), str)
                      and _at(doc, p) in names and p[0] != "backend"],
    }


@st.composite
def fuzz_cases(draw):
    name = draw(st.sampled_from(sorted(FUZZ_FILES)))
    doc = copy.deepcopy(FUZZ_FILES[name])
    sites = _fuzz_sites(doc)
    kind = draw(st.sampled_from([k for k in sorted(sites) if sites[k]]))
    where = draw(st.sampled_from(sites[kind]))
    parent, key = _at(doc, where[:-1]), where[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = copy.deepcopy(draw(st.sampled_from(FUZZ_POOL)))
    elif kind == "point":
        points = [int(x) for x in re.findall(r"\d+", parent[key])]
        parent[key] = f"({points[0]} {doc['space']['cycle'] + 1})"
    else:
        parent[key] = "undefined_name"
    return name, kind, where, doc


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(fuzz_cases())
def test_single_mutations_never_escape_the_cli_contract(case):
    # whatever one mutation does to a corpus file, the CLI answers with an
    # exit code of its contract and at most a one-line error, no traceback
    name, kind, where, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, name)
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", target])
    assert code in (0, 1, 2), (kind, where)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (kind, where)
