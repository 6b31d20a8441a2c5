"""What the traced run wraps, and the per-layer metrics it reports.

Each target is (dotted path, span name, kind, sizes).  A metric ending in
``.s`` is the span's self seconds per pass, one ending in ``.calls`` its
calls per pass; any other metric is a size counter summed per pass
(``.max_cols`` is a maximum).  ``scalars`` gets no span: ``Fn`` operations
are too hot to wrap, so their cost lands in the self time of ``equations``
and ``linalg``.  ``cli``, ``skewalg`` and ``errors`` get none either.
"""

from __future__ import annotations

SPAN, COUNT = "span", "count"


def _group(c, args, kwargs, group):
    c["space.group_order"] += group.order
    c["space.mult_entries"] += group.order * group.order


def _shape(a):
    return len(a), (len(a[0]) if a else 0)


def _nullspace(c, args, kwargs, result):
    # every caller passes the column count, needed when a has no rows
    rows, cols = len(args[0]), args[1]
    c["linalg.nullspace.cells"] += rows * cols
    c["linalg.nullspace.max_cols"] = max(c["linalg.nullspace.max_cols"], cols)


def _solve(c, args, kwargs, result):
    rows, cols = _shape(args[0])
    c["linalg.solve.cells"] += rows * cols


def _hom_space(c, args, kwargs, result):
    src, dst = args[0], args[1]
    unknowns = src.rank * dst.rank * src.group.space.size
    c["solver.hom_space.unknowns"] += unknowns
    c["solver.hom_space.rows"] += len(set(src.group.generators.values())) * unknowns


def _intertwiners(c, args, kwargs, result):
    c["equivalence.intertwiner_space.unknowns"] += args[0].dim * args[1].dim


def _invariants(c, args, kwargs, result):
    eq = args[0]
    c["invariants.invariant_vectors.unknowns"] += eq.rank * eq.group.space.size


def _difn(c, args, kwargs, result):
    eq = args[1]
    c["diffops.difn_generators"] += eq.rank * eq.group.order * eq.group.space.size


_CONSTRUCTIONS = ("direct_sum", "tensor", "dual", "hom", "sym2", "wedge2",
                  "wedge_top")

TARGETS = [
    ("gdiff.space.enumerate_group", "space.enumerate_group", SPAN, _group),
    ("gdiff.space.stabilizer", "space.stabilizer", COUNT, None),
    ("gdiff.space.transversal", "space.transversal", COUNT, None),
    ("gdiff.equations.complete_connection", "equations.complete_connection",
     SPAN, None),
    ("gdiff.equations.Equation.validate", "equations.validate", SPAN, None),
    ("gdiff.equations.KMatrix.mul", "equations.kmatrix_mul", SPAN, None),
    ("gdiff.equations.KMatrix.inverse", "equations.kmatrix_inverse", SPAN, None),
    ("gdiff.equations.KMatrix.g_act", "equations.g_act", COUNT, None),
    *[(f"gdiff.equations.{f}", "equations.construct", SPAN, None)
      for f in _CONSTRUCTIONS],
    ("gdiff.linalg.nullspace", "linalg.nullspace", SPAN, _nullspace),
    ("gdiff.linalg.rank", "linalg.rank", SPAN, None),
    ("gdiff.linalg.solve", "linalg.solve", SPAN, _solve),
    ("gdiff.linalg.inv", "linalg.inv", SPAN, None),
    ("gdiff.linalg.RowSpace.add", "linalg.rowspace_add", SPAN, None),
    ("gdiff.linalg.RowSpace.coords", "linalg.rowspace_coords", SPAN, None),
    ("gdiff.solver.hom_space", "solver.hom_space", SPAN, _hom_space),
    ("gdiff.solver.Morphism.validate", "solver.morphism_validate", SPAN, None),
    ("gdiff.solver.decompose", "solver.decompose", SPAN, None),
    ("gdiff.solver.is_simple", "solver.is_simple", SPAN, None),
    ("gdiff.solver.find_isomorphism", "solver.find_isomorphism", SPAN, None),
    ("gdiff.solver.sub_equation", "solver.sub_equation", COUNT, None),
    ("gdiff.equivalence.induce", "equivalence.induce", SPAN, None),
    ("gdiff.equivalence.fiber", "equivalence.fiber", SPAN, None),
    ("gdiff.equivalence.intertwiner_space", "equivalence.intertwiner_space",
     SPAN, _intertwiners),
    ("gdiff.equivalence.roundtrip_iso", "equivalence.roundtrip_iso", SPAN, None),
    ("gdiff.projection.frobenius_projection", "projection.frobenius_projection",
     SPAN, None),
    ("gdiff.projection.character", "projection.character", COUNT, None),
    ("gdiff.invariants.invariant_vectors", "invariants.invariant_vectors",
     SPAN, _invariants),
    ("gdiff.invariants.self_dual_check", "invariants.self_dual_check",
     SPAN, None),
    ("gdiff.diffops.mu", "diffops.mu", SPAN, None),
    ("gdiff.diffops.canonicalize", "diffops.canonicalize", SPAN, None),
    ("gdiff.diffops.ingest_classical", "diffops.ingest_classical", SPAN, None),
    ("gdiff.diffops.classical_solutions", "diffops.classical_solutions",
     SPAN, None),
    ("gdiff.diffops.equation_of", "diffops.equation_of", SPAN, None),
    ("gdiff.diffops.embed_solutions", "diffops.embed_solutions", SPAN, None),
    ("gdiff.diffops.compose", "diffops.compose", SPAN, None),
    ("gdiff.diffops._DifnModule.__init__", "diffops.difn_module", COUNT, _difn),
    ("gdiff.problem.load_problem", "problem.load_problem", SPAN, None),
    ("gdiff.problem.run_task", "problem.run_task", SPAN, None),
    ("gdiff.problem.format_report", "problem.format_report", SPAN, None),
]

# Per-layer metric -> the end-to-end metric (and workload) it should move.
METRICS = {
    "space.enumerate_group.s": "setup_s on numeric-large",
    "space.group_order": "setup_s on numeric-large",
    "space.mult_entries": "setup_s on numeric-large",
    "space.stabilizer.calls": "task_s_p50 on exact-solve and numeric-large",
    "space.transversal.calls": "task_s_p50 on exact-solve and numeric-large",
    "equations.complete_connection.s": "setup_s",
    "equations.complete_connection.calls": "setup_s",
    "equations.validate.s": "setup_s and pass_s on exact-solve",
    "equations.validate.calls": "setup_s and pass_s on exact-solve",
    "equations.kmatrix_mul.s": "pass_s and task_s_tail on numeric-large",
    "equations.kmatrix_mul.calls": "pass_s and task_s_tail on numeric-large",
    "equations.kmatrix_inverse.s": "pass_s",
    "equations.kmatrix_inverse.calls": "pass_s",
    "equations.g_act.calls": "pass_s on numeric-large",
    "equations.construct.s": "setup_s",
    "linalg.nullspace.s": "pass_s and task_s_tail on exact-solve",
    "linalg.nullspace.calls": "pass_s and task_s_tail on exact-solve",
    "linalg.nullspace.cells": "pass_s and task_s_tail on exact-solve",
    "linalg.nullspace.max_cols": "task_s_tail on exact-solve",
    "linalg.rank.s": "pass_s",
    "linalg.rank.calls": "pass_s",
    "linalg.solve.s": "pass_s on operator-calculus",
    "linalg.solve.calls": "pass_s on operator-calculus",
    "linalg.solve.cells": "pass_s on operator-calculus",
    "linalg.inv.s": "pass_s",
    "linalg.inv.calls": "pass_s",
    "linalg.rowspace_add.s": "pass_s on operator-calculus",
    "linalg.rowspace_add.calls": "pass_s on operator-calculus",
    "linalg.rowspace_coords.s": "pass_s on operator-calculus",
    "linalg.rowspace_coords.calls": "pass_s on operator-calculus",
    "solver.hom_space.s": "pass_s and task_s_tail on both solve workloads",
    "solver.hom_space.calls": "pass_s on both solve workloads",
    "solver.hom_space.unknowns": "pass_s on both solve workloads",
    "solver.hom_space.rows": "pass_s on both solve workloads",
    "solver.morphism_validate.s": "pass_s and task_s_tail on both solve workloads",
    "solver.morphism_validate.calls": "pass_s on both solve workloads",
    "solver.decompose.s": "task_s_p50 on both solve workloads",
    "solver.is_simple.s": "task_s_p50 on both solve workloads",
    "solver.find_isomorphism.s": "task_s_p50 on both solve workloads",
    "solver.find_isomorphism.calls": "task_s_p50 on both solve workloads",
    "solver.sub_equation.calls": "task_s_p50 on both solve workloads",
    "equivalence.induce.s": "setup_s on numeric-large",
    "equivalence.induce.calls": "setup_s on numeric-large",
    "equivalence.fiber.s": "task_s_p50",
    "equivalence.fiber.calls": "task_s_p50",
    "equivalence.intertwiner_space.s": "task_s_p50",
    "equivalence.intertwiner_space.calls": "task_s_p50",
    "equivalence.intertwiner_space.unknowns": "task_s_p50",
    "equivalence.roundtrip_iso.s": "task_s_p50",
    "projection.frobenius_projection.s": "task_s_p50 on both solve workloads",
    "projection.frobenius_projection.calls": "task_s_p50 on both solve workloads",
    "projection.character.calls": "task_s_p50 on both solve workloads",
    "invariants.invariant_vectors.s": "task_s_p50 and task_s_tail",
    "invariants.invariant_vectors.calls": "task_s_p50 and task_s_tail",
    "invariants.invariant_vectors.unknowns": "task_s_p50 and task_s_tail",
    "invariants.self_dual_check.s": "task_s_p50 and task_s_tail",
    "invariants.self_dual_check.calls": "task_s_p50 and task_s_tail",
    "diffops.mu.s": "pass_s on operator-calculus",
    "diffops.mu.calls": "pass_s on operator-calculus",
    "diffops.canonicalize.s": "pass_s on operator-calculus",
    "diffops.ingest_classical.s": "pass_s on operator-calculus",
    "diffops.classical_solutions.s": "pass_s on operator-calculus",
    "diffops.equation_of.s": "pass_s on operator-calculus",
    "diffops.equation_of.calls": "pass_s on operator-calculus",
    "diffops.embed_solutions.s": "pass_s on operator-calculus",
    "diffops.embed_solutions.calls": "pass_s on operator-calculus",
    "diffops.compose.s": "pass_s on operator-calculus",
    "diffops.difn_generators": "pass_s on operator-calculus",
    "problem.load_problem.s": "setup_s",
    "problem.run_task.s": "stays near zero",
    "problem.format_report.s": "stays near zero",
    "trace_overhead": "none: traced over untraced pass time, adjacent pairs",
}


def unit(metric: str) -> str:
    if metric.endswith(".s"):
        return "s"
    return "ratio" if metric == "trace_overhead" else "count"


def value(metric: str, self_time, calls, counters):
    """A metric's per-pass value from one traced pass's totals."""
    if metric.endswith(".s"):
        return self_time.get(metric[:-2], 0.0)
    if metric.endswith(".calls"):
        return calls.get(metric[:-6], 0)
    return counters.get(metric, 0)
