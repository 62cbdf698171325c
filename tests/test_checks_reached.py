"""Every check and raise of the decision and period stages is reached by a test.

The rows are read from the source by AST: each ``return Verdict(...)`` and
each ``raise`` in a function of ``torelli.py`` and ``periods.py``.  A row's
key is ``(function, label, text)``: the label is the verdict's check name
(the last ``"check": "<name>"`` literal of the function at or before the
return) or the exception's class, and the text is the reason or message
with each formatted field written ``{}``.  ``REACHED`` names the test that
reaches each row, through ``decide_isomorphism``, ``marking_transporter``,
the CLI or the row's own public function; the ``PeriodConsistencyError``
rows are reached by mutation tests.  A new check or raise without a row
fails here; ``tests/line_reach.py`` runs Tier-1 under a line trace and
confirms that each named test executes its row.
"""

import ast
from pathlib import Path

import logcy3.periods
import logcy3.torelli

MODULES = {"torelli": Path(logcy3.torelli.__file__), "periods": Path(logcy3.periods.__file__)}
TESTS = Path(__file__).resolve().parent


def _text(node):
    """A message or reason as written, each formatted field as ``{}``."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_text(part) if isinstance(part, ast.Constant) else "{}" for part in node.values)
    # "...".format(...)
    return _text(node.func.value)


def _check_literals(node):
    """``(line, name)`` of each ``"check": "<name>"`` literal below ``node``."""
    return sorted(
        (key.lineno, value.value)
        for d in ast.walk(node)
        if isinstance(d, ast.Dict)
        for key, value in zip(d.keys, d.values)
        if isinstance(key, ast.Constant) and key.value == "check"
    )


def _functions(tree):
    """``(qualified name, node)`` of each function and method of a module."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    yield f"{node.name}.{method.name}", method


def entries():
    """``{(function, label, text): (path, statement)}`` for both modules."""
    found = {}
    for module, path in MODULES.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, func in _functions(tree):
            checks = _check_literals(func)
            for stmt in ast.walk(func):
                if isinstance(stmt, ast.Raise):
                    label, message = stmt.exc.func.id, stmt.exc.args[0]
                elif (
                    isinstance(stmt, ast.Return)
                    and isinstance(stmt.value, ast.Call)
                    and getattr(stmt.value.func, "id", None) == "Verdict"
                ):
                    label = [check for line, check in checks if line <= stmt.end_lineno][-1]
                    message = stmt.value.args[1]
                else:
                    continue
                key = (f"{module}.{name}", label, _text(message))
                assert key not in found, f"two rows share the key {key}"
                found[key] = (path, stmt)
    return found


TORELLI = "tests/test_torelli.py::"
PERIODS = "tests/test_periods.py::"
CLI = "tests/test_cli.py::TestCompare::"

REACHED = {
    # torelli: fan reconstruction and complexity, through their own functions.
    ("torelli.reconstruct_fan", "ReconstructionError", "wall {} lies in {} cones, expected 2"):
        TORELLI + "TestReconstruction::test_a_wall_in_one_cone_is_rejected",
    ("torelli.reconstruct_fan", "ReconstructionError",
     "wall relation at {} places vertex {} at {}, already placed at {}"):
        TORELLI + "TestReconstruction::test_perturbed_data_rejected",
    ("torelli.reconstruct_fan", "ReconstructionError", "intersection data is not connected"):
        TORELLI + "TestReconstruction::test_disconnected_data_rejected",
    ("torelli.reconstruct_fan", "ReconstructionError", "reconstructed data is not a smooth fan: {}"):
        TORELLI + "TestReconstruction::test_a_sphere_wound_twice_is_rejected",
    ("torelli.reconstruct_fan", "ReconstructionError",
     "reconstructed fan does not reproduce the intersection data"):
        TORELLI + "TestReconstruction::test_a_curve_on_no_wall_is_rejected",
    ("torelli.complexity", "PairError", "decomposition weights must be nonnegative"):
        TORELLI + "TestComplexity::test_negative_weight_is_rejected",
    ("torelli.Correspondence.vertex", "CorrespondenceError", "vertex {} not in correspondence"):
        TORELLI + "TestCorrespondenceLookup::test_missing_vertex",
    # torelli: explicit component maps, through decide.
    ("torelli._component_map_failure", "component_isometry",
     "the map of component {} is not square of the component's rank"):
        TORELLI + "TestSparseBoundaryTransport::test_wrong_shape_overrides[short]",
    ("torelli._component_map_failure", "component_isometry",
     "the map of component {} does not preserve the intersection form"):
        CLI + "test_explicit_map_that_is_no_isometry[p3-point-rows1-values1]",
    ("torelli._component_map_failure", "component_isometry",
     "the map of component {} does not carry the anticanonical class"):
        TORELLI + "TestSparseBoundaryTransport::"
        "test_negation_keeps_the_form_but_not_the_anticanonical_class",
    ("torelli._component_map_failure", "component_edges",
     "the map of component {} moves the edge degrees of class {}"):
        TORELLI + "TestExplicitComponentMaps::test_map_that_moves_an_edge_is_distinct",
    # torelli: decide's steps (i)-(iv), shared with transport, and step (v).
    ("torelli._matched", "CorrespondenceError", "vertex map is not a bijection of components"):
        CLI + "test_mismatched_shapes_error",
    ("torelli._matched", "CorrespondenceError", "step map is not a bijection of program steps"):
        CLI + "test_step_map_that_is_no_bijection_is_an_error",
    ("torelli._matched", "CorrespondenceError",
     "mu_components: vertex {} is not a component of the first pair"):
        CLI + "test_map_for_a_missing_vertex_is_an_error",
    ("torelli._matched", "CorrespondenceError", "mu: expected a {} x {} matrix, got {} x {}"):
        CLI + "test_mu_of_another_shape_is_a_document_error[columns]",
    ("torelli._matched", "dual_complex", "dual complexes do not match under the vertex bijection"):
        TORELLI + "TestMarkingTransporter::test_structural_failure_is_decides_certificate",
    ("torelli._matched", "cubic_form", "cubic forms disagree under the correspondence"):
        TORELLI + "TestDecision::test_different_programs_are_distinct",
    ("torelli._matched", "step_kind", "steps {} and {} have different kinds"):
        TORELLI + "TestMarkingTransporter::test_structural_failure_is_decides_certificate",
    ("torelli._matched", "curve_component",
     "curve steps {} and {} sit in non-corresponding components"):
        CLI + "test_curve_steps_in_other_components_are_distinct",
    ("torelli._matched", "step_place", "steps {} and {} sit at non-corresponding places"):
        CLI + "test_matched_step_at_another_place_is_distinct",
    ("torelli._matched", "exceptional_match",
     "exceptional classes of steps {} and {} do not correspond"):
        TORELLI + "TestMarkingTransporter::test_structural_failure_is_decides_certificate",
    ("torelli._matched", "curve_class", "curve classes of steps {} and {} do not correspond"):
        TORELLI + "TestDecision::test_curve_classes_that_differ_are_distinct",
    ("torelli._matched", "toric_model",
     "base toric models are not unimodularly equivalent under the vertex bijection"):
        CLI + "test_base_models_that_differ_are_distinct",
    ("torelli.decide_isomorphism", "period", "periods disagree on a matching class"):
        CLI + "test_distinct_pair",
    ("torelli.decide_isomorphism", "complete",
     "combinatorics, cubic form, program and periods all match"):
        CLI + "test_self_comparison",
    # periods: inputs, through their own functions.
    ("periods.evaluate_boundary_character", "PairError", "boundary vector length mismatch"):
        PERIODS + "TestPeriodCharacters::test_a_vector_of_another_length_is_an_error",
    ("periods._edge_scalars", "PairError", "one scalar per edge required"):
        PERIODS + "TestMarkingTorsor::test_scalars_must_be_one_nonzero_per_edge[one-short]",
    ("periods._edge_scalars", "ExactArithmeticError", "edge scalars must be nonzero"):
        PERIODS + "TestMarkingTorsor::test_scalars_must_be_one_nonzero_per_edge[zero]",
    # periods: internal invariants, through mutation tests.
    ("periods.unmarked_period", "PeriodConsistencyError",
     "period value depends on the marking on a matching class"):
        PERIODS + "TestPeriodCharacters::"
        "test_a_held_value_the_second_marking_disagrees_with_is_an_error",
    ("periods.quotient_character", "PeriodConsistencyError",
     "period is nontrivial on a restricted global class"):
        PERIODS + "TestQuotientFromTheHeldFactorization::"
        "test_an_image_vector_of_nontrivial_period_is_an_error",
    ("periods.quotient_character", "PeriodConsistencyError",
     "restricted global class outside the matching lattice"):
        PERIODS + "TestQuotientFromTheHeldFactorization::"
        "test_an_image_vector_off_the_matching_lattice_is_an_error",
}


def _defined(node_id):
    """Whether the test a node id names is defined in its file."""
    file, *names = node_id.split("[")[0].split("::")
    scope = ast.parse((TESTS.parent / file).read_text(encoding="utf-8")).body
    for name in names:
        node = next(
            (n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name),
            None,
        )
        if node is None:
            return False
        scope = node.body
    return True


def test_every_check_and_raise_has_a_row():
    found = set(entries())
    assert sorted(found - set(REACHED)) == [], "a check or raise has no row"
    assert sorted(set(REACHED) - found) == [], "a row names no check or raise"


def test_every_check_name_labels_a_row():
    names = set()
    for path in MODULES.values():
        names.update(name for _, name in _check_literals(ast.parse(path.read_text(encoding="utf-8"))))
    assert names <= {label for _, label, _ in entries()}


def test_each_row_names_a_defined_test():
    assert [node for node in set(REACHED.values()) if not _defined(node)] == []
