"""Every check and raise of the package is reached by a test.

The rows are read from the source by AST: each ``return Verdict(...)``,
each ``raise`` and each diagnostic return of ``toric._diagnose_fan`` in a
function of every module but ``fixtures.py`` and ``__init__.py``.  A row's
key is ``(function, label, text)``: the label is the verdict's check name
(the last ``"check": "<name>"`` literal of the function at or before the
return), the exception's class (``raise`` for a bare re-raise) or
``diagnostic``, and the text is the reason, message or diagnostic with each
formatted field written ``{}``.  ``REACHED`` names the test that reaches
each row, through ``decide_isomorphism``, ``marking_transporter``, the CLI
or the row's own public function; the ``PeriodConsistencyError`` rows and
the triple intersections' wall-relation check are reached by mutation
tests that corrupt a held value or, for the unmarked period, the character
table of one class.  A new check or raise without a row fails
here.  ``tests/mutants.py`` confirms that each named test needs its row: it
replaces the row's statement with ``pass`` and runs the test, which must
fail.  The last test here keeps that tool's mutation sound.
``tests/line_reach.py`` confirms that every statement runs in some test.
"""

import ast
from functools import cache
from pathlib import Path

import logcy3
from mutants import mutated

PACKAGE = Path(logcy3.__file__).parent
MODULES = {
    path.stem: path
    for path in sorted(PACKAGE.glob("*.py"))
    if path.stem not in ("__init__", "fixtures")
}
TESTS = Path(__file__).resolve().parent


def _text(node):
    """A message or reason as written, each formatted field as ``{}``."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_text(part) if isinstance(part, ast.Constant) else "{}" for part in node.values)
    if isinstance(node, ast.Call):  # "...".format(...)
        return _text(node.func.value)
    return "{}"  # a message held in a name


def _raised(stmt):
    """``(label, text)`` of a raise: the exception's class and message."""
    if stmt.exc is None:
        return "raise", ""  # re-raises the exception being handled
    return stmt.exc.func.id, _text(stmt.exc.args[0])


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
    """``{(function, label, text): (path, statement)}`` for every module."""
    found = {}
    for module, path in MODULES.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, func in _functions(tree):
            qualified = f"{module}.{name}"
            checks = _check_literals(func)
            for stmt in ast.walk(func):
                if isinstance(stmt, ast.Raise):
                    label, text = _raised(stmt)
                elif not isinstance(stmt, ast.Return) or stmt.value is None:
                    continue
                elif (
                    isinstance(stmt.value, ast.Call)
                    and getattr(stmt.value.func, "id", None) == "Verdict"
                ):
                    label = [check for line, check in checks if line <= stmt.end_lineno][-1]
                    text = _text(stmt.value.args[1])
                elif qualified == "toric._diagnose_fan" and not (
                    isinstance(stmt.value, ast.Constant) and stmt.value.value is None
                ):
                    label, text = "diagnostic", _text(stmt.value)
                else:
                    continue
                key = (qualified, label, text)
                assert key not in found, f"two rows share the key {key}"
                found[key] = (path, stmt)
    return found


TORELLI = "tests/test_torelli.py::"
PERIODS = "tests/test_periods.py::"
COMPARE = "tests/test_cli.py::TestCompare::"
CLI = "tests/test_cli.py::"
USAGE = "tests/test_cli.py::TestUsage::"
BOUNDARY = "tests/test_boundary.py::"
DOCUMENTS = "tests/test_documents.py::"
EXACTNUM = "tests/test_exactnum.py::"
ORACLE = "tests/test_oracle.py::"
PAIR = "tests/test_pair.py::"
TORIC = "tests/test_toric.py::"
KERNELS = "tests/test_toric_kernels.py::"
STAR = "tests/test_star_subdivide.py::"
VALUE_TYPES = "tests/test_value_types.py::"

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
        COMPARE + "test_explicit_map_that_is_no_isometry[p3-point-rows1-values1]",
    ("torelli._component_map_failure", "component_isometry",
     "the map of component {} does not carry the anticanonical class"):
        TORELLI + "TestSparseBoundaryTransport::"
        "test_negation_keeps_the_form_but_not_the_anticanonical_class",
    ("torelli._component_map_failure", "component_edges",
     "the map of component {} moves the edge degrees of class {}"):
        TORELLI + "TestExplicitComponentMaps::test_map_that_moves_an_edge_is_distinct",
    # torelli: decide's steps (i)-(iv), shared with transport, and step (v).
    ("torelli._matched", "CorrespondenceError", "vertex map is not a bijection of components"):
        COMPARE + "test_mismatched_shapes_error",
    ("torelli._matched", "CorrespondenceError", "step map is not a bijection of program steps"):
        COMPARE + "test_step_map_that_is_no_bijection_is_an_error",
    ("torelli._matched", "CorrespondenceError",
     "mu_components: vertex {} is not a component of the first pair"):
        COMPARE + "test_map_for_a_missing_vertex_is_an_error",
    ("torelli._matched", "CorrespondenceError", "mu: expected a {} x {} matrix, got {} x {}"):
        COMPARE + "test_mu_of_another_shape_is_a_document_error[columns]",
    ("torelli._matched", "dual_complex", "dual complexes do not match under the vertex bijection"):
        TORELLI + "TestMarkingTransporter::test_structural_failure_is_decides_certificate",
    ("torelli._matched", "cubic_form", "cubic forms disagree under the correspondence"):
        TORELLI + "TestDecision::test_different_programs_are_distinct",
    ("torelli._matched", "step_kind", "steps {} and {} have different kinds"):
        TORELLI + "TestMarkingTransporter::test_structural_failure_is_decides_certificate",
    ("torelli._matched", "curve_component",
     "curve steps {} and {} sit in non-corresponding components"):
        COMPARE + "test_curve_steps_in_other_components_are_distinct",
    ("torelli._matched", "step_place", "steps {} and {} sit at non-corresponding places"):
        COMPARE + "test_matched_step_at_another_place_is_distinct",
    ("torelli._matched", "exceptional_match",
     "exceptional classes of steps {} and {} do not correspond"):
        TORELLI + "TestMarkingTransporter::test_structural_failure_is_decides_certificate",
    ("torelli._matched", "curve_class", "curve classes of steps {} and {} do not correspond"):
        TORELLI + "TestDecision::test_curve_classes_that_differ_are_distinct",
    ("torelli._matched", "toric_model",
     "base toric models are not unimodularly equivalent under the vertex bijection"):
        TORELLI + "TestDecision::test_derived_maps_that_move_the_new_ray_are_distinct",
    ("torelli.decide_isomorphism", "period", "periods disagree on a matching class"):
        COMPARE + "test_distinct_pair",
    ("torelli.decide_isomorphism", "complete",
     "combinatorics, cubic form, program and periods all match"):
        COMPARE + "test_self_comparison",
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
        PERIODS + "TestPeriodCharacters::test_a_class_in_the_other_chart_is_an_error",
    ("periods.quotient_character", "PeriodConsistencyError",
     "period is nontrivial on a restricted global class"):
        PERIODS + "TestQuotientFromTheHeldFactorization::"
        "test_an_image_vector_of_nontrivial_period_is_an_error",
    ("periods.quotient_character", "PeriodConsistencyError",
     "restricted global class outside the matching lattice"):
        PERIODS + "TestQuotientFromTheHeldFactorization::"
        "test_an_image_vector_off_the_matching_lattice_is_an_error",
    # boundary: inputs, through their own functions.
    ("boundary.Marking.build", "BoundaryError", "marking point on a 0-stratum"):
        BOUNDARY + "TestComponentInputs::test_a_zero_point_cannot_mark",
    ("boundary.Marking.point", "BoundaryError", "marking has no point on edge {}"):
        BOUNDARY + "TestComponentPeriod::test_marking_must_cover_edge",
    ("boundary.LooijengaComponent.with_exceptionals", "BoundaryError",
     "vertex {} is not adjacent to component {}"):
        BOUNDARY + "TestComponentInputs::test_an_exceptional_class_needs_an_adjacent_vertex",
    ("boundary.LooijengaComponent.split", "BoundaryError",
     "class length does not match component rank"):
        BOUNDARY + "TestComponentInputs::test_a_class_of_another_length_is_rejected[split]",
    ("boundary.LooijengaComponent.edge_degrees", "BoundaryError",
     "class length does not match component rank"):
        BOUNDARY + "TestComponentInputs::test_a_class_of_another_length_is_rejected[edge_degrees]",
    ("boundary.section_ratio", "BoundaryError", "marking point on a 0-stratum"):
        BOUNDARY + "TestSectionRatio::test_zero_stratum_rejected",
    ("boundary.section_ratio", "BoundaryError", "divisor supported on a 0-stratum"):
        BOUNDARY + "TestSectionRatio::test_zero_stratum_rejected",
    ("boundary.component_character_table", "BoundaryError", "marking point on a 0-stratum"):
        BOUNDARY + "TestCharacterTableAgainstSectionRatios::test_a_zero_marking_point_is_rejected",
    # documents: malformed documents, through the readers or the CLI.
    ("documents._field", "DocumentError", "{}: missing field {}"):
        DOCUMENTS + "TestPairDocuments::test_missing_field_rejected",
    ("documents._expect", "DocumentError", "{}: expected {}, got {}"):
        DOCUMENTS + "TestCorrespondenceDocuments::"
        "test_malformed_shape_rejected_with_field_path[vertex-map-list]",
    ("documents._integer", "DocumentError", "{}: expected an integer, got {}"):
        DOCUMENTS + "TestCorrespondenceDocuments::"
        "test_malformed_shape_rejected_with_field_path[step-map-entry]",
    ("documents._integers", "DocumentError", "{}: expected {} entries, got {}"):
        DOCUMENTS + "TestPairDocuments::test_malformed_shape_rejected_with_field_path[short-ray]",
    ("documents._vertex_key", "DocumentError", "{}: bad vertex key {}"):
        DOCUMENTS + "TestCorrespondenceDocuments::"
        "test_malformed_shape_rejected_with_field_path[vertex-map-key]",
    ("documents._parse_coordinate", "DocumentError", "{}: {}"):
        DOCUMENTS + "TestPairDocuments::test_bad_coordinate_rejected",
    ("documents.pair_from_document", "DocumentError", "document: not a pair document"):
        DOCUMENTS + "TestPairDocuments::test_wrong_format_rejected",
    ("documents.pair_from_document", "DocumentError", "document: unsupported version"):
        DOCUMENTS + "TestPairDocuments::test_unsupported_version_rejected",
    ("documents.pair_from_document", "DocumentError", "document: lattice_rank must be 3"):
        DOCUMENTS + "TestPairDocuments::test_lattice_rank_other_than_three_rejected",
    ("documents.pair_from_document", "DocumentError", "orientation.sign: expected 1 or -1, got {}"):
        DOCUMENTS + "TestPairDocuments::test_orientation_sign_must_be_a_unit[0]",
    ("documents.pair_from_document", "DocumentError", "pair: {}"):
        DOCUMENTS + "TestPairDocuments::test_invalid_program_rejected",
    ("documents.pair_from_document", "DocumentError", "orientation.triangle[{}]: no vertex {}"):
        CLI + "TestValidate::"
        "test_malformed_fields_are_diagnosed[orientation-vertex-out-of-range]",
    ("documents._marking_from_document", "DocumentError", "markings: no point on edge {}"):
        DOCUMENTS + "TestPairDocuments::test_marking_must_cover_each_edge_once[missing-edge]",
    ("documents._marking_from_document", "DocumentError", "markings: {} is not an edge"):
        DOCUMENTS + "TestPairDocuments::test_marking_must_cover_each_edge_once[non-edge]",
    ("documents._marking_from_document", "DocumentError", "markings: edge {} listed twice"):
        DOCUMENTS + "TestPairDocuments::test_marking_must_cover_each_edge_once[duplicate-edge]",
    ("documents._marking_from_document", "DocumentError",
     "markings[{}]: marking point on a 0-stratum"):
        DOCUMENTS + "TestPairDocuments::test_marking_must_cover_each_edge_once[zero-point]",
    ("documents._marking_from_document", "DocumentError", "markings: bad edge key {}"):
        DOCUMENTS + "TestPairDocuments::test_marking_must_cover_each_edge_once[bad-key]",
    ("documents._each", "DocumentError", "{}[{}]{}"):
        DOCUMENTS + "TestPairDocuments::test_malformed_shape_rejected_with_field_path[short-ray]",
    ("documents._step_from_document", "DocumentError", ": unknown blowup kind {}"):
        DOCUMENTS + "TestPairDocuments::test_unknown_blowup_kind_rejected",
    ("documents._step_from_document", "DocumentError", ".points[{}]: {}"):
        DOCUMENTS + "TestPairDocuments::"
        "test_malformed_shape_rejected_with_field_path[curve-coordinate]",
    ("documents.correspondence_from_document", "DocumentError",
     "document: not a correspondence document"):
        DOCUMENTS + "TestCorrespondenceDocuments::test_wrong_format_rejected",
    ("documents.correspondence_from_document", "DocumentError", "document: unsupported version"):
        DOCUMENTS + "TestCorrespondenceDocuments::test_unsupported_version_rejected",
    ("documents._matrix", "DocumentError", "{}: {}"):
        DOCUMENTS + "TestCorrespondenceDocuments::"
        "test_malformed_shape_rejected_with_field_path[mu-ragged]",
    ("documents._unique_keys", "DocumentError", "duplicate key {}"):
        DOCUMENTS + "TestPairDocuments::test_repeated_key_rejected[top-level]",
    ("documents.loads", "DocumentError", "document: top level must be an object"):
        DOCUMENTS + "TestPairDocuments::test_top_level_must_be_an_object[list]",
    ("documents.loads", "DocumentError", "line {}: {}"):
        DOCUMENTS + "TestPairDocuments::test_malformed_json_reports_line",
    ("documents.loads", "DocumentError", "document: nested too deeply"):
        DOCUMENTS + "TestPairDocuments::test_malformed_bytes_rejected[nested-too-deep]",
    ("documents.loads", "raise", ""):
        DOCUMENTS + "TestPairDocuments::test_repeated_key_rejected[top-level]",
    ("documents.loads", "DocumentError", "document: integer literal too long"):
        DOCUMENTS + "TestPairDocuments::test_malformed_bytes_rejected[integer-too-long]",
    ("documents.loads", "DocumentError", "document: not UTF-8 text at byte {}"):
        DOCUMENTS + "TestPairDocuments::test_malformed_bytes_rejected[not-utf8]",
    # gaussian: inputs of the value types and numbers.
    ("gaussian.Frozen.__init__", "TypeError",
     "{} takes the fields {}; got {} by position and {} by keyword"):
        VALUE_TYPES + "test_generic_constructor[PointBlowup]",
    ("gaussian.Frozen.__setattr__", "AttributeError", "{} is immutable; cannot set {}"):
        EXACTNUM + "TestAgainstFractionPairs::test_immutable",
    ("gaussian.Frozen.__delattr__", "AttributeError", "{} is immutable; cannot delete {}"):
        EXACTNUM + "TestAgainstFractionPairs::test_immutable",
    ("gaussian.GaussianRational.parse", "ExactArithmeticError",
     "cannot parse Gaussian rational {}"):
        EXACTNUM + "TestGaussianRational::test_parse_rejects_garbage",
    ("gaussian.GaussianRational.parse", "ExactArithmeticError",
     "zero denominator in Gaussian rational {}"):
        EXACTNUM + "TestGaussianRational::test_parse_rejects_garbage",
    ("gaussian.GaussianRational.parse", "ExactArithmeticError",
     "Gaussian rational with too many digits"):
        EXACTNUM + "TestGaussianRational::test_parse_rejects_garbage",
    ("gaussian.GaussianRational.__truediv__", "ExactArithmeticError", "division by zero in Q(i)"):
        EXACTNUM + "TestAgainstFractionPairs::test_binary_operations",
    ("gaussian.GaussianRational.inverse", "ExactArithmeticError", "division by zero in Q(i)"):
        EXACTNUM + "TestGaussianRational::test_zero_inverse_rejected",
    ("gaussian._coerce", "TypeError", "cannot coerce {} to GaussianRational"):
        EXACTNUM + "TestGaussianRational::test_an_operand_of_another_type_is_rejected",
    ("gaussian.power_product_of", "ExactArithmeticError", "division by zero in Q(i)"):
        EXACTNUM + "TestPowerProductKernel::test_zero_to_a_negative_power_is_rejected",
    # exactnum: inputs of the lattice routines.
    ("exactnum.IntMatrix.__init__", "ExactArithmeticError", "ragged matrix"):
        DOCUMENTS + "TestCorrespondenceDocuments::"
        "test_malformed_shape_rejected_with_field_path[mu-ragged]",
    ("exactnum.IntMatrix.__mul__", "ExactArithmeticError", "matrix dimension mismatch"):
        EXACTNUM + "TestTwoForms::test_products_need_matching_shapes",
    ("exactnum.IntMatrix.apply", "ExactArithmeticError", "vector length mismatch"):
        TORELLI + "TestSparseCubicCheck::"
        "test_wrong_shape_errors_are_unchanged[cols-ExactArithmeticError]",
    ("exactnum.IntMatrix.pull_back", "ExactArithmeticError", "vector length mismatch"):
        EXACTNUM + "TestTwoForms::test_shapes_without_entries",
    ("exactnum.SnfDecomposition.solve_over_gaussian_torus", "ExactArithmeticError",
     "one target per column required"):
        EXACTNUM + "TestTorusSolvability::test_zero_target_rejected",
    ("exactnum.SnfDecomposition.solve_over_gaussian_torus", "ExactArithmeticError",
     "targets must be nonzero"):
        EXACTNUM + "TestTorusSolvability::test_zero_target_rejected",
    ("exactnum.invert_unimodular", "ExactArithmeticError", "matrix is not square"):
        EXACTNUM + "TestKernelAndCokernel::test_invert_unimodular_rejects[non-square]",
    ("exactnum.invert_unimodular", "ExactArithmeticError", "matrix is singular"):
        EXACTNUM + "TestKernelAndCokernel::test_invert_unimodular_rejects[singular]",
    ("exactnum.invert_unimodular", "ExactArithmeticError", "matrix is not unimodular"):
        EXACTNUM + "TestKernelAndCokernel::test_invert_unimodular_rejects[determinant-2]",
    ("exactnum.nth_root", "ExactArithmeticError", "root order must be positive"):
        EXACTNUM + "TestNthRoot::test_inputs_without_roots_are_rejected[order-0]",
    ("exactnum.nth_root", "ExactArithmeticError", "no roots of zero in Q(i)*"):
        EXACTNUM + "TestNthRoot::test_inputs_without_roots_are_rejected[zero]",
    # cli: argument lists that fit no line of the usage.
    ("cli._parse", "UsageError", "unknown option {}"):
        USAGE + "test_malformed_argv_is_a_usage_error[unknown-option]",
    ("cli._parse", "UsageError", "no subcommand given"):
        USAGE + "test_malformed_argv_is_a_usage_error[empty]",
    ("cli._parse", "UsageError", "unknown subcommand {}"):
        USAGE + "test_malformed_argv_is_a_usage_error[unknown-subcommand]",
    ("cli._parse", "UsageError", "{} takes {}; {} given"):
        USAGE + "test_malformed_argv_is_a_usage_error[validate-two-files]",
    # oracle: inputs, through their own functions.
    ("oracle.split_boundary_vector", "PairError", "boundary vector length mismatch"):
        ORACLE + "TestSplitBoundaryVector::test_a_vector_of_another_length_is_rejected",
    # pair: programs and classes, through the build and its methods.
    ("pair.LogCY3Pair.__init__", "TypeError", "use LogCY3Pair.build"):
        PAIR + "TestBuild::test_the_constructor_points_to_build",
    ("pair.LogCY3Pair.build", "PairError", "invalid fan: {}"):
        PAIR + "TestBuild::test_invalid_fan_rejected",
    ("pair.LogCY3Pair.build", "PairError", "unknown step kind at index {}"):
        PAIR + "TestProgramValidation::test_unknown_step_kind_rejected",
    ("pair.LogCY3Pair._check_new_coordinates", "PairError",
     "step {}: coordinate must be a Gaussian rational"):
        PAIR + "TestProgramValidation::test_coordinate_that_is_no_gaussian_rational_rejected",
    ("pair.LogCY3Pair._check_new_coordinates", "PairError", "step {}: blowup point on a 0-stratum"):
        PAIR + "TestBuild::test_validate_pair_reports",
    ("pair.LogCY3Pair._check_new_coordinates", "PairError",
     "step {}: coordinate {} already used on edge {} (infinitely-near centers rejected)"):
        PAIR + "TestProgramValidation::test_repeated_coordinate_rejected",
    ("pair.LogCY3Pair._apply_point", "PairError", "step {}: {} is not an edge"):
        PAIR + "TestProgramValidation::test_point_off_edge_rejected",
    ("pair.LogCY3Pair._apply_curve", "PairError", "step {}: no component {}"):
        PAIR + "TestCurveStepDiagnostics::test_diagnostic_text[no-component]",
    ("pair.LogCY3Pair._apply_curve", "PairError",
     "step {}: curve class length {} does not match component rank {}"):
        PAIR + "TestCurveStepDiagnostics::test_diagnostic_text[class-length]",
    ("pair.LogCY3Pair._apply_curve", "PairError",
     "step {}: adjunction failed: C^2 + K.C = {} + {} = {}, expected -2"):
        PAIR + "TestProgramValidation::test_non_curve_class_rejected",
    ("pair.LogCY3Pair._apply_curve", "PairError", "step {}: points on a non-adjacent vertex"):
        PAIR + "TestProgramValidation::test_non_adjacent_points_rejected",
    ("pair.LogCY3Pair._apply_curve", "PairError",
     "step {}: curve boundary data inconsistent with class restriction (period obstruction {})"):
        PAIR + "TestProgramValidation::test_inconsistent_curve_data_rejected",
    ("pair.LogCY3Pair._apply_curve", "PairError",
     "step {}: negative boundary degree {} on edge toward {}"):
        PAIR + "TestCurveStepDiagnostics::test_diagnostic_text[negative-degree]",
    ("pair.LogCY3Pair._apply_curve", "PairError",
     "step {}: {} intersection points on edge toward {}, class degree is {}"):
        PAIR + "TestProgramValidation::test_wrong_point_count_rejected",
    ("pair.LogCY3Pair.exceptional_index", "PairError", "no step {}"):
        PAIR + "TestCubicForm::test_exceptional_class_of_a_missing_step_rejected",
    ("pair.LogCY3Pair.as_y_coords", "PairError", "class length does not match the Picard rank"):
        PAIR + "TestCubicForm::test_length_mismatch_rejected",
    ("pair.LogCY3Pair.as_y_coords", "PairError", "expected a threefold class, got basis {}"):
        TORELLI + "TestComplexity::test_classes_are_read_as_threefold_classes",
    ("pair.LogCY3Pair.torus_translate", "PairError", "torus element coordinates must be nonzero"):
        PAIR + "TestTorusAction::test_zero_element_rejected",
    # toric: fan validation, one row per diagnostic, and the public inputs; the
    # wall relation's own check through a held verdict that hides a fold.
    ("toric._inverse_unimodular", "FanError", "matrix is not unimodular"):
        KERNELS + "TestInverseUnimodular::test_any_matrix",
    ("toric.Fan3._global_sign", "FanError", "degenerate orientation reference triangle"):
        TORIC + "TestValidation::test_diagnostics_match_the_reference_check[4-rays]",
    ("toric.Fan3._global_sign", "FanError", "orientation reference is not a max cone"):
        TORIC + "TestValidation::test_diagnostics_match_the_reference_check[5-rays0]",
    ("toric._diagnose_fan", "diagnostic", "fan has no max cones"):
        CLI + "TestValidate::test_fan_without_cones_is_invalid",
    ("toric._diagnose_fan", "diagnostic", "unused ray"):
        TORIC + "TestValidation::test_diagnostics_match_the_reference_check[4-rays]",
    ("toric._diagnose_fan", "diagnostic", "duplicate max cone"):
        TORIC + "TestValidation::test_diagnostics_match_the_reference_check[4-rays]",
    ("toric._diagnose_fan", "diagnostic", "dual complex has Euler characteristic {}, expected 2"):
        TORIC + "TestValidation::test_a_complex_that_is_no_sphere_is_rejected[disjoint]",
    ("toric._diagnose_fan", "diagnostic", "non-primitive ray {}: {}"):
        TORIC + "TestValidation::test_non_primitive_ray_rejected",
    ("toric._diagnose_fan", "diagnostic", "duplicate ray {}: {}"):
        TORIC + "TestValidation::test_duplicate_ray_rejected",
    ("toric._diagnose_fan", "diagnostic", "bad cone {}"):
        TORIC + "TestValidation::test_diagnostics_match_the_reference_check[4-rays]",
    ("toric._diagnose_fan", "diagnostic", "non-smooth cone {}"):
        TORIC + "TestValidation::test_diagnostics_match_the_reference_check[5-rays0]",
    ("toric._diagnose_fan", "diagnostic", "wall with {} incident cone(s): {}"):
        TORIC + "TestValidation::test_missing_cone_rejected",
    ("toric._diagnose_fan", "diagnostic", "link of vertex {} is not a cycle"):
        TORIC + "TestValidation::test_a_complex_that_is_no_sphere_is_rejected[pinched]",
    ("toric._diagnose_fan", "diagnostic", "link of vertex {} winds {} times around its ray"):
        TORIC + "TestValidation::test_a_complex_that_is_no_sphere_is_rejected[wound]",
    ("toric.DualComplex.from_fan", "FanError", "{}"):
        TORIC + "TestValidation::test_public_functions_reject_an_invalid_fan[dual-complex]",
    ("toric.DualComplex.from_fan", "FanError", "edge orientation list does not match the walls"):
        TORIC + "TestDualComplex::test_edge_orientations_must_cover_the_walls",
    ("toric.DualComplex.from_fan", "FanError", "edge {} is oriented twice"):
        CLI + "TestValidate::test_edge_oriented_twice_is_invalid[same]",
    ("toric.DualComplex.edge_index", "FanError", "no edge between {} and {}"):
        TORIC + "TestDualComplex::test_no_edge_between_opposite_vertices",
    ("toric.DualComplex.positive_triangle", "FanError", "directed edge ({}, {}) not found"):
        TORIC + "TestDualComplex::test_positive_triangle_matches_a_scan_of_the_triangles",
    ("toric.TripleIntersection.__init__", "FanError", "{}"):
        TORIC + "TestValidation::test_public_functions_reject_an_invalid_fan[triple-intersection]",
    ("toric.TripleIntersection._wall_coefficient", "FanError", "broken wall relation at {}"):
        TORIC + "TestTripleIntersection::test_a_held_verdict_that_hides_a_fold_is_caught",
    ("toric.Fan2._dual", "FanError", "seed rays do not form a lattice basis"):
        TORIC + "TestSeedReduction::test_a_surface_seed_off_a_lattice_basis_is_rejected",
    ("toric.Fan2.degree_on_ray", "FanError", "class length does not match the surface rank"):
        PAIR + "TestCurveStepAgainstTheTables::test_degree_on_ray_rejects_a_wrong_length",
    ("toric._solve_wall_coefficient", "FanError", "rays around index {} are not a smooth 2d fan"):
        KERNELS + "TestWallCoefficient::test_matches_the_candidate_multiples",
    ("toric._checked_surfaces", "FanError", "{}"):
        TORIC + "TestValidation::test_public_functions_reject_an_invalid_fan[star-surface]",
    ("toric.star_subdivide", "FanError", "cannot subdivide an invalid fan: {}"):
        STAR + "test_an_invalid_parent_is_refused_before_the_star_check[non-smooth]",
    ("toric.star_subdivide", "FanError", "target must be a wall or a max cone"):
        TORIC + "TestStarSubdivision::test_missing_target_rejected",
    ("toric.star_subdivide", "FanError", "{} is not a max cone"):
        STAR + "test_a_target_that_is_no_cone_or_wall_is_refused[triple]",
    ("toric.star_subdivide", "FanError", "{} is not a wall"):
        STAR + "test_a_target_that_is_no_cone_or_wall_is_refused[pair]",
}


@cache
def _parsed(file):
    """The top-level statements of a test file, parsed once."""
    return ast.parse((TESTS.parent / file).read_text(encoding="utf-8")).body


def _defined(node_id):
    """Whether the test a node id names is defined in its file."""
    file, *names = node_id.split("[")[0].split("::")
    scope = _parsed(file)
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


def test_each_mutant_replaces_only_its_row():
    for key, (path, stmt) in entries().items():
        source = path.read_text(encoding="utf-8")
        mutant = mutated(source, stmt)
        ast.parse(mutant)
        before, after = source.splitlines(), mutant.splitlines()
        assert len(after) == len(before), key
        assert after[stmt.lineno - 1].endswith("pass"), key
        changed = {n for n, (a, b) in enumerate(zip(before, after), 1) if a != b}
        assert changed <= set(range(stmt.lineno, stmt.end_lineno + 1)), key
