"""CLI behaviour: commands, output formats, exit codes, validation reporting."""

import json
import os
import re
import subprocess
import sys

import pytest

import liecoh
from liecoh import catalog, cli, pairs
from liecoh.betti import betti_low
from liecoh.cli import main
from liecoh.liealg import LieAlgebra, ValidationError, validate
from liecoh.pairs import HomogeneousPair


def _emit(tmp_path, name, fname="pair.json"):
    path = tmp_path / fname
    path.write_text(json.dumps(catalog.emit(name)))
    return str(path)


def _write(tmp_path, doc, fname="pair.json"):
    path = tmp_path / fname
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


JACOBI_TYPO_DOC = {
    "algebra": {"center_dim": 0, "factors": [{
        "name": "su(2)", "dim": 3,
        "structure_constants": [[0, 1, 2, "2"], [1, 2, 1, "2"],
                                [0, 2, 1, "-2"]]}]},
    "subalgebra": {"basis": []},
}

# su(2) + su(2) declared as one 6-dimensional factor, plus a stray constant
# [e_0, e_3] = e_5: the algebra fails Jacobi and simplicity, the pair checks
# alone would pass
FUSED_FACTOR_DOC = {
    "algebra": {"center_dim": 0, "factors": [{
        "name": "su(2)+su(2)", "dim": 6,
        "structure_constants": [[0, 1, 2, "2"], [1, 2, 0, "2"],
                                [0, 2, 1, "-2"], [3, 4, 5, "2"],
                                [4, 5, 3, "2"], [3, 5, 4, "-2"],
                                [0, 3, 5, "1"]]}]},
    "subalgebra": {"basis": []},
}


def test_compute_sphere_4_json(tmp_path, capsys):
    code = main(["compute", _emit(tmp_path, "sphere:4"), "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["betti"] == [1, 0, 0, 0, 1]
    assert out["method"] == "formula"
    assert out["intermediates"]["dim_C"] == 1
    assert "diagnostics" not in out


def test_compute_table_output(tmp_path, capsys):
    code = main(["compute", _emit(tmp_path, "flag_su3")])
    assert code == 0
    out = capsys.readouterr().out
    assert "betti   [1, 0, 2, 0, 2]" in out
    assert "method  formula" in out
    assert "check   pass" in out


def test_missing_file_is_io_error(capsys):
    code = main(["compute", "/nonexistent/nowhere.json"])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_invalid_json_is_parse_error(tmp_path, capsys):
    path = _write(tmp_path, "{not json", "broken.json")
    code = main(["compute", path])
    assert code == 1
    assert "cannot parse" in capsys.readouterr().err


def test_wrong_shape_document_is_input_error(tmp_path, capsys):
    path = _write(tmp_path, {"subalgebra": {"basis": [["1", "0", "0"]]}})
    code = main(["compute", path])
    assert code == 1
    assert "not a valid pair document" in capsys.readouterr().err
    doc = catalog.emit("sphere:2")
    doc["subalgebra"]["basis"] = [["0", "0", "1", "0"]]
    code = main(["compute", _write(tmp_path, doc, "long.json")])
    assert code == 1
    assert "expected 3" in capsys.readouterr().err
    # a structure constant of three entries used to end in "not enough
    # values to unpack (expected 4, got 3)", and a factor without a name
    # or a dim in the bare key 'name' or 'dim'
    cases = []
    doc = catalog.emit("sphere:2")
    doc["algebra"]["factors"][0]["structure_constants"][0] = [0, 1, 2]
    cases.append(("structure constant must be an array of 4 entries, "
                  "not [0, 1, 2]", doc))
    for key, message in (("name", "factor name must be a string, not None"),
                         ("dim", "dim must be an integer, not None")):
        doc = catalog.emit("sphere:2")
        del doc["algebra"]["factors"][0][key]
        cases.append((message, doc))
    # a shorthand factor's name used to pass unchecked: an int name
    # computed with exit 0
    for name in (5, None):
        doc = {"algebra": {"factors": [{"type": "su", "n": 2, "name": name}]}}
        cases.append(("factor name must be a string, not %r" % name, doc))
    for message, doc in cases:
        assert main(["compute", _write(tmp_path, doc)]) == 1, message
        err = capsys.readouterr().err
        assert "not a valid pair document" in err and message in err, err
        assert "Traceback" not in err


def test_non_integer_fields_are_input_errors(tmp_path, capsys):
    # integer fields used to be truncated with int(): su(2.7) built su(2)
    def su2_doc():
        doc = catalog.emit("su:2")
        doc["algebra"]["factors"][0]["dim"] = "3"   # a string of an int is fine
        return doc

    doc = su2_doc()
    assert main(["compute", _write(tmp_path, doc)]) == 0
    capsys.readouterr()
    cases = []
    doc = {"algebra": {"center_dim": 0,
                       "factors": [{"type": "su", "n": 2.7}]},
           "subalgebra": {"basis": []}}
    cases.append(("n", doc))
    doc = su2_doc()
    doc["algebra"]["factors"][0]["structure_constants"][0][0] = 0.5
    cases.append(("structure constant index", doc))
    doc = su2_doc()
    doc["algebra"]["center_dim"] = 0.9
    cases.append(("center_dim", doc))
    doc = su2_doc()
    doc["algebra"]["factors"][0]["dim"] = 3.5
    cases.append(("dim", doc))
    doc = su2_doc()
    doc["algebra"]["factors"][0]["dim"] = True
    cases.append(("dim", doc))
    for field, doc in cases:
        assert main(["compute", _write(tmp_path, doc)]) == 1, field
        err = capsys.readouterr().err
        assert "not a valid pair document" in err
        assert "%s must be an integer" % field in err, (field, err)


def _int_spellings(k):
    """Strings that int() reads as k but that are not [+-]?[0-9]+: digits
    with an underscore, padded with spaces, and in Arabic-Indic digits."""
    digits = str(k)
    return ["0_" + digits, " %s " % digits,
            "".join(chr(0x660 + int(d)) for d in digits)]


@pytest.mark.parametrize("field", ["dim", "center_dim",
                                   "structure constant index"])
def test_integer_fields_take_ascii_digit_strings_only(tmp_path, capsys,
                                                      field):
    # int() read each spelling as the value it stands for, so sphere:4
    # computed (exit 0) with dim "0_10" or an index " 0 "
    doc = catalog.emit("sphere:4")
    assert main(["compute", _write(tmp_path, doc)]) == 0
    capsys.readouterr()
    factor = doc["algebra"]["factors"][0]
    value = {"dim": factor["dim"], "center_dim": 0,
             "structure constant index": factor["structure_constants"][0][0]
             }[field]
    for text in _int_spellings(value):
        bad = json.loads(json.dumps(doc))
        if field == "dim":
            bad["algebra"]["factors"][0]["dim"] = text
        elif field == "center_dim":
            bad["algebra"]["center_dim"] = text
        else:
            bad["algebra"]["factors"][0]["structure_constants"][0][0] = text
        assert main(["compute", _write(tmp_path, bad)]) == 1, text
        err = capsys.readouterr().err
        assert "%s must be an integer" % field in err, (text, err)


def _su2_factor():
    return catalog.emit("su:2")["algebra"]["factors"][0]


# a factor of dim -2 used to pass every check but factors_simple (exit 2,
# witness ('x', 'commutant_dim', 4)); a negative center_dim failed later,
# on the basis rows or on structure constant indices (-3, -2); a negative
# factor dim with constants was reported as "bad local indices (0,1,2)"
NEGATIVE_DIMENSION_DOCS = {
    "factor_dim": ("dim of factor 'x'", {
        "algebra": {"center_dim": 5, "factors": [
            {"name": "x", "dim": -2, "structure_constants": []}]},
        "subalgebra": {"basis": []}}),
    "factor_dim_with_constants": ("dim of factor 'x'", {
        "algebra": {"center_dim": 0, "factors": [
            {"name": "x", "dim": -3,
             "structure_constants": [[0, 1, 2, "2"]]}]},
        "subalgebra": {"basis": []}}),
    "center_dim": ("center_dim", {
        "algebra": {"center_dim": -3, "factors": []},
        "subalgebra": {"basis": []}}),
    "center_dim_with_factor": ("center_dim", {
        "algebra": {"center_dim": -3, "factors": [_su2_factor()]},
        "subalgebra": {"basis": []}}),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_DIMENSION_DOCS))
def test_negative_dimensions_are_input_errors(tmp_path, capsys, case):
    field, doc = NEGATIVE_DIMENSION_DOCS[case]
    assert main(["compute", _write(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert "not a valid pair document" in captured.err
    assert "%s must be non-negative" % field in captured.err, captured.err
    assert "Traceback" not in captured.err + captured.out


def test_malformed_rationals_are_input_errors(tmp_path, capsys):
    # only "p" and "p/q" with q != 0 are rationals: "1/0" used to raise a
    # ZeroDivisionError traceback, and an exponent such as "1e-1000000"
    # made the elimination run for minutes
    cases = []
    doc = catalog.emit("sphere:4")
    doc["subalgebra"]["basis"][0][0] = "1/0"
    cases.append(("'1/0'", doc))
    doc = catalog.emit("su:2")
    doc["algebra"]["factors"][0]["structure_constants"][0][3] = "1/0"
    cases.append(("'1/0'", doc))
    doc = catalog.emit("sphere:4")
    doc["subalgebra"]["basis"][0][0] = "1e-1000000"
    cases.append(("'1e-1000000'", doc))
    doc = catalog.emit("sphere:4")
    doc["subalgebra"]["basis"][0][0] = "1.5"
    cases.append(("'1.5'", doc))
    for value, doc in cases:
        assert main(["compute", _write(tmp_path, doc)]) == 1, value
        err = capsys.readouterr().err
        assert "not a valid pair document" in err and value in err, err


def test_malformed_rationals_among_repeated_entries(tmp_path, capsys):
    # each reader parses a distinct string once and reuses its value: a
    # malformed string placed after hundreds of "0" entries (h) or "1" and
    # "-1" entries (the constants) still reaches the parser and is named
    for value in ("0.0", " 0 ", "1_0", "\u0663", "1/0"):
        sphere = catalog.emit("sphere:7")
        sphere["subalgebra"]["basis"][-1][-1] = value
        constants = catalog.emit("sphere:7")
        constants["algebra"]["factors"][0]["structure_constants"][-1][3] = \
            value
        generator = catalog.emit("example_4_7")
        generator["component_generators"][0][-1][-1] = value
        for doc in (sphere, constants, generator):
            path = _write(tmp_path, doc)
            assert main(["compute", path]) == 1, value
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.strip() == (
                "not a valid pair document (%s): not a rational p or p/q "
                "with q != 0: %r" % (path, value)), captured.err


def test_bools_where_rationals_belong_are_input_errors(tmp_path, capsys):
    # a JSON true or false used to be read as 1 or 0
    cases = []
    doc = catalog.emit("sphere:2")
    doc["subalgebra"]["basis"][0][0] = True
    cases.append(("True", doc))
    doc = catalog.emit("sphere:2")
    doc["algebra"]["factors"][0]["structure_constants"][0][3] = False
    cases.append(("False", doc))
    doc = catalog.emit("sphere:2")
    doc["component_generators"] = [[[True, 0, 0], [0, 1, 0], [0, 0, 1]]]
    cases.append(("True", doc))
    for value, doc in cases:
        assert main(["compute", _write(tmp_path, doc)]) == 1, value
        err = capsys.readouterr().err
        assert "not a valid pair document" in err and value in err, err
        assert "Traceback" not in err


def test_strings_where_arrays_belong_are_input_errors(tmp_path, capsys):
    # a string used to be read character by character: "100" as a basis
    # vector or a generator row was the vector [1, 0, 0], and "0121" as a
    # structure constant was [0, 1, 2, 1]
    cases = []
    doc = catalog.emit("sphere:2")
    doc["subalgebra"]["basis"] = ["100"]
    cases.append(("subalgebra basis vector must be an array", doc))
    doc = catalog.emit("sphere:2")
    doc["component_generators"] = [["100", "010", "001"]]
    cases.append(("generator row must be an array", doc))
    doc = catalog.emit("sphere:2")
    doc["component_generators"] = ["100"]
    cases.append(("generator must be an array", doc))
    doc = catalog.emit("sphere:2")
    doc["algebra"]["factors"][0]["structure_constants"][0] = "0121"
    cases.append(("structure constant must be an array", doc))
    doc = catalog.emit("sphere:2")
    doc["component_generators"] = [[]]
    cases.append(("generator must be 3 x 3", doc))
    # the list-level fields: null used to end in "'NoneType' object is not
    # iterable", and "abc" as the factors in "factor must be an object,
    # not 'a'"
    for path, message in ((("algebra", "factors"), "factors"),
                          (("algebra", "factors", 0, "structure_constants"),
                           "structure_constants"),
                          (("subalgebra", "basis"), "subalgebra basis"),
                          (("component_generators",),
                           "component_generators")):
        for value in (None, "abc"):
            doc = catalog.emit("sphere:2")
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            cases.append(("%s must be an array, not %r" % (message, value),
                          doc))
    for message, doc in cases:
        assert main(["compute", _write(tmp_path, doc)]) == 1, message
        err = capsys.readouterr().err
        assert "not a valid pair document" in err and message in err, err
        assert "Traceback" not in err


def test_strings_where_objects_belong_are_input_errors(tmp_path, capsys):
    # each used to end in AttributeError: 'str' object has no attribute 'get'
    cases = []
    doc = catalog.emit("sphere:2")
    doc["subalgebra"] = "x"
    cases.append(("subalgebra must be an object", doc))
    doc = catalog.emit("sphere:2")
    doc["algebra"] = "x"
    cases.append(("algebra must be an object", doc))
    # a document without an algebra used to end in the bare key 'algebra'
    cases.append(("algebra must be an object, not None",
                  {"subalgebra": {"basis": []}}))
    doc = catalog.emit("sphere:2")
    doc["algebra"]["factors"] = ["x"]
    cases.append(("factor must be an object", doc))
    # a document that is not an object used to end in "list indices must
    # be integers or slices, not str" or "'int' object is not subscriptable"
    for doc in ("[]", "5", '"x"', "null"):
        cases.append(("document must be an object, not %r" % json.loads(doc),
                      doc))
    for message, doc in cases:
        assert main(["compute", _write(tmp_path, doc)]) == 1, message
        err = capsys.readouterr().err
        assert "not a valid pair document" in err and message in err, err
        assert "Traceback" not in err


def test_jacobi_violation_reported_with_witness(tmp_path, capsys):
    path = _write(tmp_path, JACOBI_TYPO_DOC)
    code = main(["compute", path])
    assert code == 2
    out = capsys.readouterr().out
    assert "FAIL jacobi" in out
    assert "witness=(0, 1, 2)" in out


def test_invalid_algebra_rejected_by_pair_validation(tmp_path, capsys):
    pair = HomogeneousPair.from_dict(FUSED_FACTOR_DOC)
    try:
        betti_low(pair)
    except ValidationError as e:
        assert "factors_simple" in str(e)
    else:
        raise AssertionError("invalid algebra accepted")
    code = main(["compute", _write(tmp_path, FUSED_FACTOR_DOC)])
    assert code == 2
    out = capsys.readouterr().out
    assert "FAIL jacobi" in out and "FAIL factors_simple" in out


def test_jacobi_failing_algebras_report_only_the_closure_witness():
    # the Schur certificate and the invariant-form count both assume
    # Jacobi (the certificate would pass the fused factor), so when it
    # fails, the one simplicity report is a vector whose ideal closure is
    # smaller; the report already fails on jacobi
    for doc, jacobi, killing, simple in (
            (JACOBI_TYPO_DOC, (0, 1, 2), "su(2)", None),
            (FUSED_FACTOR_DOC, (0, 3, 4), None, ("su(2)+su(2)", 3))):
        rep = validate(HomogeneousPair.from_dict(doc).algebra)
        assert [(c["name"], c["ok"], c["witness"]) for c in rep.checks] == [
            ("center_brackets_vanish", True, None),
            ("cross_factor_brackets_vanish", True, None),
            ("factor_brackets_closed", True, None),
            ("jacobi", False, jacobi),
            ("killing_negative_definite_per_factor", killing is None,
             killing),
            ("factors_simple", simple is None, simple)]
        assert rep.warnings == []


def test_so4_declared_as_one_factor_is_rejected(tmp_path, capsys):
    # so(4) in its standard coordinates passes the Jacobi, Killing and
    # ideal-closure checks; read as one simple factor it would give b3 = 1,
    # while SO(4) is rationally S3 x S3 (b3 = 2)
    so4 = LieAlgebra.from_factor_constants(
        0, [("so(4)", 6, catalog._so_constants(4))])
    doc = {"algebra": so4.to_dict(), "subalgebra": {"basis": []}}
    try:
        betti_low(HomogeneousPair.from_dict(doc))
    except ValidationError as e:
        assert "factors_simple" in str(e)
    else:
        raise AssertionError("so(4) accepted as one simple factor")
    code = main(["compute", _write(tmp_path, doc)])
    assert code == 2
    out = capsys.readouterr().out
    assert "FAIL factors_simple" in out and "commutant_dim" in out


def test_usage_error_exits_1_and_help_exits_0(tmp_path, capsys):
    path = _emit(tmp_path, "sphere:2")
    assert main(["oracle", path, "--method", "ce", "--certify"]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "unrecognized arguments: --certify" in err
    assert main([]) == 1
    try:
        main(["--help"])
    except SystemExit as e:
        assert e.code == 0
    else:
        raise AssertionError("--help did not exit")


def test_non_closed_subalgebra_rejected(tmp_path, capsys):
    doc = catalog.emit("su:2")
    doc["subalgebra"]["basis"] = [["1", "0", "0"], ["0", "1", "0"]]
    path = _write(tmp_path, doc)
    code = main(["compute", path])
    assert code == 2
    assert "FAIL h_bracket_closed" in capsys.readouterr().out


def test_verify_example_4_7(tmp_path, capsys):
    code = main(["verify", _emit(tmp_path, "example_4_7"), "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "pass"
    assert out["agreement"] == {str(k): True for k in range(5)}
    assert set(out["methods"]) == {"formula", "koszul", "ce"}
    for m in out["methods"].values():
        assert m["betti"] == [1, 2, 1, 0, 0]
        assert m["elapsed"] >= 0


def test_verify_flag_su3_b4_everywhere(tmp_path, capsys):
    code = main(["verify", _emit(tmp_path, "flag_su3"), "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "pass"
    for m in out["methods"].values():
        assert m["betti"][4] - m["betti"][3] == 2


def test_verify_skip_ce(tmp_path, capsys):
    # --methods drops the cochain method; there is no --skip-ce flag
    doc = _emit(tmp_path, "su:4")
    code = main(["verify", doc, "--methods", "formula,koszul", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["methods"]) == {"formula", "koszul"}
    assert out["status"] == "pass"
    assert main(["verify", doc, "--skip-ce", "--json"]) == 1
    assert "unrecognized arguments: --skip-ce" in capsys.readouterr().err


def test_verify_notes_ce_over_cap(tmp_path, capsys):
    # su(4) has a 15-dimensional quotient, over the default cap of 14
    code = main(["verify", _emit(tmp_path, "su:4"), "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "pass"
    assert any("ce skipped" in note for note in out["notes"])
    assert set(out["methods"]) == {"formula", "koszul"}


def test_verify_method_subset(tmp_path, capsys):
    code = main(["verify", _emit(tmp_path, "sphere:3"),
                 "--methods", "formula,koszul", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["methods"]) == {"formula", "koszul"}
    for m in out["methods"].values():
        assert m["betti"] == [1, 0, 0, 1, 0]


def test_verify_unknown_method(tmp_path, capsys):
    path = _emit(tmp_path, "sphere:2")
    code = main(["verify", path, "--methods", "formula,nope"])
    assert code == 1
    assert "unknown method" in capsys.readouterr().err
    # an empty entry is named, not left as a blank after the colon
    for methods in ("formula,", "formula, ,ce"):
        assert main(["verify", path, "--methods", methods]) == 1, methods
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "unknown method(s): ''\n", methods


def test_verify_explicitly_empty_methods_is_a_usage_error(tmp_path, capsys):
    # --methods '' names one empty method, as --methods , names two; it
    # does not fall back to every method, which only an absent option does
    path = _emit(tmp_path, "sphere:2")
    for methods, named in (("", "''"), (",", "'', ''")):
        assert main(["verify", path, "--methods", methods]) == 1, methods
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "unknown method(s): %s\n" % named), methods
    assert main(["verify", path, "--json"]) == 0
    assert set(json.loads(capsys.readouterr().out)["methods"]) == {
        "formula", "koszul", "ce"}


def test_verify_checks_method_names_before_the_document(tmp_path, capsys,
                                                         monkeypatch):
    # an unknown or repeated name is a usage error naming it, also on a
    # document that fails validation (exit 2 once it is read), which is
    # then neither validated nor solved
    validated = []
    real = pairs.validate_pair
    monkeypatch.setattr(pairs, "validate_pair",
                        lambda pair: validated.append(pair) or real(pair))
    invalid = _write(tmp_path, JACOBI_TYPO_DOC)
    for methods, message in (("nope", "unknown method(s): nope"),
                             ("ce,nope,koszul", "unknown method(s): nope"),
                             ("ce,ce", "repeated method(s): ce"),
                             ("koszul,formula,ce,formula,koszul",
                              "repeated method(s): formula, koszul")):
        assert main(["verify", invalid, "--methods", methods]) == 1, methods
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message + "\n"), methods
        assert validated == [], methods
    assert main(["verify", invalid, "--methods", "ce,formula"]) == 2
    assert "FAIL jacobi" in capsys.readouterr().out
    assert len(validated) == 1
    # each method named once runs once
    path = _emit(tmp_path, "sphere:2")
    assert main(["verify", path, "--methods", "ce,formula", "--json"]) == 0
    assert list(json.loads(capsys.readouterr().out)["methods"]) == [
        "ce", "formula"]


def test_verify_table_output(tmp_path, capsys):
    code = main(["verify", _emit(tmp_path, "sphere:2")])
    assert code == 0
    out = capsys.readouterr().out
    assert "status: pass" in out
    assert "formula" in out and "koszul" in out and "ce" in out


def test_oracle_ce_explain(tmp_path, capsys):
    code = main(["oracle", _emit(tmp_path, "sphere:2"),
                 "--method", "ce", "--explain", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "ce"
    assert out["betti"] == [1, 0, 1]
    assert out["diagnostics"]["complex_dims"] == [1, 0, 1]
    assert out["diagnostics"]["ranks"] == [0, 0, 0]
    # the half-turn of so(2) negates both directions of g/h: 2 of the 4
    # wedge monomials are graded, shown under --explain only
    assert out["diagnostics"]["graded_monomials"] == [1, 0, 1]
    path = _emit(tmp_path, "sphere:2")
    assert main(["oracle", path, "--method", "ce", "--json"]) == 0
    assert "diagnostics" not in json.loads(capsys.readouterr().out)
    assert main(["verify", path, "--explain"]) == 0
    assert "   graded_monomials: [1, 0, 1]" in capsys.readouterr().out


def test_oracle_ce_over_cap_is_validation_error(tmp_path, capsys):
    code = main(["oracle", _emit(tmp_path, "su:4"), "--method", "ce"])
    assert code == 2
    assert capsys.readouterr().out.strip() == (
        "quotient dimension 15 exceeds the size cap 14; pass size_cap "
        "(--size-cap) to go further")


def test_verify_ce_alone_over_cap_is_validation_error(tmp_path, capsys):
    # with ce the only method and ce over the cap no method runs: verify
    # exits 2 with the cap message as oracle does, where it used to report
    # a disagreement in every degree and exit 3
    path = _emit(tmp_path, "sphere:4")
    message = ("quotient dimension 4 exceeds the size cap 3; pass size_cap "
               "(--size-cap) to go further")
    for extra in ([], ["--json"]):
        assert main(["verify", path, "--methods", "ce", "--size-cap", "3"]
                    + extra) == 2
        captured = capsys.readouterr()
        assert captured.out.strip() == message and captured.err == ""
    # beside another method, ce is skipped with a note and the run passes
    assert main(["verify", path, "--methods", "formula,ce",
                 "--size-cap", "3"]) == 0
    out = capsys.readouterr().out
    assert "note: ce skipped: " + message in out and "status: pass" in out


def test_oracle_ce_size_cap_flag(tmp_path, capsys):
    code = main(["oracle", _emit(tmp_path, "su:4"), "--method", "ce",
                 "--size-cap", "15", "--max-degree", "1", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["betti"] == [1, 0]


def test_oracle_koszul_honours_max_degree(tmp_path, capsys):
    # the Koszul vector is cut to degrees 0..min(k, 4), as ce cuts its own
    # (S^4 has q = 4, so both stop at degree 4)
    path = _emit(tmp_path, "sphere:4")
    for k, want in ((1, [1, 0]), (0, [1]), (9, [1, 0, 0, 0, 1])):
        for method in ("koszul", "ce"):
            assert main(["oracle", path, "--method", method,
                         "--max-degree", str(k), "--json"]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["betti"] == want, (method, k)
            assert out["intermediates"]["max_degree"] == min(k, 4)
    assert main(["oracle", path, "--method", "koszul", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["betti"] == [1, 0, 0, 0, 1]
    assert out["intermediates"]["max_degree"] == 4


def test_compute_has_no_size_cap_flag(tmp_path, capsys):
    # compute never runs the cochain method, so it takes no cap
    assert main(["compute", _emit(tmp_path, "sphere:2"), "--size-cap", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --size-cap 3" in captured.err


def test_negative_degree_and_cap_are_usage_errors(tmp_path, capsys):
    path = _emit(tmp_path, "sphere:2")
    for flag in ("--max-degree", "--size-cap"):
        assert main(["oracle", path, "--method", "ce", flag, "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("argument %s: must be a non-negative integer, not '-3'"
                % flag) in captured.err
    assert main(["verify", path, "--size-cap", "-1"]) == 1
    assert "argument --size-cap" in capsys.readouterr().err
    # zero is a valid degree: b0 alone
    assert main(["oracle", path, "--method", "ce", "--max-degree", "0"]) == 0
    assert "betti   [1]" in capsys.readouterr().out


def test_integers_follow_one_rule_on_the_command_line(tmp_path, capsys):
    # the rule of document fields, [+-]?[0-9]+ in ASCII digits: no other
    # digits, no padding, no underscores
    path = _emit(tmp_path, "sphere:2")
    for value in ("١", " 1 ", "1_0"):
        for flag in ("--max-degree", "--size-cap"):
            assert main(["oracle", path, "--method", "ce", flag, value]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert ("argument %s: must be a non-negative integer, not %r"
                    % (flag, value)) in captured.err
    for name in ("sphere:1_0", "sphere: 3", "sphere:٣"):
        assert main(["catalog", "emit", name]) == 1, name
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("sphere parameter n must be an integer, not %r"
                % name.partition(":")[2]) in captured.err


def test_internal_inconsistency_exits_4(tmp_path, capsys, monkeypatch):
    from liecoh import ce

    def corrupt(images, mon, index):
        raise RuntimeError("differential composite in degree 2 is nonzero; "
                           "cochain assembly is inconsistent")
    monkeypatch.setattr(ce, "_derivation_column", corrupt)
    code = main(["oracle", _emit(tmp_path, "sphere:2"), "--method", "ce"])
    assert code == 4
    captured = capsys.readouterr()
    assert "internal inconsistency: differential composite" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_oversized_algebra_is_input_error(tmp_path, capsys):
    doc = {"algebra": {"center_dim": 0,
                       "factors": [{"type": "su", "n": 1000000}]},
           "subalgebra": {"basis": []}}
    assert main(["compute", _write(tmp_path, doc)]) == 1
    assert "above the limit" in capsys.readouterr().err
    assert main(["catalog", "emit", "sphere:100000"]) == 1
    assert "above the limit" in capsys.readouterr().err


def test_oracle_koszul(tmp_path, capsys):
    code = main(["oracle", _emit(tmp_path, "stiefel:5:2"),
                 "--method", "koszul", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "koszul"
    assert out["betti"] == [1, 0, 0, 0, 0]


def test_catalog_list(capsys):
    code = main(["catalog", "list"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = [line.split()[0].split(":")[0] for line in lines]
    assert names == sorted(names)
    assert any(line.startswith("sphere") for line in lines)


def test_catalog_emit_unknown(capsys):
    code = main(["catalog", "emit", "nonsense:9"])
    assert code == 1
    assert "unknown catalog name" in capsys.readouterr().err


def test_catalog_emit_to_file(tmp_path):
    target = tmp_path / "out.json"
    code = main(["catalog", "emit", "sphere:2", "-o", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["algebra"]["factors"][0]["dim"] == 3


def test_catalog_emit_to_an_empty_path_is_a_write_error(capsys):
    # --output '' names a file that cannot be opened; it does not fall
    # back to standard output, which only an absent option does
    assert main(["catalog", "emit", "sphere:2", "--output", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot write : ")


def test_cli_subprocess_smoke(tmp_path, capsys):
    # the child imports the liecoh under test, installed or not; both
    # python -m liecoh.cli and python -m liecoh run the command line
    src = os.path.dirname(os.path.dirname(os.path.abspath(liecoh.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    pair = tmp_path / "pair.json"
    emit = subprocess.run(
        [sys.executable, "-m", "liecoh.cli", "catalog", "emit", "sphere:4",
         "-o", str(pair)],
        capture_output=True, text=True, env=env)
    assert emit.returncode == 0, emit.stderr
    listed = subprocess.run(
        [sys.executable, "-m", "liecoh", "catalog", "list"],
        capture_output=True, text=True, env=env)
    assert listed.returncode == 0, listed.stderr
    assert main(["catalog", "list"]) == 0
    assert listed.stdout == capsys.readouterr().out
    assert "sphere:" in listed.stdout
    run = subprocess.run(
        [sys.executable, "-m", "liecoh", "verify", str(pair), "--json"],
        capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["status"] == "pass"
    for m in out["methods"].values():
        assert m["betti"] == [1, 0, 0, 0, 1]


def test_closed_output_pipe_is_a_quiet_io_error(tmp_path):
    # `liecoh oracle ... | head -2` closes the pipe while liecoh still
    # writes: exit 1 (I/O) with nothing on stderr, not a traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(liecoh.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    os.close(read)          # the reader is gone before liecoh writes
    try:
        done = subprocess.run(
            [sys.executable, "-m", "liecoh.cli", "oracle",
             _emit(tmp_path, "flag_su3"), "--method", "ce", "--json"],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env,
            timeout=120)
    finally:
        os.close(write)
    assert done.returncode == 1, done.stderr
    assert done.stderr == ""


def _call(argv, capsys):
    """(exit code, stdout, stderr) of main(argv), elapsed times masked."""
    try:
        code = main(argv)
    except SystemExit as exc:       # --help
        code = exc.code
    out, err = capsys.readouterr()
    out = re.sub(r'"elapsed": [0-9.e-]+', '"elapsed": _', out)
    out = re.sub(r"[0-9]+\.[0-9]{3}s$", "_s", out, flags=re.M)
    return code, out, err


def test_main_called_repeatedly_matches_a_fresh_parser(tmp_path, capsys):
    # main builds its parser once per process; the calls after the first
    # must print and exit exactly as each would with a parser of its own
    path = _emit(tmp_path, "sphere:4")
    sequence = [["verify", path, "--json"], ["verify", path],
                ["oracle", path, "--method", "ce", "--max-degree", "2"],
                ["oracle", path, "--method", "ce"],
                ["verify", path, "--certify"], ["--help"],
                ["catalog", "emit", "sphere:2"], ["compute", path]]
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(_call(argv, capsys))
    cli._parser.cache_clear()
    repeated = [_call(argv, capsys) for argv in sequence]
    for argv, got, want in zip(sequence, repeated, fresh):
        assert got == want, argv
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 1, 0, 0, 0]
    assert "betti   [1, 0, 0]\n" in fresh[2][1]
    assert "betti   [1, 0, 0, 0, 1]\n" in fresh[3][1]
    assert "max_degree=4" in fresh[3][1]
    assert "unrecognized arguments: --certify" in fresh[4][2]
    assert fresh[5][1].startswith("usage: liecoh")
