"""Wire format parsing, report rendering, and the command-line interface."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from torusembed.docio import (
    build_inputs,
    normalize_problem,
    parse_problem,
    parse_rational,
    render_error,
    render_rational,
)
from torusembed.engine import DEFAULT_PRIME_BOUND
from torusembed.errors import InputDocumentError
from torusembed.oracle import make_element, trace_form

from helpers import P, run_cli

GOLDEN = Path(__file__).parent / "golden"


def quad_doc(d, entries, **options):
    doc = {
        "algebra": [{"type": "quad", "d": d}],
        "form": {"diagonal": list(entries)},
    }
    if options:
        doc["options"] = options
    return doc


def demo_doc(**options):
    doc = {
        "algebra": [
            {"type": "general", "f": [-2, 0, 1], "theta": [0, 1]},
            {"type": "general", "f": [-2, 0, 1], "theta": [2, 1]},
        ],
        "form": {"diagonal": [1, -1, 1, -1, 1, -1, -3, -3]},
        "options": {
            "annotations": [
                {"component": 0, "prime": 2, "status": "nonsplit"},
                {"component": 1, "prime": 2, "status": "split"},
            ]
        },
    }
    doc["options"].update(options)
    return doc


# ------------------------------------------------------------------ rationals


def test_parse_rational_accepts_ints_and_fraction_strings():
    assert parse_rational(7, "$") == Fraction(7)
    assert parse_rational(-3, "$") == Fraction(-3)
    assert parse_rational("3/6", "$") == Fraction(1, 2)
    assert parse_rational("-5", "$") == Fraction(-5)


@pytest.mark.parametrize(
    "value, fragment",
    [
        (True, "boolean"),
        (1.5, "got float"),
        (None, "got NoneType"),
        ("seven", "malformed rational string"),
        ("1/0", "malformed rational string"),
    ],
)
def test_parse_rational_rejections(value, fragment):
    with pytest.raises(InputDocumentError) as info:
        parse_rational(value, "$.x")
    assert info.value.path == "$.x"
    assert fragment in info.value.message


def test_render_rational_roundtrip():
    assert render_rational(Fraction(4)) == 4
    assert render_rational(Fraction(1, 2)) == "1/2"
    assert render_rational(Fraction(-9, 6)) == "-3/2"
    assert parse_rational(render_rational(Fraction(22, 7)), "$") == Fraction(22, 7)


# ---------------------------------------------------------- parse + normalize


def test_parse_problem_defaults():
    problem = parse_problem(quad_doc(-1, [1, 1]))
    assert problem.prime_bound == DEFAULT_PRIME_BOUND
    assert problem.oracle_height == 0
    assert problem.annotations == {}
    assert problem.diagonal == (Fraction(1), Fraction(1))
    assert problem.gram is None


def test_parse_problem_reads_options_and_annotations():
    problem = parse_problem(demo_doc(prime_bound=7, oracle_height=3))
    assert problem.prime_bound == 7
    assert problem.oracle_height == 3
    assert problem.annotations == {(0, 2): "nonsplit", (1, 2): "split"}


def test_normalize_problem_echo():
    doc = {
        "algebra": [
            {"type": "quad", "d": -1},
            {"type": "general", "f": [-2, 0, 1], "theta": ["1/2", 1]},
        ],
        "form": {"gram": [["1/2", 0, 0], [0, 1, 0], [0, 0, 1]]},
        "options": {
            "annotations": [{"component": 1, "prime": 2, "status": "split"}]
        },
    }
    echo = normalize_problem(parse_problem(doc))
    assert echo == {
        "algebra": [
            {"type": "quad", "d": -1},
            {"type": "general", "f": [-2, 0, 1], "theta": ["1/2", 1]},
        ],
        "form": {"gram": [["1/2", 0, 0], [0, 1, 0], [0, 0, 1]]},
        "options": {
            "prime_bound": DEFAULT_PRIME_BOUND,
            "oracle_height": 0,
            "annotations": [{"component": 1, "prime": 2, "status": "split"}],
        },
    }


def test_normalize_problem_sorts_annotations():
    doc = demo_doc()
    doc["options"]["annotations"].reverse()
    echo = normalize_problem(parse_problem(doc))
    assert [a["component"] for a in echo["options"]["annotations"]] == [0, 1]


# ------------------------------------------------------------- error pathing


SYNTAX_ERRORS = [
    (42, "$", "expected an object"),
    ({"form": {"diagonal": [1]}}, "$", "missing required key 'algebra'"),
    ({"algebra": [{"type": "quad", "d": -1}]}, "$", "missing required key 'form'"),
    (
        {"algebra": [], "form": {"diagonal": [1]}, "extra": 1},
        "$",
        "unknown key(s): extra",
    ),
    ({"algebra": "x", "form": {"diagonal": [1]}}, "$.algebra", "expected an array"),
    ({"algebra": [], "form": {"diagonal": [1]}}, "$.algebra", "at least one"),
    (
        {"algebra": [7], "form": {"diagonal": [1]}},
        "$.algebra[0]",
        "expected an object",
    ),
    (
        {"algebra": [{"type": "cubic"}], "form": {"diagonal": [1]}},
        "$.algebra[0].type",
        "component type must be 'quad' or 'general'",
    ),
    (
        {"algebra": [{"type": "quad"}], "form": {"diagonal": [1]}},
        "$.algebra[0]",
        "needs field 'd'",
    ),
    (
        {"algebra": [{"type": "quad", "d": True}], "form": {"diagonal": [1]}},
        "$.algebra[0].d",
        "expected an integer",
    ),
    (
        {"algebra": [{"type": "general", "f": [-2, 0, 1]}], "form": {"diagonal": [1]}},
        "$.algebra[0]",
        "needs field 'theta'",
    ),
    (
        {
            "algebra": [{"type": "general", "f": [], "theta": [0, 1]}],
            "form": {"diagonal": [1]},
        },
        "$.algebra[0].f",
        "at least one coefficient",
    ),
    (
        {
            "algebra": [{"type": "general", "f": [-2, 0.5, 1], "theta": [0, 1]}],
            "form": {"diagonal": [1]},
        },
        "$.algebra[0].f[1]",
        "got float",
    ),
    (
        {
            "algebra": [{"type": "quad", "d": -1}],
            "form": {"diagonal": [1, 1], "gram": [[1]]},
        },
        "$.form",
        "exactly one of 'diagonal' or 'gram'",
    ),
    ({"algebra": [{"type": "quad", "d": -1}], "form": {}}, "$.form", "exactly one"),
    (
        {"algebra": [{"type": "quad", "d": -1}], "form": {"diagonal": []}},
        "$.form.diagonal",
        "nonempty",
    ),
    (
        {"algebra": [{"type": "quad", "d": -1}], "form": {"gram": [[1, 0], [0]]}},
        "$.form.gram[1]",
        "square",
    ),
    (quad_doc(-1, [1, 1], prime_bound=1), "$.options.prime_bound", "at least 2"),
    (
        quad_doc(-1, [1, 1], oracle_height=-1),
        "$.options.oracle_height",
        "nonnegative",
    ),
    (quad_doc(-1, [1, 1], retries=2), "$.options", "unknown key(s): retries"),
    (
        quad_doc(-1, [1, 1], annotations=[{"component": 0, "prime": 2}]),
        "$.options.annotations[0]",
        "needs field 'status'",
    ),
    (
        quad_doc(
            -1, [1, 1], annotations=[{"component": 3, "prime": 2, "status": "split"}]
        ),
        "$.options.annotations[0].component",
        "out of range",
    ),
    (
        quad_doc(
            -1, [1, 1], annotations=[{"component": 0, "prime": 1, "status": "split"}]
        ),
        "$.options.annotations[0].prime",
        "at least 2",
    ),
    (
        quad_doc(
            -1, [1, 1], annotations=[{"component": 0, "prime": 2, "status": "ok"}]
        ),
        "$.options.annotations[0].status",
        "'split' or 'nonsplit'",
    ),
]


@pytest.mark.parametrize("doc, path, fragment", SYNTAX_ERRORS)
def test_parse_problem_error_paths(doc, path, fragment):
    with pytest.raises(InputDocumentError) as info:
        parse_problem(doc)
    assert info.value.path == path
    assert fragment in info.value.message


def test_parse_problem_duplicate_annotation():
    ann = [
        {"component": 0, "prime": 2, "status": "split"},
        {"component": 0, "prime": 2, "status": "nonsplit"},
    ]
    doc = {
        "algebra": [{"type": "general", "f": [-2, 0, 1], "theta": [0, 1]}],
        "form": {"diagonal": [1, 1, 1, 1]},
        "options": {"annotations": ann},
    }
    with pytest.raises(InputDocumentError) as info:
        parse_problem(doc)
    assert info.value.path == "$.options.annotations[1]"
    assert "duplicate" in info.value.message


SEMANTIC_ERRORS = [
    (quad_doc(1, [1, 1]), "$.algebra[0]", "does not define a quadratic field"),
    (quad_doc(12, [1, 1]), "$.algebra[0]", "squarefree"),
    (
        {
            "algebra": [{"type": "general", "f": [-4, 0, 1], "theta": [0, 1]}],
            "form": {"diagonal": [1, 1, 1, 1]},
        },
        "$.algebra[0]",
        "f is reducible",
    ),
    (
        {
            "algebra": [{"type": "general", "f": [-2, 0, 1], "theta": [0, 0, 1]}],
            "form": {"diagonal": [1, 1, 1, 1]},
        },
        "$.algebra[0]",
        "does not generate a field",
    ),
    (
        quad_doc(
            -1, [1, 1], annotations=[{"component": 0, "prime": 2, "status": "split"}]
        ),
        "$.options.annotations",
        "decided exactly",
    ),
    (
        {
            "algebra": [{"type": "quad", "d": -1}],
            "form": {"gram": [[1, 2], [2, 4]]},
        },
        "$.form",
        "degenerate form",
    ),
    (
        {
            "algebra": [{"type": "quad", "d": -1}],
            "form": {"gram": [[1, 2], [0, 1]]},
        },
        "$.form",
        "symmetric",
    ),
    (quad_doc(-1, [1, 0]), "$.form", "degenerate form"),
    (quad_doc(-1, [1, 1, 1]), "$.form", "does not match algebra rank"),
]


@pytest.mark.parametrize("doc, path, fragment", SEMANTIC_ERRORS)
def test_build_inputs_error_paths(doc, path, fragment):
    problem = parse_problem(doc)
    with pytest.raises(InputDocumentError) as info:
        build_inputs(problem)
    assert info.value.path == path
    assert fragment in info.value.message


def test_render_error_shape():
    doc = render_error(InputDocumentError("$.form", "boom"))
    assert doc == {"error": {"path": "$.form", "message": "boom"}}


# ------------------------------------------------------------ report schemas


def write_doc(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_decision_report_schema(tmp_path):
    path = write_doc(tmp_path, demo_doc(oracle_height=2))
    code, out, err = run_cli(["decide", path, "--json"])
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert list(report) == [
        "tool",
        "input",
        "verdict",
        "bound",
        "local",
        "bad_places",
        "baseline",
        "parity",
        "graph",
        "fast_path",
        "needed_annotations",
        "notes",
        "invariants",
        "oracle",
    ]
    assert report["tool"]["name"] == "torusembed"
    assert report["verdict"] == "realizable"
    assert report["bound"] == DEFAULT_PRIME_BOUND
    assert report["local"] == {
        "disc_ok": True,
        "hyperbolicity_ok": True,
        "signature_ok": True,
        "failing_place": None,
        "failing_condition": None,
        "pending_annotations": [],
    }
    assert report["bad_places"] == [2, 3, "infinity"]
    assert report["baseline"] == {
        "finite": [
            {"place": 2, "bits": [0, 1]},
            {"place": 3, "bits": [0, 1]},
        ],
        "infinity": {"signatures": [[1, 3], [2, 2]], "bits": [1, 1]},
    }
    assert report["parity"] == [1, 1]
    assert report["graph"]["vertex_count"] == 2
    assert report["graph"]["edges"] == [{"i": 0, "j": 1, "witness": 5}]
    assert report["graph"]["unresolved_pairs"] == []
    assert report["fast_path"] == {"star": 0}
    assert report["needed_annotations"] == []
    assert report["input"]["options"]["annotations"] == [
        {"component": 0, "prime": 2, "status": "nonsplit"},
        {"component": 1, "prime": 2, "status": "split"},
    ]
    inv = report["invariants"]
    assert inv["form"]["dim"] == 8 and inv["form"]["signature"] == [3, 5]
    assert inv["algebra"]["rank"] == 8 and inv["algebra"]["cm"] is False
    assert len(inv["algebra"]["components"]) == 2
    oracle = report["oracle"]
    assert oracle["height"] == 2 and oracle["found"] is False
    assert oracle["element"] is None and oracle["trace_form"] is None


def test_star_fast_path_rendering(tmp_path):
    path = write_doc(tmp_path, quad_doc(5, [2, -10]))
    code, out, _ = run_cli(["decide", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["fast_path"] == {"star": 0}


def test_oracle_report_includes_found_element(tmp_path):
    path = write_doc(tmp_path, quad_doc(-1, [1, 1]))
    code, out, err = run_cli(["oracle", path, "--height", "2", "--json"])
    assert code == 0
    report = json.loads(out)
    assert list(report) == ["tool", "input", "oracle", "invariants"]
    oracle = report["oracle"]
    assert oracle["found"] is True
    assert oracle["element"] == [[1]] or oracle["element"] == [[-1]]
    assert oracle["trace_form"]["gram"] == [[2, 0], [0, 2]]
    assert oracle["trace_form"]["diagonal"] == [2, 2]


def test_local_report_schema(tmp_path):
    path = write_doc(tmp_path, quad_doc(-1, [1, -1]))
    code, out, err = run_cli(["local", path])
    assert code == 1
    report = json.loads(out)
    assert list(report) == ["tool", "input", "local", "invariants"]
    assert report["local"]["signature_ok"] is False
    assert report["local"]["failing_place"] == "infinity"
    assert report["local"]["failing_condition"] == "signature"
    assert "local checks: fail (signature at inf)" in err


def test_invariants_report(tmp_path):
    path = write_doc(tmp_path, quad_doc(-1, [1, 1]))
    code, out, err = run_cli(["invariants", path])
    assert code == 0
    report = json.loads(out)
    assert list(report) == ["tool", "input", "invariants"]
    assert report["invariants"]["form"]["det"] == 1
    assert report["invariants"]["form"]["disc"] == -1
    assert report["invariants"]["algebra"]["disc"] == -1
    assert "form: dim 2" in err


# ------------------------------------------------------------------ CLI modes


def test_cli_exit_codes(tmp_path):
    realizable = write_doc(tmp_path, quad_doc(-1, [1, 1]), "a.json")
    assert run_cli(["decide", realizable, "--quiet"])[0] == 0

    fails = write_doc(tmp_path, quad_doc(-1, [1, -1]), "b.json")
    assert run_cli(["decide", fails, "--quiet"])[0] == 1

    demo = write_doc(tmp_path, demo_doc(), "c.json")
    assert run_cli(["decide", demo, "--quiet", "--bound", "3"])[0] == 2

    pending = write_doc(
        tmp_path,
        {
            "algebra": [{"type": "general", "f": [-2, 0, 1], "theta": [0, 1]}],
            "form": {"diagonal": [1, 1, 1, -2]},
        },
        "d.json",
    )
    assert run_cli(["decide", pending, "--quiet"])[0] == 3

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, _ = run_cli(["decide", str(bad), "--quiet"])
    assert code == 4
    assert "error" in json.loads(out)

    assert run_cli(["decide", str(tmp_path / "missing.json"), "--quiet"])[0] == 4


def test_cli_rejects_bad_flag_overrides(tmp_path):
    path = write_doc(tmp_path, quad_doc(-1, [1, 1]))
    code, out, _ = run_cli(["decide", path, "--quiet", "--bound", "1"])
    assert code == 4
    assert json.loads(out)["error"]["path"] == "$.options.prime_bound"

    code, out, _ = run_cli(["decide", path, "--quiet", "--height", "-2"])
    assert code == 4
    assert json.loads(out)["error"]["path"] == "$.options.oracle_height"


def test_cli_oracle_requires_height(tmp_path):
    path = write_doc(tmp_path, quad_doc(-1, [1, 1]))
    code, out, _ = run_cli(["oracle", path, "--quiet"])
    assert code == 4
    assert json.loads(out)["error"]["path"] == "$.options.oracle_height"

    code, _, _ = run_cli(["oracle", path, "--height", "1", "--quiet"])
    assert code == 0
    miss = write_doc(tmp_path, quad_doc(-1, [1, -1]), "m.json")
    assert run_cli(["oracle", miss, "--height", "2", "--quiet"])[0] == 1


def test_cli_reads_stdin_by_default():
    text = json.dumps(quad_doc(-1, [1, 1]))
    code, out, _ = run_cli(["decide", "--json"], stdin_text=text)
    assert code == 0
    assert json.loads(out)["verdict"] == "realizable"
    code2, out2, _ = run_cli(["decide", "-", "--json"], stdin_text=text)
    assert code2 == 0
    assert out2 == out


def test_cli_batch_runs_every_document(tmp_path):
    batch = [
        quad_doc(-1, [1, 1]),
        {"algebra": [{"type": "quad", "d": -1}]},  # missing form
        quad_doc(-1, [1, -1]),
    ]
    path = write_doc(tmp_path, batch, "batch.json")
    code, out, err = run_cli(["decide", path])
    assert code == 4  # the maximum of 0, 4, 1
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 3
    assert payload[0]["verdict"] == "realizable"
    assert payload[1] == {
        "error": {"path": "$", "message": "missing required key 'form'"}
    }
    assert payload[2]["verdict"] == "locally_fails"
    assert "[0] verdict: realizable" in err
    assert "[1] error: $: missing required key 'form'" in err
    assert "[2] verdict: locally_fails" in err


def test_cli_empty_batch_prints_empty_list():
    code, out, err = run_cli(["decide"], stdin_text="[]")
    assert code == 0
    assert json.loads(out) == []
    assert "Traceback" not in err


def test_cli_overlong_integer_literal_is_an_input_error():
    text = '{"algebra": [{"type": "quad", "d": ' + "7" * 5000 + "}]}"
    code, out, _ = run_cli(["decide", "--json"], stdin_text=text)
    assert code == 4
    assert json.loads(out)["error"] == {
        "path": "$",
        "message": "invalid JSON: integer literal too long",
    }


def test_cli_deep_nesting_is_an_input_error():
    code, out, _ = run_cli(["decide", "--json"], stdin_text="[" * 100_000)
    assert code == 4
    assert json.loads(out)["error"] == {
        "path": "$",
        "message": "invalid JSON: nesting too deep",
    }


def test_cli_audit_failure_keeps_the_other_reports(tmp_path):
    # Golden 08's annotation "theta = y + 2 splits at 2" is false, so its
    # realizing element alpha = (-1 - x^2, -1 - x^2), found at height 1,
    # contradicts the engine's verdict: an audit failure in document 1.
    first = json.loads((GOLDEN / "01-gaussian-sum-of-squares.input.json").read_text())
    second = json.loads((GOLDEN / "08-pair-bound-too-low.input.json").read_text())
    algebra, _ = build_inputs(parse_problem(second))
    alpha = make_element(algebra, [P(-1, 0, -1)] * 2)
    gram = trace_form(algebra, alpha).gram
    second["form"] = {"gram": [[render_rational(x) for x in row] for row in gram]}
    second["options"]["oracle_height"] = 1
    path = write_doc(tmp_path, [first, second])
    code, out, err = run_cli(["decide", path, "--json"])
    assert code == 70
    assert err == ""
    reports = json.loads(out)
    assert len(reports) == 2
    golden = json.loads((GOLDEN / "01-gaussian-sum-of-squares.report.json").read_text())
    assert reports[0] == golden
    assert reports[1]["error"]["path"] == "$"
    assert reports[1]["error"]["message"].startswith("internal audit failure: ")
    code, out, _ = run_cli(["decide", write_doc(tmp_path, second, "one.json")])
    assert code == 70
    assert json.loads(out) == reports[1]


def test_cli_stderr_summary_modes(tmp_path):
    path = write_doc(tmp_path, quad_doc(-1, [1, 1]))
    _, _, chatty = run_cli(["decide", path])
    assert "verdict: realizable (fast path: cm)" in chatty
    assert "elapsed:" in chatty and "ms" in chatty
    assert run_cli(["decide", path, "--json"])[2] == ""
    assert run_cli(["decide", path, "--quiet"])[2] == ""


def test_cli_stdout_is_deterministic(tmp_path):
    path = write_doc(tmp_path, demo_doc(oracle_height=2))
    first = run_cli(["decide", path, "--json"])
    second = run_cli(["decide", path, "--json"])
    assert first == second


def test_cli_selftest_passes():
    code, out, _ = run_cli(["selftest"])
    assert code == 0
    assert "suites passed" in out
    assert out.count("ok - ") >= 7


def test_cli_selftest_quiet():
    code, out, _ = run_cli(["selftest", "--quiet"])
    assert code == 0
    assert out == ""
