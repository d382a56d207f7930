"""Wire format parsing, report rendering, and the command-line interface."""

import json
import os
import subprocess
import sys
from collections import Counter
from enum import IntEnum
from functools import cache
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusembed import cli, docio, etale
from torusembed.docio import (
    MAX_PRIME_BOUND,
    build_inputs,
    dump_json,
    normalize_problem,
    parse_problem,
    parse_rational,
    render_error,
    render_rational,
)
from torusembed.engine import DEFAULT_PRIME_BOUND
from torusembed.errors import AuditError, InputDocumentError
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
        ("1e5", "malformed rational string"),
        ("1.5", "malformed rational string"),
        (" 7", "malformed rational string"),
        ("+3", "malformed rational string"),
        ("\u0663", "malformed rational string"),
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
    (
        quad_doc(-1, [1, 1], prime_bound=100_001),
        "$.options.prime_bound",
        "at most 100000",
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


def test_build_inputs_builds_each_component_once(monkeypatch):
    # Valid components with a bad annotation, and a bad second component:
    # the error's path comes from the one build of each spec.
    calls = []

    def counting(spec, build=etale.build_component):
        calls.append(spec)
        return build(spec)

    for module in (etale, docio):
        monkeypatch.setattr(module, "build_component", counting)
    quartic = {"type": "general", "f": [-2, 0, 1], "theta": [0, 1]}
    split_at_2 = {"component": 0, "prime": 2, "status": "split"}
    cases = [
        (
            {
                "algebra": [{"type": "quad", "d": -1}, quartic],
                "form": {"diagonal": [1] * 6},
                "options": {"annotations": [split_at_2]},
            },
            "$.options.annotations",
        ),
        (
            {
                "algebra": [quartic, {"type": "quad", "d": 12}],
                "form": {"diagonal": [1] * 6},
            },
            "$.algebra[1]",
        ),
    ]
    for doc, path in cases:
        calls.clear()
        problem = parse_problem(doc)
        with pytest.raises(InputDocumentError) as info:
            build_inputs(problem)
        assert info.value.path == path
        assert calls == list(problem.component_specs)


def test_render_error_shape():
    doc = render_error(InputDocumentError("$.form", "boom"))
    assert doc == {"error": {"path": "$.form", "message": "boom"}}



# ----------------------------------------------------------------- the writer

_TEXT = st.lists(
    st.one_of(
        st.characters(),
        st.sampled_from(
            ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "\udfff"]
        ),
    ),
    max_size=8,
).map("".join)
_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(min_value=2**64),
        st.integers(max_value=-(2**64)),
        _TEXT,
    ),
    lambda kids: st.one_of(
        st.lists(kids),
        st.lists(kids).map(tuple),
        st.dictionaries(_TEXT, kids),
    ),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(_JSON_VALUES)
def test_dump_json_matches_indented_json_dumps(value):
    assert dump_json(value) == json.dumps(value, indent=2)


def test_dump_json_matches_on_reports_and_errors():
    reports = [
        json.loads(path.read_text()) for path in sorted(GOLDEN.glob("*.report.json"))
    ]
    errors = [
        render_error(InputDocumentError("$.algebra[0].f", "f must be monic")),
        render_error(AuditError('the verdict is "realizable" \u00e9')),
    ]
    batch = reports[:2] + errors[:1] + reports[2:] + errors[1:]
    for value in reports + errors + [batch, []]:
        assert dump_json(value) == json.dumps(value, indent=2)


class _Small(IntEnum):
    ONE = 1


@pytest.mark.parametrize(
    "value",
    [Fraction(1, 2), {1, 2}, 1.5, _Small.ONE, {1: "a"}, [1, [Fraction(1)]], {"a": {2}}],
)
def test_dump_json_rejects_what_no_report_holds(value):
    with pytest.raises(TypeError):
        dump_json(value)


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


def test_prime_bound_is_capped(tmp_path):
    # The witness walk visits every prime up to the bound, so a larger bound
    # is an input error, whether the document or --bound sets it.
    doc = quad_doc(-1, [1, 1], prime_bound=MAX_PRIME_BOUND)
    assert parse_problem(doc).prime_bound == MAX_PRIME_BOUND
    path = write_doc(tmp_path, doc)
    assert run_cli(["decide", path, "--quiet"])[0] == 0
    for bound in (MAX_PRIME_BOUND + 1, 10**6):
        code, out, _ = run_cli(["decide", path, "--quiet", "--bound", str(bound)])
        assert code == 4
        assert json.loads(out)["error"]["path"] == "$.options.prime_bound"
    capped = write_doc(tmp_path, quad_doc(-1, [1, 1], prime_bound=10**6), "big.json")
    for command in ("decide", "local", "invariants"):
        code, out, _ = run_cli([command, capped, "--json"])
        assert code == 4, command
        assert json.loads(out)["error"]["path"] == "$.options.prime_bound"
    assert run_cli(["decide", capped, "--quiet", "--bound", "1000"])[0] == 4


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


def _two_quad_run(tmp_path, command, height, from_flag):
    # Q(i) x Q(sqrt 5) at height H has (2H)^2 candidates.
    doc = {
        "algebra": [{"type": "quad", "d": -1}, {"type": "quad", "d": 5}],
        "form": {"diagonal": [2, 2, 2, -10]},
    }
    argv = [command, "--quiet"]
    if from_flag:
        argv += ["--height", str(height)]
    else:
        doc["options"] = {"oracle_height": height}
    code, out, _ = run_cli(argv + [write_doc(tmp_path, doc)])
    return code, json.loads(out)


@pytest.mark.parametrize("from_flag", [False, True])
@pytest.mark.parametrize("command", ["decide", "oracle"])
def test_cli_oracle_candidate_cap(tmp_path, monkeypatch, command, from_flag):
    monkeypatch.setattr(cli, "MAX_ORACLE_CANDIDATES", 16 + 1)
    code, report = _two_quad_run(tmp_path, command, 2, from_flag)
    assert code == 0 and report["oracle"]["found"] is True
    monkeypatch.setattr(cli, "MAX_ORACLE_CANDIDATES", 16 - 1)
    code, report = _two_quad_run(tmp_path, command, 2, from_flag)
    assert code == 4
    assert report["error"]["path"] == "$.options.oracle_height"
    assert "16 candidates exceeds the limit of 15" in report["error"]["message"]


def test_cli_oracle_candidate_cap_default(tmp_path):
    assert cli.MAX_ORACLE_CANDIDATES == 10_000
    code, report = _two_quad_run(tmp_path, "decide", 50, False)  # 100^2 = cap
    assert code == 0 and report["oracle"]["found"] is True
    code, report = _two_quad_run(tmp_path, "oracle", 51, True)  # 102^2
    assert code == 4
    assert report["error"]["path"] == "$.options.oracle_height"


def test_cli_local_and_invariants_ignore_the_oracle_height(tmp_path):
    # Only decide and oracle search, so only they check the search's cost.
    for command in ("local", "invariants"):
        code, report = _two_quad_run(tmp_path, command, 51, False)  # 102^2
        assert code == 0 and "error" not in report


def test_invariants_report_factors_a_strong_pseudoprime(tmp_path):
    # 3317044064679887385961981 = 1287836182261 * 2575672364521 passes
    # Miller-Rabin to every base up to 37; taken for a prime, it would be a
    # place of the Hasse support itself.
    n = 3317044064679887385961981
    doc = {"algebra": [{"type": "quad", "d": -1}], "form": {"diagonal": [n, 7]}}
    code, out, _ = run_cli(["invariants", write_doc(tmp_path, doc), "--json"])
    assert code == 0
    assert json.loads(out)["invariants"]["form"]["hasse_support"] == [7, 1287836182261]


def test_cli_reads_stdin_by_default():
    text = json.dumps(quad_doc(-1, [1, 1]))
    code, out, _ = run_cli(["decide", "--json"], stdin_text=text)
    assert code == 0
    assert json.loads(out)["verdict"] == "realizable"
    code2, out2, _ = run_cli(["decide", "-", "--json"], stdin_text=text)
    assert code2 == 0
    assert out2 == out


@pytest.mark.parametrize("command", ["decide", "local", "invariants", "oracle"])
def test_cli_input_that_is_not_utf8_is_an_error_object(command, tmp_path):
    # A UTF-16 byte-order mark, and a bad byte after a valid prefix, from a
    # file and from standard input: exit 4 with an error object at $.  A
    # non-ASCII string in valid UTF-8 still reaches the parser.
    for data, offset in ((b"\xff\xfe{}", 0), (b'{"algebra": \xc3(}', 12)):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        for argv, stdin in (([str(path)], None), (["-"], data)):
            code, out, err = run_cli([command, *argv], stdin_text=stdin)
            assert code == 4, (data, argv)
            assert json.loads(out) == {
                "error": {"path": "$", "message": f"input is not UTF-8 (byte {offset})"}
            }
            assert err == f"error: $: input is not UTF-8 (byte {offset})\n"
    doc = json.dumps(quad_doc(-1, [1, 1]))[:-1] + ', "n\u00f6te": 1}'
    code, out, _ = run_cli([command, "-", "--json"], stdin_text=doc.encode("utf-8"))
    assert code == 4
    assert json.loads(out) == {"error": {"path": "$", "message": "unknown key(s): n\u00f6te"}}


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


@pytest.mark.parametrize(
    "argv",
    [["decide", "doc.json", "--bound", "abc"], ["decide", "--frobnicate"], ["frob"], []],
    ids=["bad-value", "unknown-flag", "unknown-command", "no-command"],
)
def test_cli_usage_errors_exit_64(argv, capsys):
    # Exit 2 is the not_realizable_up_to_bound verdict, so a usage error
    # exits 64 (EX_USAGE) instead.
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: torusembed") and "error: " in err


def test_cli_help_still_exits_0(capsys):
    for argv in (["--help"], ["decide", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage: torusembed" in capsys.readouterr().out


def _huge_h(theta):
    return {
        "algebra": [{"type": "general", "f": [-2, 0, 1], "theta": [0, theta]}],
        "form": {"diagonal": [1, 1, 1, 1]},
        "options": {"oracle_height": 1},
    }


# f = y^2 - 2 and theta = 2^13290 * y: h = x^4 - 2^26581 has a coefficient of
# 8,002 digits, above the interpreter's digit limit for int -> str.  With
# theta = y / 2^13290 that coefficient is a denominator.
_HUGE_H = _huge_h(2**13290)


@pytest.mark.parametrize("theta", [2**13290, f"1/{2**13290}"], ids=["int", "fraction"])
@pytest.mark.parametrize("command", ["invariants", "decide", "oracle"])
def test_cli_report_integer_past_the_digit_limit_is_an_error(tmp_path, command, theta):
    assert len(str(2**13290)) < sys.get_int_max_str_digits() < 8_002
    code, out, err = run_cli([command, write_doc(tmp_path, _huge_h(theta))])
    assert code == 4
    error = json.loads(out)["error"]
    assert error["path"] == "$"
    assert "digits" in error["message"]
    assert f"error: $: {error['message']}" in err
    assert "Traceback" not in err


def test_cli_batch_keeps_the_bytes_of_a_report_beside_a_digit_limit_error(tmp_path):
    first = json.loads((GOLDEN / "01-gaussian-sum-of-squares.input.json").read_text())
    golden = (GOLDEN / "01-gaussian-sum-of-squares.report.json").read_text()
    code, out, _ = run_cli(["decide", write_doc(tmp_path, [first, _HUGE_H]), "--json"])
    assert code == 4
    reports = json.loads(out)
    assert reports[1]["error"]["path"] == "$"
    assert out == dump_json([json.loads(golden), reports[1]]) + "\n"
    assert out.startswith("[\n  " + golden.rstrip("\n").replace("\n", "\n  ") + ",\n")


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


_PENDING = {
    "algebra": [{"type": "general", "f": [-2, 0, 1], "theta": [0, 1]}],
    "form": {"diagonal": [1, 1, 1, -2]},
}


@pytest.mark.parametrize(
    "doc, argv, code, lines",
    [
        (
            quad_doc(-1, [1, 1]),
            ["decide"],
            0,
            ["verdict: realizable (fast path: cm)"],
        ),
        (
            quad_doc(-1, [1, -1]),
            ["decide"],
            1,
            ["verdict: locally_fails (signature condition at inf)"],
        ),
        (
            quad_doc(-1, [1, 2]),
            ["decide"],
            1,
            ["verdict: locally_fails (disc condition)"],
        ),
        (
            _PENDING,
            ["decide"],
            3,
            ["verdict: inconclusive; annotations needed: (component 0, prime 2)"],
        ),
        (
            demo_doc(),
            ["decide", "--bound", "3"],
            2,
            ["verdict: not_realizable_up_to_bound (bound 3)"],
        ),
        (
            quad_doc(5, [2, -10]),
            ["decide", "--height", "1"],
            0,
            [
                "verdict: realizable (fast path: star)",
                "oracle: realizing element found (height 1)",
            ],
        ),
        (
            quad_doc(5, [1, -5]),
            ["decide", "--height", "1"],
            0,
            [
                "verdict: realizable (fast path: star)",
                "oracle: no element found up to height 1",
            ],
        ),
        (
            _PENDING,
            ["decide", "--height", "1"],
            70,
            [
                "internal audit failure: the element search found a realizing "
                "element but the engine verdict is inconclusive"
            ],
        ),
        (
            quad_doc(-1, [1, 1]),
            ["decide", "--bound", "1"],
            4,
            ["error: $.options.prime_bound: prime_bound must be at least 2"],
        ),
        (
            quad_doc(5, [2, -10]),
            ["oracle", "--height", "1"],
            0,
            ["oracle: realizing element found (height 1)"],
        ),
        (
            quad_doc(5, [1, -5]),
            ["oracle", "--height", "1"],
            1,
            ["oracle: no element found up to height 1"],
        ),
        (
            quad_doc(-1, [1, 1]),
            ["oracle"],
            4,
            [
                "error: $.options.oracle_height: oracle search needs a positive "
                "height (set --height or oracle_height)"
            ],
        ),
        (
            quad_doc(-1, [1, 1]),
            ["oracle", "--height", "-2"],
            4,
            [
                "error: $.options.oracle_height: oracle search needs a positive "
                "height (set --height or oracle_height)"
            ],
        ),
        (quad_doc(-1, [1, 1]), ["local"], 0, ["local checks: pass"]),
        (quad_doc(-1, [1, -1]), ["local"], 1, ["local checks: fail (signature at inf)"]),
        (quad_doc(-1, [1, 2]), ["local"], 1, ["local checks: fail (disc)"]),
        (
            _PENDING,
            ["local"],
            3,
            ["local checks: indeterminate; annotations needed: (component 0, prime 2)"],
        ),
        (
            demo_doc(),
            ["invariants"],
            0,
            [
                "form: dim 8, det -1, disc -1, signature (3, 5); "
                "algebra: rank 8, disc -1"
            ],
        ),
    ],
)
def test_cli_stderr_summary_lines(tmp_path, doc, argv, code, lines):
    path = write_doc(tmp_path, doc)
    got, _, err = run_cli([argv[0], path, *argv[1:]])
    assert got == code
    *summary, elapsed = err.splitlines()
    assert summary == lines
    assert elapsed.startswith("elapsed: ") and elapsed.endswith(" ms")
    # In a batch every summary line carries the document's index.
    batch = write_doc(tmp_path, [doc, doc], "batch.json")
    _, _, err = run_cli([argv[0], batch, *argv[1:]])
    prefixed = [f"[{k}] {line}" for k in (0, 1) for line in lines]
    assert err.splitlines()[:-1] == prefixed


def test_cli_stderr_summary_modes(tmp_path):
    # --json and --quiet silence stderr alike, and leave stdout as it is.
    path = write_doc(tmp_path, quad_doc(-1, [1, 1], oracle_height=1))
    for command in ("decide", "local", "invariants", "oracle"):
        code, out, chatty = run_cli([command, path])
        assert code == 0 and chatty.endswith(" ms\n")
        for flag in ("--json", "--quiet"):
            assert run_cli([command, path, flag]) == (0, out, "")


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


def test_cli_selftest_needs_no_test_dependencies():
    # A fresh interpreter that sees only the package: selftest must pass
    # without importing the test-only dependencies.
    script = (
        "import sys\n"
        "from torusembed.cli import main\n"
        "code = main(['selftest', '--quiet'])\n"
        "print(sorted({'numpy', 'hypothesis', 'pytest'} & set(sys.modules)))\n"
        "sys.exit(code)\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize(
    "breakage",
    [
        "st.hilbert_symbol = lambda a, b, v: 0",
        # Every trace form becomes that of alpha = 1.
        "kernel = st.trace_form\n"
        "st.trace_form = lambda alg, alpha: kernel(\n"
        "    alg, st.make_element(alg, [1] * len(alg.components)))",
        # Hermite's form loses its first sign, so the real places miscount.
        "import torusembed.etale as et\n"
        "kernel = et.hankel_pivots\n"
        "et.hankel_pivots = lambda W, s, m: [-a for a in kernel(W, s, m)]",
        # Every abstention becomes a non-split answer.
        "import torusembed.etale as et\n"
        "kernel = et.component_split_at\n"
        "et.component_split_at = lambda c, p, a=None: (\n"
        "    et.NONSPLIT if kernel(c, p, a) is et.INDETERMINATE else kernel(c, p, a))",
        # The block rule finds theta a square above every good prime.
        "import torusembed.etale as et\n"
        "et._is_square_at = lambda g, W, D, p: True",
        # Every Hankel entry drops its last term, as a zip over too few
        # sums would.
        "import torusembed.arith.polyq as pq\n"
        "import torusembed.oracle as orc\n"
        "kernel = pq.hankel\n"
        "pq.hankel = orc.hankel = lambda vec, sums, count: kernel(vec[:-1], sums, count)",
    ],
    ids=["hilbert_symbol", "trace_form", "hermite_pivots", "indeterminate", "square_at", "hankel"],
)
def test_selftest_still_checks_under_optimize(breakage):
    # python -O strips assert statements; a broken kernel must still fail
    # its suite there.
    script = (
        "import sys\n"
        "import torusembed.selftest as st\n"
        "assert False, 'asserts are live'\n"
        f"{breakage}\n"
        "print(st.run_all(quiet=True))\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


def test_cli_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


# ------------------------------------------------------ metamorphic properties


@cache
def _permutation_bases():
    """Multi-component documents that reach all four verdicts: goldens 03,
    04, 08 and 09, and a pair over Q(sqrt 2) whose planted trace form, of
    alpha = (1, 1), has no witness below the bound 2."""
    docs = [
        json.loads(next(GOLDEN.glob(f"{k}-*.input.json")).read_text())
        for k in ("03", "04", "08", "09")
    ]
    pair = {
        "algebra": [
            {"type": "general", "f": [-2, 0, 1], "theta": [2, 1]},
            {"type": "general", "f": [-2, 0, 1], "theta": [3, 1]},
        ],
        "options": {"prime_bound": 2},
    }
    algebra, _ = build_inputs(parse_problem(dict(pair, form={"diagonal": [1] * 8})))
    gram = trace_form(algebra, make_element(algebra, [1, 1])).gram
    pair["form"] = {"gram": [[render_rational(x) for x in row] for row in gram]}
    return docs + [pair]


def _permuted(doc, order):
    """``doc`` with component ``order[j]`` moved to position ``j``."""
    out = json.loads(json.dumps(doc))
    out["algebra"] = [doc["algebra"][i] for i in order]
    for note in out.get("options", {}).get("annotations", []):
        note["component"] = order.index(note["component"])
    return out


def _assert_keeps_the_verdict(draws, move):
    """``decide`` gives each base's exit code and verdict also on
    ``move(doc, *case)``, for 12 derandomized cases drawn from the tuple of
    strategies ``draws(doc)``.  Each base gets its own examples, so every
    verdict is reached whatever the draw; the verdicts are counted."""
    seen = Counter()
    for doc in _permutation_bases():
        code, out, _ = run_cli(["decide", "--json"], json.dumps(doc))
        verdict = json.loads(out)["verdict"]

        @settings(max_examples=12, deadline=None, derandomize=True, database=None)
        @given(st.tuples(*draws(doc)))
        def check(case):
            moved_code, moved, _ = run_cli(["decide", "--json"], json.dumps(move(doc, *case)))
            assert (moved_code, json.loads(moved)["verdict"]) == (code, verdict), case
            seen[verdict] += 1

        check()
    assert set(seen) == {
        "realizable",
        "locally_fails",
        "not_realizable_up_to_bound",
        "inconclusive",
    }, seen


def test_component_permutation_keeps_the_verdict():
    _assert_keeps_the_verdict(
        lambda doc: (st.permutations(range(len(doc["algebra"]))),), _permuted
    )


def _gram(doc):
    """The Gram matrix of ``doc``'s form, a diagonal form's included."""
    form = doc["form"]
    if "gram" in form:
        return [[Fraction(str(x)) for x in row] for row in form["gram"]]
    entries = [Fraction(str(a)) for a in form["diagonal"]]
    n = len(entries)
    return [[a if i == j else Fraction(0) for j in range(n)] for i, a in enumerate(entries)]


def _congruent(doc, P):
    """``doc`` with its form moved by the matrix P: a Gram form G becomes
    P^T G P, and a diagonal form the diagonal of P^T G P, which is all of it
    for a monomial P."""
    G, n = _gram(doc), len(P)
    PtG = [[sum(P[k][u] * G[k][v] for k in range(n)) for v in range(n)] for u in range(n)]
    moved = [[sum(PtG[u][k] * P[k][v] for k in range(n)) for v in range(n)] for u in range(n)]
    if "diagonal" in doc["form"]:
        return dict(doc, form={"diagonal": [render_rational(moved[i][i]) for i in range(n)]})
    return dict(doc, form={"gram": [[render_rational(x) for x in row] for row in moved]})


# Rescalings stay in {1/2, 1, 2, 3}, as the parser fuzz keeps its integers
# small: factoring has no work budget yet (ROADMAP item 1), so large form
# entries could make one example run for minutes.
_RESCALINGS = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


def _monomial_congruent(doc, order, scales):
    """``doc`` with its form moved by the monomial matrix P whose column j
    has ``scales[j]`` in row ``order[j]``."""
    n = len(order)
    P = [[scales[j] if order[j] == i else 0 for j in range(n)] for i in range(n)]
    return _congruent(doc, P)


def test_monomial_congruence_keeps_the_verdict():
    def draws(doc):
        n = len(_gram(doc))
        return (
            st.permutations(range(n)),
            st.lists(st.sampled_from(_RESCALINGS), min_size=n, max_size=n),
        )

    _assert_keeps_the_verdict(draws, _monomial_congruent)


def _unimodular_congruent(doc, order, steps):
    """``doc`` with its form, as a Gram matrix G, moved to P^T G P: P is the
    permutation matrix whose column j is e_order[j], then for each step
    (i, j, c) column j + (j >= i) gets c times column i added, so P stays
    an integer matrix of determinant +-1."""
    n = len(order)
    P = [[int(order[j] == i) for j in range(n)] for i in range(n)]
    for i, j, c in steps:
        for row in P:
            row[j + (j >= i)] += c * row[i]
    gram = [[render_rational(x) for x in row] for row in _gram(doc)]
    return _congruent(dict(doc, form={"gram": gram}), P)


def test_gram_congruence_keeps_the_verdict():
    # At most three steps x_i += c * x_j with c = +-1 keep the moved entries
    # small: factoring has no work budget yet (ROADMAP item 1), so large
    # entries could make one example run for minutes.
    def draws(doc):
        n = len(_gram(doc))
        step = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2), st.sampled_from((1, -1)))
        return st.permutations(range(n)), st.lists(step, min_size=1, max_size=3)

    _assert_keeps_the_verdict(draws, _unimodular_congruent)

# ---------------------------------------------------------------- parser fuzz

# Integers stay within |n| <= 10^6 and prime_bound within 10^3: factoring and
# the witness walk have no work budget yet (ROADMAP item 1), so a large
# integer or bound could make one example run for minutes.  Strings have at
# most six characters; a rational string takes ASCII digits and at most one
# "/", so "1e9999" is malformed and cannot smuggle in a large integer.
_INTS = st.integers(-(10**6), 10**6)
_WORDS = st.sampled_from(
    ["algebra", "form", "options", "type", "quad", "general", "d", "f", "theta",
     "diagonal", "gram", "annotations", "component", "prime", "status", "split",
     "nonsplit"]
)
_RATIONALS = st.sampled_from(["1/2", "-3/4", "1/0", "0", "2/4", "1.5", " 7", "x"])
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    _INTS,
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    _WORDS,
    _RATIONALS,
)
_FUZZ_JSON = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(_WORDS | st.text(max_size=4), kids, max_size=4),
    ),
    max_leaves=16,
)
_SKELETONS = [
    quad_doc(-1, [1, 1]),
    quad_doc(5, ["1/2", -3], prime_bound=50, oracle_height=2),
    demo_doc(prime_bound=7),
    {
        "algebra": [
            {"type": "quad", "d": -3},
            {"type": "general", "f": [-3, 0, 1], "theta": ["1/2", 1]},
        ],
        "form": {
            "gram": [
                [2, 1, 0, 0, 0, 0],
                [1, 2, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0],
                [0, 0, 0, -1, 0, 0],
                [0, 0, 0, 0, "3/2", 0],
                [0, 0, 0, 0, 0, 6],
            ]
        },
        "options": {"oracle_height": 1},
    },
]


def _slots(node):
    """Every (container, key) pair inside a decoded JSON value."""
    if isinstance(node, dict):
        items = list(node.items())
    else:
        items = list(enumerate(node)) if isinstance(node, list) else []
    for key, child in items:
        yield node, key
        yield from _slots(child)


@st.composite
def _mutated_skeletons(draw):
    """A valid document with one to three values replaced or removed."""
    doc = json.loads(json.dumps(draw(st.sampled_from(_SKELETONS))))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        parent, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            del parent[key]
        elif key == "prime_bound":
            parent[key] = draw(st.integers(-(10**6), 1000) | st.text(max_size=4))
        else:
            # Rationals and integers drawn directly, besides any JSON value,
            # so that more mutants get past the syntax checks.
            parent[key] = draw(_RATIONALS | _INTS | _FUZZ_JSON)
    return doc


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["decide", "local", "invariants"]),
    _mutated_skeletons() | st.lists(_mutated_skeletons(), max_size=3) | _FUZZ_JSON,
)
def test_cli_survives_any_json_document(command, doc):
    code, out, _ = run_cli([command, "--json", "-"], json.dumps(doc))
    assert code in (0, 1, 2, 3, 4, 70)
    json.loads(out)
