"""The two n-keyed document readers: the exact text of each of their errors,
and input echoed into an error message (by the readers, by `gen --subset`,
by the integer flags of the CLI and by argparse's own refusals) quoted to a
bounded prefix."""
import json

import pytest

from kquadric.cli import MAX_FAMILY_BOUND_BY_N, MAX_N, MAX_SELFCHECK_N, MAX_TRIALS, main
from kquadric.decompose import Decomposition
from kquadric.laurent import LaurentPolynomial, ParseError, from_json_dict, one, to_json_dict, zero
from kquadric.quadric import QuadricGraph, vertex_map_from_json_dict

CTX = QuadricGraph(1)  # vertices 1..4, polynomials in m = 2 variables
ZERO = to_json_dict(zero(2))
WRONG_M = to_json_dict(one(3))


def values(changes=()):
    """The zero map's "values" body at n = 1, with some vertex entries changed."""
    body = {str(v): ZERO for v in CTX.vertices}
    body.update(changes)
    return body


def read_vertex_map(doc):
    return vertex_map_from_json_dict(CTX, doc)


def read_decomposition(doc):
    return Decomposition.from_json_dict(CTX, doc)


@pytest.mark.parametrize(
    "read, doc, message",
    [
        pytest.param(read_vertex_map, [], "vertex map document must have exactly the keys 'n' and 'values'",
                     id="map-not-an-object"),
        pytest.param(read_vertex_map, {"n": 1}, "vertex map document must have exactly the keys 'n' and 'values'",
                     id="map-keys"),
        pytest.param(read_vertex_map, {"n": "1", "values": {}}, "vertex map is for n='1', context expects n=1",
                     id="map-n-not-int"),
        pytest.param(read_vertex_map, {"n": 2, "values": {}}, "vertex map is for n=2, context expects n=1",
                     id="map-n-mismatch"),
        pytest.param(read_vertex_map, {"n": 1, "values": []}, "'values' must be an object keyed by vertex",
                     id="map-body-type"),
        pytest.param(read_vertex_map, {"n": 1, "values": {"1": ZERO, "2": ZERO, "3": ZERO, "5": ZERO}},
                     "vertex keys wrong (missing ['4'], unexpected ['5'])", id="map-vertex-keys"),
        pytest.param(read_vertex_map, {"n": 1, "values": values({"3": WRONG_M})},
                     "value at vertex 3 has 3 variables, expected 2", id="map-value-m"),
        pytest.param(read_decomposition, {"n": 1, "values": []},
                     "decomposition document must have exactly the keys 'n' and 'coeffs'", id="dec-keys"),
        pytest.param(read_decomposition, {"n": 1.0, "coeffs": []}, "decomposition is for n=1.0, context expects n=1",
                     id="dec-n-not-int"),
        pytest.param(read_decomposition, {"n": 3, "coeffs": []}, "decomposition is for n=3, context expects n=1",
                     id="dec-n-mismatch"),
        pytest.param(read_decomposition, {"n": 1, "coeffs": {}}, "'coeffs' must be a list of 4 polynomials",
                     id="dec-body-type"),
        pytest.param(read_decomposition, {"n": 1, "coeffs": [ZERO] * 3}, "'coeffs' must be a list of 4 polynomials",
                     id="dec-body-length"),
        pytest.param(read_decomposition, {"n": 1, "coeffs": [ZERO, ZERO, WRONG_M, ZERO]},
                     "coefficient has 3 variables, expected 2", id="dec-coefficient-m"),
    ],
)
def test_reader_messages(read, doc, message):
    with pytest.raises(ParseError) as err:
        read(doc)
    assert str(err.value) == message


LONG = "x" * 5000


def quoted(value):
    return repr(value)[:60] + "..."


def term(exp, coef):
    return {"exp": exp, "coef": coef}


def polynomial(m, *terms):
    return {"n": 1, "values": values({"1": {"m": m, "terms": list(terms)}})}


WIDE_ZERO = [0] * 2000  # an exponent of m = 2000 ints


@pytest.mark.parametrize(
    "command, doc, message",
    [
        pytest.param("check", {"n": LONG, "values": {}},
                     f"vertex map is for n={quoted(LONG)}, context expects n=1", id="n"),
        pytest.param("check", {"n": 1, "values": values({LONG: ZERO})},
                     f"vertex keys wrong (missing [], unexpected {quoted([LONG])})", id="vertex-key"),
        pytest.param("check", polynomial(LONG), f"'m' must be a positive integer, got {quoted(LONG)}", id="m"),
        pytest.param("check", polynomial(2, term(list(range(5000)), "1")),
                     f"term 0: 'exp' must be a list of 2 ints, got {quoted(list(range(5000)))}", id="exp"),
        pytest.param("check", polynomial(2, term([0, 0], [1] * 5000)),
                     f"term 0: 'coef' must be a decimal string, got {quoted([1] * 5000)}", id="coef-type"),
        pytest.param("check", polynomial(2, term([0, 0], LONG)),
                     f"term 0: 'coef' is not a decimal integer: {quoted(LONG)}", id="coef-not-decimal"),
        pytest.param("check", polynomial(2, term([0, 0], "1_" * 2000 + "1")),
                     f"term 0: 'coef' is not in canonical decimal form: {quoted('1_' * 2000 + '1')}",
                     id="coef-not-canonical"),
        pytest.param("check", polynomial(2000, term(WIDE_ZERO, "0")),
                     f"term 0 ({quoted(WIDE_ZERO)}): zero coefficient violates canonical form", id="zero-coef"),
        pytest.param("check", polynomial(2000, term(WIDE_ZERO, "1"), term(WIDE_ZERO, "1")),
                     f"term 1 ({quoted(WIDE_ZERO)}): duplicate exponent key", id="duplicate-exp"),
        pytest.param("decompose", {"n": 1, "values": values({"2": {"m": 2, "terms": [term([10**4000, 0], "1")]}})},
                     f"exponent {quoted(10**4000)} exceeds the supported maximum 256", id="decompose-exponent"),
    ],
)
def test_oversized_input_is_quoted_in_one_short_line(tmp_path, monkeypatch, capsys, command, doc, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(json.dumps(doc))
    code = main([command, "--n", "1", "--in", "in.json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: in.json: {message}\n"
    assert len(captured.err.encode()) <= 300


def test_oversized_decomposition_n_is_quoted():
    with pytest.raises(ParseError) as err:
        read_decomposition({"n": LONG, "coeffs": []})
    assert str(err.value) == f"decomposition is for n={quoted(LONG)}, context expects n=1"
    assert len(str(err.value)) <= 300


BIG_SUBSET = list(range(1, 20001))
BIG_SUBSET_TEXT = ",".join(map(str, BIG_SUBSET))
BIG_INT = int("9" * 3000)


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["gen", "--n", "1", "--class", "F", "--subset", BIG_SUBSET_TEXT],
                     f"{quoted(BIG_SUBSET)} is neither the complement of a single vertex nor admissible",
                     id="supported"),
        pytest.param(["gen", "--n", "1", "--class", "Delta", "--subset", BIG_SUBSET_TEXT],
                     f"{quoted(BIG_SUBSET)} is empty, out of range, or contains an antipodal pair", id="thom"),
        pytest.param(["gen", "--n", "1", "--class", "F", "--subset", "x" + BIG_SUBSET_TEXT],
                     f"--subset expects comma-separated integers, got {quoted('x' + BIG_SUBSET_TEXT)}",
                     id="not-integers"),
        pytest.param(["graph", "--n", str(BIG_INT)],
                     f"--n {quoted(BIG_INT)} exceeds the supported maximum {MAX_N}", id="n"),
        pytest.param(["graph", "--n", str(-BIG_INT)], f"n must be a positive int, got {quoted(-BIG_INT)}",
                     id="negative-n"),
        pytest.param(["gen", "--n", "1", "--class", "M", "--vertex", str(BIG_INT)],
                     f"vertex {quoted(BIG_INT)} out of range 1..4", id="vertex"),
        pytest.param(["verify", "--n", "1", "--family-bound", str(BIG_INT)],
                     f"--family-bound {quoted(BIG_INT)} exceeds the supported maximum {MAX_FAMILY_BOUND_BY_N[1]}",
                     id="family-bound"),
        pytest.param(["selfcheck", "--max-n", str(BIG_INT)],
                     f"--max-n {quoted(BIG_INT)} exceeds the supported maximum {MAX_SELFCHECK_N}", id="max-n"),
        pytest.param(["selfcheck", "--max-n", "1", "--trials", str(BIG_INT)],
                     f"--trials {quoted(BIG_INT)} exceeds the supported maximum {MAX_TRIALS}", id="trials"),
    ],
)
def test_oversized_subset_is_quoted_in_one_short_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert len(captured.err.encode()) <= 300


BIG_TEXT = str(BIG_INT)


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["verify", "--n", "1", "--relations", BIG_TEXT],
                     f"kquadric verify: error: argument --relations: invalid choice: {quoted(BIG_TEXT)} "
                     "(choose from 'all', '1', '2', '3', '4')", id="choice"),
        pytest.param(["gen", "--n", "1", "--class", BIG_TEXT],
                     f"kquadric gen: error: argument --class: invalid choice: {quoted(BIG_TEXT)} "
                     "(choose from 'M', 'Minv', 'Delta', 'X', 'F', 'basis')", id="class"),
        pytest.param(["graph", "--n", "x" + BIG_TEXT],
                     f"kquadric graph: error: argument --n: invalid int value: {quoted('x' + BIG_TEXT)}", id="int"),
        pytest.param(["graph", "--n", "1", BIG_TEXT],
                     f"kquadric: error: unrecognized arguments: {quoted(BIG_TEXT)}", id="unrecognized"),
    ],
)
def test_argparse_refusals_quote_the_echoed_value(capsys, argv, message):
    """argparse's own refusals keep exit status 2 and the usage block, and cut
    a huge value as `_quoted` does (short values are echoed unchanged: the
    golden corpus pins those)."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: kquadric") and captured.err.endswith(f"\n{message}\n")
    assert len(captured.err.encode()) <= 400


@pytest.mark.parametrize("entry", [True, 1.0], ids=["true", "float"])
def test_exponent_entries_that_are_not_ints_are_refused(tmp_path, monkeypatch, capsys, entry):
    message = f"term 0: 'exp' must be a list of 2 ints, got {[0, entry]!r}"
    with pytest.raises(ParseError) as err:
        from_json_dict({"m": 2, "terms": [term([0, entry], "1")]})
    assert str(err.value) == message
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(json.dumps(polynomial(2, term([0, entry], "1"))))
    assert main(["check", "--n", "1", "--in", "in.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: in.json: {message}\n"


@pytest.mark.parametrize("edge", [2**15, 2**31, 2**63, 2**127])
def test_parsed_polynomials_are_held_as_constructed(edge):
    """A document parses to the packed keys, layout and bound the tuple
    constructor gives, on both sides of each field-width boundary."""
    for top in (edge - 1, edge):
        p = LaurentPolynomial(3, {(top, 0, -1): 2, (0, -top, 5): -7, (1, 2, 3): 1, (-top, top, 0): 3})
        q = from_json_dict(json.loads(json.dumps(to_json_dict(p))))
        assert (q._terms, q._layout, q._bound) == (p._terms, p._layout, p._bound)
        assert q._layout is p._layout and q.items() == p.items()
        width = q._layout.width  # the narrowest of 16, 32, 64, ... bits whose bias exceeds top
        assert top < 2 ** (width - 1) and (width == 16 or top >= 2 ** (width // 2 - 1))
        fields = {e: sum((x + 2 ** (width - 1)) << (width * (2 - i)) for i, x in enumerate(e)) for e, _ in p.items()}
        assert q._terms == {fields[e]: c for e, c in q.items()}
