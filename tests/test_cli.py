import hashlib
import json
import os
import sys
import tracemalloc
from pathlib import Path

import pytest

import kquadric.cli as cli_module
from kquadric.cli import MAX_EXPONENT_BY_N, MAX_FAMILY_BOUND_BY_N, MAX_N, MAX_SELFCHECK_N, MAX_TRIALS, main
from kquadric.gkm import VertexMap
from kquadric.laurent import monomial, one, zero
from kquadric.quadric import (
    QuadricGraph,
    monomial_class,
    vertex_map_to_json_dict,
)
from kquadric.relations import CHUNK_RECORDS, RelationStream, iter_checks


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_command(capsys):
    code, out, _ = run(capsys, "graph", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 3
    assert doc["vertices"] == 6
    assert len(doc["edges"]) == 24


def test_graph_deterministic_output(capsys):
    _, first, _ = run(capsys, "graph", "--n", "2")
    _, second, _ = run(capsys, "graph", "--n", "2")
    assert first == second


def test_gen_monomial_class_golden(capsys):
    code, out, _ = run(capsys, "gen", "--n", "2", "--class", "M", "--vertex", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    assert doc["values"]["1"]["terms"] == [{"exp": [0, 0, 0], "coef": "1"}]
    assert doc["values"]["2"]["terms"] == [{"exp": [-1, 0, 0], "coef": "1"}]
    assert doc["values"]["5"]["terms"] == [{"exp": [1, -1, -1], "coef": "1"}]
    assert doc["values"]["6"]["terms"] == [{"exp": [0, -1, -1], "coef": "1"}]


def test_gen_requires_matching_flags(capsys):
    code, _, err = run(capsys, "gen", "--n", "2", "--class", "M")
    assert code == 2
    assert "--vertex" in err
    code, _, err = run(capsys, "gen", "--n", "2", "--class", "Delta")
    assert code == 2
    assert "--subset" in err


def test_gen_delta_and_f_and_x(capsys):
    code, out, _ = run(capsys, "gen", "--n", "2", "--class", "Delta", "--subset", "2,4,6")
    assert code == 0
    assert json.loads(out)["values"]["1"]["terms"] == []
    code, out, _ = run(capsys, "gen", "--n", "1", "--class", "F", "--subset", "2,3,4")
    assert code == 0
    assert json.loads(out)["values"]["1"]["terms"] == []
    code, out, _ = run(capsys, "gen", "--n", "1", "--class", "X")
    assert code == 0
    assert json.loads(out)["values"]["1"]["terms"] == [{"exp": [1, 1], "coef": "1"}]


def test_gen_basis(capsys):
    code, out, _ = run(capsys, "gen", "--n", "1", "--class", "basis")
    assert code == 0
    docs = json.loads(out)
    assert isinstance(docs, list) and len(docs) == 4
    assert docs[0]["values"]["1"]["terms"] == [{"exp": [0, 0], "coef": "1"}]


def test_gen_inadmissible_subset_is_usage_error(capsys):
    code, _, err = run(capsys, "gen", "--n", "1", "--class", "Delta", "--subset", "1,4")
    assert code == 2
    assert "error" in err


def test_check_accepts_k_class(tmp_path, capsys):
    ctx = QuadricGraph(2)
    path = tmp_path / "m1.json"
    path.write_text(json.dumps(vertex_map_to_json_dict(ctx, monomial_class(ctx, 1))))
    code, out, _ = run(capsys, "check", "--n", "2", "--in", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["is_k_class"] is True
    assert doc["failing_edges"] == []


def test_check_rejects_non_k_class(tmp_path, capsys):
    ctx = QuadricGraph(1)
    values = {v: zero(2) for v in ctx.vertices}
    values[1] = one(2)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(vertex_map_to_json_dict(ctx, VertexMap(values))))
    code, out, _ = run(capsys, "check", "--n", "1", "--in", str(path))
    assert code == 1
    doc = json.loads(out)
    assert doc["is_k_class"] is False
    assert doc["failing_edges"] == [[1, 2], [1, 3]]


def test_check_rejects_indicator_on_n2(tmp_path, capsys):
    ctx = QuadricGraph(2)
    values = {v: zero(3) for v in ctx.vertices}
    values[1] = one(3)
    path = tmp_path / "notaclass.json"
    path.write_text(json.dumps(vertex_map_to_json_dict(ctx, VertexMap(values))))
    code, out, _ = run(capsys, "check", "--n", "2", "--in", str(path))
    assert code == 1
    assert json.loads(out)["failing_edges"] == [[1, 2], [1, 3], [1, 4], [1, 5]]


def test_check_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--n", "1", "--in", "/nonexistent/x.json")
    assert code == 2
    assert "error" in err


def test_check_wrong_n_is_usage_error(tmp_path, capsys):
    ctx = QuadricGraph(1)
    path = tmp_path / "m1.json"
    path.write_text(json.dumps(vertex_map_to_json_dict(ctx, monomial_class(ctx, 1))))
    code, _, err = run(capsys, "check", "--n", "2", "--in", str(path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("coef", "1_0", "canonical decimal form: '1_0'"),
        ("coef", " 7", "canonical decimal form: ' 7'"),
        ("coef", "+3", "canonical decimal form: '+3'"),
        ("coef", "\u0663", "canonical decimal form: '\u0663'"),
        ("n", True, "vertex map is for n=True"),
    ],
)
@pytest.mark.parametrize("command", ["check", "decompose"])
def test_lax_json_input_is_a_usage_error(tmp_path, capsys, command, field, value, message):
    doc = vertex_map_to_json_dict(QuadricGraph(1), monomial_class(QuadricGraph(1), 1))
    if field == "n":
        doc["n"] = value
    else:
        doc["values"]["1"]["terms"][0]["coef"] = value
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--n", "1", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1 and message in err


def test_verify_all_relations(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["pass"] > 0


def test_verify_single_relation_filter(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1", "--relations", "4")
    assert code == 0
    doc = json.loads(out)
    assert {c["kind"] for c in doc["checks"]} == {"antipodal_product"}


def test_verify_deterministic_for_seed(capsys):
    _, first, _ = run(capsys, "verify", "--n", "1", "--seed", "9")
    _, second, _ = run(capsys, "verify", "--n", "1", "--seed", "9")
    assert first == second


GOLDEN_VERIFY = json.loads(
    (Path(__file__).resolve().parents[1] / "benchmarks" / "golden_verify.json").read_text()
)


@pytest.mark.parametrize("n, seed", [(2, seed) for seed in range(16)] + [(3, 0)])
def test_verify_matches_golden_digest(capsys, n, seed):
    code, out, _ = run(capsys, "verify", "--n", str(n), "--seed", str(seed))
    golden = GOLDEN_VERIFY[str(n)][str(seed)]
    data = out.encode()
    assert code == 0
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (golden["sha256"], golden["bytes"])


def test_decompose_command(tmp_path, capsys):
    ctx = QuadricGraph(1)
    path = tmp_path / "m4.json"
    path.write_text(json.dumps(vertex_map_to_json_dict(ctx, monomial_class(ctx, 4))))
    code, out, _ = run(capsys, "decompose", "--n", "1", "--in", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 1
    assert doc["coeffs"][0]["terms"] == [{"exp": [1, 1], "coef": "1"}]
    assert doc["coeffs"][1]["terms"] == [{"exp": [1, 1], "coef": "-1"}]
    assert doc["coeffs"][2]["terms"] == []
    assert doc["coeffs"][3]["terms"] == []


def test_decompose_non_k_class_exits_one(tmp_path, capsys):
    ctx = QuadricGraph(1)
    values = {v: zero(2) for v in ctx.vertices}
    values[1] = one(2)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(vertex_map_to_json_dict(ctx, VertexMap(values))))
    code, _, err = run(capsys, "decompose", "--n", "1", "--in", str(path))
    assert code == 1
    assert "not a K-class" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "graph.json"
    code, out, _ = run(capsys, "graph", "--n", "1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["vertices"] == 4


def test_pretty_only_adds_whitespace(capsys):
    _, compact, _ = run(capsys, "gen", "--n", "1", "--class", "X")
    _, pretty, _ = run(capsys, "gen", "--n", "1", "--class", "X", "--pretty")
    assert compact != pretty
    assert json.loads(compact) == json.loads(pretty)


def test_selfcheck_small(capsys):
    code, out, _ = run(capsys, "selfcheck", "--max-n", "1", "--trials", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert len(doc["runs"]) == 1
    assert doc["runs"][0]["k_class_sweep"]["failures"] == []


def test_selfcheck_two_levels(capsys):
    code, out, _ = run(capsys, "selfcheck", "--max-n", "2", "--trials", "50", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert [r["n"] for r in doc["runs"]] == [1, 2]
    assert all(r["pass"] for r in doc["runs"])


def test_selfcheck_reports_failure(capsys, monkeypatch):
    import kquadric.cli as cli_module

    monkeypatch.setattr(cli_module, "check_three_independence", lambda graph: False)
    code, out, _ = run(capsys, "selfcheck", "--max-n", "1", "--trials", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    assert doc["runs"][0]["structural"]["three_independent"] is False


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["graph", "--n", str(MAX_N + 1)], "--n"),
        (["verify", "--n", "1", "--family-bound", str(MAX_FAMILY_BOUND_BY_N[1] + 1)], "--family-bound"),
        (["selfcheck", "--max-n", str(MAX_SELFCHECK_N + 1)], "--max-n"),
        (["selfcheck", "--max-n", "1", "--trials", str(MAX_TRIALS + 1)], "--trials"),
        (["verify", "--n", "4", "--family-bound", "4"], "--family-bound"),
    ],
)
def test_oversized_requests_are_refused_before_any_graph_is_built(capsys, monkeypatch, argv, flag):
    def no_graph(n):
        raise AssertionError("a graph was built for a refused request")

    monkeypatch.setattr(cli_module, "QuadricGraph", no_graph)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} {argv[-1]} exceeds the supported maximum {int(argv[-1]) - 1}\n"


@pytest.mark.parametrize(
    "argv, flag, least",
    [
        (["verify", "--n", "1", "--family-bound", "-1"], "--family-bound", 0),
        (["selfcheck", "--max-n", "1", "--trials", "0"], "--trials", 1),
        (["selfcheck", "--max-n", "0"], "--max-n", 1),
        (["verify", "--n", "0"], "--n", 1),
    ],
)
def test_undersized_requests_are_refused_before_any_graph_is_built(capsys, monkeypatch, argv, flag, least):
    def no_graph(n):
        raise AssertionError("a graph was built for a refused request")

    monkeypatch.setattr(cli_module, "QuadricGraph", no_graph)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be at least {least}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--n", "6"], "--family-bound 3 exceeds the supported maximum 1"),  # the default bound
        (["verify", "--n", "8", "--family-bound", "0"], "--n 8 exceeds the supported maximum 6"),  # no entry
    ],
)
def test_verify_past_its_per_n_bounds_is_refused_before_any_graph_is_built(
    capsys, monkeypatch, argv, message
):
    def no_graph(n):
        raise AssertionError("a graph was built for a refused request")

    monkeypatch.setattr(cli_module, "QuadricGraph", no_graph)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_unwritable_out_path_is_an_io_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    for command in ("graph", "verify"):
        code, out, err = run(capsys, command, "--n", "1", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
        assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "1"],
        ["check", "--n", "2", "--in", "{class_file}"],
        ["selfcheck", "--max-n", "1", "--trials", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_writes_the_bytes_stdout_would_get(tmp_path, capsys, argv):
    ctx = QuadricGraph(2)
    class_file = tmp_path / "m1.json"
    class_file.write_text(json.dumps(vertex_map_to_json_dict(ctx, monomial_class(ctx, 1))))
    argv = [arg.format(class_file=class_file) for arg in argv]
    code, stdout_text, _ = run(capsys, *argv)
    target = tmp_path / "out.json"
    assert run(capsys, *argv, "--out", str(target)) == (code, "", "")
    assert target.read_bytes() == stdout_text.encode("utf-8")


def test_requests_at_the_bounds_are_accepted(capsys):
    assert run(capsys, "graph", "--n", str(MAX_N))[0] == 0
    code, out, _ = run(capsys, "verify", "--n", "1", "--family-bound", str(MAX_FAMILY_BOUND_BY_N[1]))
    assert code == 0 and json.loads(out)["summary"]["fail"] == 0


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys, "graph")[0] == 2  # missing --n
    assert run(capsys, "gen", "--n", "1", "--class", "Q")[0] == 2


@pytest.mark.parametrize(
    "argv, source, message",
    [
        (["graph", "--n", "0"], None, "n must be a positive int, got 0"),
        (["gen", "--n", "1", "--class", "M", "--vertex", "9"], None, "vertex 9 out of range 1..4"),
        (["gen", "--n", "1", "--class", "F", "--subset", "1,4"], None, "neither the complement"),
        (["check", "--n", "1", "--in", "@in"], b"\xff", "can't decode byte 0xff"),
        pytest.param(["decompose", "--n", "1", "--in", "@in"], b'{"n": 1' + b"0" * 5000 + b"}", "Exceeds the limit",
                     id="decompose-int-literal-too-long"),
        (["check", "--n", "1", "--in", "@in"], b"not json at all {", "malformed JSON"),
        pytest.param(["check", "--n", "1", "--in", "@in"], b"[" * 200_000, "in.json: JSON nested too deeply",
                     id="check-nested-arrays"),
        pytest.param(["decompose", "--n", "1", "--in", "@in"], b'{"n":' * 200_000, "in.json: JSON nested too deeply",
                     id="decompose-nested-objects"),
    ],
)
def test_bad_values_are_usage_errors(tmp_path, capsys, argv, source, message):
    if source is not None:
        path = tmp_path / "in.json"
        path.write_bytes(source)
        argv = [str(path) if a == "@in" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli_module, "iter_checks", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["verify", "--n", "1"])
    assert capsys.readouterr().err == ""


def test_fault_partway_through_the_sweep_writes_nothing(capsys, monkeypatch):
    # Ten records are fewer than one chunk, so no text has been written yet.
    original = cli_module.iter_checks
    yielded = []

    def broken(*args, **kwargs):
        for record in original(*args, **kwargs):
            if len(yielded) == 10:
                raise ValueError("internal fault")
            yielded.append(record)
            yield record

    monkeypatch.setattr(cli_module, "iter_checks", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["verify", "--n", "1"])
    assert len(yielded) == 10
    assert capsys.readouterr() == ("", "")


def test_fault_after_a_chunk_leaves_the_chunks_written_so_far(capsys, monkeypatch):
    original = cli_module.iter_checks

    def broken(*args, **kwargs):
        for index, record in enumerate(original(*args, **kwargs)):
            if index == CHUNK_RECORDS + 10:
                raise ValueError("internal fault")
            yield record

    monkeypatch.setattr(cli_module, "iter_checks", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["verify", "--n", "3"])
    out, err = capsys.readouterr()
    report = "".join(RelationStream(3, iter_checks(QuadricGraph(3))).chunks())
    assert err == ""
    assert 0 < len(out) < len(report) and report.startswith(out)
    assert out.count('"kind"') == CHUNK_RECORDS


class HashingStdout:
    """A stdout that hashes the text it is given and keeps none of it."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.writes = 0

    def write(self, text: str) -> int:
        self.digest.update(text.encode())
        self.writes += 1
        return len(text)

    def flush(self) -> None:
        pass


def test_verify_writes_its_report_in_bounded_memory(monkeypatch):
    expected = hashlib.sha256("".join(RelationStream(3, iter_checks(QuadricGraph(3))).chunks()).encode()).hexdigest()
    sink = HashingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["verify", "--n", "3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2**20, peak
    assert sink.digest.hexdigest() == expected
    assert sink.writes > 1


def verify_args(*argv, out):
    """Parsed `verify` arguments with an --out target."""
    return cli_module.build_parser().parse_args(["verify", *argv, "--out", out])


def test_verify_opens_its_target_before_the_sweep(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the target was opened")

    monkeypatch.setattr(cli_module, "iter_checks", no_sweep)
    path = tmp_path / "missing" / "report.json"
    with pytest.raises(cli_module.UsageError, match=f"^cannot write {path}: "):
        cli_module._cmd_verify(verify_args("--n", "1", out=str(path)))
    assert capsys.readouterr() == ("", "")
    assert not path.exists()


def test_verify_streams_into_its_target(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert cli_module._cmd_verify(verify_args("--n", "2", "--pretty", out=str(path))) == 0
    expected = "".join(RelationStream(2, iter_checks(QuadricGraph(2))).chunks(pretty=True))
    assert path.read_text(encoding="utf-8") == expected
    assert capsys.readouterr() == ("", "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses every write")
def test_write_error_while_streaming_is_a_usage_error(capsys):
    with pytest.raises(cli_module.UsageError, match="^cannot write /dev/full: "):
        cli_module._cmd_verify(verify_args("--n", "2", out="/dev/full"))
    assert capsys.readouterr() == ("", "")


def test_verify_exit_status_comes_from_the_streamed_records(capsys, monkeypatch):
    original = cli_module.iter_checks

    def one_failure(*args, **kwargs):
        for index, record in enumerate(original(*args, **kwargs)):
            yield record._replace(passed=False) if index == 3 else record

    monkeypatch.setattr(cli_module, "iter_checks", one_failure)
    code, out, err = run(capsys, "verify", "--n", "1", "--seed", "5")
    doc = json.loads(out)
    assert code == 1 and err == ""
    assert [check["pass"] for check in doc["checks"]].index(False) == 3
    assert doc["summary"] == {"pass": len(doc["checks"]) - 1, "fail": 1}


def test_roundtrip_through_cli_files(tmp_path, capsys):
    ctx = QuadricGraph(1)
    gen_path = tmp_path / "m2.json"
    code, _, _ = run(capsys, "gen", "--n", "1", "--class", "M", "--vertex", "2",
                     "--out", str(gen_path))
    assert code == 0
    code, out, _ = run(capsys, "check", "--n", "1", "--in", str(gen_path))
    assert code == 0
    dec_path = tmp_path / "dec.json"
    code, _, _ = run(capsys, "decompose", "--n", "1", "--in", str(gen_path),
                     "--out", str(dec_path))
    assert code == 0
    doc = json.loads(dec_path.read_text())
    from kquadric.decompose import Decomposition, recompose

    d = Decomposition.from_json_dict(ctx, doc)
    assert recompose(ctx, d) == monomial_class(ctx, 2)


def m1_power_file(tmp_path, power, n=1):
    """The class M_1^power: its largest |exponent| is `power`."""
    ctx = QuadricGraph(n)
    m1 = monomial_class(ctx, 1)
    path = tmp_path / f"m1_n{n}_{power}.json"
    values = VertexMap({v: monomial(tuple(power * x for x in m1[v].support()[0])) for v in ctx.vertices})
    path.write_text(json.dumps(vertex_map_to_json_dict(ctx, values)))
    return path


def test_decompose_at_the_exponent_bound_is_accepted(tmp_path, capsys):
    bound = MAX_EXPONENT_BY_N[1]
    path = m1_power_file(tmp_path, bound)
    code, out, err = run(capsys, "decompose", "--n", "1", "--in", str(path))
    assert code == 0 and err == ""
    largest = max(len(c["terms"]) for c in json.loads(out)["coeffs"])
    assert largest == bound * (bound - 1)


def test_decompose_past_the_exponent_bound_is_refused(tmp_path, capsys, monkeypatch):
    def no_decompose(*args, **kwargs):
        raise AssertionError("a refused input was decomposed")

    monkeypatch.setattr(cli_module, "decompose", no_decompose)
    bound = MAX_EXPONENT_BY_N[1]
    path = m1_power_file(tmp_path, bound + 1)
    code, out, err = run(capsys, "decompose", "--n", "1", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: exponent {bound + 1} exceeds the supported maximum {bound}\n"


def test_exponent_bound_shrinks_with_n():
    assert MAX_EXPONENT_BY_N[1] == 256
    assert sorted(MAX_EXPONENT_BY_N) == list(range(1, MAX_N + 1))
    bounds = list(MAX_EXPONENT_BY_N.values())
    assert bounds == sorted(bounds, reverse=True)


@pytest.mark.parametrize("n", [2, 3])
def test_decompose_at_the_exponent_bound_of_n_is_accepted(tmp_path, capsys, n):
    bound = MAX_EXPONENT_BY_N[n]
    path = m1_power_file(tmp_path, bound, n)
    values = json.loads(path.read_text())["values"].values()
    assert max(abs(x) for p in values for t in p["terms"] for x in t["exp"]) == bound
    code, out, err = run(capsys, "decompose", "--n", str(n), "--in", str(path))
    assert code == 0 and err == ""
    assert len(json.loads(out)["coeffs"]) == 2 * n + 2


@pytest.mark.parametrize("n", [2, 3])
def test_decompose_past_the_exponent_bound_of_n_is_refused(tmp_path, capsys, monkeypatch, n):
    def no_decompose(*args, **kwargs):
        raise AssertionError("a refused input was decomposed")

    monkeypatch.setattr(cli_module, "decompose", no_decompose)
    bound = MAX_EXPONENT_BY_N[n]
    path = m1_power_file(tmp_path, bound + 1, n)
    code, out, err = run(capsys, "decompose", "--n", str(n), "--in", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: exponent {bound + 1} exceeds the supported maximum {bound}\n"
