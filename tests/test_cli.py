"""Front-end pipeline, coverage measurement, artifact emission."""

import json
import random

import pytest

from slc import concolic as C
from slc import formulas as F
from slc import ir
from slc import testgen as T
from slc.cli import (
    BENCHMARKS,
    corpus_path,
    json_text,
    load_annotations,
    main,
    measure_coverage,
    render_coverage_text,
    run_pipeline,
)


def run_bench(name, tmp_path, out="out", **overrides):
    bench = BENCHMARKS[name]
    kwargs = dict(unfold_depth=bench.unfold_depth, solver_depth=bench.solver_depth,
                  max_nodes=bench.max_nodes)
    kwargs.update(overrides)
    return run_pipeline(corpus_path(bench.spec), corpus_path(bench.program),
                        bench.entry, out_dir=tmp_path / out, **kwargs)


# -------------------------------------------------------------- CLI proper


def test_missing_entry_is_usage_error(capsys):
    code = main(["--spec", "x.sl", "--program", "x.ir"])
    assert code == 1


def test_unreadable_spec_is_error(tmp_path):
    code = main(["--spec", str(tmp_path / "nope.sl"),
                 "--program", str(tmp_path / "nope.ir"), "--entry", "f"])
    assert code == 1


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.sl"
    bad.write_text("pred p(x == emp ;")
    prog = tmp_path / "p.ir"
    prog.write_text("proc f() { 0: v := 1 }")
    code = main(["--spec", str(bad), "--program", str(prog), "--entry", "f"])
    assert code == 1
    assert "parse error" in capsys.readouterr().err


def test_cli_full_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["--spec", str(corpus_path("stack.sl")),
                 "--program", str(corpus_path("stack.ir")),
                 "--entry", "pop", "--unfold-depth", "2",
                 "--out", str(out), "--report", "json"])
    assert code == 0
    for name in ("suite.json", "coverage.json", "coverage.txt", "tree.dot"):
        assert (out / name).exists()
    payload = json.loads(capsys.readouterr().out)
    assert payload["totals"]["feasible_percent"] == 100.0
    suite = json.loads((out / "suite.json").read_text())
    assert suite["entry"] == "pop"
    assert len(suite["tests"]) == payload["tests"]["emitted"]
    # builder scripts allocate before they wire, wire before they call
    script = suite["tests"][-1]["script"]
    ops = [step[0] for step in script]
    assert ops.index("call") == len(ops) - 1
    assert ops[: ops.count("new")] == ["new"] * ops.count("new")


@pytest.mark.parametrize("domain", [["--int-domain", "-200:200"],
                                    ["--int-domain=-200:200"]])
def test_int_domain_accepts_negative_lower_bound(domain, tmp_path, capsys):
    spec = tmp_path / "guard.sl"
    spec.write_text("pre f == emp & true ;\n")
    prog = tmp_path / "guard.ir"
    prog.write_text("proc f(x: int) { 0: if x = 100 then goto 1 else goto 2"
                    "  1: v := 1 }")
    code = main(["--spec", str(spec), "--program", str(prog), "--entry", "f",
                 *domain, "--report", "json"])
    assert code == 0
    # 100 lies outside the default domain -64:63, inside -200:200.
    assert json.loads(capsys.readouterr().out)["totals"]["feasible_percent"] == 100.0


@pytest.mark.parametrize("domain", ["2147483640:2147483660", "-2147483649:0"])
def test_int_domain_outside_int32_is_usage_error(domain, tmp_path, capsys):
    spec = tmp_path / "guard.sl"
    spec.write_text("pre f == emp & true ;\n")
    prog = tmp_path / "guard.ir"
    prog.write_text("proc f(x: int) { 0: if x = 100 then goto 1 else goto 2  1: v := 1 }")
    code = main(["--spec", str(spec), "--program", str(prog), "--entry", "f",
                 f"--int-domain={domain}"])
    assert code == 1
    assert "exceeds 32 bits" in capsys.readouterr().err


@pytest.mark.parametrize("domain", ["5", "a:b"])
def test_int_domain_not_lo_hi_is_usage_error(domain, capsys):
    code = main(["--spec", "guard.sl", "--program", "guard.ir", "--entry", "f",
                 f"--int-domain={domain}"])
    assert code == 1
    assert f"integer domain '{domain}': expected LO:HI" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--unfold-depth", "--solver-depth", "--max-nodes",
                                    "--timeout"])
def test_negative_budget_is_usage_error(option, tmp_path, capsys):
    # A negative --solver-depth would remove sat's depth bound, and make
    # field elimination drop every branch; each budget rejects one.
    spec = tmp_path / "guard.sl"
    spec.write_text("pre f == emp & true ;\n")
    prog = tmp_path / "guard.ir"
    prog.write_text("proc f(x: int) { 0: if x = 100 then goto 1 else goto 2  1: v := 1 }")
    args = ["--spec", str(spec), "--program", str(prog), "--entry", "f"]
    assert main([*args, option, "-1"]) == 1
    assert "'-1': must be 0 or more" in capsys.readouterr().err
    assert main([*args, option, "nan"]) == 1
    assert main([*args, option, "0", "--report", "json"]) in (0, 2)


def test_untyped_non_null_reference_gets_its_declared_type(tmp_path, capsys):
    # The model sorts p only as a reference; the input builder takes its
    # type from the entry parameter instead of refusing the model.
    spec = tmp_path / "ref.sl"
    spec.write_text("data C { int v; }\npre f == emp & true ;\n")
    prog = tmp_path / "ref.ir"
    prog.write_text("proc f(p: C) { 0: if p = null then goto 1 else goto 1 }")
    code = main(["--spec", str(spec), "--program", str(prog), "--entry", "f",
                 "--report", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["totals"]["feasible_percent"] == 100.0
    # The non-null input's object lies outside the precondition's empty
    # footprint, and the report says so.
    assert payload["tests"] == {"emitted": 2, "valid": 1}


def test_null_argument_at_a_points_to_head_runs(tmp_path, capsys):
    # sll(null) binds the head of sll's cell disjunct to null; that
    # disjunct has no model and is left out, so only emp seeds the run.
    spec = tmp_path / "null.sl"
    spec.write_text(corpus_path("sll.sl").read_text().replace(
        "pre contains == sll(root) ;", "pre f == sll(null) ;"))
    prog = tmp_path / "null.ir"
    prog.write_text("proc f(a: int) { 0: if a = 0 then goto 1 else goto 1 }")
    code = main(["--spec", str(spec), "--program", str(prog), "--entry", "f",
                 "--report", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tests"]["emitted"] > 0
    assert payload["tests"]["valid"] == payload["tests"]["emitted"]


@pytest.mark.parametrize("limit, stopped_by, other", [
    (["--timeout", "0"], "timeout", "node budget"),
    (["--max-nodes", "1"], "node budget", "timeout"),
])
def test_partial_run_names_the_budget_that_stopped_it(limit, stopped_by, other, capsys):
    code = main(["--spec", str(corpus_path("sll.sl")), "--program", str(corpus_path("sll.ir")),
                 "--entry", "contains", *limit])
    assert code == 2
    err = capsys.readouterr().err
    assert f"slc: {stopped_by} reached; outputs are partial" in err
    assert other not in err


def test_spec_only_makes_no_concolic_calls(tmp_path):
    result = run_bench("sortedlist", tmp_path, spec_only=True)
    assert result.report.concolic_solver_calls == 0
    assert result.report.total_tests == 10
    assert result.report.valid_tests == 10


def test_pipeline_totals_consistent(tmp_path):
    result = run_bench("dll", tmp_path)
    report = result.report
    assert report.covered_branches == sum(report.branches.values())
    assert report.total_branches == len(report.branches)
    assert report.valid_tests == report.total_tests
    text = render_coverage_text(report)
    assert f"{report.valid_tests} valid" in text


def test_seed_defaults_provides_fallback_seed(tmp_path):
    spec = tmp_path / "none.sl"
    # an unsatisfiable precondition generates nothing
    spec.write_text("data C { int v; }\n"
                    "pred p(x) == emp & x = null & !(x = null) ;\n"
                    "pre f == p(root) ;\n")
    prog = tmp_path / "none.ir"
    prog.write_text("proc f(root: C) { 0: v := 1 }")
    with pytest.raises(ir.ProgramError):
        run_pipeline(spec, prog, "f", unfold_depth=1)
    result = run_pipeline(spec, prog, "f", unfold_depth=1, seed_defaults=True)
    assert result.report.total_tests == 1
    assert result.report.runs[0][0] == "default-seed"


def test_annotations_loaded_per_entry():
    marks = load_annotations(corpus_path("bst.ir"), "remove", {"remove", "findMin"})
    assert marks == {("findMin", 0, "then")}
    assert load_annotations(corpus_path("sll.ir"), "contains", {"contains"}) == set()


@pytest.mark.parametrize("text", [
    "{bad",
    '{"contains": {"infeasible": [["contains", "x", "then"]]}}',
    '{"contains": {"infeasible": [["contains", 1]]}}',
    '{"contains": {"infeasible": [["contains", 1, "maybe"]]}}',
    '{"contains": {"infeasible": [["contains", 0, "then"]]}}',  # pc 0 is no conditional
    '{"contains": {"infeasible": [["other", 1, "then"]]}}',
    '{"contains": []}',
    '{"contians": {"infeasible": []}}',  # a misspelled procedure
])
def test_malformed_annotations_are_an_error_before_generation(text, tmp_path, capsys,
                                                               monkeypatch):
    for name in ("sll.sl", "sll.ir"):
        (tmp_path / name).write_text(corpus_path(name).read_text())
    (tmp_path / "sll.annotations.json").write_text(text)
    monkeypatch.setattr(T, "gen_from_spec", None)  # the check comes first
    code = main(["--spec", str(tmp_path / "sll.sl"), "--program", str(tmp_path / "sll.ir"),
                 "--entry", "contains"])
    assert code == 1 and capsys.readouterr().err.startswith("slc: error: ")


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_corpus_annotations_name_reached_conditionals(name, tmp_path):
    bench, run = BENCHMARKS[name], run_bench(name, tmp_path, spec_only=True)
    assert run.report.infeasible == load_annotations(
        corpus_path(bench.program), bench.entry, run.tree.program.source.procs)


# --------------------------------------------------------- measure_coverage


def fig7a_tree(bst_pre):
    """One conditional, then explored, else not: the first seed's tree."""
    spec = F.parse_spec(corpus_path("bst.sl").read_text())
    program = ir.parse_program(corpus_path("bst.ir").read_text(), datas=spec.datas)
    elab = ir.elaborate(program, "remove", inline_depth=2)
    tree = C.ConstraintTree(elab, bst_pre)
    outcome = C.run_test(T.TestInput({}, {"this_root": None, "x": 0}, "s"), tree)
    return tree, [("s", outcome)]


def test_fig7a_coverage_counts_one_of_two(bst_pre):
    tree, log = fig7a_tree(bst_pre)
    report = measure_coverage(tree, log)
    cond1 = {side: report.branches[("remove", 1, side)] for side in ("then", "else")}
    assert cond1 == {"then": True, "else": False}


def test_empty_log_zero_coverage(bst_pre):
    spec = F.parse_spec(corpus_path("bst.sl").read_text())
    program = ir.parse_program(corpus_path("bst.ir").read_text(), datas=spec.datas)
    elab = ir.elaborate(program, "remove", inline_depth=2)
    tree = C.ConstraintTree(elab, bst_pre)
    report = measure_coverage(tree, [])
    assert report.covered_branches == 0
    assert report.total_branches == 16


def test_full_bst_run_feasible_coverage(tmp_path):
    result = run_bench("bst", tmp_path)
    report = result.report
    assert report.feasible_percent == 100.0
    assert [b for b in report.feasible() if not report.branches[b]] == []
    assert report.infeasible == {("findMin", 0, "then")}
    assert not report.branches[("findMin", 0, "then")]


# ------------------------------------------------------------- determinism


def test_rerun_byte_identical(tmp_path):
    run_bench("sll", tmp_path, out="one")
    run_bench("sll", tmp_path, out="two")
    for name in ("suite.json", "coverage.json", "coverage.txt", "tree.dot"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes(), name


def random_text(rng):
    return "".join(rng.choice(["a", "Z", " ", '"', "\\", "\n", "\x00", "\x7f", "\u00e9",
                               "\u2603", "\U0001f600", "/"]) for _ in range(rng.randrange(6)))


def random_payload(rng, depth=0):
    """A seeded JSON payload: nested dicts, lists and tuples, empty ones
    among them, over strings with non-ASCII, escaped and astral characters,
    ints, floats (non-finite ones too), bools and None."""
    kind = rng.randrange(9 if depth < 4 else 6)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice([0, -1, 7, 2 ** 70, -(2 ** 40)])
    if kind == 2:
        return rng.choice([0.0, -0.0, 0.1, 1e300, -2.5e-8, 100.0, 33.33, rng.random(),
                           float("nan"), float("inf"), -float("inf")])
    if kind in (3, 4, 5):
        return [True, False, None][kind - 3]
    items = [random_payload(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    return {random_text(rng) + str(i): item for i, item in enumerate(items)}


def test_json_text_matches_json_dumps_with_indent():
    rng, kinds = random.Random(7), set()
    for _ in range(2000):
        payload = random_payload(rng)
        kinds.add(type(payload))
        assert json_text(payload) == json.dumps(payload, indent=2)
    assert kinds >= {dict, list, tuple, str, int, float, bool, type(None)}
    for payload in [{}, [], (), {"a": {}, "b": [[], {}]}, [True, 1, False, 0, 1.0]]:
        assert json_text(payload) == json.dumps(payload, indent=2)
    with pytest.raises(TypeError):
        json_text({"a": object()})


def test_artifacts_are_json_dumps_with_indent(tmp_path):
    run_bench("tll", tmp_path, spec_only=True, unfold_depth=4)
    for name in ("suite.json", "coverage.json"):
        text = (tmp_path / "out" / name).read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
