"""Tests for the batch front end: configs, reports, exit codes."""

import json
import re
import subprocess
import sys

import pytest

from tpw import cli, exactlin, halfderiv
from tpw.cli import ConfigError, load_config, reproduce, run


GW = {"family": "generalized_witt", "pairing": [["1", "0"], ["0", "1"]]}
B0 = {"family": "block", "f": [["0", "-1"], ["1", "0"]]}
B1 = {"family": "block", "g": ["-1", "0"], "h": ["0", "1"]}
WT = {"family": "witt_type", "f": ["1"]}

RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def small(task, algebra, payload=None, radius=2, margin=1):
    cfg = {
        "algebra": algebra,
        "window": {"radius": radius, "inner_margin": margin},
        "task": task,
    }
    if payload:
        cfg["payload"] = payload
    return cfg


def test_config_validation_names_fields():
    with pytest.raises(ConfigError, match="algebra"):
        load_config({"window": {"radius": 2}, "task": "check-lie"})
    with pytest.raises(ConfigError, match="window.radius"):
        load_config({"algebra": B0, "window": {"radius": 0}, "task": "check-lie"})
    with pytest.raises(ConfigError, match="task"):
        load_config({"algebra": B0, "window": {"radius": 2}, "task": "fly"})
    with pytest.raises(ConfigError, match="delta"):
        load_config({"algebra": B0, "window": {"radius": 2},
                     "task": "check-lie", "delta": "0"})
    with pytest.raises(ConfigError, match="limits.max_unknowns"):
        load_config({"algebra": B0, "window": {"radius": 2},
                     "task": "check-lie", "limits": {"max_unknowns": -1}})


def test_check_lie_passes_for_valid_spec():
    report = run(small("check-lie", B1))
    assert report["all_pass"]
    assert report["result"]["jacobi"]


def test_check_lie_reports_jacobi_witness():
    corrupted = {
        "family": "block",
        "g": ["1", "0", "0"],
        "f": [["0", "0", "0"], ["0", "0", "1"], ["0", "-1", "0"]],
        "raw": True,
    }
    report = run(small("check-lie", corrupted))
    assert not report["all_pass"]
    assert "jacobi_witness" in report["result"]


def test_witnesses_task():
    report = run(small("witnesses", B1, radius=3, margin=1))
    assert report["all_pass"]
    assert not report["result"]["degenerate_in_window"]


def test_center_square_task():
    report = run(small("center-square", B1, radius=3, margin=1))
    assert report["all_pass"]


def test_solve_task_verdict():
    report = run(small("solve-half-derivations", B0, payload={"degree_bound": 1}))
    assert report["all_pass"]
    assert report["result"]["verdict"] == "Delta = span{id, alpha}"


def test_verify_structure_task():
    payload = {"product": {"variant": "single_idempotent"}, "require_poisson": True}
    report = run(small("verify-structure", B0, payload=payload))
    assert report["all_pass"]
    payload = {"product": {"variant": "mutation",
                           "w": [{"index": [0], "coeff": "1"}]},
               "require_poisson": True}
    report = run(small("verify-structure", WT, payload=payload, radius=3))
    assert not report["all_pass"]  # poisson fails for the group product


def test_classify_task_expected_parameters():
    cfg = small("classify-tp", B1, payload={"degree_bound": 2,
                                            "expected_parameters": 1},
                radius=3, margin=2)
    report = run(cfg)
    assert report["all_pass"]
    assert report["result"]["n_parameters"] == 1


def _walk(value, seen):
    if isinstance(value, dict):
        for v in value.values():
            _walk(v, seen)
    elif isinstance(value, list):
        for v in value:
            _walk(v, seen)
    else:
        seen.append(value)


def test_reports_contain_no_floats():
    cfg = small("classify-tp", B0, payload={"degree_bound": 1})
    report = run(cfg)
    leaves = []
    _walk(report, leaves)
    for leaf in leaves:
        assert not isinstance(leaf, float), leaf
        if isinstance(leaf, str) and leaf and leaf[0].isdigit():
            pass  # free-text fields may embed numbers; only types matter


def test_reports_are_deterministic_modulo_timing():
    cfg = small("solve-half-derivations", B1, payload={"degree_bound": 1})
    a = run(json.loads(json.dumps(cfg)))
    b = run(json.loads(json.dumps(cfg)))
    a.pop("timing_ms")
    b.pop("timing_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_main_run_and_exit_codes(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(small("check-lie", B0)))
    assert cli.main(["run", "--config", str(path), "--json-only"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["all_pass"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"algebra": B0, "window": {"radius": 2},
                               "task": "unknown-task"}))
    assert cli.main(["run", "--config", str(bad), "--json-only"]) == 2
    err = capsys.readouterr().err
    assert "task" in err


def test_main_override_flags(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(small("solve-half-derivations", B1,
                                     payload={"degree_bound": 1})))
    code = cli.main(["run", "--config", str(path), "--radius", "3",
                     "--margin", "2", "--json-only"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["window"] == {"radius": 3, "inner_margin": 2}


@pytest.mark.parametrize("cfg,message", [
    ([small("check-lie", B0)], "JSON object"),
    (dict(small("check-lie", B0), window=3), "'window'"),
], ids=["config-list", "window-int"])
@pytest.mark.parametrize("flag", ["--radius", "--margin"])
def test_override_flags_leave_malformed_configs_to_validation(tmp_path, capsys,
                                                              cfg, message, flag):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), flag, "2", "--json-only"]) == 2
    assert message in capsys.readouterr().err


def test_max_unknowns_env_limit(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TPW_MAX_UNKNOWNS", "4")
    path = tmp_path / "job.json"
    path.write_text(json.dumps(small("solve-half-derivations", B0,
                                     payload={"degree_bound": 1})))
    assert cli.main(["run", "--config", str(path), "--json-only"]) == 3
    assert "max_unknowns" in capsys.readouterr().err


def test_env_limit_leaves_the_callers_config_as_it_was(monkeypatch):
    monkeypatch.setenv("TPW_MAX_UNKNOWNS", "5000")
    cfg = small("check-lie", B1)
    cfg["limits"] = {"max_triples": 10 ** 6}
    before = json.loads(json.dumps(cfg))
    report = run(cfg)
    assert report["config"]["limits"] == {"max_triples": 10 ** 6, "max_unknowns": 5000}
    assert cfg == before


def test_console_script_entry_point(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(small("check-lie", WT)))
    proc = subprocess.run(
        [sys.executable, "-m", "tpw.cli", "run", "--config", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["all_pass"]
    assert "lie-axioms: pass" in proc.stderr


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every start-up pays for what ``import tpw.cli`` loads; modules that the
    interpreter's site set-up loaded before it do not count."""
    code = ("import sys; before = set(sys.modules); import tpw.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_an_unasserted_verdict_exits_0_and_says_so(tmp_path, capsys):
    """On a degenerate Block the sweep reports dimensions only, so classify-tp
    asserts no associativity: that verdict is null and fails no job."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(small("classify-tp", {**B1, "g": ["1", "0"], "h": ["-1", "0"]},
                                     payload={"degree_bound": 1})))
    assert cli.main(["run", "--config", str(path)]) == 0
    out, err = capsys.readouterr()
    assert {"name": "classify-associativity", "pass": None} in json.loads(out)["verdicts"]
    assert "classify-associativity: unasserted" in err


@pytest.mark.parametrize("radius,margin,n_parameters", [(2, 1, 1), (3, 2, 0)])
def test_expected_parameters_are_unasserted_on_a_degenerate_block(tmp_path, capsys, radius,
                                                                   margin, n_parameters):
    """A dimension-only sweep asserts no family, so neither is its parameter
    count, which here depends on the window: the job exits 0 on both."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(small(
        "classify-tp", {**B1, "g": ["1", "0"], "h": ["-1", "0"]},
        payload={"degree_bound": 1, "expected_parameters": 1}, radius=radius, margin=margin)))
    assert cli.main(["run", "--config", str(path)]) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["result"]["n_parameters"] == n_parameters
    assert {"name": "expected-parameters", "pass": None} in report["verdicts"]
    assert "expected-parameters: unasserted" in err


def test_reproduce_suite_thmA():
    reports = reproduce("thmA")
    assert [r["job"] for r in reports] == ["witt-rigidity", "witt-type-mutation"]
    assert all(r["all_pass"] for r in reports)
    assert reports[0]["result"]["verdict"] == "Delta = span{id}"


def test_reproduce_suite_thmB():
    reports = reproduce("thmB")
    assert [r["job"] for r in reports] == [
        "block-g0-uniqueness", "block-empty-coset-trivial",
        "block-extension-family"]
    assert all(r["all_pass"] for r in reports)


def test_reproduce_rejects_unknown_suite():
    with pytest.raises(ConfigError):
        reproduce("thmC")


@pytest.mark.parametrize("flag,value", [
    ("--radius", "9"), ("--margin", "1"), ("--delta", "1"), ("--seed", "3")])
def test_reproduce_rejects_the_run_overrides(flag, value, capsys):
    """The suites fix their own windows, deltas and seeds."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce", "--suite", "thmA", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("delta,echoed", [
    (0.5, "1/2"), ("0.5", "1/2"), ("2/4", "1/2"), (" 3 ", "3"), (2, "2")])
def test_delta_is_echoed_as_a_canonical_rational(delta, echoed):
    cfg = dict(small("check-lie", WT), delta=delta)
    assert load_config(cfg)["delta"] == echoed
    assert run(cfg)["config"]["delta"] == echoed


def test_raw_block_solve_task_fails_cleanly(tmp_path, capsys):
    raw = {"family": "block", "g": ["1", "0", "0"],
           "f": [["0", "0", "0"], ["0", "0", "1"], ["0", "-1", "0"]],
           "raw": True}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(small("solve-half-derivations", raw,
                                     payload={"degree_bound": 1})))
    assert cli.main(["run", "--config", str(path), "--json-only"]) == 2
    assert "presentation" in capsys.readouterr().err


@pytest.mark.parametrize("algebra,verdict", [
    ({"family": "block", "g": ["1", "0"], "h": ["-1", "0"]}, "degenerate form f"),
    ({"family": "block", "f": [["0", "0"], ["0", "0"]]}, "degenerate form f"),
    ({"family": "block", "g": ["1", "0", "0"], "h": ["0", "1", "0"]}, "degenerate form f"),
    ({"family": "generalized_witt", "pairing": [["1", "0"], ["0", "0"]]},
     "degenerate pairing"),
    ({"family": "generalized_witt", "pairing": [["1", "0", "0"], ["0", "1", "0"]]},
     "degenerate pairing"),
    ({"family": "generalized_witt", "pairing": [["1", "0"], ["0", "1"], ["1", "1"]]},
     None),
], ids=["block-h-parallel-to-g", "block-f-zero", "block-rank-3", "gw-rank-1-of-2",
        "gw-rank-2-of-3", "gw-degenerate-on-v-only"])
def test_only_lattice_degenerate_data_get_a_dimension_report(tmp_path, capsys, algebra,
                                                              verdict):
    """The classifications assume a form or pairing of rank n over Q."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(small("solve-half-derivations", algebra,
                                     payload={"degree_bound": 1})))
    assert cli.main(["run", "--config", str(path), "--json-only"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    if verdict is None:
        assert result["verdict"] == "Delta = span{id}" and result["authoritative"]
    else:
        assert result["verdict"] == "dimension report only (%s)" % verdict
        assert not result["authoritative"]


def test_witnesses_task_on_pairing():
    report = run(small("witnesses", GW, radius=2, margin=1))
    assert report["all_pass"]
    assert not report["result"]["degenerate_in_window"]


def test_cell_limit_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(exactlin, "DEFAULT_MAX_CELLS", 1000)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(small("solve-half-derivations", B0,
                                     payload={"degree_bound": 1})))
    assert cli.main(["run", "--config", str(path), "--json-only"]) == 3
    assert "1000-cell limit" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["solve-half-derivations", "classify-tp"])
def test_default_cell_limit_exits_3_before_any_degree_is_listed(task, tmp_path, capsys,
                                                                monkeypatch):
    """Block g = 0 at radius 100000 with no limits set: the default degree
    bound 50000 would list 10^10 degrees, and the cell limit refuses first."""
    def no_degree_box(bound, rank):
        raise AssertionError("Box(%d) was listed" % bound)
    monkeypatch.setattr(halfderiv, "box_points", no_degree_box)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"algebra": B0, "window": {"radius": 100000}, "task": task}))
    assert cli.main(["run", "--config", str(path), "--json-only"]) == 3
    assert "%d-cell limit" % exactlin.DEFAULT_MAX_CELLS in capsys.readouterr().err


def test_check_lie_limit_exits_3(tmp_path, capsys):
    cfg = small("check-lie", B0)
    cfg["limits"] = {"max_triples": 10}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), "--json-only"]) == 3
    assert "limit exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("task,payload", [
    ("check-lie", None),
    ("verify-structure", {"product": {"variant": "single_idempotent"}}),
])
def test_pair_stages_stop_at_max_triples(task, payload, tmp_path, monkeypatch, capsys):
    # Window(12) on rank 2 has 625 labels: 390,625 ordered pairs
    from tpw.algebra import Block
    from tpw.tpstruct import SingleIdempotent

    calls = []
    for cls, name in ((Block, "label_bracket"), (SingleIdempotent, "basis_product")):
        def counted(self, *args, _fn=getattr(cls, name)):
            calls.append(name)
            return _fn(self, *args)
        monkeypatch.setattr(cls, name, counted)
    cfg = small(task, B0, payload=payload, radius=12, margin=6)
    cfg["limits"] = {"max_triples": 10}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), "--json-only"]) == 3
    assert "max_triples" in capsys.readouterr().err
    # each stage evaluates at most 10 tuples, and a tuple's identities read
    # at most 12 basis products and brackets of two basis labels
    assert 0 < len(calls) <= 12 * 2 * 10


def _limited_run(tmp_path, cfg, limit):
    cfg = dict(cfg, limits={"max_triples": limit})
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    return cli.main(["run", "--config", str(path), "--json-only"])


def test_classify_associativity_samples_respect_max_triples(tmp_path, capsys):
    # 9 inner labels: the one associativity scan of the passing family, one
    # generator with the single key {0, 0}, evaluates the 17 triples with 0
    # first or second, however many samples it reports
    cfg = small("classify-tp", B0, payload={"degree_bound": 1})
    assert _limited_run(tmp_path, cfg, 17 - 1) == 3
    assert "max_triples limit 16 exceeded in stage associativity: 1 generators form" \
        " 1 associators at each of 17 triples" in capsys.readouterr().err
    assert _limited_run(tmp_path, cfg, 17) == 0


def test_a_limit_at_the_tuples_a_certified_lie_scan_needs_passes(tmp_path, capsys):
    # rank 1: 3 grid labels, 6 grid pairs and 10 grid triples decide both stages
    cfg = small("check-lie", WT)
    assert _limited_run(tmp_path, cfg, 10) == 0
    assert _limited_run(tmp_path, cfg, 9) == 3
    assert "max_triples limit 9 exceeded in stage jacobi" in capsys.readouterr().err


def test_a_limit_at_the_corrupted_blocks_witness_gives_the_unlimited_report(
        tmp_path, capsys):
    # 378 grid pairs pass; the Jacobi witness is grid triple 406
    cfg = small("check-lie", {"family": "block", "g": ["1", "0", "0"], "raw": True,
                              "f": [["0", "0", "0"], ["0", "0", "1"], ["0", "-1", "0"]]},
                radius=3, margin=1)
    unlimited = run(cfg)
    assert _limited_run(tmp_path, cfg, 406) == 1
    report = json.loads(capsys.readouterr().out)
    for r in (report, unlimited):
        r.pop("timing_ms")
        r["config"].pop("limits", None)
    assert report == unlimited
    assert _limited_run(tmp_path, cfg, 405) == 3
    assert "exceeded in stage jacobi" in capsys.readouterr().err


def test_classify_refuses_more_associators_than_max_triples(tmp_path, capsys):
    # abelian rank 1 at Window(2, 1): 14 generators, 3 inner labels, so the
    # scan forms up to 14^2 associators at each of 3^3 triples; f = 0 is
    # degenerate, so the scan runs in full and its verdict reads unasserted
    limit = 14 ** 2 * 3 ** 3
    cfg = small("classify-tp", {"family": "witt_type", "f": ["0"]},
                payload={"degree_bound": 1})
    path = tmp_path / "job.json"
    cfg["limits"] = {"max_triples": limit - 1}
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), "--json-only"]) == 3
    assert "14 generators form 196 associators at each of 27 triples" in (
        capsys.readouterr().err)
    cfg["limits"] = {"max_triples": limit}
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), "--json-only"]) == 0
    out = capsys.readouterr()
    assert "limit" not in out.err
    assert json.loads(out.out)["verdicts"][1] == {"name": "classify-associativity",
                                                 "pass": None}


def test_classify_associativity_is_decided_without_samples(tmp_path, capsys):
    """The truncated group product of Witt type is not associative; the
    verdict covers the whole family, so it fails with no sample drawn."""
    cfg = small("classify-tp", WT, payload={"degree_bound": 1, "samples": 0},
                radius=3, margin=1)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), "--json-only"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["n_parameters"] == 1
    assert report["result"]["associativity_samples"] == []
    assert {"name": "classify-associativity", "pass": False} in report["verdicts"]


@pytest.mark.parametrize("task,algebra,payload,field", [
    ("classify-tp", B0, {"degree_bound": 1, "samples": "3"}, "samples"),
    ("classify-tp", B0, {"degree_bound": 1, "expected_parameters": -1},
     "expected_parameters"),
    ("verify-structure", WT, {"require_poisson": "yes", "product": {
        "variant": "mutation", "w": [{"index": [0], "coeff": "1"}]}},
     "require_poisson"),
], ids=["samples", "expected_parameters", "require_poisson"])
def test_payload_field_types_are_validated(tmp_path, capsys, task, algebra,
                                           payload, field):
    cfg = small(task, algebra, payload=payload)
    with pytest.raises(ConfigError, match="payload.%s" % field):
        run(json.loads(json.dumps(cfg)))
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), "--json-only"]) == 2
    assert "payload.%s" % field in capsys.readouterr().err


# an element naming one index twice
_TWICE = [{"index": [0], "coeff": "1"}, {"index": [0], "coeff": "-1"}]


def _table_product(entry):
    item = {"a": [0], "b": [0], "value": [{"index": [0], "coeff": "1"}]}
    item.update(entry)
    return {"variant": "explicit", "table": [item]}


@pytest.mark.parametrize("cfg,field", [
    (small("verify-structure", WT, payload={"product": [1]}), "payload.product"),
    (small("verify-structure", WT, payload={"product": _table_product({"value": 3})}),
     "payload.product"),
    (small("verify-structure", WT, payload={"product": _table_product({"a": 5})}),
     "payload.product"),
    (small("verify-structure", WT, payload={"product": _table_product({"a": ["x"],
                                                                       "b": ["y"]})}),
     "payload.product"),
    (small("verify-structure", WT, payload={"product": {"variant": "mutation", "w": 5}}),
     "payload.product"),
    (small("check-lie", {"family": "witt_type", "f": 5}), "algebra"),
    (dict(small("check-lie", B0), window={"radius": True}), "window.radius"),
    (dict(small("check-lie", B0), window={"radius": 2, "inner_margin": True}),
     "window.inner_margin"),
    (dict(small("check-lie", B0), seed=True), "seed"),
    (dict(small("check-lie", B0), limits={"max_triples": True}), "limits.max_triples"),
    (dict(small("check-lie", B0), limits={"max_unknowns": True}), "limits.max_unknowns"),
    (dict(small("check-lie", B0), delta="1/0"), "delta"),
    (small("check-lie", {"family": "witt_type", "f": ["1/0"]}), "algebra"),
    (small("classify-tp", {"family": "witt_type", "f": []}), "algebra"),
    (small("verify-structure", WT, payload={"product": {
        "variant": "mutation", "w": [{"index": [0], "coeff": "1/0"}]}}), "payload.product"),
    (small("verify-structure", WT, payload={"product": {
        "variant": "mutation", "w": [{"index": [0.7], "coeff": "1"}]}}), "payload.product"),
    (small("verify-structure", WT, payload={"product": {
        "variant": "mutation", "w": [{"index": [True], "coeff": "1"}]}}), "payload.product"),
    (small("verify-structure", WT, payload={"product": _table_product({"b": [0.5]})}),
     "payload.product"),
    (small("check-lie", {"family": "witt_type", "f": "12"}), "algebra"),
    (small("check-lie", {"family": "generalized_witt", "pairing": "12"}), "algebra"),
    (small("check-lie", {"family": "block", "f": ["00", "00"]}), "algebra"),
    (small("check-lie", dict(B0, g=["1", "0"])), "algebra"),
    (small("check-lie", dict(B1, f=B0["f"])), "algebra"),
    (small("check-lie", dict(B0, g=["0", "0"], raw="no")), "algebra"),
    (small("check-lie", dict(B0, g=["1"], raw=True)), "algebra"),
    (small("verify-structure", WT, payload={"product": {
        "variant": "mutation", "w": _TWICE}}), "payload.product"),
    (small("verify-structure", WT, payload={"product": _table_product({"value": _TWICE})}),
     "payload.product"),
    (small("check-lie", dict(WT, raw=True)), "algebra"),
    (small("check-lie", {"family": "generalized_witt", "pairing": [["1"]], "f": ["1"]}),
     "algebra"),
    (small("verify-structure", WT, payload={"product": {"variant": "zero", "w": []}}),
     "payload.product"),
    # elements and tables have the documented JSON shapes: an object is not
    # an empty list, and a term or table item has no other keys
    (small("verify-structure", WT, payload={"product": {"variant": "mutation", "w": {}}}),
     "payload.product"),
    (small("verify-structure", B1, payload={"product": {
        "variant": "extension_by_zero", "star": {}}}), "payload.product"),
    (small("verify-structure", WT, payload={"product": {"variant": "explicit", "table": {}}}),
     "payload.product"),
    (small("verify-structure", WT, payload={"product": _table_product({"value": {}})}),
     "payload.product"),
    (small("verify-structure", WT, payload={"product": {
        "variant": "mutation", "w": [{"index": [0], "coeff": "1", "typo": "2"}]}}),
     "payload.product"),
    (small("verify-structure", WT, payload={"product": _table_product({"c": "1"})}),
     "payload.product"),
], ids=["product-list", "table-value-int", "table-index-int", "table-index-text",
        "multiplier-int",
        "algebra-map-int", "radius-bool", "margin-bool", "seed-bool",
        "max-triples-bool", "max-unknowns-bool", "delta-zero-denominator",
        "algebra-zero-denominator", "algebra-rank-0", "coefficient-zero-denominator",
        "multiplier-index-float", "multiplier-index-bool", "table-index-float",
        "map-string", "pairing-string", "form-row-strings", "form-with-g",
        "gh-with-f", "raw-not-bool", "raw-g-of-another-rank", "multiplier-index-twice",
        "table-value-index-twice", "witt-type-with-raw", "pairing-with-f",
        "zero-product-with-w", "multiplier-object", "star-object", "table-object",
        "table-value-object", "term-unknown-key", "table-item-unknown-key"])
def test_malformed_configs_name_the_field(tmp_path, capsys, cfg, field):
    with pytest.raises(ConfigError, match=re.escape(field)):
        run(json.loads(json.dumps(cfg)))
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), "--json-only"]) == 2
    assert "'%s'" % field in capsys.readouterr().err


@pytest.mark.parametrize("cfg,message", [
    (small("verify-structure", B1, payload={"product": {"variant": "single_idempotent"}}),
     "Block with g = 0"),
    (small("center-square", WT), "Block algebras only"),
    (small("verify-structure", WT, payload={"product": {
        "variant": "mutation", "w": [{"index": [0, 0], "coeff": "1"}]}}), "rank 1"),
    (small("verify-structure", B1, payload={"product": {
        "variant": "extension_by_zero",
        "star": [{"a": [0], "b": [0], "value": [{"index": [0, -1], "coeff": "1"}]}]}}),
     "rank 2"),
    (small("center-square", dict(B1, h=["2", "0"])), "non-degenerate form f"),
    (small("verify-structure", dict(B1, h=["2", "0"]), payload={"product": {
        "variant": "extension_by_zero",
        "star": [{"a": [0, 1], "b": [0, 1], "value": [{"index": [0, 0], "coeff": "1"}]}]}}),
     "non-degenerate form f"),
    (small("verify-structure", {"family": "generalized_witt", "pairing": [["1"]]},
           payload={"product": _table_product({"value": [{"index": [0],
                                                          "coeff": ["1", "5"]}]})}),
     "coefficients do not match the family"),
    (small("verify-structure", WT, payload={"product": {
        "variant": "mutation", "w": [{"index": [0], "coeff": ["1"]}]}}),
     "coefficients do not match the family"),
    (small("verify-structure", {"family": "generalized_witt", "pairing": [["1"]]},
           payload={"product": {"variant": "mutation",
                                "w": [{"index": [0], "coeff": "1"}]}}),
     "coefficients do not match the family"),
    # zero coefficients and zero values are checked as given, before they vanish
    (small("verify-structure", WT, payload={"product": {
        "variant": "mutation", "w": [{"index": [0], "coeff": []}]}}),
     "coefficients do not match the family"),
    (small("verify-structure", WT, payload={"product": {
        "variant": "mutation", "w": [{"index": [0], "coeff": ["0"]}]}}),
     "coefficients do not match the family"),
    (small("verify-structure", WT, payload={"product": {
        "variant": "mutation", "w": [{"index": [0, 0], "coeff": "0"}]}}), "rank 1"),
    (small("verify-structure", {"family": "generalized_witt", "pairing": [["1"]]},
           payload={"product": {"variant": "mutation",
                                "w": [{"index": [0], "coeff": []}]}}),
     "coefficients do not match the family"),
    (small("verify-structure", {"family": "generalized_witt", "pairing": [["1"]]},
           payload={"product": {"variant": "mutation",
                                "w": [{"index": [0], "coeff": "0"}]}}),
     "coefficients do not match the family"),
    (small("verify-structure", {"family": "generalized_witt", "pairing": [["1"]]},
           payload={"product": {"variant": "mutation",
                                "w": [{"index": [0], "coeff": ["0", "0"]}]}}),
     "coefficients do not match the family"),
    (small("verify-structure", WT, payload={"product": _table_product(
        {"a": [0, 0], "value": []})}), "rank 1"),
    (small("verify-structure", WT, payload={"product": _table_product(
        {"a": [0, 0], "value": [{"index": [1], "coeff": "0"}]})}), "rank 1"),
], ids=["idempotent-on-g-nonzero", "center-square-on-witt-type", "multiplier-rank",
        "star-rank", "center-square-degenerate", "star-degenerate",
        "table-value-of-two-components", "multiplier-vector-on-witt-type",
        "multiplier-scalar-on-gw1", "zero-multiplier-empty-array-on-witt-type",
        "zero-multiplier-array-on-witt-type", "zero-multiplier-rank",
        "zero-multiplier-empty-array-on-gw1", "zero-multiplier-scalar-on-gw1",
        "zero-multiplier-two-components-on-gw1", "empty-table-value-key-rank",
        "zero-table-value-key-rank"])
def test_products_and_tasks_off_their_family_exit_2(tmp_path, capsys, cfg, message):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), "--json-only"]) == 2
    err = capsys.readouterr().err
    assert "invalid job" in err and message in err


@pytest.mark.parametrize("entry", [
    {"a": [1, 0], "b": [1, 0], "value": []},
    {"a": [0, -2], "b": [0, -2], "value": [{"index": [1, 1], "coeff": "0"}]},
], ids=["square-key", "off-centre-index"])
def test_zero_star_entries_need_only_the_shape_and_rank(tmp_path, entry):
    """A zero value is central, so a star entry worth 0 is checked for its
    shape and rank but not for the square and the center."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(small("verify-structure", B1, payload={"product": {
        "variant": "extension_by_zero", "star": [entry]}})))
    assert cli.main(["run", "--config", str(path), "--json-only"]) == 0


@pytest.mark.parametrize("value", ["-5", "0", "many"])
def test_max_unknowns_env_must_be_positive(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("TPW_MAX_UNKNOWNS", value)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(small("solve-half-derivations", B0,
                                     payload={"degree_bound": 1})))
    assert cli.main(["run", "--config", str(path), "--json-only"]) == 2
    assert "TPW_MAX_UNKNOWNS" in capsys.readouterr().err
