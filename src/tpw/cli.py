"""Batch front end: structured job configs in, JSON reports out.

One job per invocation. Reports are deterministic given (config, seed);
the only field excluded from golden comparisons is ``timing_ms``. Every
numeric value in a report is an integer or a "p/q" string.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import exactlin, halfderiv, tpstruct
from .algebra import (
    FamilyMismatchError,
    SpecMismatchError,
    _is_int,
    spec_from_json,
    spec_to_json,
    element_to_json,
    label_to_json,
    verify_center,
    verify_lie_axioms,
    verify_square,
)
from .exactlin import scalar_from_str, scalar_to_str
from .lattice import RankMismatchError, Window, nondegeneracy_witnesses
from .tpstruct import product_from_json, product_to_json

SCHEMA_VERSION = "1"

TASKS = (
    "check-lie",
    "witnesses",
    "center-square",
    "solve-half-derivations",
    "classify-tp",
    "verify-structure",
)


class ConfigError(Exception):
    """A job config failed validation; the message names the field."""


def _require(config, field, kind=None):
    if field not in config:
        raise ConfigError("missing field %r" % field)
    value = config[field]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError("field %r has the wrong type" % field)
    return value


def load_config(data: dict) -> dict:
    """Validate a raw config dict and fill the defaults in; ``window.inner_margin``
    is the radius of the inner box the comparisons read, not a margin width."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    cfg = dict(data)
    algebra = _require(cfg, "algebra", dict)
    try:
        spec = spec_from_json(algebra)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError("field 'algebra' is invalid: %s" % exc)
    if spec.rank < 1:
        raise ConfigError("field 'algebra' is invalid: the lattice has rank 0")
    window = _require(cfg, "window", dict)
    radius = _require(window, "radius")
    if not _is_int(radius) or radius < 1:
        raise ConfigError("field 'window.radius' must be an integer >= 1")
    margin = window.get("inner_margin")
    if margin is not None and not _is_int(margin):
        raise ConfigError("field 'window.inner_margin' has the wrong type")
    try:
        Window(radius, margin)
    except ValueError as exc:
        raise ConfigError("field 'window.inner_margin' is invalid: %s" % exc)
    task = _require(cfg, "task", str)
    if task not in TASKS:
        raise ConfigError("field 'task' must be one of %s" % (", ".join(TASKS)))
    try:
        delta = scalar_from_str(cfg.setdefault("delta", "1/2"))
    except ValueError:
        raise ConfigError("field 'delta' is not a valid rational")
    if delta == 0:
        raise ConfigError("field 'delta' must be nonzero")
    cfg["delta"] = scalar_to_str(delta)  # echoed in the report as "p/q"
    seed = cfg.setdefault("seed", 0)
    if not _is_int(seed):
        raise ConfigError("field 'seed' has the wrong type")
    payload = cfg.setdefault("payload", {})
    if not isinstance(payload, dict):
        raise ConfigError("field 'payload' has the wrong type")
    limits = cfg.setdefault("limits", {})
    if not isinstance(limits, dict):
        raise ConfigError("field 'limits' has the wrong type")
    limits = cfg["limits"] = dict(limits)  # written below; the caller's stays as it was
    for key in ("max_unknowns", "max_triples"):
        if key in limits and (not _is_int(limits[key]) or limits[key] <= 0):
            raise ConfigError("field 'limits.%s' must be a positive integer" % key)
    env_limit = os.environ.get("TPW_MAX_UNKNOWNS")
    if env_limit is not None:
        if not env_limit.strip().isdigit() or int(env_limit) <= 0:
            raise ConfigError("TPW_MAX_UNKNOWNS must be a positive integer")
        limits["max_unknowns"] = int(env_limit)
    return cfg


def _window_of(cfg) -> Window:
    return Window(cfg["window"]["radius"], cfg["window"].get("inner_margin"))


def _task_check_lie(spec, cfg, window):
    report = verify_lie_axioms(spec, window,
                               max_triples=cfg["limits"].get("max_triples"))
    result = {
        "anticommutative": report.anticommutative,
        "jacobi": report.jacobi,
        "n_pairs": report.n_pairs,
        "n_triples": report.n_triples,
    }
    for name, labels, witness in (
            ("anticommutativity_witness", "pair", report.anticommutativity_witness),
            ("jacobi_witness", "triple", report.jacobi_witness)):
        if witness is not None:  # the labels, then the residual
            result[name] = {labels: [label_to_json(l, spec) for l in witness[:-1]],
                            "residual": element_to_json(witness[-1], spec)}
    return result, [("lie-axioms", report.passed)]


def _task_witnesses(spec, cfg, window):
    if spec.family == "generalized_witt":  # a witness is a vector of V
        datum, entry = spec.pairing, scalar_to_str
    elif spec.family == "block":  # ... or a lattice point
        datum, entry = spec.f, int
    else:
        raise ConfigError("field 'task': witnesses needs a form or a pairing")
    report = nondegeneracy_witnesses(datum, window)
    result = {
        "n_witnessed": len(report.witnesses),
        "missing": [list(a) for a in report.missing],
        "degenerate_in_window": report.degenerate_in_window,
    }
    sample = {}
    for a in sorted(report.witnesses)[:16]:
        sample[",".join(map(str, a))] = [entry(x) for x in report.witnesses[a]]
    result["witness_sample"] = sample
    return result, [("non-degenerate-in-window", not report.degenerate_in_window)]


def _task_center_square(spec, cfg, window):
    center = verify_center(spec, window)
    square = verify_square(spec, window)
    result = {
        "center_confirmed": len(center.confirmed) + len(center.witnesses),
        "center_failures": [label_to_json(a, spec) for a, _ in center.failures],
        "square_confirmed": len(square.confirmed) + len(square.witnesses),
        "square_failures": [label_to_json(a, spec) for a, _ in square.failures],
    }
    return result, [("center", center.passed), ("square", square.passed)]


def _payload_count(payload, field, default):
    """A non-negative integer payload field, or ``default`` when absent."""
    if field not in payload:
        return default
    value = payload[field]
    if not _is_int(value) or value < 0:
        raise ConfigError("field 'payload.%s' must be a non-negative integer" % field)
    return value


def _task_solve(spec, cfg, window):
    payload = cfg["payload"]
    bound = _payload_count(payload, "degree_bound", window.inner_margin)
    report = halfderiv.sweep(
        spec, window, bound,
        delta=scalar_from_str(cfg["delta"]),
        max_unknowns=cfg["limits"].get("max_unknowns"))
    return report.to_json(), [("half-derivations", report.all_pass)]


def _task_classify(spec, cfg, window):
    payload = cfg["payload"]
    bound = _payload_count(payload, "degree_bound", window.inner_margin)
    n_samples = _payload_count(payload, "samples", 5)
    expected = _payload_count(payload, "expected_parameters", None)
    solved = halfderiv.solve_degrees(
        spec, window, bound,
        delta=scalar_from_str(cfg["delta"]),
        max_unknowns=cfg["limits"].get("max_unknowns"))
    sweep_report = halfderiv.sweep(spec, window, bound,
                                   delta=scalar_from_str(cfg["delta"]),
                                   solved=solved)
    res = tpstruct.classify(spec, solved, window, bound,
                            n_samples=n_samples,
                            seed=cfg["seed"],
                            max_triples=cfg["limits"].get("max_triples"))
    result = {
        "sweep_verdict": sweep_report.verdict,
        "n_parameters": res.n_parameters,
        "parameters": [
            {"name": p.name, "left_index": label_to_json(p.left_index, spec),
             "degree": list(p.degree), "basis_position": p.basis_position}
            for p in res.parameters],
        "generators": [product_to_json(g, spec) for g in res.generators],
        "associativity_samples": [
            {"pass": ok,
             "witness": None if w is None else [label_to_json(l, spec) for l in w]}
            for ok, w in res.associativity_samples],
    }
    # a sweep of dimensions only asserts no family, so neither the scan nor
    # the parameter count is asserted
    asserted = sweep_report.reason is None
    verdicts = [("sweep", sweep_report.all_pass),
                ("classify-associativity", res.associativity_pass if asserted else None)]
    if expected is not None:
        verdicts.append(("expected-parameters",
                         res.n_parameters == expected if asserted else None))
    return result, verdicts


def _task_verify_structure(spec, cfg, window):
    payload = cfg["payload"]
    if not isinstance(payload.get("product"), dict):
        raise ConfigError("field 'payload.product' must be a product object")
    require_poisson = payload.get("require_poisson", False)
    if not isinstance(require_poisson, bool):
        raise ConfigError("field 'payload.require_poisson' must be true or false")
    try:
        product = product_from_json(payload["product"], spec)
    except (SpecMismatchError, RankMismatchError):
        raise  # well formed, but off the algebra's family or rank: an invalid job
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError("field 'payload.product' is invalid: %s" % exc)
    report = tpstruct.verify(spec, product, window,
                             max_triples=cfg["limits"].get("max_triples"))
    result = {"n_triples": report.n_triples}
    for name in ("commutative", "associative", "trans_leibniz", "poisson_leibniz"):
        check = getattr(report, name)
        entry = {"pass": check.passed}
        if check.witness is not None:
            labels, lhs, rhs = check.witness
            entry["witness"] = {
                "labels": [label_to_json(l, spec) for l in labels],
                "lhs": element_to_json(lhs, spec),
                "rhs": element_to_json(rhs, spec),
            }
        result[name] = entry
    verdicts = [("tp-axioms", report.tp_pass)]
    if require_poisson:
        verdicts.append(("poisson-leibniz", report.poisson_leibniz.passed))
    return result, verdicts


_TASK_TABLE = {
    "check-lie": _task_check_lie,
    "witnesses": _task_witnesses,
    "center-square": _task_center_square,
    "solve-half-derivations": _task_solve,
    "classify-tp": _task_classify,
    "verify-structure": _task_verify_structure,
}


def run(config: dict) -> dict:
    """Run one validated job config and return the report dict."""
    cfg = load_config(config)
    spec = spec_from_json(cfg["algebra"])
    window = _window_of(cfg)
    started = time.monotonic()
    result, verdicts = _TASK_TABLE[cfg["task"]](spec, cfg, window)
    elapsed_ms = int((time.monotonic() - started) * 1000)
    return {
        "schema_version": SCHEMA_VERSION,
        "task": cfg["task"],
        "config": {
            "algebra": spec_to_json(spec),
            "window": {"radius": window.radius, "inner_margin": window.inner_margin},
            "delta": cfg["delta"],
            "seed": cfg["seed"],
            "payload": cfg["payload"],
            "limits": cfg["limits"],
        },
        "result": result,
        "verdicts": [{"name": name, "pass": ok} for name, ok in verdicts],
        "all_pass": all(ok for _, ok in verdicts if ok is not None),
        "timing_ms": elapsed_ms,
    }


def _gw_spec():
    return {"family": "generalized_witt", "pairing": [["1", "0"], ["0", "1"]]}


def _b1_spec():
    return {"family": "block", "g": ["-1", "0"], "h": ["0", "1"]}


def _b0_spec():
    return {"family": "block", "f": [["0", "-1"], ["1", "0"]]}


def _witt_spec():
    return {"family": "witt_type", "f": ["1"]}


def _no_coset_spec():
    # h hits -1 and -2 nowhere on the lattice, so the coset sets are empty.
    return {"family": "block", "g": ["-1", "0"], "h": ["0", "3"]}


THEOREM_SUITES = {
    "thmA": [
        {
            "name": "witt-rigidity",
            "algebra": _gw_spec(),
            "window": {"radius": 3, "inner_margin": 2},
            "task": "solve-half-derivations",
            "payload": {"degree_bound": 2},
        },
        {
            "name": "witt-type-mutation",
            "algebra": _witt_spec(),
            "window": {"radius": 4, "inner_margin": 2},
            "task": "verify-structure",
            "payload": {"product": {
                "variant": "mutation",
                "w": [{"index": [-1], "coeff": "2/3"},
                      {"index": [0], "coeff": "1"},
                      {"index": [2], "coeff": "-5"}],
            }},
        },
    ],
    "thmB": [
        {
            "name": "block-g0-uniqueness",
            "algebra": _b0_spec(),
            "window": {"radius": 3, "inner_margin": 2},
            "task": "classify-tp",
            "payload": {"degree_bound": 2, "expected_parameters": 1},
        },
        {
            "name": "block-empty-coset-trivial",
            "algebra": _no_coset_spec(),
            "window": {"radius": 3, "inner_margin": 2},
            "task": "classify-tp",
            "payload": {"degree_bound": 2, "expected_parameters": 0},
        },
        {
            "name": "block-extension-family",
            "algebra": _b1_spec(),
            "window": {"radius": 3, "inner_margin": 2},
            "task": "classify-tp",
            "payload": {"degree_bound": 2, "expected_parameters": 1},
        },
    ],
}


def reproduce(suite: str) -> list:
    """Run the bundled theorem suites and return the list of reports."""
    if suite == "all":
        names = ["thmA", "thmB"]
    elif suite in THEOREM_SUITES:
        names = [suite]
    else:
        raise ConfigError("unknown suite %r" % suite)
    reports = []
    for name in names:
        for job in THEOREM_SUITES[name]:
            job = dict(job)
            label = job.pop("name")
            report = run(job)
            report["job"] = label
            report["suite"] = name
            reports.append(report)
    return reports


def _emit(report, json_only: bool) -> None:
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if not json_only:
        if isinstance(report, list):
            lines = ["%s/%s: %s" % (r["suite"], r["job"],
                                    "pass" if r["all_pass"] else "FAIL")
                     for r in report]
        else:
            lines = ["%s: %s" % (v["name"], {True: "pass", False: "FAIL",
                                             None: "unasserted"}[v["pass"]])
                     for v in report["verdicts"]]
        sys.stderr.write("\n".join(lines) + "\n")


def _apply_overrides(config, args):
    """Write the run flags into a config; other shapes are left to ``load_config``."""
    if not isinstance(config, dict):
        return config
    window = config.get("window", {})
    if isinstance(window, dict):
        if args.radius is not None:
            config["window"] = window = dict(window, radius=args.radius)
        if args.margin is not None:
            config["window"] = dict(window, inner_margin=args.margin)
    if args.delta is not None:
        config["delta"] = args.delta
    if args.seed is not None:
        config["seed"] = args.seed
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tpw",
        description="Exact workbench for transposed Poisson structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single job config")
    p_run.add_argument("--config", required=True, help="path to a JSON job config")
    p_run.add_argument("--radius", type=int, default=None)
    p_run.add_argument("--margin", type=int, default=None,
                       help="radius of the inner box (the config's window.inner_margin)")
    p_run.add_argument("--delta", type=str, default=None)
    p_run.add_argument("--seed", type=int, default=None)

    p_rep = sub.add_parser("reproduce", help="run a bundled theorem suite")
    p_rep.add_argument("--suite", required=True, choices=["thmA", "thmB", "all"])

    for p in (p_run, p_rep):
        p.add_argument("--json-only", action="store_true")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            try:
                with open(args.config) as fh:
                    config = json.load(fh)
            except OSError as exc:
                sys.stderr.write("cannot read config: %s\n" % exc)
                return 2
            except json.JSONDecodeError as exc:
                sys.stderr.write("config is not valid JSON: %s\n" % exc)
                return 2
            config = _apply_overrides(config, args)
            report = run(config)
            _emit(report, args.json_only)
            return 0 if report["all_pass"] else 1
        reports = reproduce(args.suite)
        _emit(reports, args.json_only)
        return 0 if all(r["all_pass"] for r in reports) else 1
    except ConfigError as exc:
        sys.stderr.write("config error: %s\n" % exc)
        return 2
    except (exactlin.DimensionOverflowError, tpstruct.LimitExceededError) as exc:
        sys.stderr.write("limit exceeded: %s\n" % exc)
        return 3
    except (ValueError, FamilyMismatchError) as exc:
        sys.stderr.write("invalid job: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
