"""Reports pinned to a file: any change to a report fails this test.

``tests/golden/reports.json`` holds, without ``timing_ms``, the reports of
``tpw reproduce --suite all`` and of ``JOBS``, one job for each task the
suites miss, a failing classification, two generalized Witt jobs whose
reports print coefficient arrays, two ``check-lie`` jobs whose brackets
have several terms (dim V = 3) or a scale above 1, and two
``verify-structure`` jobs whose products have a scale above 1. A change
that alters reports on purpose regenerates the file from the tree it
wants to pin:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os

from tpw.cli import reproduce, run

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "reports.json")


def _window(radius, margin):
    return {"radius": radius, "inner_margin": margin}


JOBS = {
    # g additive but f not of the (g, h) form: the Jacobi witness sits at
    # position 8,001 of Window(2, 1), past the origin's slab.
    "corrupted-block-check-lie": {
        "algebra": {"family": "block", "raw": True, "g": ["1", "0", "0"],
                    "f": [["0", "0", "0"], ["0", "0", "1"], ["0", "-1", "0"]]},
        "window": _window(2, 1), "task": "check-lie"},
    # dim V = 3: each bracket of two labels has up to two terms
    "gw-rank2-dimv3-check-lie": {
        "algebra": {"family": "generalized_witt",
                    "pairing": [["1", "0"], ["0", "1"], ["1", "1"]]},
        "window": _window(2, 1), "task": "check-lie"},
    # scale 6: the Jacobi residual 1/6 is the numerator 6 over scale^2 = 36
    "rational-raw-block-check-lie": {
        "algebra": {"family": "block", "raw": True, "g": ["1/2", "0", "0"],
                    "f": [["0", "0", "0"], ["0", "0", "1/3"], ["0", "-1/3", "0"]]},
        "window": _window(2, 1), "task": "check-lie"},
    "block-g1-center-square": {
        "algebra": {"family": "block", "g": ["-1", "0"], "h": ["0", "1"]},
        "window": _window(3, 2), "task": "center-square"},
    "gw-witnesses": {
        "algebra": {"family": "generalized_witt", "pairing": [["1", "0"], ["0", "1"]]},
        "window": _window(2, 1), "task": "witnesses"},
    # u_0 . u_(1,0) = u_(1,0) fails the three triple identities
    "block-g0-failing-table-verify": {
        "algebra": {"family": "block", "f": [["0", "-1"], ["1", "0"]]},
        "window": _window(2, 1), "task": "verify-structure",
        "payload": {"product": {"variant": "explicit", "table": [
            {"a": [0, 0], "b": [1, 0], "value": [{"index": [1, 0], "coeff": "1"}]}]}}},
    # the truncated group product of Witt type fails at the window boundary
    "witt-failing-classify": {
        "algebra": {"family": "witt_type", "f": ["1"]},
        "window": _window(3, 1), "task": "classify-tp", "payload": {"degree_bound": 1}},
    # generalized Witt elements print as arrays: the Poisson witness's sides
    "gw1-poisson-mutation-verify": {
        "algebra": {"family": "generalized_witt", "pairing": [["1"]]},
        "window": _window(3, 1), "task": "verify-structure",
        "payload": {"require_poisson": True, "product": {"variant": "mutation", "w": [
            {"index": [0], "coeff": ["1"]}, {"index": [1], "coeff": ["-2/3"]}]}}},
    # table values over scale 6: the witnesses' sides have denominators 2, 3 and 4
    "rational-table-verify": {
        "algebra": {"family": "block", "f": [["0", "-1"], ["1", "0"]]},
        "window": _window(2, 1), "task": "verify-structure",
        "payload": {"product": {"variant": "explicit", "table": [
            {"a": [0, 0], "b": [1, 0], "value": [{"index": [1, 0], "coeff": "1/2"},
                                                 {"index": [0, 1], "coeff": "-2/3"}]}]}}},
    # a rational multiplier: the TP axioms hold, the Poisson rule fails with lhs 2/3
    "rational-mutation-verify": {
        "algebra": {"family": "witt_type", "f": ["1"]},
        "window": _window(2, 1), "task": "verify-structure",
        "payload": {"product": {"variant": "mutation", "w": [
            {"index": [0], "coeff": "1/2"}, {"index": [1], "coeff": "-2/3"}]}}},
    # ... and the generators' values, with [[a], i] labels in the witnesses
    "gw1-failing-classify": {
        "algebra": {"family": "generalized_witt", "pairing": [["1"]]},
        "window": _window(3, 1), "task": "classify-tp", "payload": {"degree_bound": 1}},
}


def _strip(report):
    return {key: value for key, value in report.items() if key != "timing_ms"}


def reports():
    """``{"reproduce": [...], "jobs": {name: report}}``, without ``timing_ms``."""
    return {"reproduce": [_strip(r) for r in reproduce("all")],
            "jobs": {name: _strip(run(job)) for name, job in JOBS.items()}}


def test_reports_equal_the_pinned_file():
    with open(GOLDEN) as fh:
        pinned = json.load(fh)
    # a JSON round trip turns the reports' tuples into lists, as the file has them
    assert json.loads(json.dumps(reports())) == pinned


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(reports(), fh, indent=1, sort_keys=True)
        fh.write("\n")
