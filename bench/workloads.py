"""Job lists of the three benchmark workloads.

Each job is a plain config dict for ``tpw.cli.run`` plus a ``name`` that
keys its known answers in ``expected.json``. The seed reaches the program
only through the generated configs: it is the ``seed`` of every job and
draws the multiplier of the seeded mutation.
"""

import random
from fractions import Fraction

WORKLOADS = ("half-sweep", "full-kernel-sweep", "identity-scans")

GW = {"family": "generalized_witt", "pairing": [["1", "0"], ["0", "1"]]}
BLOCK_G0 = {"family": "block", "f": [["0", "-1"], ["1", "0"]]}
BLOCK_G1 = {"family": "block", "g": ["-1", "0"], "h": ["0", "1"]}
# h takes the values -1 and -2 nowhere on the lattice: empty coset sets.
BLOCK_NO_COSET = {"family": "block", "g": ["-1", "0"], "h": ["0", "3"]}
WITT_12 = {"family": "witt_type", "f": ["1", "2"]}
WITT_1 = {"family": "witt_type", "f": ["1"]}
# g additive but f not of the (g, h) form: Jacobi fails.
CORRUPTED_BLOCK = {"family": "block", "raw": True, "g": ["1", "0", "0"],
                   "f": [["0", "0", "0"], ["0", "0", "1"], ["0", "-1", "0"]]}


def _window(radius, margin):
    return {"radius": radius, "inner_margin": margin}


def _table(a, b, index):
    """Star or table entry u_a . u_b = u_index."""
    return {"a": list(a), "b": list(b), "value": [{"index": list(index), "coeff": "1"}]}


def seeded_multiplier(seed):
    """Three nonzero terms at distinct indices in [-3, 3], small rationals.

    Criterion 7's recipe with the term count fixed, so that every seed
    asks the scan for the same amount of work.
    """
    rng = random.Random(seed)
    indices = sorted(rng.sample(range(-3, 4), 3))
    terms = []
    for i in indices:
        num = 0
        while num == 0:
            num = rng.randint(-5, 5)
        terms.append({"index": [i], "coeff": str(Fraction(num, rng.randint(1, 4)))})
    return terms


def jobs(workload, seed):
    """The job list of ``workload`` for ``seed``, in submission order."""
    if workload == "half-sweep":
        base = {"window": _window(3, 2), "delta": "1/2", "seed": seed}
        return [
            dict(base, name="gw-solve-half", algebra=GW,
                 task="solve-half-derivations", payload={"degree_bound": 1}),
            dict(base, name="block-g0-classify", algebra=BLOCK_G0,
                 task="classify-tp",
                 payload={"degree_bound": 1, "expected_parameters": 1}),
            dict(base, name="block-g1-classify", algebra=BLOCK_G1,
                 task="classify-tp",
                 payload={"degree_bound": 1, "expected_parameters": 1}),
            dict(base, name="block-no-coset-classify", algebra=BLOCK_NO_COSET,
                 task="classify-tp",
                 payload={"degree_bound": 1, "expected_parameters": 0}),
        ]
    if workload == "full-kernel-sweep":
        solve = {"task": "solve-half-derivations", "seed": seed}
        return [
            dict(solve, name="gw-solve-delta1-r3b0", algebra=GW, delta="1",
                 window=_window(3, 2), payload={"degree_bound": 0}),
            dict(solve, name="gw-solve-delta1-r2b1", algebra=GW, delta="1",
                 window=_window(2, 1), payload={"degree_bound": 1}),
            dict(solve, name="witt12-solve-half", algebra=WITT_12, delta="1/2",
                 window=_window(3, 2), payload={"degree_bound": 1}),
        ]
    if workload == "identity-scans":
        base = {"delta": "1/2", "seed": seed}
        return [
            dict(base, name="gw-check-lie", algebra=GW, task="check-lie",
                 window=_window(2, 1)),
            dict(base, name="corrupted-block-check-lie", algebra=CORRUPTED_BLOCK,
                 task="check-lie", window=_window(2, 1)),
            dict(base, name="block-g1-extension-verify", algebra=BLOCK_G1,
                 task="verify-structure", window=_window(3, 2),
                 payload={"product": {"variant": "extension_by_zero", "star": [
                     _table((0, -2), (0, -2), (0, -1))]}}),
            dict(base, name="block-g0-bad-table-verify", algebra=BLOCK_G0,
                 task="verify-structure", window=_window(3, 2),
                 payload={"product": {"variant": "explicit", "table": [
                     _table((1, 0), (1, 0), (1, 0))]}}),
            dict(base, name="witt1-seeded-mutation-verify", algebra=WITT_1,
                 task="verify-structure", window=_window(8, 2),
                 payload={"product": {"variant": "mutation",
                                      "w": seeded_multiplier(seed)}}),
            dict(base, name="witt1-unit-mutation-poisson", algebra=WITT_1,
                 task="verify-structure", window=_window(8, 2),
                 payload={"require_poisson": True, "product": {
                     "variant": "mutation",
                     "w": [{"index": [0], "coeff": "1"}]}}),
        ]
    raise ValueError("unknown workload %r" % (workload,))
