"""Benchmark of the tpw pipeline: job lists run through ``tpw.cli.run``.

Usage, from the repository root::

    python3 bench/run.py --workload half-sweep --seed 1 --seconds 36 --trace 0

The workloads and their job lists are in ``workloads.py``; why each was
chosen is in ``README.md``. One client submits the jobs of the list in
order, in this process, and submits the next job only when the previous
report is back (a closed loop). Passes over the list repeat until the next
one would end after ``--seconds``; timings are medians over passes.

Every report is checked against ``expected.json`` and against the first
pass's report of the same job (byte-identical apart from ``timing_ms``).
A job that raises or disagrees counts as failed.

Times are in reference seconds. The speed of a shared machine changes by
half within seconds, so the benchmark times a short fixed computation, the
reference (``REFERENCE_S`` long at nominal speed), while it measures: a
timer interrupts the passes every ``PROBE_INTERVAL_S`` to run it, and the
set-up probes have it run between them. Each job is timed without the
reference runs inside it and scaled by the mean speed, relative to
nominal, that the references inside it saw; each set-up probe by the
speed around it. The raw times are printed on the log lines.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced passes with traced ones, in which the public entry points of the
package's layers are wrapped from this file; it prints per-layer self
times and counters and writes the spans to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 21
PROBE_TIMEOUT_S = 60
# The reference computation, its nominal length and how often it runs:
# times are reported as if the reference always took REFERENCE_S seconds.
REFERENCE_STEPS = 500
REFERENCE_S = 0.002
PROBE_INTERVAL_S = 0.05
SETUP_REFERENCES = 10

sys.path.insert(0, BENCH)
import workloads  # noqa: E402


def machine_info():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def import_program():
    """Import tpw from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "tpw", "__init__.py")):
        sys.exit("bench: no tpw sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import tpw
    from tpw import cli, exactlin, halfderiv, tpstruct

    if os.path.dirname(os.path.dirname(os.path.abspath(tpw.__file__))) != SRC:
        sys.exit("bench: imported tpw from %s, not from %s" % (tpw.__file__, SRC))
    return cli, exactlin, halfderiv, tpstruct


def reference_work():
    """Fixed exact rational arithmetic on small entries, like the program's."""
    acc = {}
    for i in range(REFERENCE_STEPS):
        key = (i % 31, i % 7)
        acc[key] = acc.get(key, 0) + Fraction(i % 11 - 5, i % 13 + 1)
    return acc


def reference_speed():
    """Speed of the machine now: ``REFERENCE_S`` over the reference's time.

    The reference makes no cycles, so the cyclic collector is off while it
    runs and the heap the program left behind does not change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        reference_work()
        return REFERENCE_S / (time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples the machine's speed while the benchmark's passes run.

    A ``SIGALRM`` handler measures ``reference_speed`` every
    ``PROBE_INTERVAL_S`` of wall time. ``spent`` is the total time the
    handler took, for timers to leave out.
    """

    def __init__(self):
        self.speeds = []
        self.spent = 0.0

    def sample(self, *_):
        started = time.perf_counter()
        self.speeds.append(reference_speed())
        self.spent += time.perf_counter() - started

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.speeds), self.spent

    def since(self, mark):
        """Mean speed over the samples taken since ``mark``, and their time.

        An interval too short to hold a sample takes one at its end.
        """
        spent = self.spent - mark[1]
        if len(self.speeds) == mark[0]:
            self.sample()
        return statistics.fmean(self.speeds[mark[0]:]), spent


def measure_setup(workload, seed):
    """Median time from spawning a fresh interpreter to its first job ready.

    Returns the median in reference seconds and the raw median. This
    process and its probes are held to one CPU, and the speed is measured
    on it between consecutive probes, so that it is the speed the probe
    between them saw.
    """
    script = os.path.join(BENCH, "setup_probe.py")
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        raw = []
        scaled = []
        before = statistics.fmean(reference_speed() for _ in range(SETUP_REFERENCES))
        for _ in range(SETUP_PROBES):
            started = time.monotonic()
            out = subprocess.run([sys.executable, script, workload, str(seed)],
                                 cwd=ROOT, capture_output=True, text=True,
                                 timeout=PROBE_TIMEOUT_S, check=True)
            raw.append(float(out.stdout.strip().splitlines()[-1]) - started)
            after = statistics.fmean(reference_speed() for _ in range(SETUP_REFERENCES))
            scaled.append(raw[-1] * (before + after) / 2)
            before = after
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(scaled), statistics.median(raw)


def body_text(report):
    """Canonical serialization of a report without its ``timing_ms``."""
    return json.dumps({k: v for k, v in report.items() if k != "timing_ms"},
                      sort_keys=True)


def _get(body, path):
    for key in path.split("."):
        body = body[key]
    return body


class Checker:
    """Known answers plus repetition of each job's report across passes."""

    def __init__(self, expected):
        self.expected = expected
        self.first = {}
        self.failures = []

    def check(self, name, outcome):
        if isinstance(outcome, Exception):
            self.failures.append("%s raised %s: %s"
                                 % (name, type(outcome).__name__, outcome))
            return False
        text = body_text(outcome)
        body = json.loads(text)
        for path, want in self.expected[name].items():
            try:
                got = _get(body, path)
            except (KeyError, TypeError):
                got = None
            if got != want:
                self.failures.append("%s: %s differs from its known answer (got %.200r)"
                                     % (name, path, got))
                return False
        if self.first.setdefault(name, text) != text:
            self.failures.append("%s: report differs from the first pass" % name)
            return False
        return True


def _max_entry_bits(basis):
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for vec in basis.vectors for v in vec), default=0)


# Counters read from return values; each names the layer that produced it.
COUNTERS = (
    "halfderiv.assemble.calls", "halfderiv.assemble.rows",
    "halfderiv.assemble.nnz", "halfderiv.assemble.unknowns",
    "exactlin.nullspace.calls", "exactlin.nullspace.rows",
    "exactlin.nullspace.rank", "exactlin.nullspace.kernel_dim",
    "exactlin.nullspace.saturated", "exactlin.max_entry_bits",
    "tpstruct.classify.parameters", "tpstruct.verify.triples",
    "algebra.verify_lie_axioms.triples", "algebra.verify_lie_axioms.pairs",
    "cli.report_bytes",
)


def _count_run(c, args, report):
    c["cli.report_bytes"] += len(body_text(report).encode())


def _count_assemble(c, args, system):
    c["halfderiv.assemble.calls"] += 1
    c["halfderiv.assemble.rows"] += system.n_constraints
    c["halfderiv.assemble.nnz"] += len(system.matrix.entries)
    c["halfderiv.assemble.unknowns"] += system.n_unknowns


def _count_nothing(c, args, result):
    pass


def _count_nullspace(c, args, basis):
    matrix = args[0]
    c["exactlin.nullspace.calls"] += 1
    c["exactlin.nullspace.rows"] += matrix.n_rows
    c["exactlin.nullspace.rank"] += matrix.n_cols - basis.dimension
    c["exactlin.nullspace.kernel_dim"] += basis.dimension
    c["exactlin.nullspace.saturated"] += basis.dimension == 0
    c["exactlin.max_entry_bits"] = max(c["exactlin.max_entry_bits"],
                                       _max_entry_bits(basis))


def _count_classify(c, args, result):
    c["tpstruct.classify.parameters"] += result.n_parameters


def _count_verify(c, args, report):
    c["tpstruct.verify.triples"] += report.n_triples


def _count_lie(c, args, report):
    c["algebra.verify_lie_axioms.triples"] += report.n_triples
    c["algebra.verify_lie_axioms.pairs"] += report.n_pairs


class Tracer:
    """Spans and counters at the layers' public entry points.

    Counters are read from return values after a span closes. The time
    that takes is kept off the span clock (``now``), so it shows in the
    trace overhead and not in any layer's self time; so is the time of the
    speed probe's reference runs.
    """

    def __init__(self, cli, exactlin, halfderiv, tpstruct, probe):
        self.probe = probe
        self.points = [
            (cli, "run", "cli.run", _count_run),
            (halfderiv, "assemble", "halfderiv.assemble", _count_assemble),
            (halfderiv, "compare", "halfderiv.compare", _count_nothing),
            (exactlin, "nullspace", "exactlin.nullspace", _count_nullspace),
            (tpstruct, "classify", "tpstruct.classify", _count_classify),
            (tpstruct, "verify", "tpstruct.verify", _count_verify),
            (cli, "verify_lie_axioms", "algebra.verify_lie_axioms", _count_lie),
        ]
        self.names = [name for _, _, name, _ in self.points]
        self.spans = []
        self.stack = []
        self.paused = 0.0
        self.job = None
        self.pass_no = None
        self.counts = None
        self.originals = []

    def now(self):
        return time.perf_counter() - self.paused - self.probe.spent

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.now(), None, self.stack[-1] if self.stack else None,
                    self.job, self.pass_no]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[2] = self.now()
            started = time.perf_counter()
            count(self.counts, args, result)
            self.paused += time.perf_counter() - started
            return result
        return traced

    def install(self):
        self.originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in self.points]
        for mod, attr, name, count in self.points:
            setattr(mod, attr, self._wrap(name, getattr(mod, attr), count))

    def uninstall(self):
        for mod, attr, fn in self.originals:
            setattr(mod, attr, fn)

    def self_times(self, pass_no, factors):
        """Per-layer self time of one pass: span length minus its children's.

        Each span is scaled to reference seconds by its job's factor.
        """
        spans = self.spans
        own = {i: s[2] - s[1] for i, s in enumerate(spans) if s[5] == pass_no}
        for i in list(own):
            parent = spans[i][3]
            if parent is not None:
                own[parent] -= spans[i][2] - spans[i][1]
        totals = dict.fromkeys(self.names, 0.0)
        for i, t in own.items():
            totals[spans[i][0]] += t * factors[spans[i][4]]
        return totals


def run_pass(cli, jobs, tracer, probe):
    """Submit every job in order.

    Returns ``(name, outcome, raw seconds, reference seconds)`` per job;
    neither time holds the speed probe's own runs.
    """
    configs = [(job["name"], json.loads(json.dumps(
        {k: v for k, v in job.items() if k != "name"}))) for job in jobs]
    outcomes = []
    for name, config in configs:
        if tracer is not None:
            tracer.job = name
        mark = probe.mark()
        job_started = time.perf_counter()
        try:
            outcome = cli.run(config)
        except Exception as exc:  # noqa: BLE001 - a job that raises is a failed job
            outcome = exc
        elapsed = time.perf_counter() - job_started
        speed, probing = probe.since(mark)
        raw = elapsed - probing
        outcomes.append((name, outcome, raw, raw * speed))
    return outcomes


def _metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(names, self_times, counts, walls):
    """Per-layer metrics of a traced run: median self times, then counters."""
    metrics = {"%s.self_s" % name: _metric(statistics.median(t[name] for t in self_times), "s")
               for name in names}
    for key, value in counts.items():
        metrics[key] = _metric(value, "bits" if key.endswith("bits") else "count")
    rows = counts["exactlin.nullspace.rows"]
    metrics["exactlin.rank_per_row"] = _metric(
        counts["exactlin.nullspace.rank"] / rows if rows else 0.0, "ratio")
    metrics["trace.overhead_s"] = _metric(
        statistics.median(walls[True]) - statistics.median(walls[False]), "s")
    return metrics


def run_passes(cli, jobs, checker, tracer, probe, seconds):
    """Repeat passes over ``jobs`` until the next one would end after ``seconds``.

    Untraced and traced passes alternate when ``tracer`` is given. Returns
    the pass walls (keyed by traced or not), the slowest job of each
    untraced pass, per-layer self times and counters of each traced pass,
    and the jobs attempted and failed.
    """
    min_passes = 1 if tracer is None else 2
    walls = {False: [], True: []}
    job_max = []
    self_times = []
    counts = []
    attempted = failed = 0
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        n = len(walls[False]) + len(walls[True])
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.pass_no = n
            tracer.counts = dict.fromkeys(COUNTERS, 0)
            tracer.install()
            try:
                outcomes = run_pass(cli, jobs, tracer, probe)
            finally:
                tracer.uninstall()
            self_times.append(tracer.self_times(
                n, {name: t / raw for name, _, raw, t in outcomes}))
            counts.append(tracer.counts)
        else:
            outcomes = run_pass(cli, jobs, None, probe)
            job_max.append(max(t for _, _, _, t in outcomes))
        walls[traced].append(sum(t for _, _, _, t in outcomes))
        for name, outcome, _, _ in outcomes:
            attempted += 1
            failed += not checker.check(name, outcome)
        print("pass %d (%s): %.3f s (raw %.3f s); %s" % (
            n + 1, "traced" if traced else "untraced", walls[traced][-1],
            sum(raw for _, _, raw, _ in outcomes),
            ", ".join("%s %.3f s (raw %.3f s)" % (name, t, raw)
                      for name, _, raw, t in outcomes)), flush=True)
        now = time.perf_counter()
        if n + 1 >= min_passes and now + (now - started) / (n + 1) > deadline:
            break
    return walls, job_max, self_times, counts, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    cli, exactlin, halfderiv, tpstruct = import_program()
    with open(os.path.join(BENCH, "expected.json")) as fh:
        checker = Checker(json.load(fh))
    jobs = workloads.jobs(args.workload, args.seed)
    info = machine_info()
    print("workload %s, seed %d, %d jobs, closed loop: one client, in-process"
          % (args.workload, args.seed, len(jobs)))
    print("machine %s" % json.dumps(info, sort_keys=True))

    setup_s = None
    if not args.trace:
        setup_s, setup_raw = measure_setup(args.workload, args.seed)
        print("setup %.4f s (raw %.4f s), median of %d fresh interpreters"
              % (setup_s, setup_raw, SETUP_PROBES))
    with SpeedProbe() as probe:
        tracer = Tracer(cli, exactlin, halfderiv, tpstruct, probe) if args.trace else None
        walls, job_max, self_times, counts, attempted, failed = run_passes(
            cli, jobs, checker, tracer, probe, args.seconds)

    correct = failed == 0
    for failure in checker.failures:
        print("FAILED %s" % failure)
    digest = hashlib.sha256("\n".join(checker.first[job["name"]] for job in jobs
                                      if job["name"] in checker.first).encode())
    print("reports sha256 %s" % digest.hexdigest())
    print("failed_share %d/%d = %.4f" % (failed, attempted, failed / attempted))

    if args.trace:
        if any(c != counts[0] for c in counts):
            print("FAILED counters differ between traced passes")
            correct = False
        print("counters %s" % json.dumps(counts[0], sort_keys=True))
        metrics = layer_metrics(tracer.names, self_times, counts[0], walls)
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump({"machine": info, "workload": args.workload, "seed": args.seed,
                       "span_fields": ["name", "start_s", "end_s", "parent", "job", "pass"],
                       "spans": tracer.spans, "counters": counts}, fh)
        print("spans written to %s" % os.path.relpath(path, ROOT))
    else:
        metrics = {
            "wall_s": _metric(statistics.median(walls[False]), "s"),
            "job_s_max": _metric(statistics.median(job_max), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for name, m in metrics.items():
        print("metric %s %r %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
