"""spcover benchmark: three closed-loop, single-client workloads.

    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run it from a checkout: it imports spcover from the `src/` directory next to
this one and builds nothing.  Workloads (one op each, see BENCHMARK.json):

  verify-default  a fresh interpreter runs `spcover --format json --seed S+i`
                  at the default window (n 1..4, g 2..5), launch to exit;
  verify-high     the same at `--min-n 5 --max-n 12 --max-g 12`;
  charpoly-batch  in process, `spectral.char_poly_hamiltonian` on six seeded
                  integer Hamiltonians, one per n = 1..6.

With `--trace 0` the loop runs untraced ops for T seconds and reports the
end-to-end metrics.  Latencies are reported in units of a fixed reference
computation timed just before and after each op (`latency_*_ref`), because
on a shared host the machine's own speed drifts by +-20% over minutes and
would swamp the program's; the raw milliseconds and ops/s go to stderr.
`setup_s` is measured the same way and given in seconds at the speed of the
host that recorded bench/baseline.json.

With `--trace 1` it alternates an untraced and a traced op on the same seed
for T seconds and reports the per-layer metrics of BENCHMARK.json: call
counts and maxima over the first COUNT_WINDOW traced ops (exact, so they
repeat for a seed), self times as per-op means over all traced ops, and the
tracing overhead as traced minus untraced median latency.

Every op's output is checked right after the op, outside its timed
interval; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
from checks import charpoly_failure, fraction_det, verify_failure  # noqa: E402
from child import SPANS_MARKER  # noqa: E402
from inputs import charpoly_inputs  # noqa: E402
from tracer import SPAN_NAMES, Tracer, fold  # noqa: E402

WINDOWS = {
    "verify-default": [],
    "verify-high": ["--min-n", "5", "--max-n", "12", "--max-g", "12"],
}
WORKLOADS = (*WINDOWS, "charpoly-batch")
#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 11
#: Traced ops whose exact counts are reported; at least this many always run.
COUNT_WINDOW = {"verify-default": 3, "verify-high": 3, "charpoly-batch": 10}
#: What the `spcover` console script runs.
CLI = "import sys; from spcover.cli import main; sys.exit(main())"
OP_TIMEOUT_S = 60
#: A fixed plain-Fraction computation timed between ops.  It shares no code
#: with spcover, so only the host's speed moves it; latencies are reported
#: relative to it because that speed drifts by +-20% over minutes here.
_REFERENCE_RNG = random.Random(2005)
REFERENCE_MATRIX = [[_REFERENCE_RNG.randint(-3, 3) for _ in range(9)] for _ in range(9)]
REFERENCE_REPEATS = 10
#: The reference's median time on the baseline host (bench/baseline.json).
#: setup_s is given in seconds at that host's speed.
REFERENCE_BASELINE_S = 0.00879


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def spcover_argv(workload: str, seed: int) -> list[str]:
    return ["--format", "json", "--seed", str(seed), *WINDOWS[workload]]


def reference_seconds() -> float:
    start = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        fraction_det(REFERENCE_MATRIX)
    return time.perf_counter() - start


def setup_seconds(workload: str, seed: int) -> float:
    """The fixed cost before any work: a fresh interpreter that imports
    spcover and prepares the workload's first op, launch to exit.

    Each of SETUP_REPEATS launches is divided by the mean of the reference
    timings just before and after it, like the latencies, and the median
    ratio is scaled back to seconds by REFERENCE_BASELINE_S.
    """
    if workload == "charpoly-batch":
        code = (f"import sys; sys.path.insert(0, {HERE!r}); "
                f"from inputs import charpoly_inputs; charpoly_inputs({seed})")
    else:
        code = "import spcover.cli"
    refs = [reference_seconds()]
    ratios = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # Captured pipes let the wait return at EOF; Popen.wait(timeout) alone
        # polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                       check=True, capture_output=True, timeout=OP_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        refs.append(reference_seconds())
        ratios.append(elapsed * 2 / (refs[-2] + refs[-1]))
    return statistics.median(ratios) * REFERENCE_BASELINE_S


class LayerTotals:
    """Per-layer totals over the traced ops of one run."""

    def __init__(self, window: int):
        self.window = window
        self.ops = 0
        self.window_ops = 0
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.maxima = {"max_terms": 0, "max_coeff_bits": 0, "max_dim": 0}
        self.report_bytes = 0
        self.kappa_served = 0
        self.import_ns = 0

    def add(self, spans, stats, import_ns: int = 0) -> None:
        folded = fold(spans)
        for name, (calls, self_ns) in folded.items():
            self.self_ns[name] += self_ns
        self.ops += 1
        self.import_ns += import_ns
        if self.window_ops == self.window:
            return
        self.window_ops += 1
        for name, (calls, _) in folded.items():
            self.calls[name] += calls
        for key, value in self.maxima.items():
            self.maxima[key] = max(value, stats[key])
        self.report_bytes += stats["report_bytes"]
        self.kappa_served += len(stats["kappa_n"])

    def counts(self) -> dict[str, float]:
        """The exact metrics: functions of the window's inputs only."""
        k = self.window_ops or 1  # 0 only when every traced op failed
        out = {f"{name}.calls": self.calls[name] / k for name in SPAN_NAMES}
        out["exactalg.max_coeff_bits"] = self.maxima["max_coeff_bits"]
        out["exactalg.max_terms"] = self.maxima["max_terms"]
        out["exactalg.det_bareiss.max_dim"] = self.maxima["max_dim"]
        rebuilds = self.calls["picard.kappa_forms"]
        out["picard.kappa_forms.useful_ratio"] = self.kappa_served / rebuilds if rebuilds else 0
        out["cli.report_bytes"] = self.report_bytes / k
        return out

    def times(self) -> dict[str, float]:
        ops = self.ops or 1
        out = {f"{name}.self_ms": self.self_ns[name] / ops / 1e6 for name in SPAN_NAMES}
        out["cli.import_ms"] = self.import_ns / ops / 1e6
        return out


class Run:
    """One closed-loop, single-client run of a workload.

    Each op's output is checked as soon as the op returns; the loop's clock
    leaves the checks out, and nothing an op returns outlives its check.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.latencies: list[float] = []
        self.traced_latencies: list[float] = []
        self.failures: list[str] = []
        self.references: list[float] = []  # around each untraced op
        self.untimed_s = 0.0  # checks and references, left out of the loop time
        self.layers = LayerTotals(COUNT_WINDOW[workload])

    def op(self, i: int, traced: bool) -> None:
        """Run op i, record its latency, then check its output."""
        if self.workload == "charpoly-batch":
            output, elapsed = self._charpoly_op(i, traced)
        else:
            output, elapsed = self._verify_op(i, traced)
        (self.traced_latencies if traced else self.latencies).append(elapsed)
        start = time.perf_counter()
        why = self._check(output)
        self.untimed_s += time.perf_counter() - start
        if why:
            self.failures.append(f"op {i}{' traced' if traced else ''}: {why}")

    def _verify_op(self, i: int, traced: bool):
        argv = spcover_argv(self.workload, self.seed + i)
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "child.py"), str(i), "--", *argv]
        else:
            cmd = [sys.executable, "-c", CLI, *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT,
                                  timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return (-1, b"", b"timeout"), time.perf_counter() - start
        elapsed = time.perf_counter() - start
        output = (proc.returncode, proc.stdout, proc.stderr)
        if traced:
            stderr, marker, record = proc.stderr.rpartition(SPANS_MARKER.encode())
            try:
                record = json.loads(record) if marker else None
            except ValueError:
                record = None
            if record is None:
                if proc.returncode == 0:
                    output = (-1, proc.stdout, b"traced child wrote no spans")
                return output, elapsed
            output = (proc.returncode, proc.stdout, stderr)
            self.layers.add(record["spans"], record["stats"], record["import_ns"])
        return output, elapsed

    def _charpoly_op(self, i: int, traced: bool):
        from spcover import spectral

        inputs = charpoly_inputs(self.seed + i)
        tracer = Tracer(i) if traced else None
        start = time.perf_counter()
        try:
            if tracer is None:
                outs = [spectral.char_poly_hamiltonian(h) for _, h in inputs]
            else:
                with tracer:
                    outs = [spectral.char_poly_hamiltonian(h) for _, h in inputs]
        except Exception as exc:  # an op that raises is a failed op, not a crash
            outs = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            self.layers.add(*tracer.take())
        return ([blocks for blocks, _ in inputs], outs), elapsed

    def _check(self, output) -> str:
        if self.workload != "charpoly-batch":
            return verify_failure(self.workload, *output)
        blocks, outs = output
        if isinstance(outs, Exception):
            return f"raised {outs!r}"
        for blk, (p, data) in zip(blocks, outs):
            why = charpoly_failure(blk, p, data)
            if why:
                return why
        return ""

    def reference(self) -> None:
        elapsed = reference_seconds()
        self.references.append(elapsed)
        self.untimed_s += elapsed

    def loop(self, seconds: float, traced: bool) -> float:
        """Run ops back to back for `seconds` of loop time (checks and
        references excluded); return that loop time."""
        start = time.perf_counter()
        i = 0
        while (
            i == 0
            or time.perf_counter() - start - self.untimed_s < seconds
            or (traced and i < self.layers.window)
        ):
            if traced:
                self.op(i, traced=False)
                self.op(i, traced=True)
            else:
                self.reference()
                self.op(i, traced=False)
            i += 1
        if not traced:
            self.reference()
        return time.perf_counter() - start - self.untimed_s

    def relative_latencies(self) -> list[float]:
        """Each untraced op's latency over the mean reference time around it."""
        refs = self.references
        return [lat * 2 / (refs[i] + refs[i + 1]) for i, lat in enumerate(self.latencies)]


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb(workload: str, seed: int) -> float:
    """Largest ru_maxrss of this run's children.  charpoly-batch ops run in
    this process, so one op is repeated in a fresh interpreter that holds
    nothing of the harness."""
    if workload == "charpoly-batch":
        code = (f"import sys; sys.path.insert(0, {HERE!r}); "
                f"from inputs import charpoly_sweep; charpoly_sweep({seed})")
        subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                       check=True, capture_output=True, timeout=OP_TIMEOUT_S)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def select(spec_metrics: list[dict], values: dict[str, float]) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise SystemExit(f"bench: metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "spcover", "cli.py")):
        print(f"bench: no spcover source tree at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, SRC)
    import spcover

    if os.path.dirname(os.path.realpath(spcover.__file__)) != os.path.realpath(
        os.path.join(SRC, "spcover")
    ):
        print(f"bench: imported spcover from {spcover.__file__}, not {SRC}", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    setup_s = None if traced else setup_seconds(args.workload, args.seed)
    run = Run(args.workload, args.seed)
    loop_s = run.loop(args.seconds, traced)
    bad = run.failures
    attempted = len(run.latencies) + len(run.traced_latencies)
    for msg in bad[:10]:
        print(f"bench: FAIL {msg}", file=sys.stderr)

    lat_ms = [x * 1e3 for x in run.latencies]
    if traced:
        traced_ms = statistics.median(run.traced_latencies) * 1e3
        untraced_ms = statistics.median(lat_ms)
        values = {**run.layers.counts(), **run.layers.times(),
                  "trace.overhead_ms": traced_ms - untraced_ms,
                  "trace.overhead_pct": 100 * (traced_ms - untraced_ms) / untraced_ms}
        metrics = select(spec["per_layer"], values)
        print(f"bench: {args.workload} traced {run.layers.ops} ops "
              f"(counts over the first {run.layers.window_ops}), untraced p50 "
              f"{untraced_ms:.1f} ms, traced p50 {traced_ms:.1f} ms", file=sys.stderr)
    else:
        rel = run.relative_latencies()
        values = {
            "setup_s": setup_s,
            "latency_p50_ref": statistics.median(rel),
            "latency_p90_ref": percentile(rel, 90),
            "pass_ratio": (attempted - len(bad)) / attempted,
            "peak_rss_mb": peak_rss_mb(args.workload, args.seed),
        }
        metrics = select(spec["end_to_end"], values)
        print(f"bench: {args.workload} {len(lat_ms)} latency samples in {loop_s:.1f} s: "
              f"{len(lat_ms) / loop_s:.3f} ops/s, p50 {statistics.median(lat_ms):.1f} ms, "
              f"p90 {percentile(lat_ms, 90):.1f} ms, reference median "
              f"{statistics.median(run.references) * 1e3:.2f} ms", file=sys.stderr)
    result = {"correct": not bad, "attempted": attempted, "failed": len(bad), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
