"""Outside-in tracing of spcover's public functions.

The tracer wraps named functions and methods of the `spcover` modules from
the benchmark's side; nothing under `src/` knows it exists.  A wrapped
function is rebound in every `spcover` module namespace that holds it (for
example `spectral` imports `det_bareiss`, `div_exact` and `discriminant` by
name), so calls made through those names are seen too.

Each call becomes a span `[name, start_ns, end_ns, parent, op, probe_ns]`,
kept in memory until `take()` hands the op's spans out.  `probe_ns` is the
time the tracer spent reading counters from the call's arguments and return
value after `end_ns`; `fold()` charges it to nobody, so neither the callee's
nor the caller's self time includes it.
"""

from __future__ import annotations

import importlib
import time

MODULES = ("spcover", "spcover.exactalg", "spcover.spectral", "spcover.monodromy",
           "spcover.picard", "spcover.cli")


def _poly_probe(stats, args, result):
    terms = getattr(result, "terms", None)
    if terms is None:  # NotImplemented from a reflected operand
        return
    if len(terms) > stats["max_terms"]:
        stats["max_terms"] = len(terms)
    bits = stats["max_coeff_bits"]
    for c in terms.values():
        b = max(c.numerator.bit_length(), c.denominator.bit_length())
        if b > bits:
            bits = b
    stats["max_coeff_bits"] = bits


def _bareiss_probe(stats, args, result):
    stats["max_dim"] = max(stats["max_dim"], len(args[0]))


def _kappa_probe(stats, args, result):
    stats["kappa_n"].add(args[0])


def _report_probe(stats, args, result):
    stats["report_bytes"] += len(result.encode())


# (module, attribute path, span name, probe reading arguments and result)
TARGETS = (
    ("spcover.exactalg", "MultiPoly.__mul__", "exactalg.MultiPoly.mul", _poly_probe),
    ("spcover.exactalg", "MultiPoly.__rmul__", "exactalg.MultiPoly.mul", _poly_probe),
    ("spcover.exactalg", "MultiPoly.substitute", "exactalg.MultiPoly.substitute", None),
    ("spcover.exactalg", "RatFunc.__eq__", "exactalg.RatFunc.eq", None),
    ("spcover.exactalg", "div_exact", "exactalg.div_exact", _poly_probe),
    ("spcover.exactalg", "det_bareiss", "exactalg.det_bareiss", _bareiss_probe),
    ("spcover.exactalg", "resultant", "exactalg.resultant", None),
    ("spcover.exactalg", "discriminant", "exactalg.discriminant", None),
    ("spcover.spectral", "char_poly_hamiltonian", "spectral.char_poly_hamiltonian", None),
    ("spcover.spectral", "factorize_discriminant", "spectral.factorize_discriminant", None),
    ("spcover.spectral", "scaling_action", "spectral.scaling_action", None),
    ("spcover.spectral", "restricted_discriminant_square",
     "spectral.restricted_discriminant_square", None),
    ("spcover.spectral", "shipped_fixture_report", "spectral.shipped_fixture_report", None),
    ("spcover.monodromy", "enumerate_all_merges", "monodromy.enumerate_all_merges", None),
    ("spcover.monodromy", "classify_merge", "monodromy.classify_merge", None),
    ("spcover.monodromy", "Permutation.conjugate", "monodromy.Permutation.conjugate", None),
    ("spcover.picard", "kappa_forms", "picard.kappa_forms", None),
    ("spcover.picard", "kappa_value", "picard.kappa_value", _kappa_probe),
    ("spcover.picard", "coarse_identity_numeric", "picard.coarse_identity_numeric", None),
    ("spcover.picard", "star_decomposition_check", "picard.star_decomposition_check", None),
    ("spcover.picard", "coarse_identity_check", "picard.coarse_identity_check", None),
    ("spcover.cli", "run_suite", "cli.run_suite", None),
    ("spcover.cli", "emit_report", "cli.emit_report", _report_probe),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


def new_stats() -> dict:
    return {"max_terms": 0, "max_coeff_bits": 0, "max_dim": 0, "kappa_n": set(),
            "report_bytes": 0}


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list[list] = []
        self.stats = new_stats()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                probe(self.stats, args, result)
                span[5] = clock() - span[2]
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(m) for m in MODULES]
        for module_name, path, name, probe in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, probe))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original, probe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def take(self) -> tuple[list[list], dict]:
        """Hand out the spans and counters recorded so far and start afresh."""
        spans, stats = self.spans[:], self.stats
        self.spans.clear()
        self.stats = new_stats()
        return spans, stats


def fold(spans) -> dict[str, list[int]]:
    """Per span name: [calls, self_ns], self time being duration minus the
    time covered by direct child spans (and minus the tracer's own probes)."""
    covered = [0] * len(spans)
    for _, start, end, parent, _, probe in spans:
        if parent >= 0:
            covered[parent] += end - start + probe
    out: dict[str, list[int]] = {}
    for (name, start, end, _, _, _), cov in zip(spans, covered):
        entry = out.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += end - start - cov
    return out
