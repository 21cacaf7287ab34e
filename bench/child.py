"""Traced `verify-*` op: one fresh interpreter running spcover's CLI.

    python3 bench/child.py OP_ID -- <spcover arguments>

Imports `spcover.cli` (timing the import), installs the tracer, calls
`spcover.cli.main` with the same arguments an untraced op passes to the
`spcover` command and writes the report to stdout as usual.  At exit it
writes its spans and counters to stderr as one JSON line after SPANS_MARKER,
so it leaves no files behind.  `spcover` must be importable, as it is when
`src/` is on PYTHONPATH.
"""

import json
import sys
import time

from tracer import Tracer

#: Precedes the spans record, the last line this script writes to stderr.
SPANS_MARKER = "\nbench-spans: "


def main() -> int:
    op = int(sys.argv[1])
    if sys.argv[2] != "--":
        raise SystemExit("usage: child.py OP_ID -- <spcover arguments>")
    start = time.perf_counter_ns()
    import spcover.cli

    import_ns = time.perf_counter_ns() - start
    with Tracer(op) as tracer:
        code = spcover.cli.main(sys.argv[3:])
    spans, stats = tracer.take()
    stats["kappa_n"] = sorted(stats["kappa_n"])
    record = {"import_ns": import_ns, "spans": spans, "stats": stats}
    sys.stderr.write(SPANS_MARKER + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
