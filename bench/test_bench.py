"""Tests of the benchmark itself: exact counters repeat, output checks bite.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

sys.path.insert(0, run.SRC)

from checks import charpoly_failure, verify_failure  # noqa: E402
from spcover import spectral  # noqa: E402


def traced_counts(workload, seed, ops):
    r = run.Run(workload, seed)
    r.layers.window = ops
    for i in range(ops):
        r.op(i, traced=True)
    assert r.failures == []
    return r.layers.counts()


def test_traced_counts_repeat_for_a_seed():
    for workload, ops in (("charpoly-batch", 2), ("verify-default", 1), ("verify-high", 1)):
        first = traced_counts(workload, 5, ops)
        assert first == traced_counts(workload, 5, ops), workload
        assert first["exactalg.MultiPoly.mul.calls"] > 0


def test_tracer_restores_the_library():
    before = spectral.det_bareiss, spectral.char_poly_hamiltonian
    with run.Tracer():
        assert spectral.det_bareiss is not before[0]
    assert (spectral.det_bareiss, spectral.char_poly_hamiltonian) == before


def test_charpoly_check_rejects_a_wrong_polynomial():
    blocks, h = run.charpoly_inputs(3)[2]
    p, data = spectral.char_poly_hamiltonian(h)
    assert charpoly_failure(blocks, p, data) == ""
    # Even, monic and consistent with its data, so only the determinant catches it.
    shifted = spectral.SpectralData(3, {**data.Q, 6: data.Q[6] + 1})
    wrong = spectral.build_P(shifted)
    assert "det" in charpoly_failure(blocks, wrong, shifted)
    assert charpoly_failure(blocks, p, shifted) != ""


def test_verify_check_rejects_a_changed_report():
    proc = subprocess.run(
        [sys.executable, "-c", run.CLI, *run.spcover_argv("verify-high", 0)],
        capture_output=True, env=run.child_env(), timeout=120,
    )
    assert verify_failure("verify-high", proc.returncode, proc.stdout, proc.stderr) == ""
    report = json.loads(proc.stdout)
    report["checks"].pop()
    changed = json.dumps(report).encode()
    assert verify_failure("verify-high", 0, changed, b"") != ""
    assert verify_failure("verify-high", 1, proc.stdout, b"") != ""
    assert verify_failure("verify-high", 0, proc.stdout, b"Traceback (most recent") != ""
    assert verify_failure("verify-high", 0, b"{not json", b"") != ""
