import hashlib
import json

import pytest

from spcover import cli, spectral
from spcover.exactalg import ExactAlgError, MultiPoly


def write_family(path, family):
    path.write_text(json.dumps(spectral.family_to_json(family)))
    return str(path)


def off_class_family():
    # a b-model whose detector vanishes to order 2, not the expected 1
    x, t = MultiPoly.var("x"), MultiPoly.var("t")
    return spectral.LocalFamily("b", 1, {2: x * x - t * t})


# ---------------------------------------------------------------------------
# run_suite
# ---------------------------------------------------------------------------


def test_default_suite_all_green():
    reports = cli.run_suite()
    assert reports
    assert all(r.status in ("pass", "report-only") for r in reports)


def test_registry_covers_every_suite():
    reports = cli.run_suite()
    names = {r.check for r in reports}
    expected = {
        "numerics/cover-counts",
        "numerics/rh-parity-flag",
        "numerics/degree-tables",
        "numerics/sp-moduli",
        "factorization/exact-division",
        "factorization/constant-sign",
        "factorization/scaling-weights",
        "factorization/restricted-square",
        "factorization/hamiltonian-even",
        "factorization/resultant-spot",
        "monodromy/local-counts",
        "monodromy/merge-census",
        "monodromy/centralizer-order",
        "monodromy/b-parity-flag",
        "monodromy/global-witness",
        "multiplicity/fixture-b",
        "multiplicity/fixture-ac",
        "multiplicity/ac-set-theoretic",
        "multiplicity/fixture-bm",
        "multiplicity/fixture-bb",
        "multiplicity/fixture-cc",
        "multiplicity/fixture-mm",
        "multiplicity/mm-square-split",
        "multiplicity/order-spot",
        "picard/decomposition",
        "picard/lambda-lines",
        "picard/kappa-forms",
        "picard/coarse-identity",
        "picard/gl-line",
        "picard/numeric-grid",
        "picard/ratfunc-spot",
    }
    assert expected <= names


def test_scope_selection():
    reports = cli.run_suite(scope="picard")
    assert reports and all(r.check.startswith("picard/") for r in reports)


def test_suite_rejects_bad_windows():
    with pytest.raises(ExactAlgError):
        cli.run_suite(min_n=3, max_n=2)
    with pytest.raises(ExactAlgError):
        cli.run_suite(min_g=1)
    with pytest.raises(ExactAlgError):
        cli.run_suite(scope="bogus")


def test_caps_clamp_silently():
    reports = cli.run_suite(scope="factorization", max_n=50)
    ns = {r.params["n"] for r in reports if isinstance(r.params.get("n"), int)}
    assert max(ns) == spectral.SYMBOLIC_FACTORIZATION_CAP
    reports = cli.run_suite(scope="monodromy", min_n=5, max_n=50)
    ns = {r.params["n"] for r in reports if "local-counts" in r.check}
    assert ns == {5, 6}


def test_report_only_never_gates():
    reports = cli.run_suite(scope="multiplicity")
    assert any(r.status == "report-only" for r in reports)
    assert not any(r.status == "fail" for r in reports)


def test_merge_census_carries_orbit_table():
    reports = cli.run_suite(scope="monodromy", min_n=2, max_n=2)
    rec = next(r for r in reports if r.check == "monodromy/merge-census")
    assert json.loads(rec.witness) == {
        "n": 2,
        "classes": {"b": 1, "ac": 1, "bb": 1},
        "excluded_pairs": 2,
    }


def test_failing_check_requires_witness():
    with pytest.raises(ExactAlgError, match="witness"):
        cli.VerificationReport("x/y", {}, "fail", "broke")


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def test_text_output_deterministic():
    a = cli.emit_report(cli.run_suite(seed=7), "text")
    b = cli.emit_report(cli.run_suite(seed=7), "text")
    assert a == b
    assert a.endswith("OK\n")


def test_json_output_deterministic_and_schematic():
    a = cli.emit_report(cli.run_suite(seed=1), "json")
    b = cli.emit_report(cli.run_suite(seed=1), "json")
    assert a == b
    payload = json.loads(a)
    assert set(payload) == {"checks", "summary"}
    for check in payload["checks"]:
        assert set(check) == {"check", "params", "status", "detail", "witness"}
    counts = payload["summary"]
    assert counts["pass"] == sum(
        1 for c in payload["checks"] if c["status"] == "pass"
    )
    assert counts["fail"] == 0


def test_emit_rejects_unknown_format():
    with pytest.raises(ExactAlgError):
        cli.emit_report([], "xml")


# ---------------------------------------------------------------------------
# main: exit codes and files
# ---------------------------------------------------------------------------


def test_main_default_exit_zero(capsys):
    assert cli.main(["--scope", "numerics"]) == 0
    out = capsys.readouterr().out
    assert "numerics/cover-counts" in out and out.endswith("OK\n")


def test_main_structural_invalidity_is_exit_two(capsys):
    assert cli.main(["--min-n", "3", "--max-n", "2"]) == 2
    assert "min-n" in capsys.readouterr().err


def test_main_bad_scope_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--scope", "bogus"])
    assert exc.value.code == 2


def test_main_unwritable_out_is_exit_three(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "report.txt"
    assert cli.main(["--scope", "picard", "--out", str(target)]) == 3
    assert "cannot write" in capsys.readouterr().err


def test_main_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert cli.main(["--scope", "picard", "--format", "json", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    on_disk = target.read_text()
    assert cli.main(["--scope", "picard", "--format", "json"]) == 0
    assert capsys.readouterr().out == on_disk


def test_main_family_pass(tmp_path, capsys):
    # every shipped family passes from its own JSON
    argv = ["--scope", "multiplicity"]
    for label in spectral.STRATUM_LABELS:
        argv += ["--family", write_family(tmp_path / f"{label}.json", spectral.local_family(label))]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    for idx in range(len(spectral.STRATUM_LABELS)):
        assert f"multiplicity/user-family-{idx}" in out


def test_main_family_failure_gates_exit(tmp_path, capsys):
    path = write_family(tmp_path / "off.json", off_class_family())
    assert cli.main(["--scope", "multiplicity", "--family", path]) == 1
    out = capsys.readouterr().out
    assert "witness: order 2 != expected 1" in out
    assert out.endswith("FAIL\n")


def test_main_malformed_family_is_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"label": "b"')
    assert cli.main(["--family", str(bad)]) == 2
    assert "cannot load family" in capsys.readouterr().err
    missing_keys = tmp_path / "keys.json"
    missing_keys.write_text('{"label": "b"}')
    assert cli.main(["--family", str(missing_keys)]) == 2
    capsys.readouterr()
    # a valid b-model, Q_2 = x^2 - t, with one field spoiled at a time
    good_q = {"vars": ["t", "x"], "terms": [[1, 1, 0, 2], [-1, 1, 1, 0]]}
    spoiled = {
        "bool-coeff": {"2": {**good_q, "terms": [[True, 1, 0, 2], [-1, 1, 1, 0]]}},
        "zero-den": {"2": {**good_q, "terms": [[1, 0, 0, 2], [-1, 1, 1, 0]]}},
        "string-vars": {"2": {**good_q, "vars": "tx"}},
        "word-key": {"two": good_q},
        "bare-term": {"2": {**good_q, "terms": [5]}},
        "q-list": [good_q],
    }
    documents = {name: {"label": "b", "n": 1, "Q": q} for name, q in spoiled.items()}
    # an "n" that int() would accept, each on a family that loads with the int
    documents["bool-n"] = {"label": "b", "n": True, "Q": {"2": good_q}}
    bb = spectral.family_to_json(spectral.local_family("bb"))
    documents["string-n"] = {**bb, "n": "2"}
    for name, doc in documents.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["--scope", "multiplicity", "--family", str(path)]) == 2, name
        assert "cannot load family" in capsys.readouterr().err, name


#: sha256 of emit_report(run_suite(**kwargs), fmt) for fmt = text, json; any
#: change to a report's bytes must show up here.
PINNED_DIGESTS = [
    (
        {"seed": 0},
        "dd9cbbc489b342d6cb272110a0336baaed1cf2ef152c049412e1d73b6b97dbd2",
        "03e7409fd0942ad43d8600eb0e43acf31eab2b548d92b73a859c87e6044cafdc",
    ),
    (
        {"seed": 1},
        "488cccf82308867d0df6f1d1db33df9cd9fc03f156f74b7a6327eda71f7a10e7",
        "56c40988dbf72d1354eb18175c9079d14557c124de96626c3faba7342e499278",
    ),
    (
        {"seed": 0, "min_n": 5, "max_n": 12, "max_g": 12},
        "9567556db892f13ee61ff66f2f6fe3d635725be42028eb302d497629fe31fd92",
        "81af4b63f333698d6d1692aa1f5ece0525c256e575ea8e0af5056a6544f0e29e",
    ),
]


def test_report_digests_pinned():
    for kwargs, text_digest, json_digest in PINNED_DIGESTS:
        reports = cli.run_suite(**kwargs)
        for fmt, digest in (("text", text_digest), ("json", json_digest)):
            report = cli.emit_report(reports, fmt)
            assert hashlib.sha256(report.encode()).hexdigest() == digest, (kwargs, fmt)


def test_main_degenerate_family_reports_fail(tmp_path, capsys):
    # structurally valid JSON whose family flunks genericity: runs, fails, exit 1;
    # an mm family without its "factors" key has an identically zero detector
    data = spectral.family_to_json(spectral.local_family("mm"))
    del data["factors"]
    path = tmp_path / "mm.json"
    path.write_text(json.dumps(data))
    assert cli.main(["--scope", "multiplicity", "--family", str(path)]) == 1
    assert "family degenerate" in capsys.readouterr().out
