"""Verification suites, reports, fixtures, and the command line."""

import json
import re

import pytest

from frobcoho.cli import run_cli
from frobcoho.verify import (
    ALLOWLISTED_FLAGS,
    label_char,
    load_fixture,
    pattern_char,
    predicted_socle,
    synthesize_fixture,
    verify_appendix,
    verify_propositions,
)

FIXTURE_PRIMES = (2, 3, 5, 7)


def test_fixture_parsing_and_audit():
    for p in FIXTURE_PRIMES:
        fx = load_fixture(p)
        assert fx.p == p
        assert sorted(r.n for r in fx.rows) == list(range(3 * (p - 1) + 1))
    fx3 = load_fixture(3)
    assert fx3.row(3).summands == (("L", 4), ("T", 2))
    assert fx3.row(3).pattern == "ODD_IND"


def test_missing_fixture_raises():
    with pytest.raises(FileNotFoundError):
        load_fixture(11)


def test_fixture_env_override(tmp_path, monkeypatch):
    target = tmp_path / "p3.txt"
    target.write_text("p 3\n0 | T(0) | KNULL\n")
    monkeypatch.setenv("FROBCOHO_FIXTURES", str(tmp_path))
    fx = load_fixture(3)
    assert len(fx.rows) == 1


def test_malformed_fixture_names_file_and_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FROBCOHO_FIXTURES", str(tmp_path))
    target = tmp_path / "p3.txt"
    for text, lineno in (("p 3\n0 | T(0) | KNULL\n# note\n1 | T(1)\n", 4),
                         ("p 3\n0 | T0 | KNULL\n", 2),
                         ("p 3\n0 | Q(0) | KNULL\n", 2),
                         ("p 3\nx | T(0) | KNULL\n", 2),
                         ("p 3\n0 | T(0) | NOPE\n", 2)):
        target.write_text(text)
        with pytest.raises(ValueError, match=rf"{re.escape(str(target))}:{lineno}: "):
            load_fixture(3)
        assert run_cli(["verify", "appendix", "--p", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {target}:{lineno}: ")
        assert captured.err.count("\n") == 1


def test_fixture_that_is_not_text_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FROBCOHO_FIXTURES", str(tmp_path))
    (tmp_path / "p3.txt").write_bytes(b"p 3\n0 | T(0) | KNULL\xff\n")
    with pytest.raises(ValueError, match="not UTF-8 text"):
        load_fixture(3)
    assert run_cli(["verify", "appendix", "--p", "3"]) == 3
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'p3.txt'}: not UTF-8 text")


def test_missing_fixture_directory_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FROBCOHO_FIXTURES", str(tmp_path / "nonexistent"))
    assert run_cli(["verify", "appendix", "--p", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no fixture for p=2 at {tmp_path / 'nonexistent' / 'p2.txt'}\n"


def test_pattern_chars():
    from frobcoho.characters import weyl_chi

    assert pattern_char("ZERO", 4, 3).is_zero()
    assert pattern_char("KNULL", 2, 3) == weyl_chi(2)
    assert pattern_char("KNULL", 3, 3).is_zero()
    assert pattern_char("K_DEG0", 0, 5) == weyl_chi(0)
    assert pattern_char("ODD_IND", 1, 3).dim() == 4
    assert pattern_char("ODD_IND", 3, 3).dim() == 8
    assert pattern_char("P2_NABLA", 0, 2).dim() == 2
    assert pattern_char("P2_DELTA", 0, 2).dim() == 1
    assert pattern_char("P2_KNULL", 3, 2).dim() == 4


def test_predicted_socle_shapes():
    assert predicted_socle((("T", 8), ("T", 4)), 5) == {(0, 0): 1, (4, 0): 1}
    assert predicted_socle((("L", 8), ("T", 6)), 5) == {(3, 5): 1, (3, -5): 1, (2, 0): 1}
    assert predicted_socle((("Delta", 2),), 2) == {(0, 0): 1}
    assert predicted_socle((("Nabla", 2),), 2) == {(0, 2): 1, (0, -2): 1}


def test_verify_appendix_all_fixture_primes():
    for p in FIXTURE_PRIMES:
        report = verify_appendix(p, maxdeg=8)
        _, n_fail, n_flag = report.counts()
        assert n_fail == 0, [c for c in report.checks if c.status == "fail"]
        if p == 5:
            assert n_flag == 1
            assert report.exit_code() == 2
        else:
            assert n_flag == 0
            assert report.exit_code() == 0


def test_verify_appendix_synthesized_prime():
    report = verify_appendix(11, maxdeg=6, allow_synth=True)
    assert report.exit_code() == 0
    with pytest.raises(ValueError):
        verify_appendix(11)


def test_synthesize_matches_shipped_fixture():
    for p in (3, 5, 7):
        synth = synthesize_fixture(p)
        shipped = load_fixture(p)
        for a, b in zip(synth.rows, shipped.rows):
            assert a.pattern == b.pattern

            def canon(labels):
                out = {}
                for fam, w in labels:
                    key = ("T", w) if fam in ("T", "L") and w <= p - 1 else (fam, w)
                    out[key] = out.get(key, 0) + 1
                return out

            assert canon(a.summands) == canon(b.summands)


def test_verify_propositions_all_primes():
    for p in FIXTURE_PRIMES:
        report = verify_propositions(p)
        _, n_fail, n_flag = report.counts()
        assert n_fail == 0, [c for c in report.checks if c.status == "fail"]
        if p == 2:
            assert report.exit_code() == 0
        else:
            flagged = [c.name for c in report.checks if c.status == "flagged"]
            assert flagged == ["hh0-vs-theorem-count"]
            assert report.exit_code() == 2


def test_flags_outside_allowlist_fail():
    report = verify_propositions(2)
    report.add_flag("not-a-known-discrepancy", "a", "b")
    assert report.exit_code() == 1
    assert ALLOWLISTED_FLAGS == {"hh0-vs-theorem-count", "appendix-p5-n7-exponent"}


def test_verify_appendix_rejects_a_negative_maxdeg():
    # unchecked, every cohomology-pattern row would pass with no degree compared
    with pytest.raises(ValueError, match="maxdeg = -1"):
        verify_appendix(3, maxdeg=-1)
    assert verify_appendix(3, maxdeg=0).exit_code() == 0


def test_report_json_schema_and_stability():
    r1 = verify_appendix(3, maxdeg=4)
    r2 = verify_appendix(3, maxdeg=4)
    d1, d2 = r1.to_json_dict(), r2.to_json_dict()
    assert set(d1) == {"suite", "checks", "runtime_ms"}
    assert all(set(c) == {"name", "status", "expected", "computed"}
               for c in d1["checks"])
    d1.pop("runtime_ms")
    d2.pop("runtime_ms")
    assert d1 == d2


# -- command line -------------------------------------------------------------


def test_cli_verify_exit_codes(capsys):
    assert run_cli(["verify", "appendix", "--p", "3"]) == 0
    assert run_cli(["verify", "appendix", "--p", "5"]) == 2
    assert run_cli(["verify", "props", "--p", "2"]) == 0
    assert run_cli(["verify", "props", "--p", "3"]) == 2
    capsys.readouterr()


def test_cli_verify_json(capsys):
    assert run_cli(["verify", "appendix", "--p", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "appendix p=2 maxdeg=8"
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_cli_table_b1_p2(capsys):
    assert run_cli(["table", "b1", "--p", "2", "--maxdeg", "4"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0].split("\t") == ["n", "degree", "dim", "character", "flag"]
    assert len(out) == 6
    assert all(line.split("\t")[2] == "4" for line in out[1:])


def test_cli_table_json(capsys):
    assert run_cli(["table", "u1", "--p", "3", "--maxdeg", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["target"] == "u1"
    assert [row["dim"] for row in payload["rows"]] == [3, 3, 3]


def test_cli_decomp(capsys):
    assert run_cli(["decomp", "tsym", "--p", "5", "--n", "6"]) == 0
    assert capsys.readouterr().out.strip() == "L(6)+T(8)+T(4)"
    assert run_cli(["decomp", "sym", "--p", "7", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "T(6)+T(2)"


def test_cli_cohomology(capsys):
    assert run_cli(["cohomology", "--target", "b1", "--p", "3", "--n", "3",
                    "--deg", "1"]) == 0
    assert capsys.readouterr().out.strip() == "dim=2 character=0:1,6:1"


def test_cli_usage_errors(capsys):
    assert run_cli(["verify", "appendix", "--p", "11"]) == 3
    assert run_cli(["verify", "appendix", "--p", "4"]) == 3
    assert run_cli(["verify", "appendix", "--p", "17"]) == 3
    assert run_cli(["decomp", "tsym", "--p", "3", "--n", "99"]) == 3
    for cmd in (["verify", "appendix", "--p", "3"], ["table", "g1", "--p", "3"]):
        assert run_cli([*cmd, "--maxdeg", "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "--maxdeg must be nonnegative" in captured.err
    with pytest.raises(SystemExit) as exc:
        run_cli(["bogus"])
    assert exc.value.code == 3
    capsys.readouterr()


def test_cli_no_fixture_synthesis(capsys):
    assert run_cli(["verify", "appendix", "--p", "11", "--no-fixture",
                    "--maxdeg", "4"]) == 0
    capsys.readouterr()


def test_family_and_pattern_readers_name_an_unknown_id():
    with pytest.raises(ValueError, match="^unknown summand family 'Q'$"):
        label_char("Q", 0, 3)
    with pytest.raises(ValueError, match="^unknown summand family 'Q'$"):
        predicted_socle((("T", 0), ("Q", 0)), 3)
    with pytest.raises(ValueError, match="^unknown pattern id 'NOPE'$"):
        pattern_char("NOPE", 0, 3)
    with pytest.raises(ValueError, match="^summand weight outside the supported range$"):
        predicted_socle((("L", 25),), 5)
    assert [label_char(f, 2, 3).dim() for f in ("T", "L", "Delta", "Nabla")] == [3, 3, 3, 3]
    assert predicted_socle((("L", 24),), 5) == {(4, 20): 1, (4, -20): 1}
