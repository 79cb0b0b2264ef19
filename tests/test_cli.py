import hashlib
import json
from types import MappingProxyType

import pytest

import charvar.cli as cli
import charvar.strata as strata
from charvar.cli import (RunConfig, ConfigError, Skip, fill, lambda_fills, main,
                         parse_class, parse_target, run_verification,
                         verification_plan)
from charvar.counting import (CommutatorFiber, ZFull, ZbarCase,
                              brute_force_count, fast_count)
from charvar.sl2 import GeometricClass, SL2Element
from charvar.strata import CASE_IDS, building_blocks

# sha256 of json.dumps(run_verification("all", RunConfig()), indent=2); the
# same value is pinned in perfbench/expected.json
VERIFY_ALL_SHA256 = "9f9a335640731f1a23ae43f71db6f173af3f437e14553b17f53edc24e91d29fb"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(primes=(5, 9))
    with pytest.raises(ConfigError):
        RunConfig(primes=(5, 5, 7))
    with pytest.raises(ConfigError, match="103 exceeds the enumeration bound 101"):
        RunConfig(primes=(5, 103))
    assert RunConfig(primes=(11, 5, 7)).primes == (5, 7, 11)


def test_first_lambda_fills_match_a_scan():
    # every fill of each placeholder by a direct scan, in ascending order
    for p in range(5, 90, 2):
        if any(p % d == 0 for d in range(3, p, 2)):
            continue
        squares = {x * x % p for x in range(1, p)}
        lams = range(2, p - 1)
        generic = [(l1, l2) for l1 in lams for l2 in lams
                   if l2 not in (l1, pow(l1, -1, p), p - l1)]
        scans = {
            "lam": list(lams),
            "square": [lam for lam in lams if lam in squares],
            "nonsquare": [lam for lam in lams if lam not in squares],
            "same": [f"{l1},{l2}" for l1, l2 in generic
                     if (l1 in squares) == (l2 in squares)],
            "cross": [f"{l1},{l2}" for l1, l2 in generic
                      if (l1 in squares) != (l2 in squares)],
            "special": [f"2,{p - 2}"] if p >= 7 else [],
        }
        for key, scan in scans.items():
            first = fill("{" + key + "}", p)
            if scan:
                assert first == str(scan[0]), (key, p)
            else:
                assert isinstance(first, Skip), (key, p)
        for key in ("lam", "square", "nonsquare"):
            assert [f[key] for f in lambda_fills("{" + key + "}", p)] == scans[key]
    assert list(lambda_fills("zbar22", 5)) == [{}]


def test_lambda_fill_skip_reasons():
    sq = Skip("no admissible lambda in this square class")
    pair = Skip("no generic pair in this class pattern")
    special = Skip("lam2 = -lam1 is not a special pair here")
    assert fill("{lam}", 5) == "2"
    assert fill("{square}", 5) == sq
    assert fill("{nonsquare}", 5) == "2"
    assert fill("{same}", 5) == fill("{cross}", 5) == pair
    assert fill("{special}", 5) == special
    assert fill("{square}", 7) == "2" and fill("{nonsquare}", 7) == "3"
    assert fill("{same}", 7) == pair
    assert fill("{cross}", 7) == "2,3"
    assert fill("{special}", 7) == "2,5"
    assert fill("{same}", 11) == "2,7"
    assert fill("{lam}", 3) == Skip("no admissible lambda")


# ---------------------------------------------------------------------------
# target parsing


def test_parse_targets():
    assert parse_target("commfiber:j+", 5).target.entries() == (1, 1, 0, 1)
    case = parse_target("zbar44=2,3", 7)
    assert isinstance(case, ZbarCase) and (case.lam1, case.lam2) == (2, 3)
    spec = parse_target("zfull:w2,w4=2", 7)
    assert isinstance(spec, ZFull) and spec.spec2.lam == 2
    assert parse_target("xstratum:X3", 7).tag == "X3"
    assert parse_target("dcfiber=2,3,0", 7).mu == 3
    # a bare target takes the first {lam}
    assert parse_target("commfiber:xi", 7).target == SL2Element.diagonal(2, 7)
    case = parse_target("zbar44", 7)
    assert (case.lam1, case.lam2) == (2, 2)


def test_parse_target_skips_inadmissible_lambda():
    skip = parse_target("zbar24=4", 5)            # 4 = -1 mod 5
    assert hasattr(skip, "reason")
    skip = parse_target("zbar24", 3)              # no admissible lambda mod 3
    assert hasattr(skip, "reason")
    assert parse_target("commfiber:xi", 3) == Skip("no admissible lambda")


def test_parse_target_errors():
    # a malformed target is an error at every prime, before any skip
    for p in (3, 5):
        for text in ("zbar99", "zfull:w2", "zbar44=2,x", "commfiber:xi=a",
                     "commfiber:nonsense", "dcfiber=2,3"):
            with pytest.raises(ConfigError):
                parse_target(text, p)
    with pytest.raises(ConfigError):
        parse_class("w9")


# ---------------------------------------------------------------------------
# subcommands


def test_cmd_blocks_text(capsys):
    code, out, _ = run_cli(capsys, "blocks")
    assert code == 0
    assert "Xbar3" in out and "q^3 + 3q^2" in out
    assert "FAIL" not in out


def test_cmd_blocks_json(capsys):
    code, out, _ = run_cli(capsys, "blocks", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["blocks"]["Xbar2"]["coeffs"] == [0, -3, -2, 1]
    assert all(row["pass"] for row in payload["identities"])


def test_a_broken_block_is_reported_not_raised(monkeypatch, capsys):
    # X2 mistranscribed where the one mapping is built: both reports show
    # the identities it breaks and exit 1, with no traceback
    monkeypatch.setattr(strata, "MappingProxyType",
                        lambda d: MappingProxyType({**d, "X2": d["X2"] + 1}))
    building_blocks.cache_clear()
    try:
        code, out, _ = run_cli(capsys, "blocks")
        assert code == 1
        assert "[FAIL] X2 = W2 * Xbar2" in out and "[pass] X3 = W3 * Xbar3" in out
        code, out, _ = run_cli(capsys, "verify", "blocks", "--format", "json")
        assert code == 1
        assert json.loads(out)["summary"]["identity_failures"] == [
            "building blocks: X0+X1+X2+X3+X4 = SL2^2",
            "building blocks: X2 = W2 * Xbar2"]
    finally:
        monkeypatch.undo()
        building_blocks.cache_clear()
    assert run_cli(capsys, "blocks")[0] == 0


def test_cmd_derive(capsys):
    code, out, _ = run_cli(capsys, "derive", "J+xi")
    assert code == 0
    assert "q^4 + q^3 + 2q^2 + q + 1" in out
    code, out, _ = run_cli(capsys, "derive", "xixi-generic", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["e_moduli"]["coeffs"] == [1, 2, 6, 2, 1]
    assert payload["matches_stated_result"] is True


def test_cmd_derive_unknown_case(capsys):
    code, _, _ = run_cli(capsys, "derive", "nonsense")
    assert code == 2


# sha256 of the stdout of `charvar blocks --format json` and of
# `charvar derive CASE --format json`, trailing newline included
SYMBOLIC_JSON_SHA256 = {
    ("blocks",): "92b86a2a08463efca0759859ab52739b131d21f5aaec703d335d0377f112b19d",
    ("derive", "J+J+"):
        "1f4915a17054cd3e00450508cf1546976e482d8015cd1bb0d048a93dade51335",
    ("derive", "J+J-"):
        "bc06cdb900880afe143cd50460864a90900fb5e7c53a65f91dd266f0ac35a3f2",
    ("derive", "J+xi"):
        "96a0d7645f4d4182f3e68ef96230bb26ced995db91bf760cdb45b28e303658fa",
    ("derive", "xixi-generic"):
        "691b5e523a68c27ebaacd776fbb288dd5738643e2281ae33b81f0ba2244ee322",
    ("derive", "xixi-special"):
        "286f4b3b0737d85b7e414ab66395fc9442651a987b51d0b657f45d70d10892e0",
    ("derive", "xixi-equal"):
        "dcf461333727dbfb27f1689e6ba8d1a4c3c733e3d2230fe439df6debd9f9ec9a",
}


def test_symbolic_json_outputs_are_pinned(capsys):
    assert {argv[1] for argv in SYMBOLIC_JSON_SHA256 if len(argv) == 2} == \
        set(CASE_IDS)
    for argv, sha in SYMBOLIC_JSON_SHA256.items():
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == sha, argv


def test_cmd_count_text(capsys):
    code, out, _ = run_cli(capsys, "count", "zbar23", "--primes", "5,7")
    assert code == 0
    assert "count=2600" in out and "count=16072" in out


def test_cmd_count_skips_without_admissible_lambda(capsys):
    code, out, _ = run_cli(capsys, "count", "zbar24", "--primes", "3,5")
    assert code == 0
    assert "skipped" in out and "count=2560" in out


def test_cmd_count_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "count", "commfiber:j+",
                           "--primes", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["records"][0]["count"] == 60
    assert payload["records"][0]["ms"] is None
    code, out, _ = run_cli(capsys, "count", "commfiber:j+",
                           "--primes", "5,7", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("target,params,p,count")
    assert len(lines) == 3


def test_cmd_count_brute_method(capsys):
    code, out, _ = run_cli(capsys, "count", "commfiber:xi=2",
                           "--primes", "5", "--method", "brute")
    assert code == 0
    assert "count=64" in out


def test_cmd_count_reports_guard_violations_per_prime(capsys):
    # the batch continues past an out-of-range oracle request
    code, out, _ = run_cli(capsys, "count", "zbar22",
                           "--primes", "5,11", "--method", "brute")
    assert code == 0
    assert "count=3840" in out
    assert "oracle out of range" in out


def test_cmd_count_bad_target(capsys):
    code, _, err = run_cli(capsys, "count", "zbar99", "--primes", "5")
    assert code == 2
    assert "error" in err


def test_cmd_count_bad_primes(capsys):
    code, _, err = run_cli(capsys, "count", "zbar22", "--primes", "9")
    assert code == 2
    code, _, err = run_cli(capsys, "count", "zbar22", "--primes", "5,x")
    assert code == 2
    assert "error: 'x' is not an integer" in err
    code, out, err = run_cli(capsys, "count", "zbar24=2", "--primes", "103")
    assert code == 2 and out == ""
    assert "error: 103 exceeds the enumeration bound 101" in err


def test_cmd_count_unknown_stratum(capsys):
    code, _, err = run_cli(capsys, "count", "xstratum:X9", "--primes", "5")
    assert code == 2
    assert "error: unknown stratum 'X9'" in err


@pytest.mark.parametrize("method", ["fast", "brute"])
def test_cmd_count_skips_barred_sets_below_5(capsys, method):
    code, out, _ = run_cli(capsys, "count", "zbar22", "--primes", "3,5",
                           "--method", method)
    assert code == 0
    assert "p=3   skipped: barred-set counts need p >= 5" in out
    assert "count=3840" in out


@pytest.mark.parametrize("target", ["zbar44=2,x", "dcfiber=a,3,5"])
def test_cmd_count_non_integer_parameters(capsys, target):
    code, _, err = run_cli(capsys, "count", target, "--primes", "7")
    assert code == 2
    assert "is not an integer" in err


def test_cmd_hodge_default(capsys):
    code, out, _ = run_cli(capsys, "hodge")
    assert code == 0
    assert "solutions: 18" in out


def test_cmd_hodge_no_weight_bound(capsys):
    code, out, _ = run_cli(capsys, "hodge", "--no-weight-bound")
    assert code == 0
    n = int(out.splitlines()[0].split()[1])
    assert n > 18
    assert "warning" in out


def test_cmd_hodge_json(capsys):
    code, out, _ = run_cli(capsys, "hodge", "--format", "json")
    payload = json.loads(out)
    assert payload["n_tables"] == 18
    forced = {(row["k"], row["p"]): row["value"]
              for row in payload["forced_entries"]}
    assert forced[(6, 3)] == 2 and forced[(8, 4)] == 1


def test_cmd_hodge_small_instance(capsys):
    code, out, _ = run_cli(capsys, "hodge", "--epoly", "1", "--poincare", "1",
                           "--dim", "0", "--dump-tables", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_tables"] == 1
    assert payload["tables"] == [[[1]]]


# sha256 of `charvar hodge --dump-tables --format json`, trailing newline
# stripped as CI hashes it; the dump lists the tables in enumeration order
@pytest.mark.parametrize("flags, sha", [
    ((), "d2284664cf355f21c031a3d7a3e3a8ecf7012110a95edcedaeae2eb389123af0"),
    (("--no-weight-bound",),
     "798591f7cb8e7fbe803ef53aa000d6ee973271ce24c86c115976b868828fd263"),
], ids=["weight-bound", "no-weight-bound"])
def test_cmd_hodge_dump_tables_is_pinned(capsys, flags, sha):
    code, out, _ = run_cli(capsys, "hodge", "--dump-tables", "--format", "json",
                           *flags)
    assert code == 0
    assert hashlib.sha256(out.rstrip("\n").encode()).hexdigest() == sha


def test_cmd_probe(capsys):
    code, out, _ = run_cli(capsys, "probe", "--primes", "5")
    assert code == 0
    assert "union of diagonal fibers = 128" in out
    assert "128" in out and "316" in out


def test_cmd_probe_below_5(capsys):
    code, out, err = run_cli(capsys, "probe", "--primes", "3")
    assert code == 2
    assert out == ""
    assert err == "error: probe needs p >= 5\n"


def test_cmd_verify_insufficient_panel(capsys):
    code, _, err = run_cli(capsys, "verify", "blocks", "--primes", "5,7,11")
    assert code == 2
    assert "panel" in err


def test_cmd_verify_blocks_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "blocks", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["threads"] == 1
    assert report["config"]["cache_dir"] is None
    assert set(report) == {"schema", "config", "targets", "identities",
                           "probe", "summary"}
    verdicts = {t["id"]: t["verdict"] for t in report["targets"]}
    assert verdicts["X0"] == "match"
    assert verdicts["Xbar2"] == "match"
    assert verdicts["Xbar3"] == "quasi-polynomial"
    assert verdicts["Xbar4lam[qr]"] == "match"
    assert verdicts["Xbar4lam[qnr]"] == "mismatch"
    assert report["summary"]["must_match_failures"] == []
    for t in report["targets"]:
        for rec in t["records"]:
            assert rec["ms"] is None
    # every verdict is from the contract set
    assert set(verdicts.values()) <= {"match", "mismatch", "quasi-polynomial",
                                      "inconsistent", "skipped"}


def test_cmd_verify_is_byte_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "blocks", "--format", "json")
    code2, out2, _ = run_cli(capsys, "verify", "blocks", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_cmd_verify_all_scope_deterministic_and_green(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "all", "--format", "json")
    report = run_verification("all", RunConfig())
    text = json.dumps(report, indent=2)
    assert code1 == report["summary"]["exit_code"] == 0
    assert out1 == text + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_ALL_SHA256
    assert report["summary"]["identity_failures"] == []
    scopes = {t["id"] for t in report["targets"]}
    assert {"X0", "Zbar22", "Z23"} <= scopes


def test_an_oracle_disagreement_inside_verify_fails_the_run(monkeypatch):
    # the oracle is off by one on Xbar3 (commfiber:j-) at its oracle prime
    # only, so the fit and the quasi-polynomial verdict before it are as
    # usual; the disagreement must overturn the verdict and fail the run
    brute, xbar3 = brute_force_count, CommutatorFiber(SL2Element.jminus(7))
    monkeypatch.setattr(cli, "brute_force_count", lambda p, spec:
                        brute(p, spec) + (1 if (p, spec) == (7, xbar3) else 0))
    report = run_verification("blocks", RunConfig())
    row = next(t for t in report["targets"] if t["id"] == "Xbar3")
    assert row["fit"]["status"] == "quasi-polynomial"
    assert row["verdict"] == "inconsistent"
    assert row["brute_confirmed"] is False
    assert row["brute_value"] == {"p": 7, "brute": 197, "fast": 196}
    assert "Xbar3" in report["summary"]["warnings"]
    assert report["summary"]["exit_code"] == 1


def test_cmd_verify_panel_overlapping_extension_primes(capsys):
    # 37 is both on the panel and the first quasi-polynomial extension prime
    code, out, _ = run_cli(capsys, "verify", "zbar", "--format", "json",
                           "--primes", "5,7,11,13,17,19,23,29,31,37")
    assert code == 0
    for t in json.loads(out)["targets"]:
        primes = [r["p"] for r in t["records"] + t.get("extension_records", [])]
        assert len(primes) == len(set(primes)), t["id"]


def test_cmd_verify_zbar_skips_primes_below_5(capsys):
    code, out, _ = run_cli(capsys, "verify", "zbar", "--format", "json",
                           "--primes", "3,5,7,11,13,17,19")
    assert code == 0
    targets = json.loads(out)["targets"]
    for t in targets:
        assert t["records"][0]["p"] == 3 and t["records"][0]["count"] is None
    assert targets[0]["records"][0]["skipped"] == "barred-set counts need p >= 5"


def test_cmd_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "blocks", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "target,params,p,count,method,ms,verdict"
    # one row per (target, prime)
    assert len(lines) == 1 + 11 * 9


def test_cmd_verify_writes_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "blocks", "--format", "json",
                           "--output", str(path))
    assert code == 0
    assert out == ""
    report = json.loads(path.read_text())
    assert report["schema"].startswith("charvar-verification-report")


def test_cmd_output_to_unwritable_path(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "blocks", "--output", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1


def test_plan_specs_agree_with_the_oracle():
    # each row's one spec, counted by both routes.  The class-size rows
    # count a class mask and have no oracle route; Zbar44[generic-same]
    # first has a pair at p = 11, above the oracle's tuple guard.
    plans = verification_plan("all")
    counted = set()
    for p in (5, 7):
        for plan in plans:
            spec = plan.spec(p)
            if isinstance(spec, (Skip, GeometricClass)):
                continue
            assert fast_count(p, spec) == brute_force_count(p, spec), (plan.id, p)
            counted.add(plan.id)
    assert len(plans) == 38
    assert counted == {plan.id for plan in plans} - {
        "W2-size", "W4lam-size", "Zbar44[generic-same]"}


@pytest.mark.parametrize("argv", [["blocks"], ["derive", "J+xi"], ["hodge"],
                                  ["probe", "--primes", "5"]])
def test_cmd_csv_only_on_count_and_verify(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 2 and out == ""
    assert "invalid choice" in err


def test_cmd_usage_error_exit_code(capsys):
    assert main(["verify", "nonsense-scope"]) == 2
    assert main([]) == 2


def test_zfull_central_rows_cite_one_puncture_strata():
    # Z(W0, K) reduces to the stratum X of K and Z(W1, K) to that of -K
    b = building_blocks()
    refs = {plan.id: plan.reference for plan in verification_plan("zfull")}
    expected = {"Z00": "X0", "Z01": "X1", "Z02": "X2", "Z03": "X3",
                "Z04lam[qr]": "X4lam", "Z04lam[qnr]": "X4lam",
                "Z11": "X0", "Z12": "X3", "Z13": "X2",
                "Z14lam[qr]": "X4lam", "Z14lam[qnr]": "X4lam"}
    for plan_id, block in expected.items():
        assert refs[plan_id] == b[block], plan_id
