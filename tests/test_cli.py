"""CLI surface: JSON pipelines, exit codes, determinism."""

import json
import subprocess
import sys

FIXTURE = '{"d":4,"lambda":["0","2","1/2","3/2"]}'


def run_cli(*args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "multfiber", *args],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_count_fixture():
    code, out, err = run_cli("count", FIXTURE)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["d"] == 4
    assert doc["s_d"] == "1"
    assert doc["e_I0"] == "3"
    assert doc["mc_count"] == "3"
    assert doc["mp_count"] == "1"
    assert doc["agreement"] is True
    assert doc["engines"] == {"subspectra": "1", "closed_form": "1"}
    # counts are strings so arbitrary precision survives JSON
    assert isinstance(doc["s_d"], str)


def test_count_emitted_spectrum_round_trips():
    code, out, _ = run_cli("count", FIXTURE)
    doc = json.loads(out)
    code2, out2, _ = run_cli("count", json.dumps(doc["spectrum"]))
    assert code2 == 0
    assert json.loads(out2)["spectrum"] == doc["spectrum"]


def test_count_mp_absent_is_null():
    code, out, _ = run_cli("count", '{"d":3,"mu":["2","-1","-1"]}')
    assert code == 0
    doc = json.loads(out)
    assert doc["mp_count"] is None
    assert doc["gw_flags"] == [2, 1]


def test_count_reads_stdin():
    code, out, _ = run_cli("count", "-", stdin=FIXTURE)
    assert code == 0
    assert json.loads(out)["s_d"] == "1"


def test_invalid_input_exits_one():
    for bad in ["{not json", '{"d":2,"lambda":["1","0"]}', '{"d":2}']:
        code, _, err = run_cli("count", bad)
        assert code == 1
        assert err.strip()


def test_malformed_scalars_exit_one_without_traceback(tmp_path):
    undecodable = tmp_path / "spectrum.json"
    undecodable.write_bytes(b'{"mu":["1","-1"]}\xff')
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    huge = "9" * 3000  # mu = (A+i, -A-i, 1, -1): 1/(A+i) has a 6,000-digit denominator
    for bad in [
        '{"lambda":[null,"2"]}',
        '{"lambda":[["0"],"2"]}',
        '{"lambda":[{"re":"0"},"2"]}',
        '{"mu":[true,"-1"]}',
        '{"lambda":[1e400,"2"]}',
        '{"d":"2","lambda":["0","2"]}',
        str(undecodable),
        str(nested),
        '{"mu":[' + "1" * 5000 + ',"-1"]}',
        f'{{"mu":["{huge}+1i","-{huge}-1i","1","-1"]}}',
    ]:
        code, _, err = run_cli("count", bad)
        assert code == 1, bad
        assert err.startswith("error:") and "Traceback" not in err, err
    # every command that writes the unwritable spectrum refuses it, and verify
    # refuses a writable one whose shifts pass the float range
    big = "1" + "0" * 400
    for args in [
        ("lattice", bad),
        ("verify", bad),
        ("gen", "--plan", f'[["{huge}+1i","-{huge}-1i"],["1","-1"]]'),
        ("verify", f'{{"mu":["{big}","-{big}","1","-1"]}}'),
    ]:
        code, _, err = run_cli(*args)
        assert code == 1, args[0]
        assert err.startswith("error:") and "Traceback" not in err, err


def test_usage_error_exits_one():
    for args in [
        ("count",),  # a missing input
        ("frobnicate", FIXTURE),  # an unknown subcommand
        ("verify", FIXTURE, "--seed", "x"),  # a malformed flag value
    ]:
        code, out, err = run_cli(*args)
        assert code == 1 and out == "", args
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error:") and "Traceback" not in err, err


def test_lattice_dump_is_one_based():
    code, out, _ = run_cli("lattice", FIXTURE)
    assert code == 0
    doc = json.loads(out)
    assert doc["partitions"] == [[[1, 2, 3, 4]], [[1, 2], [3, 4]]]
    assert doc["proper_count"] == 1
    assert doc["zero_sum_subsets"] == 2


def test_polyfam_table():
    code, out, _ = run_cli("polyfam", "--max-l", "5")
    assert code == 0
    doc = json.loads(out)
    by_lk = {(row["l"], row["k"]): row for row in doc["table"]}
    assert by_lk[(5, 2)]["text"] == "-4d^3+18d^2-28d+15"
    assert by_lk[(4, 2)]["coefficients"] == ["7", "-9", "3"]
    assert by_lk[(5, 5)]["text"] == "1"


def test_identity_check_single_and_sweep():
    code, out, _ = run_cli("identity-check", "--sizes", "2,2,3")
    assert code == 0
    assert json.loads(out) == {"sum": "0", "ok": True}
    code, out, _ = run_cli("identity-check", "--max-l", "3", "--max-size", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["checked"] == 3 + 4  # size multisets from {2,3}, l in {2,3}
    assert doc["failures"] == []


def test_identity_check_bad_sizes():
    code, _, err = run_cli("identity-check", "--sizes", "2,x")
    assert code == 1 and err.strip()
    code, _, _ = run_cli("identity-check", "--sizes", "4")
    assert code == 1
    # 14 distinct sizes, 3^14 states, pass MAX_STATES: refused before the row pass starts
    code, _, err = run_cli("identity-check", "--sizes", ",".join(map(str, range(2, 16))))
    assert code == 1 and "state limit" in err


def test_identity_check_sweep_limit():
    # 3.7e6 states: refused before the sweep starts
    code, _, err = run_cli("identity-check", "--max-l", "15", "--max-size", "4")
    assert code == 1 and "state limit 3000000" in err


def test_identity_check_sweep_without_size_vectors_is_empty():
    # max-size 1 admits no block size, so no l is visited however large
    code, out, _ = run_cli("identity-check", "--max-l", "3000000", "--max-size", "1")
    assert code == 0
    assert json.loads(out) == {"checked": 0, "failures": [], "ok": True}


def test_polyfam_table_limit():
    # 3.9 s and 440 MB at the limit, 10.7 s and 1.3 GB at l = 200
    code, _, err = run_cli("polyfam", "--max-l", "151")
    assert code == 1 and "limit 150" in err


def test_gen_is_deterministic_and_feeds_count():
    args = ("gen", "--plan", '[["1","-1"],3]', "--seed", "9", "--exact")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run_cli("count", "-", stdin=out1)
    assert code3 == 0
    assert json.loads(out3)["d"] == 5


def test_gen_seeded_output_is_pinned():
    # the exact text of two seeded runs: a change to how ``generate`` draws
    # that moves a seed shows here
    code, out, _ = run_cli("gen", "--plan", "[2,3]", "--seed", "42")
    assert code == 0
    assert out == (
        '{\n  "d": 5,\n  "lambda": [\n    "4/5",\n    "6/5",\n    "28/19",\n'
        '    "13/5",\n    "125/197"\n  ]\n}\n'
    )
    code, out, _ = run_cli("gen", "--plan", '[["1","-1"],3]', "--seed", "9", "--exact")
    assert code == 0
    assert out == (
        '{\n  "d": 5,\n  "lambda": [\n    "0",\n    "2",\n    "-11/9",\n'
        '    "-2",\n    "107/47"\n  ]\n}\n'
    )


def test_gen_sizes_only_plan():
    code, out, _ = run_cli("gen", "--plan", "[4]", "--seed", "1")
    assert code == 0
    assert json.loads(out)["d"] == 4


def test_gen_bad_plan():
    code, _, err = run_cli("gen", "--plan", '[["1","-2"]]')
    assert code == 1 and err.strip()
    code, _, _ = run_cli("gen", "--plan", '"x"')
    assert code == 1
    # a JSON true is not a block size, though bool is an int subclass
    code, _, err = run_cli("gen", "--plan", "[true,3]")
    assert code == 1 and "plan items must be integers" in err
    # an empty explicit block is refused before any draw
    for extra in ([], ["--exact"]):
        code, _, err = run_cli("gen", "--plan", "[[],3]", *extra)
        assert code == 1 and "degree" in err
    # no command reads a spectrum past the scan limit, so none is drawn
    code, _, err = run_cli("gen", "--plan", "[100000000]")
    assert code == 1 and err == "error: degree 100000000 above the scan limit 38\n"


def test_gen_plan_scalars_are_checked_like_spectrum_scalars():
    for plan in ('[[null,1]]', '[["1.5","-1.5"]]', '[[true,-1]]', '[["1",[2]]]'):
        code, _, err = run_cli("gen", "--plan", plan)
        assert code == 1 and err.startswith("error: "), plan
    # a JSON float is an exact binary rational, as in a spectrum document
    code, out, _ = run_cli("gen", "--plan", "[[1.5,-1.5]]")
    assert code == 0
    assert json.loads(out)["lambda"] == ["1/3", "5/3"]


def test_verify_fixture():
    code, out, _ = run_cli("verify", FIXTURE, "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "verified"
    assert doc["found_tuples"] == "3"
    assert doc["expected_tuples"] == "3"
    assert doc["mc_orbits"] == "3"
    assert float(doc["max_multiplier_error"]) < 1e-8
    assert len(doc["tuples"]) == 3


def test_verify_zero_case_small_budget():
    code, out, _ = run_cli(
        "verify", '{"d":4,"lambda":["0","2","0","2"]}', "--budget-factor", "40"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "consistent"
    assert doc["found_tuples"] == "0"


def test_verify_incomplete_reports_but_exits_zero():
    code, out, _ = run_cli("verify", FIXTURE, "--budget-factor", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "incomplete"


def test_verify_short_run_that_finds_one_rotation_orbit_is_incomplete():
    # 6 starts find one of the two rotation orbits: 3 of the 6 tuples
    code, out, err = run_cli("verify", '{"mu":["1","2","3","-6"]}', "--budget-factor", "1")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["status"] == "incomplete"
    assert (doc["found_tuples"], doc["mc_orbits"]) == ("3", "3")


def test_verify_short_run_with_a_class_swap_closes_the_orbit():
    # one converged start gives both tuples of the one polynomial
    code, out, err = run_cli("verify", '{"mu":["2","-1","-1"]}', "--budget-factor", "1")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["status"] == "verified"
    assert (doc["found_tuples"], doc["mc_orbits"]) == ("2", "1")


def test_verify_nearly_equal_shifts_exits_zero():
    # zeta and -zeta are two polynomials here, not one orbit of size 2
    code, out, err = run_cli("verify", '{"mu":["1","1000001/1000000","-2000001/1000000"]}')
    assert code == 0, err
    doc = json.loads(out)
    assert doc["status"] == "verified"
    assert (doc["found_tuples"], doc["mc_orbits"], doc["expected_orbits"]) == ("2", "2", "2")


def test_verify_zero_fiber_with_empty_budget_is_incomplete():
    # no starts is no evidence, even where nothing is to be found
    code, out, _ = run_cli(
        "verify", '{"d":4,"lambda":["0","2","0","2"]}', "--budget-factor", "0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["starts"] == 0
    assert doc["status"] == "incomplete"


def test_verify_degree_cap_exits_one():
    code, _, err = run_cli(
        "verify",
        '{"d":7,"mu":["1","2","3","4","5","6","-21"]}',
        "--budget-factor",
        "1",
    )
    assert code == 1
    assert "cap" in err


def test_verify_bad_budget_factor_exits_one():
    code, _, err = run_cli("verify", FIXTURE, "--budget-factor", "-1")
    assert code == 1
    assert "budget_factor" in err


def test_verify_non_finite_eps_mult_exits_one():
    for value in ("inf", "nan"):
        code, _, err = run_cli("verify", FIXTURE, "--eps-mult", value)
        assert code == 1, value
        assert "eps_mult" in err


def test_count_gaussian_scalars():
    code, out, _ = run_cli("count", '{"d":4,"mu":["0+1i","0-1i","2","-2"]}')
    assert code == 0
    doc = json.loads(out)
    assert doc["s_d"] == "1"
    assert doc["mc_count"] == "3"
    assert doc["spectrum"]["lambda"] == ["1+1i", "1-1i", "1/2", "3/2"]


def test_output_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli("count", FIXTURE, "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["s_d"] == "1"


def test_unwritable_output_exits_one_without_traceback(tmp_path):
    for target in (tmp_path, tmp_path / "missing" / "report.json"):
        code, out, err = run_cli("count", '{"mu":["1","-1"]}', "-o", str(target))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
        assert "Traceback" not in err
