"""Command line behavior: payloads, exit codes, determinism, formats."""

import argparse
import json
import time
from fractions import Fraction
from itertools import count, product
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest

from wildram import checks, cli, exactmath, towers
from wildram.cli import main
from wildram.exactmath import PRIME_LIMIT
from wildram.psl2 import InertiaType
from wildram.ramification import enumerate_admissible
from wildram.towers import TOWER_SIZE_LIMIT, parse_tower_spec

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout (stderr: {err!r})"
    return code, json.loads(out)


def test_admissible_true(capsys):
    code, payload = run_json(
        capsys, "admissible", "--p", "7", "--m", "2", "--mI", "2", "--jumps", "3/2"
    )
    assert code == 0
    assert payload["admissible"] is True
    assert payload["failed"] is None


def test_admissible_false_is_still_success(capsys):
    code, payload = run_json(
        capsys, "admissible", "--p", "7", "--m", "1", "--mI", "1", "--jumps", "7"
    )
    assert code == 0
    assert payload["admissible"] is False
    assert payload["failed"] == "c"


def test_genus_payload(capsys):
    code, payload = run_json(
        capsys, "genus", "--order", "1092", "--p", "7", "--m", "2", "--r", "1",
        "--jumps", "3/2",
    )
    assert code == 0
    assert payload["genus"] == 118
    assert payload["divisor_degree"] == 31


def test_genus_precondition_error(capsys):
    code, out, err = run(
        capsys, "genus", "--order", "1092", "--p", "7", "--m", "1", "--jumps", "7"
    )
    assert code == 2
    assert out == ""
    assert "admissible" in err


def test_params_and_triple(capsys):
    code, payload = run_json(capsys, "params", "--p", "7", "--ell", "97")
    assert code == 0 and payload["order"] == 456288 and payload["a"] == 2
    code, payload = run_json(capsys, "triple", "--p", "7", "--ell", "97")
    assert code == 0
    assert payload["psl2_indices"] == [48, 7, 49]
    assert payload["vp_chain"] == [0, 1, 2]


def test_enumerate_json_and_csv(capsys):
    code, payload = run_json(
        capsys, "enumerate", "--p", "7", "--m", "2", "--mI", "2", "--r", "1", "--bound", "2"
    )
    assert code == 0
    assert payload["sequences"] == [["1/2"], ["3/2"]]
    code, out, err = run(
        capsys, "enumerate", "--p", "7", "--m", "2", "--mI", "2", "--r", "1",
        "--bound", "2", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["index,jumps", "0,1/2", "1,3/2"]


def test_enumerate_refuses_above_the_limit(capsys):
    # 122700 sequences, 2.5 MB and 3.5 s of output before the limit
    code, payload = run_json(
        capsys, "enumerate", "--p", "3", "--m", "1", "--r", "3", "--bound", "400"
    )
    assert code == 0
    assert payload["status"] == "refused" and payload["limit"] == cli.ENUMERATION_LIMIT
    assert "not enumerated" in payload["reason"]
    assert "sequences" not in payload and "count" not in payload
    # a bound far past the limit is refused as cheaply
    code, payload = run_json(
        capsys, "enumerate", "--p", "3", "--m", "1", "--r", "2", "--bound", "9" * 60
    )
    assert code == 0 and payload["status"] == "refused"


def test_huge_r_is_refused_before_p_to_the_r_is_built(capsys):
    # --r 10^12 hung building 3^(10^12) for the label; every command that
    # takes an inertia type refuses it at once with a one-line error
    huge = str(10**12)
    requests = [
        ("enumerate", "--p", "3", "--m", "1", "--r", huge, "--bound", "5"),
        ("genus", "--order", "1092", "--p", "7", "--m", "1", "--r", huge, "--jumps", "7"),
        ("base-sigma", "--p", "7", "--ell", "97", "--m", "2", "--r", huge),
    ]
    for argv in requests:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == f"error: r = {huge} exceeds the limit {cli.R_LIMIT}\n"
    # admissible takes r from the number of jumps
    jumps = ",".join(f"{k}/2" for k in range(1, cli.R_LIMIT + 2))
    code, out, err = run(capsys, "admissible", "--p", "7", "--m", "2", "--jumps", jumps)
    assert code == 2 and out == "" and "exceeds the limit" in err
    # the limit itself is served
    code, payload = run_json(
        capsys, "enumerate", "--p", "3", "--m", "1", "--r", str(cli.R_LIMIT), "--bound", "5"
    )
    assert code == 0 and payload["count"] == 0
    assert payload["inertia"]["label"] == f"Z/{3 ** cli.R_LIMIT}"


def test_rationals_outside_n_and_n_over_d_are_refused(capsys):
    # Fraction alone reads exponents: '1e100000' looped once per power of p
    # in infer, and past 4300 digits the others died on CPython's
    # int-string limit; only 'n' and 'n/d' are read now
    requests = [
        ("infer", "--sigma", "1e100000", "--p", "3", "--mG", "2"),
        ("enumerate", "--p", "3", "--m", "1", "--r", "1", "--bound", "1e1000000"),
        ("admissible", "--p", "3", "--m", "1", "--mI", "1", "--jumps", "1e1000000"),
        ("tails", "--mG", "2", "--prim", "1", "--bound", "1e1000000"),
        ("infer", "--sigma", "3/2e5", "--p", "3", "--mG", "2"),
        ("infer", "--sigma", "1.5", "--p", "3", "--mG", "2"),
        ("infer", "--sigma", "9" * 5000, "--p", "3", "--mG", "2"),
    ]
    for argv in requests:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "", argv
        assert err.startswith("error: cannot parse rational value"), argv


def test_a_result_past_the_integer_string_limit_is_refused(capsys):
    # a 4299-digit jump parses, and its genus has more digits than Python
    # prints: the output is rendered before any of it is written, so every
    # format exits 2 with one error line and nothing on stdout
    jumps = f"1/2,{10**4299 - 5}/2"
    for fmt in ("json", "csv", "plain"):
        argv = ["genus", "--order", "108", "--p", "3", "--m", "2", "--jumps", jumps]
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, ""), fmt
        assert err == "error: the result has an integer of more than 4300 digits\n"


def test_primes_past_the_limit_are_refused_before_trial_division(capsys):
    # trial division of a prime near 10^18 ran past any timeout, before
    # the budget of verify-group was even read
    huge = "1000000000000000003"
    requests = [
        ("params", "--p", "3", "--ell", huge),
        ("verify-group", "--p", "3", "--ell", huge),
        ("params", "--p", huge, "--ell", "13"),
        ("triple", "--p", "3", "--ell", huge),
        ("infer", "--sigma", "1", "--p", huge, "--mG", "2"),
        ("params", "--p", "3", "--ell", str(PRIME_LIMIT + 39)),  # the least prime past it
    ]
    for argv in requests:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "exceeds the prime limit" in err, argv


def test_largest_prime_under_the_limit_is_still_served(capsys):
    ell = 999999999989  # the largest prime below PRIME_LIMIT
    start = time.perf_counter()
    code, params = run_json(capsys, "params", "--p", "3", "--ell", str(ell))
    assert code == 0
    code, report = run_json(capsys, "verify-group", "--p", "3", "--ell", str(ell))
    assert time.perf_counter() - start < 1
    assert code == 0 and params["order"] == ell * (ell * ell - 1) // 2
    assert report["status"] == "refused" and "exceeds budget 2000" in report["reason"]


@pytest.mark.parametrize("subcommand, code", [("params", 0), ("triple", 2), ("candidates", 0)])
def test_group_commands_run_trial_division_once_per_prime(capsys, monkeypatch, subcommand, code):
    # p and ell are each trial-divided once, whichever helper asks (4 calls
    # when vp tested p afresh on each of v_p(ell - 1) and v_p(ell + 1))
    calls = []
    real = exactmath.is_prime

    def counted(n):
        calls.append(n)
        return real(n)

    exactmath._prime_verdict.cache_clear()
    monkeypatch.setattr(exactmath, "is_prime", counted)
    # triple refuses, since p divides neither ell - 1 nor ell + 1
    assert run(capsys, subcommand, "--p", "999999999989", "--ell", "1000003")[0] == code
    assert sorted(calls) == [1000003, 999999999989]


def test_enumeration_bound_holds_and_admits_every_small_request():
    # a true upper bound on the count, down to the empty enumerations
    for p, m, r, bound in product((3, 5, 7), (1, 2, 4), (1, 2, 3), (Fraction(1, 2), 3, 20, 60)):
        inertia = InertiaType(p=p, r=r, m=m, m_I=gcd(m, p - 1))
        assert cli._enumeration_bound(inertia, bound) >= len(enumerate_admissible(inertia, bound))
    # r <= 2 and bound <= 20, the requests check-all, the tests and the benchmark send
    for p, m, r in product((3, 5, 7), (1, 2), (1, 2)):
        inertia = InertiaType(p=p, r=r, m=m, m_I=gcd(m, p - 1))
        assert cli._enumeration_bound(inertia, 20) <= cli.ENUMERATION_LIMIT
    # the largest request of rank 1 at p = 3 sits on the limit
    z3 = InertiaType.cyclic(3, 1)
    assert cli._enumeration_bound(z3, cli.ENUMERATION_LIMIT) == cli.ENUMERATION_LIMIT
    assert cli._enumeration_bound(z3, cli.ENUMERATION_LIMIT + 1) > cli.ENUMERATION_LIMIT


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "candidates", "--p", "7", "--ell", "97")
    _, second, _ = run(capsys, "candidates", "--p", "7", "--ell", "97")
    assert first == second


def test_tails_and_infer(capsys):
    code, payload = run_json(capsys, "tails", "--mG", "2", "--prim", "1", "--new-min", "1")
    assert code == 0
    assert payload["configurations"] == [
        [{"kind": "new", "sigma": "3/2"}, {"kind": "primitive", "sigma": "1/2"}]
    ]
    code, payload = run_json(capsys, "infer", "--sigma", "3/2", "--p", "7", "--mG", "2")
    assert code == 0
    assert payload["allowed_r"] == [1]
    assert payload["abelian_possible"] is False


def test_tails_refuses_negative_counts(capsys):
    # a negative maximum count of new tails used to be read as an empty
    # range and served with no configurations, exit 0
    for flag in ("--new-min", "--new-max"):
        argv = ["tails", "--mG", "5", "--prim", "0", flag, "-3"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: counts must be nonnegative and m_G positive\n", argv


def test_infer_refuses_p_2_like_every_other_subcommand(capsys):
    requests = [
        ("infer", "--sigma", "1", "--p", "2", "--mG", "2"),
        ("params", "--p", "2", "--ell", "13"),
        ("verify-group", "--p", "2", "--ell", "7"),
    ]
    for argv in requests:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: p = 2 must be an odd prime\n"), argv


def test_base_sigma_unknown(capsys):
    code, payload = run_json(
        capsys, "base-sigma", "--p", "7", "--ell", "97", "--m", "2", "--r", "2"
    )
    assert code == 0
    assert payload["sigma"] == "unknown"


def test_tower_commands(tmp_path, capsys):
    spec_path = tmp_path / "tower.txt"
    spec_path.write_text("7 2 1 1\n0 0 0 1\n", encoding="ascii")
    code, payload = run_json(capsys, "tower-predict", "--spec", str(spec_path))
    assert code == 0
    assert payload["valid"] is True
    assert payload["jumps"] == ["3/2"]
    code, payload = run_json(capsys, "tower-oracle", "--spec", str(spec_path))
    assert code == 0
    assert payload["jumps"] == ["3/2"] and payload["agrees_with_recurrence"] is True

    out_path = tmp_path / "deformed.txt"
    code, payload = run_json(
        capsys, "deform", "--spec", str(spec_path), "--target", "5/2",
        "--out", str(out_path),
    )
    assert code == 0
    assert payload["ok"] is True
    deformed = parse_tower_spec(out_path.read_text(encoding="ascii"))
    assert str(deformed.x_polys[0]) == "x^5 + x^3"


def test_tower_predict_invalid_spec_reports(tmp_path, capsys):
    spec_path = tmp_path / "bad.txt"
    spec_path.write_text("7 2 1 1\n0 0 1 1\n", encoding="ascii")
    code, payload = run_json(capsys, "tower-predict", "--spec", str(spec_path))
    assert code == 0
    assert payload["valid"] is False
    assert "jumps" not in payload


def test_tower_predict_reports_every_violation_in_order(capsys):
    # two layers over p = 5, m = 3, class 1: an off-class x^2 in x_1, then
    # x^5 (a p-multiple off the class) and x^10 (a p-multiple) in x_2, and
    # m_I = 3, which does not divide 4; CI holds python3 -S to the golden too
    spec_path = GOLDEN / "tower-predict-invalid.txt"
    code, out, err = run(capsys, "tower-predict", "--spec", str(spec_path))
    assert (code, err) == (0, "")
    assert json.loads(out)["violations"] == [
        "x_1: term degree 2 is not 1 mod m = 3",
        "x_2: term degree 5 is not prime to p = 5",
        "x_2: term degree 5 is not 1 mod m = 3",
        "x_2: term degree 10 is not prime to p = 5",
        "action order m_I = 3 does not divide p - 1 = 4",
    ]
    assert out == (GOLDEN / "tower-predict-invalid.json").read_text(encoding="ascii")


def test_corrupted_spec_file_is_usage_error(tmp_path, capsys):
    spec_path = tmp_path / "corrupt.txt"
    spec_path.write_text("7 2\nnot numbers\n", encoding="ascii")
    code, out, err = run(capsys, "tower-predict", "--spec", str(spec_path))
    assert code == 2 and "error" in err


def test_tower_file_with_r_below_one_is_refused(tmp_path, capsys):
    # r slices the layer lines, so a negative r once named a wrong line
    for r in (0, -1, -2):
        path = tmp_path / f"r{r}.txt"
        path.write_text(f"3 1 {r} 0\n0 1\n0 1\n0 1\n", encoding="ascii")
        for command in ("tower-predict", "tower-oracle"):
            code, out, err = run(capsys, command, "--spec", str(path))
            assert (code, out) == (2, "")
            assert err == f"error: r = {r} must be >= 1\n"


def test_tower_size_cap(tmp_path, capsys):
    # p * (largest layer degree) may reach the cap and not pass it; a file
    # past the cap is refused before any polynomial is built or carried
    p = 13
    at_cap = TOWER_SIZE_LIMIT // p

    def layer(degree):
        return " ".join(["0"] * degree + ["1"])

    served = tmp_path / "at_cap.txt"
    served.write_text(f"{p} 1 2 0\n{layer(1)}\n{layer(at_cap)}\n", encoding="ascii")
    code, payload = run_json(capsys, "tower-oracle", "--spec", str(served))
    assert code == 0 and payload["jumps"] == ["1", str(at_cap)]

    past = [
        (tmp_path / "past_degree.txt", f"{p} 1 2 0\n{layer(at_cap + 1)}\n0\n"),
        (tmp_path / "past_p.txt", f"{TOWER_SIZE_LIMIT + 1} 1 1 0\n0 1\n"),
    ]
    for path, text in past:
        path.write_text(text, encoding="ascii")
        for command in ("tower-predict", "tower-oracle"):
            start = time.perf_counter()
            code, out, err = run(capsys, command, "--spec", str(path))
            assert time.perf_counter() - start < 1.0
            assert code == 2 and out == ""
            assert err.startswith("error:") and "tower size limit" in err
        code, out, err = run(capsys, "deform", "--spec", str(path), "--target", "1")
        assert code == 2 and out == "" and "tower size limit" in err

    # deform refuses a target whose deformed layer would pass the cap, so
    # every tower it writes reads back: at p = 7, m = 2 the odd degrees
    # prime to 7 around the cap are 9361 (7 * 9361 = 65527) and 9363 (65541)
    assert 7 * 9361 <= TOWER_SIZE_LIMIT < 7 * 9363
    small = tmp_path / "small.txt"
    small.write_text("7 2 1 1\n0 0 0 1\n", encoding="ascii")
    out_path = tmp_path / "deformed.txt"
    code, payload = run_json(
        capsys, "deform", "--spec", str(small), "--target", "9361/2", "--out", str(out_path)
    )
    assert code == 0 and payload["ok"] is True
    assert parse_tower_spec(out_path.read_text(encoding="ascii")).x_polys[0].degree == 9361
    start = time.perf_counter()
    code, out, err = run(capsys, "deform", "--spec", str(small), "--target", "9363/2")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "tower size limit" in err


def test_tower_line_past_the_cap_is_refused_unparsed(tmp_path, capsys):
    # a line of 10^6 coefficients is refused by its token count before any
    # is parsed, even when all but the constant term are zeros (degree 0)
    many = 10**6
    for name, line in (("dense", " ".join(["1"] * many)), ("zeros", "1" + " 0" * (many - 1))):
        path = tmp_path / f"{name}.txt"
        path.write_text(f"3 1 1 0\n{line}\n", encoding="ascii")
        for command in ("tower-predict", "tower-oracle"):
            start = time.perf_counter()
            code, out, err = run(capsys, command, "--spec", str(path))
            assert time.perf_counter() - start < 1.0
            assert code == 2 and out == ""
            assert err.startswith("error: x_1: more than") and "tower size limit" in err
    # a line of exactly TOWER_SIZE_LIMIT tokens is parsed and sized as before
    path = tmp_path / "at_tokens.txt"
    path.write_text("3 1 1 0\n" + "1" + " 0" * (TOWER_SIZE_LIMIT - 1) + "\n", encoding="ascii")
    assert parse_tower_spec(path.read_text(encoding="ascii")).x_polys[0].degree == 0


def test_missing_file_is_usage_error(capsys):
    code, out, err = run(capsys, "tower-oracle", "--spec", "/nonexistent/tower.txt")
    assert code == 2


def test_verify_group_refusal_and_budget(capsys):
    code, payload = run_json(capsys, "verify-group", "--p", "7", "--ell", "97")
    assert code == 0
    assert payload["status"] == "refused"
    code, payload = run_json(
        capsys, "verify-group", "--p", "3", "--ell", "5", "--budget", "100"
    )
    assert code == 0
    assert payload["status"] == "checked"
    assert all(c["status"] == "pass" for c in payload["claims"])


def test_verify_group_table_size_limit(capsys):
    # the budget binds: today's reason
    code, payload = run_json(capsys, "verify-group", "--p", "7", "--ell", "97")
    assert payload["reason"] == "group order 456288 exceeds budget 2000; claims not checked"
    # a budget above the order limit cannot admit the group
    code, payload = run_json(
        capsys, "verify-group", "--p", "7", "--ell", "97", "--budget", "1000000"
    )
    assert code == 0
    assert payload["status"] == "refused" and payload["budget"] == 1000000
    assert payload["reason"] == (
        "group order 456288 exceeds the order limit 39732; claims not checked"
    )
    assert "claims" not in payload


def test_unknown_subcommand_is_usage_error(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert (code, out) == (2, "")
    assert err.startswith("error: argument subcommand: invalid choice: 'frobnicate'")
    assert err.count("\n") == 1


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = run(capsys, "params", "--p", "7", "--ell", "97", "--bogus", "1")
    assert (code, out, err) == (2, "", "error: unrecognized arguments: --bogus 1\n")


def test_argparse_refusals_are_one_error_line(capsys):
    # argparse's own report was a usage block and then "wildram <cmd>:
    # error: ..."; every refusal is now one "error:" line, as the others are
    requests = [
        (("admissible", "--p", "3", "--m", "2", "--jumps", "-e"), "argument --jumps: expected one argument"),
        (("params", "--p", "seven", "--ell", "97"), "argument --p: invalid int value: 'seven'"),
        (("genus", "--p", "3", "--m", "2", "--jumps", "1"), "the following arguments are required: --order"),
        ((), "the following arguments are required: subcommand"),
    ]
    for argv, message in requests:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, argv


def test_help_still_exits_0(capsys):
    for argv in (("--help",), ("admissible", "--help")):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: wildram")


_FORMAT = ("--format", None, "json", False, "output format")
_INT, _OPTIONAL_INT = (int, None, True, None), (int, None, False, None)

# (flag, type, default, required, help) of every subcommand, in order
SUBCOMMAND_FLAGS = {
    "params": [_FORMAT, ("--p", *_INT), ("--ell", *_INT)],
    "triple": [_FORMAT, ("--p", *_INT), ("--ell", *_INT)],
    "candidates": [_FORMAT, ("--p", *_INT), ("--ell", *_INT)],
    "admissible": [
        _FORMAT, ("--p", *_INT), ("--m", *_INT), ("--mI", *_OPTIONAL_INT),
        ("--jumps", None, None, True, "comma separated rationals, e.g. 3/2"),
    ],
    "enumerate": [
        _FORMAT, ("--p", *_INT), ("--m", *_INT), ("--mI", *_OPTIONAL_INT), ("--r", *_INT),
        ("--bound", None, None, True, None),
    ],
    "genus": [
        _FORMAT, ("--order", *_INT), ("--p", *_INT), ("--m", *_INT), ("--mI", *_OPTIONAL_INT),
        ("--r", *_OPTIONAL_INT), ("--jumps", None, None, True, None),
    ],
    "base-sigma": [
        _FORMAT, ("--p", *_INT), ("--ell", *_INT), ("--m", *_INT), ("--mI", *_OPTIONAL_INT),
        ("--r", int, 1, False, None),
    ],
    "tower-predict": [_FORMAT, ("--spec", None, None, True, "path to a tower file")],
    "tower-oracle": [_FORMAT, ("--spec", None, None, True, None)],
    "deform": [
        _FORMAT, ("--spec", None, None, True, None),
        ("--target", None, None, True, "target jumps, comma separated"),
        ("--scale", int, 1, False, None),
        ("--out", None, None, False, "write the deformed tower here"),
    ],
    "tails": [
        _FORMAT, ("--mG", *_INT), ("--prim", *_INT), ("--new-min", int, 0, False, None),
        ("--new-max", *_OPTIONAL_INT), ("--bound", None, None, False, None),
    ],
    "infer": [_FORMAT, ("--sigma", None, None, True, None), ("--p", *_INT), ("--mG", *_INT)],
    "verify-group": [_FORMAT, ("--p", *_INT), ("--ell", *_INT), ("--budget", int, 2000, False, None)],
    "check-all": [_FORMAT, ("--budget-subgroup", int, 2000, False, None)],
}


def test_every_subcommand_flag_is_pinned():
    # the flags' order sets the usage line and the "required" error line
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(SUBCOMMAND_FLAGS)
    for name, command in subparsers.choices.items():
        actions = [a for a in command._actions if not isinstance(a, argparse._HelpAction)]
        flags = [(*a.option_strings, a.type, a.default, a.required, a.help) for a in actions]
        assert flags == SUBCOMMAND_FLAGS[name], name
        assert actions[0].choices == ("json", "csv", "plain"), name


def test_every_payload_names_its_subcommand(tmp_path, capsys):
    tower = tmp_path / "tower.txt"
    tower.write_text("7 2 1 1\n0 0 0 1\n", encoding="ascii")
    requests = [
        ("params", "--p", "7", "--ell", "13"),
        ("triple", "--p", "3", "--ell", "17"),
        ("candidates", "--p", "3", "--ell", "17"),
        ("admissible", "--p", "7", "--m", "2", "--jumps", "3/2"),
        ("enumerate", "--p", "3", "--m", "2", "--r", "2", "--bound", "6"),
        ("genus", "--order", "1092", "--p", "7", "--m", "2", "--jumps", "3/2"),
        ("base-sigma", "--p", "7", "--ell", "13", "--m", "2"),
        ("tower-predict", "--spec", str(tower)),
        ("tower-oracle", "--spec", str(tower)),
        ("deform", "--spec", str(tower), "--target", "5/2", "--out", str(tmp_path / "out.txt")),
        ("tails", "--mG", "2", "--prim", "1"),
        ("infer", "--sigma", "3/2", "--p", "3", "--mG", "2"),
        ("verify-group", "--p", "3", "--ell", "97"),
        ("check-all", "--budget-subgroup", "1"),
    ]
    assert [argv[0] for argv in requests] == list(SUBCOMMAND_FLAGS)
    for argv in requests:
        code, payload = run_json(capsys, *argv)
        assert (code, payload["command"]) == (0, argv[0])


def test_each_tower_is_validated_once(tmp_path, capsys, monkeypatch):
    # tower-predict and tower-oracle validate their one tower once; deform
    # validates its input and the deformed tower, once each
    calls = []

    def counted(t):
        calls.append(t)
        return original(t)

    original = towers.validate_spec
    monkeypatch.setattr(towers, "validate_spec", counted)
    valid = tmp_path / "tower.txt"
    valid.write_text("7 2 2 1\n0 0 0 1\n0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1\n", encoding="ascii")
    invalid = tmp_path / "bad.txt"
    invalid.write_text("7 2 1 1\n0 0 1 1\n", encoding="ascii")
    raw = tmp_path / "raw.txt"  # x^14 + x: invalid, and the oracle reduces it
    raw.write_text("7 1 1 0\n0 1" + " 0" * 12 + " 1\n", encoding="ascii")
    requests = [
        (("tower-predict", "--spec", str(valid)), 0, 1),
        (("tower-predict", "--spec", str(invalid)), 0, 1),
        (("tower-oracle", "--spec", str(valid)), 0, 1),
        (("tower-oracle", "--spec", str(raw)), 0, 1),
        (("deform", "--spec", str(valid), "--target", "5/2,35/2"), 0, 2),
    ]
    for argv, code, count in requests:
        calls.clear()
        got, out, err = run(capsys, *argv)
        assert (got, err) == (code, ""), argv
        assert len(calls) == count, argv


def test_check_all_with_small_budget_skips_subgroups(capsys):
    code, out, err = run(capsys, "check-all", "--budget-subgroup", "500")
    assert code == 0
    payload = json.loads(out)
    by_id = {r["check"]: r for r in payload["results"]}
    assert by_id["subgroup-claims-1092"]["status"] == "skip"
    assert payload["failed"] == 0
    others = [r for r in payload["results"] if r["check"] != "subgroup-claims-1092"]
    assert all(r["status"] == "pass" for r in others)
    # timings live on stderr; the data stream is reproducible byte for byte
    assert all("seconds" not in r for r in payload["results"])
    code2, out2, _ = run(capsys, "check-all", "--budget-subgroup", "500")
    assert out2 == out


def test_verify_group_witness_matrices_are_stable(capsys):
    # witnesses are sign-canonical matrices named by atlas ids, so these
    # pin the atlas element order and the generator pairs of the search
    code, payload = run_json(capsys, "verify-group", "--p", "7", "--ell", "13")
    assert code == 0
    witness = payload["claims"][0]["witness"]
    assert witness == {"generators": [[0, 1, 12, 0], [1, 3, 8, 12]], "size": 14}
    code, payload = run_json(capsys, "verify-group", "--p", "5", "--ell", "11")
    assert code == 1
    failed = [c for c in payload["claims"] if c["status"] == "fail"]
    assert [c["claim"] for c in failed] == ["quasi-p-above-dihedral-is-whole"]
    assert failed[0]["witness"] == {"generators": [[0, 1, 10, 0], [3, 2, 10, 7]], "size": 60}


@pytest.mark.parametrize(
    "p,ell,budget,code", [(3, 11, 660, 1), (5, 19, 3420, 1), (7, 29, 12180, 0)]
)
def test_verify_group_matches_its_golden_report(capsys, p, ell, budget, code):
    # the whole report byte for byte, every printed witness matrix included;
    # CI holds verify-group --p 7 --ell 43 to verify-group-7-43.json
    golden = (GOLDEN / f"verify-group-{p}-{ell}.json").read_text(encoding="ascii")
    assert run(capsys, "verify-group", "--p", str(p), "--ell", str(ell),
               "--budget", str(budget)) == (code, golden, "")


def test_tower_commands_match_their_goldens(tmp_path, capsys):
    # tower-predict on a valid two-layer tower, tower-oracle on the raw
    # x^14 + x, and deform's stdout and --out file, byte for byte; CI holds
    # python3 -S under two hash seeds to the same goldens
    def golden(name):
        return (GOLDEN / name).read_text(encoding="ascii")

    valid, raw = str(GOLDEN / "tower-valid.txt"), str(GOLDEN / "tower-raw.txt")
    out_path = tmp_path / "deformed.txt"
    assert run(capsys, "tower-predict", "--spec", valid) == (
        0, golden("tower-predict-valid.json"), "")
    assert run(capsys, "tower-oracle", "--spec", raw) == (0, golden("tower-oracle-raw.json"), "")
    assert run(capsys, "deform", "--spec", valid, "--target", "5/2,35/2",
               "--out", str(out_path)) == (0, golden("deform-valid.json"), "")
    assert out_path.read_text(encoding="ascii") == golden("deform-valid-out.txt")


def test_check_all_matches_its_golden_stream(capsys):
    # the whole data stream byte for byte; the seconds go to stderr only
    golden = (GOLDEN / "check-all.json").read_text(encoding="ascii")
    code, out, err = run(capsys, "check-all", "--format", "json")
    assert (code, out) == (0, golden)
    assert "over budget" not in err


def test_check_all_flags_an_overrun_on_stderr_only(capsys, monkeypatch):
    # a clock that moves 7 s between the two readings of each suite: a
    # suite whose budget is below 7 s says so on its stderr line; stdout
    # and the exit code stay those of the golden
    golden = (GOLDEN / "check-all.json").read_text(encoding="ascii")
    ticks = count(step=7)
    monkeypatch.setattr(checks, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    code, out, err = run(capsys, "check-all", "--format", "json")
    assert (code, out) == (0, golden)
    expected = []
    for spec in checks.registry():
        line = f"pass  {spec.check_id}  (7.00s)"
        if spec.budget_seconds < 7:
            line += f"  over budget ({spec.budget_seconds} s)"
        expected.append(line)
    assert err.splitlines() == expected
    assert [line.split()[1] for line in expected if "over budget" in line] == [
        "admissible-base-filtrations",
        "tail-config-unique",
        "herbrand-roundtrip",
        "generation-obstructions",
    ]


def test_internal_fault_is_reported_not_raised(capsys, monkeypatch):
    # an invariant breach (RuntimeError) inside a handler: a one-line report
    # on stderr, nothing on stdout, exit 2, no traceback
    def broken(args):
        raise RuntimeError("a Schreier generator (0, 1, 6, 0) does not fix infinity")

    monkeypatch.setattr(cli, "_cmd_params", broken)
    code, out, err = run(capsys, "params", "--p", "7", "--ell", "97")
    assert code == 2 and out == ""
    assert err == "internal error: a Schreier generator (0, 1, 6, 0) does not fix infinity\n"
