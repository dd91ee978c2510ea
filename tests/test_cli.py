import io
import json
from fractions import Fraction as F

import pytest

from rayleighsums import PI_HI, PI_LO, decode_table, sigma_table, tau_table, derive_pqr
from rayleighsums import cli
from rayleighsums.cli import run
from rayleighsums.rational import decimal_str, parse_rational


def invoke(args):
    out, err = io.StringIO(), io.StringIO()
    code = run(args, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_sums_sigma_json_roundtrip():
    code, out, _ = invoke(["sums", "sigma", "--order", "3", "--nu", "symbolic", "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert decode_table(record) == sigma_table(3)
    assert record["entries"][0]["num_coeffs"] == ["1/4"]


def test_sums_tau_latex_matches_closed_forms():
    code, out, _ = invoke(
        ["sums", "tau", "--a", "0", "--b", "1", "--c", "0", "--order", "2",
         "--nu", "symbolic", "--format", "latex"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "\\tau_{1} = \\frac{\\nu + 2}{4 \\nu^{2} + 4 \\nu}"
    assert "16 \\nu^{5}" in lines[1]


def test_sums_fixed_plain_and_decimal():
    code, out, _ = invoke(["sums", "sigma", "--order", "2", "--nu", "1/2"])
    assert code == 0
    assert out.splitlines() == ["sigma_1 = 1/6", "sigma_2 = 1/90"]
    code, out, _ = invoke(["sums", "sigma", "--order", "1", "--nu", "1/2", "--decimal", "6"])
    assert out.strip() == "sigma_1 = 0.166667"


def test_sums_chf_csv():
    code, out, _ = invoke(["sums", "chf", "--a", "-2", "--b", "1", "--order", "3", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["n,value", "2,3/1", "3,5/1"]


def test_formats_encode_identical_values():
    base = tau_table(derive_pqr(1, 2, 3, F(1, 2)), 3)
    code, out, _ = invoke(
        ["sums", "tau", "--a", "1", "--b", "2", "--c", "3", "--order", "3",
         "--nu", "1/2", "--format", "json"]
    )
    assert decode_table(json.loads(out)) == base
    code, out, _ = invoke(
        ["sums", "tau", "--a", "1", "--b", "2", "--c", "3", "--order", "3",
         "--nu", "1/2", "--format", "csv"]
    )
    assert out.splitlines()[1] == "1,47/90"


def test_verify_commands_pass():
    code, out, _ = invoke(["verify", "--family", "sigma", "--order", "6", "--nu", "symbolic"])
    assert code == 0 and "kishore = series-oracle: PASS (6/6)" in out
    code, out, _ = invoke(
        ["verify", "--family", "tau", "--a", "1", "--b", "2", "--c", "3",
         "--nu", "1/2", "--order", "12"]
    )
    assert code == 0 and "riccati = series-oracle: PASS (12/12)" in out
    code, out, _ = invoke(["verify", "--family", "chf", "--a", "-2", "--b", "5/3", "--order", "10"])
    assert code == 0 and "PASS (9/9)" in out


def test_ode_check():
    code, out, _ = invoke(
        ["ode-check", "--a", "0", "--b", "1", "--c", "1", "--nu", "symbolic", "--order", "8"]
    )
    assert code == 0 and "PASS" in out


def test_zeros_json():
    code, out, _ = invoke(
        ["zeros", "--family", "bessel", "--nu", "1/2", "--count", "1",
         "--precision", "1/1000000", "--format", "json"]
    )
    assert code == 0
    rec = json.loads(out)
    lo = F(*map(int, rec["zeros"][0]["lo"].split("/")))
    hi = F(*map(int, rec["zeros"][0]["hi"].split("/")))
    assert lo <= PI_HI**2 and PI_LO**2 <= hi  # encloses pi^2


@pytest.mark.parametrize(
    "fmt, last",
    [
        ("plain", "zero 3: t in [121, 27225/196]"),
        ("latex", "zero 3: t in [121, 27225/196]"),
        ("csv", "3,121/1,27225/196"),
    ],
)
def test_zeros_integer_endpoints_print_like_sums(fmt, last):
    # plain and latex print integers bare, as sums and bounds do; JSON and
    # CSV keep p/q
    code, out, _ = invoke(["zeros", "--nu", "2", "--count", "3", "--precision", "100",
                           "--format", fmt])
    assert code == 0
    assert out.splitlines()[-1] == last


def test_zeros_json_keeps_explicit_denominators():
    code, out, _ = invoke(["zeros", "--nu", "2", "--count", "3", "--precision", "100",
                           "--format", "json"])
    assert code == 0
    assert json.loads(out)["zeros"][2] == {"k": 3, "lo": "121/1", "hi": "27225/196"}


def test_run_builds_its_parser_once(monkeypatch):
    built = []
    build = cli.build_parser

    def counted():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert invoke(["sums", "sigma", "--order", "2", "--nu", "1"])[0] == 0
        assert invoke(["sums", "sigma", "--nu", "1"])[0] == 2
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()
    # build_parser itself still returns a new parser on every call
    assert cli.build_parser() is not cli.build_parser()


def test_bounds_json():
    code, out, _ = invoke(
        ["bounds", "--family", "sigma", "--nu", "0", "--order", "1", "--format", "json"]
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["lower"] == ["4/1", "4/1"]
    assert rec["exact_upper"] == "8/1"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_bounds_decimal_applies_to_json_and_csv(fmt):
    # --decimal used to reach only the plain form of bounds
    args = ["bounds", "--family", "sigma", "--nu", "1/3", "--order", "3", "--format", fmt]
    code, exact, _ = invoke(args)
    assert code == 0
    code, out, _ = invoke(args + ["--decimal", "7"])
    assert code == 0 and out != exact
    if fmt == "json":
        rec = json.loads(out)
        assert rec["nu"] == "1/3"
        assert rec["lower"] == ["8.3870115", "8.3870115"]
        assert rec["exact_upper"] == "8.5146199"
        assert rec["exact_upper"] == decimal_str(parse_rational(json.loads(exact)["exact_upper"]), 7)
    else:
        assert out.splitlines() == [
            "n,lower_lo,lower_hi,exact_upper",
            "3,8.3870115,8.3870115,8.5146199",
        ]


def test_pole_exits_3_with_named_pole():
    code, _, err = invoke(["sums", "sigma", "--order", "2", "--nu", "-1"])
    assert code == 3
    assert "nu + 1" in err and "vanishes" in err


def test_degenerate_exits_3():
    code, _, err = invoke(
        ["sums", "tau", "--a", "0", "--b", "1", "--c", "0", "--order", "2", "--nu", "0"]
    )
    assert code == 3
    assert "constant term" in err


def test_zeros_past_the_certificate_floor_names_the_cause():
    # the sign certificates stop at |value| < 10^-150, which a cell of
    # width 10^-200 around a zero reaches; the error used to print only the
    # 300-digit point of the failed certificate
    code, out, err = invoke(["zeros", "--nu", "0", "--count", "2", "--precision", "1/1" + "0" * 200])
    assert code == 3 and out == ""
    assert err == (
        "error: cannot enclose zero 1 of bessel(nu=0) to precision 10^-200: "
        "the sign certificates stop at |value| < 10^-150\n"
    )


def test_parameter_errors_exit_2():
    code, _, err = invoke(["sums", "tau", "--order", "3"])  # missing a, b, c
    assert code == 2 and "missing" in err
    code, _, _ = invoke(["sums", "sigma", "--order", "2", "--nu", "0.5"])  # float rejected
    assert code == 2
    code, _, err = invoke(["sums", "sigma", "--order", "3", "--decimal", "4"])  # symbolic
    assert code == 2 and "fixed-nu" in err
    code, _, _ = invoke(["sums", "chf", "--a", "1", "--b", "-2", "--order", "4"])
    assert code == 2
    code, _, err = invoke(
        ["zeros", "--family", "mercer", "--nu", "1", "--count", "1",
         "--a", "0", "--b", "1", "--c", "0"]
    )
    assert code == 2 and "assert" in err


def test_float_literal_names_the_cause(capsys):
    code, out, _ = invoke(["zeros", "--nu", "0.5", "--count", "1"])
    err = capsys.readouterr().err
    assert code == 2 and not out
    assert "floating-point" in err and "rejected on purpose" in err and "1/2" in err


def test_unknown_subcommand_exits_2():
    code, _, _ = invoke(["frobnicate"])
    assert code == 2


def test_kummer_family_refuses_nu():
    # --nu used to be ignored silently for the Kummer family
    for args in (
        ["sums", "chf", "--a", "-2", "--b", "1", "--order", "3", "--nu", "1"],
        ["verify", "--family", "chf", "--a", "-2", "--b", "5/3", "--order", "4", "--nu", "5"],
        ["bounds", "--family", "chf", "--a", "-2", "--b", "5/3", "--order", "2", "--nu", "5"],
    ):
        code, out, err = invoke(args)
        assert code == 2 and not out
        assert "no order parameter nu" in err
    code, _, _ = invoke(["sums", "chf", "--a", "-2", "--b", "1", "--order", "3"])
    assert code == 0
    # sigma/tau still default to symbolic nu when --nu is absent
    code, out, _ = invoke(["sums", "sigma", "--order", "3", "--format", "json"])
    assert code == 0 and json.loads(out)["nu"] == "symbolic"


def test_rational_literals_reject_underscores(capsys):
    # The grammar is an integer or p/q in plain digits; int() alone would
    # read 1_000 as 1000.
    for text in ("1_000", "1/1_0", "1_0/3"):
        with pytest.raises(ValueError, match="not an integer or p/q"):
            parse_rational(text)
    assert parse_rational("1000") == 1000 and parse_rational("-3/10") == F(-3, 10)
    code, out, _ = invoke(["sums", "sigma", "--order", "2", "--nu", "1_000"])
    assert code == 2 and not out and "'1_000' is not an integer" in capsys.readouterr().err


def test_zeros_mercer_names_the_real_zeros_flag():
    args = ["zeros", "--family", "mercer", "--nu", "1", "--count", "1", "--a", "0", "--b", "1", "--c", "0"]
    code, out, err = invoke(args)
    assert code == 2 and not out
    assert "--assert-real-zeros" in err and "assert_real_zeros=True" not in err
    code, out, _ = invoke(args + ["--assert-real-zeros", "--format", "json"])
    assert code == 0 and json.loads(out)["zeros"][0]["k"] == 1


@pytest.mark.parametrize(
    "family_args",
    [["--family", "tau", "--a", "1", "--b", "2", "--c", "3", "--nu", "1/2"], ["--family", "chf", "--a", "-2", "--b", "5/3"]],
)
def test_bounds_tau_and_chf_name_the_real_zeros_flag(family_args):
    args = ["bounds", *family_args, "--order", "2"]
    code, out, err = invoke(args)
    assert code == 2 and not out
    assert "--assert-real-zeros" in err and "assert_real_zeros=True" not in err
    code, out, _ = invoke(args + ["--assert-real-zeros"])
    assert code == 0 and out.startswith("n = 2: lower root bound in [")


def _refuse(*args, **kwargs):
    raise AssertionError("computed before --decimal was checked")


@pytest.mark.parametrize(
    "args, message",
    [
        (["sums", "sigma", "--order", "60", "--decimal", "3"], "--decimal applies to fixed-nu tables only"),
        (["sums", "sigma", "--order", "3", "--decimal", "-1"], "--decimal applies to fixed-nu tables only"),
        (["sums", "tau", "--a", "1", "--b", "2", "--c", "3", "--order", "20", "--decimal", "3"],
         "--decimal applies to fixed-nu tables only"),
        (["sums", "sigma", "--order", "300", "--nu", "1/2", "--decimal", "-1"], "digits must be >= 0"),
        (["sums", "tau", "--a", "1", "--b", "2", "--c", "3", "--nu", "1/2", "--order", "9", "--decimal", "-1"],
         "digits must be >= 0"),
        (["sums", "chf", "--a", "-2", "--b", "5/3", "--order", "9", "--decimal", "-1"], "digits must be >= 0"),
        (["bounds", "--nu", "1/3", "--order", "2", "--decimal", "-1"], "digits must be >= 0"),
        (["zeros", "--nu", "0", "--count", "1", "--decimal", "-1"], "digits must be >= 0"),
    ],
)
def test_decimal_is_refused_before_computing(monkeypatch, args, message):
    from rayleighsums import cli

    for name in ("sigma_table", "tau_table", "s_table", "find_zeros", "euler_rayleigh"):
        monkeypatch.setattr(cli, name, _refuse)
    code, out, err = invoke(args)
    assert (code, out, err) == (2, "", f"error: {message}\n")
