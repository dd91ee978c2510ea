import io
import json
from fractions import Fraction as F

from rayleighsums import PI_HI, PI_LO, decode_table, sigma_table, tau_table, derive_pqr
from rayleighsums.cli import run


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


def test_bounds_json():
    code, out, _ = invoke(
        ["bounds", "--family", "sigma", "--nu", "0", "--order", "1", "--format", "json"]
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["lower"] == ["4/1", "4/1"]
    assert rec["exact_upper"] == "8/1"


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
