import hashlib
import json
from fractions import Fraction as F

import pytest

from rayleighsums import (
    ChfParams,
    FormalSeries,
    InvalidParameterError,
    OdeCoefficients,
    PoleError,
    bessel_t_series,
    chf_sums_from_series,
    decode_table,
    derive_pqr,
    encode_table,
    genus0_sums_from_series,
    mercer_t_series,
    ode_coefficients,
    s_table,
    series_divide,
    sigma_table,
    table_csv,
    tau_table,
    verify_ode,
)


def roundtrip(table):
    return decode_table(json.loads(json.dumps(encode_table(table))))


def test_sigma_roundtrip_symbolic_and_fixed():
    t = sigma_table(4)
    assert roundtrip(t) == t
    t = sigma_table(4, F(1, 2))
    assert roundtrip(t) == t
    t = sigma_table(2, F(-3, 2))
    back = roundtrip(t)
    assert back == t and not back.real_zero_regime


def test_tau_roundtrip():
    t = tau_table(derive_pqr(0, 1, 0), 3)
    assert roundtrip(t) == t
    t = tau_table(derive_pqr(1, 2, 3, F(1, 2)), 5)
    assert roundtrip(t) == t


def test_chf_roundtrip():
    t = s_table(ChfParams(F(-2), F(5, 3)), 6)
    assert roundtrip(t) == t
    assert encode_table(t)["nu"] is None


def test_record_shape():
    rec = encode_table(sigma_table(2))
    assert rec["family"] == "sigma"
    assert rec["nu"] == "symbolic"
    assert rec["order"] == 2
    assert rec["provenance"] == "recurrence"
    assert rec["entries"][0]["n"] == 1
    assert rec["entries"][0]["num_coeffs"] == ["1/4"]
    assert rec["entries"][0]["den_coeffs"] == ["1/1", "1/1"]
    rec = encode_table(sigma_table(2, F(0)))
    assert rec["entries"] == [
        {"n": 1, "value": "1/4"},
        {"n": 2, "value": "1/32"},
    ]


def test_csv_shapes():
    fixed = table_csv(sigma_table(2, F(0)))
    assert fixed.splitlines() == ["n,value", "1,1/4", "2,1/32"]
    symbolic = table_csv(sigma_table(1))
    assert symbolic.splitlines()[0] == "n,num_coeffs,den_coeffs"
    assert symbolic.splitlines()[1] == "1,1/4,1/1 1/1"


def test_decode_rejects_unknown_family():
    rec = encode_table(sigma_table(1))
    rec["family"] = "nope"
    with pytest.raises(InvalidParameterError):
        decode_table(rec)


def _broken(table, edit):
    rec = json.loads(json.dumps(encode_table(table)))
    edit(rec)
    return rec


@pytest.mark.parametrize(
    "table, edit, field",
    [
        (sigma_table(3, F(1, 2)), lambda r: r["entries"][1].update(n=3), "entry n = 3 "),
        (s_table(ChfParams(-2, F(5, 3)), 4), lambda r: r["entries"][0].update(n=1), "entry n = 1 "),
        (sigma_table(3, F(1, 2)), lambda r: r["entries"][0].update(n=True), "entry n = True "),
        (sigma_table(3, F(1, 2)), lambda r: r.update(order=7), "order = 7 "),
        (s_table(ChfParams(-2, F(5, 3)), 4), lambda r: r.update(order=3), "order = 3 "),
        (sigma_table(3, F(1, 2)), lambda r: r["params"].update(a="1/1"), "params"),
        (tau_table(derive_pqr(1, 2, 3, F(1, 2)), 3), lambda r: r["params"].pop("c"), "params"),
        (s_table(ChfParams(-2, F(5, 3)), 4), lambda r: r["params"].update(c="3/1"), "params"),
        (s_table(ChfParams(-2, F(5, 3)), 4), lambda r: r.update(nu="1/2"), "nu of a chf"),
    ],
    ids=[
        "sigma-n-skips",
        "chf-n-from-1",
        "sigma-n-bool",
        "sigma-order-past-entries",
        "chf-order-short",
        "sigma-extra-param",
        "tau-missing-param",
        "chf-extra-param",
        "chf-nu",
    ],
)
def test_decode_refuses_a_record_that_contradicts_its_family(table, edit, field):
    assert decode_table(_broken(table, lambda r: None)) == table
    with pytest.raises(InvalidParameterError, match=field):
        decode_table(_broken(table, edit))


@pytest.mark.parametrize(
    "table, edit, field",
    [
        (sigma_table(3, F(1, 2)), lambda r: r.update(nu=None), "nu of a sigma table"),
        (tau_table(derive_pqr(1, 2, 3, F(1, 2)), 3), lambda r: r.update(nu=None), "nu of a tau table"),
        (sigma_table(3, F(1, 2)), lambda r: r["entries"][0].update(value=1), "entry value"),
        (sigma_table(3), lambda r: r["entries"][1]["num_coeffs"].__setitem__(0, 1), "num_coeffs"),
        (tau_table(derive_pqr(1, 2, 3, F(1, 2)), 3), lambda r: r["params"].update(a=1), "params a"),
        (sigma_table(3, F(1, 2)), lambda r: r.update(nu="symbolic"), "'value'"),
        (sigma_table(3), lambda r: r.update(nu="1/2"), "'num_coeffs'"),
        (sigma_table(3, F(1, 2)), lambda r: r.update(provenance=5), "provenance"),
        (tau_table(derive_pqr(1, 2, 3, F(1, 2)), 3), lambda r: r.pop("provenance"), "'provenance'"),
        (s_table(ChfParams(-2, F(5, 3)), 4), lambda r: r.pop("entries"), "'entries'"),
        (sigma_table(3, F(1, 2)), lambda r: r.update(entries=None), "entries"),
        (sigma_table(3, F(1, 2)), lambda r: r["entries"].__setitem__(1, "1/90"), "entry 2 "),
        (sigma_table(3, F(1, 2)), lambda r: r.update(family=["sigma"]), "family"),
    ],
    ids=["sigma-nu-null", "tau-nu-null", "int-value", "int-coefficient", "int-weight",
         "symbolic-nu-over-values", "fixed-nu-over-coefficients", "int-provenance",
         "missing-provenance", "missing-entries", "null-entries", "string-entry", "list-family"],
)
def test_decode_refuses_wrongly_typed_or_mixed_fields(table, edit, field):
    assert decode_table(_broken(table, lambda r: None)) == table
    with pytest.raises(InvalidParameterError, match=field):
        decode_table(_broken(table, edit))


def _json_digest(table):
    text = json.dumps(encode_table(table), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_symbolic_tables():
    """sha256 of the encode_table JSON of three symbolic tables, captured
    before PolyNu moved to the content x primitive representation."""
    assert _json_digest(sigma_table(24)) == (
        "b5c0ec48c87dc17910beb7747a77d42c6c94a1b186852d33ae2de0582a2ff657"
    )
    assert _json_digest(tau_table(derive_pqr(1, 2, 3), 12)) == (
        "b16518256d8c557dc4f9f356b27cc58bf4bfb71d9f5da59a2d757aed80ba7d4f"
    )
    oracle = genus0_sums_from_series(bessel_t_series("symbolic", 16), 16)
    assert _json_digest(oracle) == (
        "bc843f2cb16a98b12f633ab21b85b8a37dba6e5a8fa5769a76f05f8c3b324d7d"
    )


def test_golden_fixed_nu_tables():
    """sha256 of the encode_table JSON of fixed-nu recurrence and oracle
    tables, captured before the tables moved to the shared integer
    accumulator. S at (1/2, 7/3) does not terminate, so its denominators
    do not collapse."""
    assert _json_digest(sigma_table(120, F(2, 3))) == (
        "0f754c5efdb114cdda6415d2ee86da4fc2c192d7b89277f4ee2b8d9ce97b77a7"
    )
    assert _json_digest(tau_table(derive_pqr(1, 2, 3, F(3, 2)), 60)) == (
        "ae3af134cd68e0119b39050199c5f2d40b00d7477fba86b3716f463462f7d8f9"
    )
    assert _json_digest(s_table(ChfParams(-2, F(5, 3)), 200)) == (
        "09620efa573ad00cfe372b9ade3d27cee37006b0d2a51319429cebb634c23c82"
    )
    assert _json_digest(s_table(ChfParams(F(1, 2), F(7, 3)), 80)) == (
        "9479e20b22265b8efc4fe46a867f6cf9b9888b8cb278d8d1e29d48df8478fb31"
    )
    oracle = genus0_sums_from_series(bessel_t_series(F(4, 5), 120), 120)
    assert _json_digest(oracle) == (
        "54c5daf39ac1c7cb1d077db829e78cb898047ec77b736b52bf75667c4ed60a09"
    )
    assert _json_digest(chf_sums_from_series(ChfParams(F(1, 2), F(7, 3)), 80)) == (
        "3e7f2d2c5a5eaf101547efefdcbadd5a2d4efa38b3e78af53c0d0e50471cc158"
    )


def _values_digest(values):
    return hashlib.sha256("\n".join(str(v) for v in values).encode()).hexdigest()


def test_golden_fixed_nu_large_tables():
    """sha256 of fixed-nu recurrence, oracle, series and ODE residual
    outputs, captured before the fixed-nu sums moved to nested running-lcm
    denominators. nu = -7/2 gives a formal table (nu <= -1)."""
    assert _json_digest(sigma_table(300, F(4, 3))) == (
        "4b5b4327d956932adbad61ac454d71b32d878cbeadab856ee552dc9ffc69de1b"
    )
    assert _json_digest(genus0_sums_from_series(bessel_t_series(F(4, 5), 200), 200)) == (
        "41a30618c372d38508fee7b45ceaa28782aad8a3a0d5087c91022a725bc4476d"
    )
    assert _json_digest(s_table(ChfParams(-2, F(7, 3)), 400)) == (
        "0046f9c7ed3039f20effc51846edc5842135b11d35dae461271ca120b88e9190"
    )
    assert _json_digest(chf_sums_from_series(ChfParams(-2, F(7, 3)), 300)) == (
        "6452964302a094c92e8dfc3c3572b7914373732cfa4db2ddb76d48f308e9c9d8"
    )
    params = derive_pqr(2, 3, 1, F(3, 2))
    assert _json_digest(tau_table(params, 120)) == (
        "b9df8967f0a5411b29e63fc100b3af050d824053d0a9eae02b828f50bf95f7ec"
    )
    assert _json_digest(genus0_sums_from_series(mercer_t_series(params, 120), 120)) == (
        "8f0fe710876fc0ec4efb6e067d27e9eb9b233923cecdfb66ec5942a7c2ef85ee"
    )
    formal = sigma_table(60, F(-7, 2))
    assert not formal.real_zero_regime
    assert _json_digest(formal) == (
        "1a7c6e4294af20e470a10e2da3db2f5b24a7c0db9eae5c375a935ca271d82d19"
    )
    assert _json_digest(genus0_sums_from_series(bessel_t_series(F(-7, 2), 60), 60)) == (
        "2e2aeb239c17ec3b94dc88a625d8cf8e5bbec173e832c4eaf0000937d65e5633"
    )


def test_golden_fixed_series_and_residuals():
    f = FormalSeries("t", [F(k * k - 3, 2 * k + 7) for k in range(40)])
    g = FormalSeries("t", [F((-1) ** k, k + 1) + F(1, 3) for k in range(40)])
    assert _values_digest(f.mul(g).coeffs) == (
        "60959700bfeb276006fda9afeeb80608c1b7c24aada38976321060c21be87e10"
    )
    assert _values_digest(f.poly_mul([F(2, 3), 0, F(-5, 7), F(1, 9)], 39).coeffs) == (
        "f80d68026b9572341b4f2f39d8195fecc90db0952288843423e33b990f1e3511"
    )
    assert _values_digest(series_divide(f, g, 39).coeffs) == (
        "172be334797bc24723fb3a6812e395fe36594beb4ab6a5fa544cb72819382022"
    )
    zero = "df96df814e043b05b8a5ba46cc672bdc1f05fd476016e5d41d17a122755eae55"
    perturbed = {
        "symbolic": "e58fbdf13ee7c9f118c027c7fe49bd30bd1c5bbbd2f826d67a884f82b62e3fd3",
        F(3, 2): "5d80d83f882ea58dbbeb24ea27be6202af3bc8bd001db011359a18b93ed332b0",
    }
    for nu, digest in perturbed.items():
        params = derive_pqr(1, 2, 3, nu)
        ode = ode_coefficients(params)
        bad = OdeCoefficients(
            ode.denominator, ode.a_numerator, (ode.b_numerator[0] + 1,) + ode.b_numerator[1:]
        )
        assert _values_digest(verify_ode(params, 20).coefficients) == zero
        assert _values_digest(verify_ode(params, 20, bad).coefficients) == digest


@pytest.mark.parametrize(
    "build, message, index",
    [
        (lambda: sigma_table(10, F(-3)), "sigma_3 divides by (nu + 3), which vanishes at nu = -3", 3),
        (lambda: tau_table(derive_pqr(1, 2, 3, F(-5)), 10), "tau_5 divides by (nu + 5), which vanishes at nu = -5", 5),
        (lambda: tau_table(derive_pqr(1, 2, 3, F(-1)), 10), "tau_1 divides by (nu + 1), which vanishes at nu = -1", 1),
        (lambda: bessel_t_series(F(-4), 10), "series coefficient 4 divides by (nu + 4) = 0 at nu = -4", 4),
    ],
)
def test_fixed_nu_poles_keep_index_and_message(build, message, index):
    with pytest.raises(PoleError) as err:
        build()
    assert str(err.value) == message
    assert err.value.index == index
    assert err.value.at == -index
