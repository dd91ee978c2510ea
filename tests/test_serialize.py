import hashlib
import json
from fractions import Fraction as F

import pytest

from rayleighsums import (
    ChfParams,
    InvalidParameterError,
    bessel_t_series,
    chf_sums_from_series,
    decode_table,
    derive_pqr,
    encode_table,
    genus0_sums_from_series,
    s_table,
    sigma_table,
    table_csv,
    tau_table,
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
