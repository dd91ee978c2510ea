import hashlib
import json
from fractions import Fraction as F

import pytest

from rayleighsums import (
    ChfParams,
    InvalidParameterError,
    bessel_t_series,
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
