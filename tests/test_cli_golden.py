"""Golden CLI corpus: sha256 of (exit code, stdout, stderr) per invocation.

The corpus covers each subcommand in each format with and without
--decimal, the error paths and every --help screen. stdout and stderr
include what argparse writes to sys.stdout/sys.stderr itself (help,
usage errors). Help text depends on the terminal width and on the Python
version's argparse, so COLUMNS is pinned and the digests are those of
Python 3.11.

The digests were captured from the CLI before its output code was merged
into one emitter. The only re-captured entries, marked below, are
`bounds --decimal` with --format json and csv: those used to ignore
--decimal and print exact rationals.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from rayleighsums.cli import run

_FORMATS = ("plain", "json", "latex", "csv")


def _formats(base, decimal="7"):
    """base in every format, with and without --decimal."""
    out = []
    for fmt in _FORMATS:
        out.append([*base, "--format", fmt])
        out.append([*base, "--format", fmt, "--decimal", decimal])
    return out


_TAU = ["--a", "1", "--b", "2", "--c", "3"]
_CHF = ["--a", "-2", "--b", "5/3"]
_MERCER = ["--a", "0", "--b", "1", "--c", "2"]

_OUTPUTS = [
    *[["sums", "sigma", "--order", "3", "--nu", "symbolic", "--format", f] for f in _FORMATS],
    *[["sums", "sigma", "--order", "12", "--nu", "symbolic", "--format", f] for f in _FORMATS],
    ["sums", "sigma", "--order", "2"],
    *_formats(["sums", "sigma", "--order", "4", "--nu", "1/3"]),
    *[["sums", "tau", *_TAU, "--order", "2", "--nu", "symbolic", "--format", f] for f in _FORMATS],
    # fractional contents and negative coefficients
    *[["sums", "tau", "--a", "1/2", "--b", "-3", "--c", "2/3", "--order", "6", "--nu", "symbolic",
       "--format", f] for f in _FORMATS],
    *_formats(["sums", "tau", *_TAU, "--order", "3", "--nu", "1/2"]),
    *_formats(["sums", "chf", *_CHF, "--order", "5"]),
    ["sums", "sigma", "--order", "2", "--nu", "-1/3", "--decimal", "0"],
    *_formats(["bounds", "--family", "sigma", "--nu", "1/3", "--order", "3"]),
    *_formats(["bounds", "--family", "tau", *_TAU, "--nu", "1/2", "--order", "2",
               "--assert-real-zeros"]),
    *_formats(["bounds", "--family", "chf", *_CHF, "--order", "2", "--assert-real-zeros"]),
    ["bounds", "--family", "sigma", "--nu", "0", "--order", "1"],
    ["bounds", "--family", "sigma", "--nu", "0", "--order", "1", "--format", "json"],
    ["bounds", "--nu", "2/3", "--order", "4", "--root-width", "1/1000"],
    *_formats(["zeros", "--family", "bessel", "--nu", "1/2", "--count", "3",
               "--precision", "1/1000000"]),
    *_formats(["zeros", "--family", "mercer", *_MERCER, "--nu", "1", "--count", "2",
               "--precision", "1/10000", "--assert-real-zeros"], decimal="5"),
    ["zeros", "--nu", "0", "--count", "2"],
    ["verify", "--family", "sigma", "--order", "6"],
    ["verify", "--family", "sigma", "--order", "10", "--nu", "1/3"],
    ["verify", "--family", "tau", *_TAU, "--order", "6", "--nu", "symbolic"],
    ["verify", "--family", "tau", *_TAU, "--order", "8", "--nu", "1/2"],
    ["verify", "--family", "chf", *_CHF, "--order", "8"],
    ["ode-check", *_TAU, "--order", "8"],
    ["ode-check", *_TAU, "--order", "8", "--nu", "1/2"],
]

_ERRORS = [
    [],
    ["frobnicate"],
    ["sums", "sigma"],
    ["sums", "bogus", "--order", "2"],
    ["sums", "sigma", "--order", "2", "--format", "xml"],
    ["sums", "sigma", "--order", "2", "--nu", "0.5"],
    ["sums", "sigma", "--order", "2", "--nu", "1_000"],
    ["sums", "sigma", "--order", "2", "--nu", "1/0"],
    ["sums", "sigma", "--order", "3", "--decimal", "4"],
    ["sums", "sigma", "--order", "2", "--nu", "1/2", "--decimal", "-1"],
    ["sums", "sigma", "--order", "0", "--nu", "1/2"],
    ["sums", "sigma", "--order", "2", "--nu", "-1"],
    ["sums", "tau", "--order", "3"],
    ["sums", "tau", "--a", "0", "--b", "1", "--c", "0", "--order", "2", "--nu", "0"],
    ["sums", "chf", "--order", "3"],
    ["sums", "chf", "--a", "-2", "--order", "3"],
    ["sums", "chf", "--a", "1", "--b", "-2", "--order", "4"],
    ["sums", "chf", "--a", "-2", "--b", "1", "--order", "3", "--nu", "1"],
    ["bounds", "--order", "2"],
    ["bounds", "--nu", "symbolic", "--order", "2"],
    ["bounds", "--nu", "1/3", "--order", "0"],
    ["bounds", "--nu", "-3/2", "--order", "2"],
    ["bounds", "--nu", "1/3", "--order", "2", "--root-width", "0"],
    ["bounds", "--family", "tau", *_TAU, "--nu", "1/2", "--order", "2"],
    ["bounds", "--family", "tau", "--nu", "1/2", "--order", "2", "--assert-real-zeros"],
    ["bounds", "--family", "chf", *_CHF, "--order", "2"],
    ["bounds", "--family", "chf", *_CHF, "--order", "2", "--nu", "5"],
    ["zeros", "--nu", "symbolic", "--count", "1"],
    ["zeros", "--nu", "0.5", "--count", "1"],
    ["zeros", "--nu", "0", "--count", "0"],
    ["zeros", "--nu", "0", "--count", "100"],
    ["zeros", "--nu", "-1", "--count", "1"],
    ["zeros", "--nu", "0", "--count", "1", "--precision", "0"],
    ["zeros", "--nu", "0", "--count", "1", "--precision", "-1/2"],
    ["zeros", "--family", "mercer", "--nu", "symbolic", "--count", "1"],
    ["zeros", "--family", "mercer", *_MERCER, "--nu", "symbolic", "--count", "1",
     "--assert-real-zeros"],
    ["zeros", "--family", "mercer", *_MERCER, "--nu", "1", "--count", "1"],
    ["zeros", "--family", "mercer", "--nu", "1", "--count", "1", "--assert-real-zeros"],
    ["verify", "--order", "3"],
    ["verify", "--family", "sigma", "--order", "3", "--nu", "-1"],
    ["verify", "--family", "tau", "--order", "3"],
    ["verify", "--family", "chf", "--a", "-2", "--order", "4"],
    ["verify", "--family", "chf", *_CHF, "--order", "4", "--nu", "5"],
    ["ode-check", "--a", "1", "--b", "2", "--order", "3"],
    ["ode-check", "--a", "0", "--b", "1", "--c", "0", "--nu", "0", "--order", "3"],
    ["ode-check", "--a", "0", "--b", "1", "--c", "0", "--nu", "0", "--order", "4"],
    ["verify", "--family", "tau", "--a", "0", "--b", "1", "--c", "0", "--nu", "0", "--order", "3"],
    ["sums", "tau", *_TAU, "--order", "2", "--format", "json", "--decimal", "3"],
    ["zeros", "--nu", "0", "--count", "1", "--decimal", "-1"],
    ["bounds", "--nu", "1/3", "--order", "2", "--decimal", "-1"],
]

_HELP = [
    ["--help"],
    ["-h"],
    *[[cmd, "--help"] for cmd in ("sums", "bounds", "zeros", "verify", "ode-check")],
]

CORPUS = _OUTPUTS + _ERRORS + _HELP


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv, stdout=out, stderr=err)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


_GOLDEN = {
    'sums sigma --order 3 --nu symbolic --format plain': 'a18bd81a5474a2119cf0a0e2d4b6c9319b45e0f2a57f59dc647b4ea21bde997d',
    'sums sigma --order 3 --nu symbolic --format json': 'c58fdd70a194c583b1eb9925b38866c6632c1c2e5ad384184573d37f09d8c2bf',
    'sums sigma --order 3 --nu symbolic --format latex': 'adb898f3940fde3eacb17c6c51c118bb7679975a1c2e36a172cb830808ef735a',
    'sums sigma --order 3 --nu symbolic --format csv': '907f07455ed8f794610c1f5c8cb2f08d9097ad23016021b9f43511a82beeabd7',
    'sums sigma --order 12 --nu symbolic --format plain': 'ef854cae2cb1b9fe8bf054959fc25aada908b21dc82c0131eb968debbd1c0038',
    'sums sigma --order 12 --nu symbolic --format json': '427850bfa86ef1818ea159c50c992c1dbf9ff6cabc5ae6819eb55f09e324c979',
    'sums sigma --order 12 --nu symbolic --format latex': '8068c9bf0528eae0c4f67ff7a3b4c0fd96931dfe09a526624513e4f50443372b',
    'sums sigma --order 12 --nu symbolic --format csv': '866038228ec9d5b80faddd66f62441eba8cba82cb3a0a5eaa0d1567cd9e45c12',
    'sums sigma --order 2': '185d4df8266854e8cbeb3dc285076c8e558915040432b1a12e0b62e4f5c081ba',
    'sums sigma --order 4 --nu 1/3 --format plain': '08d0c31cd9afab0c4de4e268443829dcb97bdb7de8e56d44bbeb1bec7b732e5b',
    'sums sigma --order 4 --nu 1/3 --format plain --decimal 7': '56eaa6d959100390f722c62f19ae00395e3275cd266dbf370b21d33345af7599',
    'sums sigma --order 4 --nu 1/3 --format json': 'ca005453ca750023b4935d7fab5f6fb542f27e8b8c64c15b686ee473172324f2',
    'sums sigma --order 4 --nu 1/3 --format json --decimal 7': 'b618cfde37f002f17e484e5d60910a3818c47b4066e3b71885cf648c4be6bf2d',
    'sums sigma --order 4 --nu 1/3 --format latex': '5f5006a060b91f80f50f1b79da7c575eb16b4f3a85a7189da8cd3ae2cf297d16',
    'sums sigma --order 4 --nu 1/3 --format latex --decimal 7': 'fd6a46a48952955a05f9c8d2021f1e524f39ab5df65724c635559e310eae43d7',
    'sums sigma --order 4 --nu 1/3 --format csv': 'a350557c6a2a9685d0f88d6ebf9d9b26f2f9a2fb6db16cda8aed4041ea22f011',
    'sums sigma --order 4 --nu 1/3 --format csv --decimal 7': '70aa4a93887245b39bd19aa3a27c39077ce9d7304673bd159c6065003a195ef0',
    'sums tau --a 1 --b 2 --c 3 --order 2 --nu symbolic --format plain': '2fbe6a86d65a4964e3e79aed6adbc1c803e5d204391ea23d458dd1e9bf5c5d86',
    'sums tau --a 1 --b 2 --c 3 --order 2 --nu symbolic --format json': 'e01b1c65b435232c9e2a3110a33331794a8fc4674ad0ad9ca1cb02bd2dda579c',
    'sums tau --a 1 --b 2 --c 3 --order 2 --nu symbolic --format latex': 'df2e9f84f13157d95ea5a004edc7434bae2f8a75e99c47902af233dac1edb508',
    'sums tau --a 1 --b 2 --c 3 --order 2 --nu symbolic --format csv': '74119bc8771a4348ac0304b0268c62edba300a40ede9e753ea8633f05eaa0f8a',
    'sums tau --a 1/2 --b -3 --c 2/3 --order 6 --nu symbolic --format plain': 'e2f4843baf7366f2fb0e7c3393f7d9fd1de32537da98280f93f6426e83e26f7b',
    'sums tau --a 1/2 --b -3 --c 2/3 --order 6 --nu symbolic --format json': '7dc7e73b060ecc88d6d41a609a89554ca0720ba2ce16c13c5d394fa597e7f617',
    'sums tau --a 1/2 --b -3 --c 2/3 --order 6 --nu symbolic --format latex': 'adc7d16afb3b6000d3919ed3dc9b8070237c84607533d96f6dd55d9a5528f608',
    'sums tau --a 1/2 --b -3 --c 2/3 --order 6 --nu symbolic --format csv': '88a9b38c7baad074cba1d2af67e36c1908a931505da6cd3dc4f68ce553a4329c',
    'sums tau --a 1 --b 2 --c 3 --order 3 --nu 1/2 --format plain': 'f805fc97ac848955b4d0d6aa82ea36b7ff40615092e780f9c81b5fee9b1fd76b',
    'sums tau --a 1 --b 2 --c 3 --order 3 --nu 1/2 --format plain --decimal 7': '540542af54e96aea5e86b5f620639011d33f41eddd820f4cf95a06d0deebf5f8',
    'sums tau --a 1 --b 2 --c 3 --order 3 --nu 1/2 --format json': 'eb50e3aa5ec9b7c4c88fe825739f0e4a405dfe9aef7c0925dedbeb6a2e6f78a6',
    'sums tau --a 1 --b 2 --c 3 --order 3 --nu 1/2 --format json --decimal 7': '3d7ca859946f0e906a65d26696a2866227408661410a175fd90b769f3fc3400d',
    'sums tau --a 1 --b 2 --c 3 --order 3 --nu 1/2 --format latex': '6e3f3f55733a2562057397a00c146117cae43d69ef5ea0de5d55826c8060a266',
    'sums tau --a 1 --b 2 --c 3 --order 3 --nu 1/2 --format latex --decimal 7': '20f524ac69a1becce64a7d0262a80cb1d283144bb7ff95e573587bca62759fe6',
    'sums tau --a 1 --b 2 --c 3 --order 3 --nu 1/2 --format csv': '7c4208e58b83432d20e5ef72287a1f28da683a8b38ae274b9611b029d2cf9a15',
    'sums tau --a 1 --b 2 --c 3 --order 3 --nu 1/2 --format csv --decimal 7': '73b8cc03ef4283d2cfaa86d5059944e8ea6610250cc7903587cfd4fe30f6fe78',
    'sums chf --a -2 --b 5/3 --order 5 --format plain': '65138feca49e2147f9fba60bcea0a5e5bfaf75b9612e520d827c3fced2d2d611',
    'sums chf --a -2 --b 5/3 --order 5 --format plain --decimal 7': '119080b6b5726d953dba88dc8dffda83696d778b365ded60bbd71c0d9e98e58e',
    'sums chf --a -2 --b 5/3 --order 5 --format json': 'e247515f8616219e2699ab48bd40bccb7c14528fe6a54f442564d5a3aa4c8633',
    'sums chf --a -2 --b 5/3 --order 5 --format json --decimal 7': 'e132fd27339ad856a1c30ba1d263ac9ae84da67187930e90889b138e15516907',
    'sums chf --a -2 --b 5/3 --order 5 --format latex': '0035f4e6b2a3f563e991b6665d21163737949088ee21c700243e8500ee4d48ec',
    'sums chf --a -2 --b 5/3 --order 5 --format latex --decimal 7': '441723869d26ee1a0944590b342564d04aa6d04b926619514b754092138d780b',
    'sums chf --a -2 --b 5/3 --order 5 --format csv': '31dd704c98a0d2639afffe125ef1066ebbb66e8022f7422bc988653c860d5c6a',
    'sums chf --a -2 --b 5/3 --order 5 --format csv --decimal 7': 'fe95f2b92c218a24bc6c62065c3932c603557a2a846d970b1d2784626bd263a5',
    'sums sigma --order 2 --nu -1/3 --decimal 0': 'fdfcd83845049f3385acf6d74d63a078ea18d13957570245a2773e55587f2feb',
    'bounds --family sigma --nu 1/3 --order 3 --format plain': 'f7ee6980cb32ebcf4b07301387180110c30f1761bb14ab97a90cac934233c86a',
    'bounds --family sigma --nu 1/3 --order 3 --format plain --decimal 7': 'a07614f66d5f49871bcf053f40aeb9ef3f8aff5841ff3d2c3ff221de3ef6731c',
    'bounds --family sigma --nu 1/3 --order 3 --format json': '7c5cc0baea4ecb18f623dd045f6a4f8581697be4ada58bf5b4536a9230a4f9e9',
    'bounds --family sigma --nu 1/3 --order 3 --format json --decimal 7': '2a2c4c17b5b6c30671f1681cd9f217b67869b3700dcf0461bff606f2feebcb88',  # re-captured
    'bounds --family sigma --nu 1/3 --order 3 --format latex': 'f7ee6980cb32ebcf4b07301387180110c30f1761bb14ab97a90cac934233c86a',
    'bounds --family sigma --nu 1/3 --order 3 --format latex --decimal 7': 'a07614f66d5f49871bcf053f40aeb9ef3f8aff5841ff3d2c3ff221de3ef6731c',
    'bounds --family sigma --nu 1/3 --order 3 --format csv': '9bec0d1e7ff78c72a99dc40f9ac64a25b93422a5c7dac8f72d3180400a1e9df5',
    'bounds --family sigma --nu 1/3 --order 3 --format csv --decimal 7': '00640bfab53109769f3af2ff9c941d527166de9858f92da22b3e4b569e38b725',  # re-captured
    'bounds --family tau --a 1 --b 2 --c 3 --nu 1/2 --order 2 --assert-real-zeros --format plain': '7fc59b9894556a6475d2d1283c927015962e40b67955f2c5b0ab2a63f5ed32aa',
    'bounds --family tau --a 1 --b 2 --c 3 --nu 1/2 --order 2 --assert-real-zeros --format plain --decimal 7': 'c5fdbdedb477118ce5816cbf6b51cd11f8fe225b77d313d42aa5383a9cffb1b7',
    'bounds --family tau --a 1 --b 2 --c 3 --nu 1/2 --order 2 --assert-real-zeros --format json': 'ee15bd6649f91a8ee97395ea72f433db73f4d6058b916d5073b5c2b4ad540466',
    'bounds --family tau --a 1 --b 2 --c 3 --nu 1/2 --order 2 --assert-real-zeros --format json --decimal 7': '440c7dc26ca03ddc97af41329c3a310635fc3a7f6b3398bfad29316bbbfba653',  # re-captured
    'bounds --family tau --a 1 --b 2 --c 3 --nu 1/2 --order 2 --assert-real-zeros --format latex': '7fc59b9894556a6475d2d1283c927015962e40b67955f2c5b0ab2a63f5ed32aa',
    'bounds --family tau --a 1 --b 2 --c 3 --nu 1/2 --order 2 --assert-real-zeros --format latex --decimal 7': 'c5fdbdedb477118ce5816cbf6b51cd11f8fe225b77d313d42aa5383a9cffb1b7',
    'bounds --family tau --a 1 --b 2 --c 3 --nu 1/2 --order 2 --assert-real-zeros --format csv': '9664c02101b3a6ab5e18f35e49335d5febd3c41b2df598c255909aad312450de',
    'bounds --family tau --a 1 --b 2 --c 3 --nu 1/2 --order 2 --assert-real-zeros --format csv --decimal 7': 'c891692fda8edf802e7b3f201a5131a4091f29670ee2c3b8a677cfbc8ae0edd8',  # re-captured
    'bounds --family chf --a -2 --b 5/3 --order 2 --assert-real-zeros --format plain': 'a784f81e0e8d3c7ef20f5e6339fdefe1a2fa1bd6ba94bf2438e5b39598a4cd5a',
    'bounds --family chf --a -2 --b 5/3 --order 2 --assert-real-zeros --format plain --decimal 7': 'c937fcbe9f7f8f2ee18ef9cf800c337aba8f03e26f29040488a4d011f5580a46',
    'bounds --family chf --a -2 --b 5/3 --order 2 --assert-real-zeros --format json': 'e83e087ad80f1a7b4c9652eba3e2bd7ea92e6547bbfc9fbb1514902fec816c90',
    'bounds --family chf --a -2 --b 5/3 --order 2 --assert-real-zeros --format json --decimal 7': '61875ec1a2fd84d8e60579e0274faeb570a10a2c4a8ffe711d272c44d4f14f97',  # re-captured
    'bounds --family chf --a -2 --b 5/3 --order 2 --assert-real-zeros --format latex': 'a784f81e0e8d3c7ef20f5e6339fdefe1a2fa1bd6ba94bf2438e5b39598a4cd5a',
    'bounds --family chf --a -2 --b 5/3 --order 2 --assert-real-zeros --format latex --decimal 7': 'c937fcbe9f7f8f2ee18ef9cf800c337aba8f03e26f29040488a4d011f5580a46',
    'bounds --family chf --a -2 --b 5/3 --order 2 --assert-real-zeros --format csv': '9db99c5224af55ee4290e792a03c30c1eee673d5d2dee7c05926b5ff024c9aa4',
    'bounds --family chf --a -2 --b 5/3 --order 2 --assert-real-zeros --format csv --decimal 7': '1441da794c0a51e640a55233cc63e3e338339b3537620039c6d69fc6492d70bd',  # re-captured
    'bounds --family sigma --nu 0 --order 1': 'f31343b5dd0d649b15da3b1cf1cb50ac8a16fe70926defdc2d4933c44a58ed82',
    'bounds --family sigma --nu 0 --order 1 --format json': 'a61ab880adc3f277a64b6340ec8d94a78a8e5682dcdd213fd5208321a89728d5',
    'bounds --nu 2/3 --order 4 --root-width 1/1000': '86d5d01e1c60a890734c77508541d14a46d98fd7ee940585964a6b4199119679',
    'zeros --family bessel --nu 1/2 --count 3 --precision 1/1000000 --format plain': 'c45d35b0c4477ffc9aa65a4564b5a1dfa30bc8f14c33ad8f764842faa7825951',
    'zeros --family bessel --nu 1/2 --count 3 --precision 1/1000000 --format plain --decimal 7': '5af605b54cb83b413ae3ef92e76805b92cbfd67078d240ce9cd3d989ff991781',
    'zeros --family bessel --nu 1/2 --count 3 --precision 1/1000000 --format json': '980eb299ef49a4e6053494feeefeda07b39d3b5059aca18b5bb81101345e1e74',
    'zeros --family bessel --nu 1/2 --count 3 --precision 1/1000000 --format json --decimal 7': 'cd2fdbaacd4cf893aa4f11dfd53515acf2a90af7ef611ad8d52cc28056406ef4',
    'zeros --family bessel --nu 1/2 --count 3 --precision 1/1000000 --format latex': 'c45d35b0c4477ffc9aa65a4564b5a1dfa30bc8f14c33ad8f764842faa7825951',
    'zeros --family bessel --nu 1/2 --count 3 --precision 1/1000000 --format latex --decimal 7': '5af605b54cb83b413ae3ef92e76805b92cbfd67078d240ce9cd3d989ff991781',
    'zeros --family bessel --nu 1/2 --count 3 --precision 1/1000000 --format csv': '8f125a0839c1d4b8d5bc57448e8bb0f62155dae9da7abdede221fc2e0ad748dc',
    'zeros --family bessel --nu 1/2 --count 3 --precision 1/1000000 --format csv --decimal 7': '38bc6c40ece2abaede3bb8c9b9a3313f47a9cfeba81adf437ce21baea899e2ef',
    'zeros --family mercer --a 0 --b 1 --c 2 --nu 1 --count 2 --precision 1/10000 --assert-real-zeros --format plain': 'efcd9154007b4b44f5dd412d38c9657a77f99c50e3b13b50936a05e654370e9c',
    'zeros --family mercer --a 0 --b 1 --c 2 --nu 1 --count 2 --precision 1/10000 --assert-real-zeros --format plain --decimal 5': '04ca7727bdef1e359799e53578bf23eb262789f53e1d85fe6008fd4f9ba1e41d',
    'zeros --family mercer --a 0 --b 1 --c 2 --nu 1 --count 2 --precision 1/10000 --assert-real-zeros --format json': '132d57f5e7be4bf1d79e74450fa114d4e2407b7f80d7f343399d09455501ad98',
    'zeros --family mercer --a 0 --b 1 --c 2 --nu 1 --count 2 --precision 1/10000 --assert-real-zeros --format json --decimal 5': '4066581fff119cbc6bd14752713da738a76ac808b0344136f54e46e1c43e7ec5',
    'zeros --family mercer --a 0 --b 1 --c 2 --nu 1 --count 2 --precision 1/10000 --assert-real-zeros --format latex': 'efcd9154007b4b44f5dd412d38c9657a77f99c50e3b13b50936a05e654370e9c',
    'zeros --family mercer --a 0 --b 1 --c 2 --nu 1 --count 2 --precision 1/10000 --assert-real-zeros --format latex --decimal 5': '04ca7727bdef1e359799e53578bf23eb262789f53e1d85fe6008fd4f9ba1e41d',
    'zeros --family mercer --a 0 --b 1 --c 2 --nu 1 --count 2 --precision 1/10000 --assert-real-zeros --format csv': '3b34257c66b7409ac572d85a98d6999b0bf1fcf95c0ed54c5449b099f70e9ad4',
    'zeros --family mercer --a 0 --b 1 --c 2 --nu 1 --count 2 --precision 1/10000 --assert-real-zeros --format csv --decimal 5': '8b14cddb7474e8d391f6c296ed59d81d7592c99655f50dd15e6f535639fd87fc',
    'zeros --nu 0 --count 2': '4c4da4cfc027239fad40c2a533ca19173cad30812fde16b757a2342cb01017e7',
    'verify --family sigma --order 6': '12f741d981c2589ce1408d19572dec32b807f1e51b2648a304d383e6e9c6f0a9',
    'verify --family sigma --order 10 --nu 1/3': 'a771b15a010a7cce0881dd0391258bdc8a626fa6b1cbb9609a7ee80b52c20bdb',
    'verify --family tau --a 1 --b 2 --c 3 --order 6 --nu symbolic': '1ffb4f7a7d3493f322660095c8e6fc88991cef4a7f4e0c46406678e12e9cab13',
    'verify --family tau --a 1 --b 2 --c 3 --order 8 --nu 1/2': '9eeace102d7a71ab12c61b5b8f343dd9a724458bd73f7c7a91683e7c82631d19',
    'verify --family chf --a -2 --b 5/3 --order 8': '73d581bb8df07ba35639d0718ec2371c8324f4c7f66712509aad5533dd58493c',
    'ode-check --a 1 --b 2 --c 3 --order 8': 'ac7cde451fcd3423d49f03cb9424699d743d652aaf14421cff3011bd1179e4f4',
    'ode-check --a 1 --b 2 --c 3 --order 8 --nu 1/2': 'ac7cde451fcd3423d49f03cb9424699d743d652aaf14421cff3011bd1179e4f4',
    '': '445cd063707849766d19ace80fa955793ca07d445c32da13ad057636745eedda',
    'frobnicate': '4f7b70c6b794671ff7cdffe1f739b2dd19782feddb54ec603351f2cb130f078b',
    'sums sigma': '6454e01ec7a838d68ce94ec8470519c02f4d261d58157fa8dd01c17f8d3bdb7e',
    'sums bogus --order 2': 'f46940450f6e2371524a63743e899406887ba300a2cde1be1ed4a213759a391f',
    'sums sigma --order 2 --format xml': '75a789071d6a520ef488cded56bf640fee4ffe53b82928e1813c1ca6434f6dc6',
    'sums sigma --order 2 --nu 0.5': '5babde903666fd2411d6bacdca024f6e463988636f6f3226fabde02c3748ba87',
    'sums sigma --order 2 --nu 1_000': '674d22e6810bc57dc4b162754f8393e85e6a50ae466473d98ff442c010159722',
    'sums sigma --order 2 --nu 1/0': '1670a0a779b0cc066988edb5aaa32d59af8a3708855f2e6835c4982759cdd97c',
    'sums sigma --order 3 --decimal 4': 'f6f60a332e79f93b372925a1b6cfbbb584d5ab9fc71ab8eef2da7ef426ffe1f5',
    'sums sigma --order 2 --nu 1/2 --decimal -1': '4879a3e92c69161aa08a7fa195c3e5b9ffcb8475c269f8bae497648d86e8cf02',
    'sums sigma --order 0 --nu 1/2': '78b0f7d1ea7e15e0a2b43df8721fc72cef9c0510769a2f696f6f77507d306927',
    'sums sigma --order 2 --nu -1': '29049d864c19a6b2a1aeb4d48d2d398410fcf620120e125cd874250cea075fa3',
    'sums tau --order 3': 'e5a1ec810554e9b54733a8a8f20e6a3aad471c740eda25963478d8cb016cae70',
    'sums tau --a 0 --b 1 --c 0 --order 2 --nu 0': '93103d101461d3185c9a72e04b37284f04bb0ef9d987fe08445c2bf34913f012',
    'sums chf --order 3': '91648d2a6d7855e964027323f41c5e513d970e2deec2546ac95fe11b63e64d75',
    'sums chf --a -2 --order 3': '712107575ee515ab35732b4508ce7549b019579dc59601c095cc6a22af207871',
    'sums chf --a 1 --b -2 --order 4': '0dd6241232b8aa4d84bac5bff142e640e96ba0303e91390032727a34131014d4',
    'sums chf --a -2 --b 1 --order 3 --nu 1': '45911d3ebd990e3010fe31ad61d6fd5608d5aa038a99fc9574b48a2fc0445eec',
    'bounds --order 2': '5d8299810b3dd21606369a6ed4c08b5bc3a0631761867b40ceeb419414cbfcd0',
    'bounds --nu symbolic --order 2': '247c96aaa7bbe64a13bba5ece747e65d43db889d39ee0f513098e040a44aaba2',
    'bounds --nu 1/3 --order 0': '5d1ee69c8f5a0302154a9b7c11d3c3ba4e9615a49702f750022d87ce8d5d4932',
    'bounds --nu -3/2 --order 2': 'fbca8ce4674f43a7bb9d1cc3140fd5cd3941e20ef8fac556053caabf1296def0',
    'bounds --nu 1/3 --order 2 --root-width 0': '9d4a2aab77ad019e51df4054f14a302839f453a53ec53948115a381dc1c2fa99',
    'bounds --family tau --a 1 --b 2 --c 3 --nu 1/2 --order 2': '864b466e75852b94ca9bec85e716068994619e5fb993b8600a16ad072d31301a',
    'bounds --family tau --nu 1/2 --order 2 --assert-real-zeros': '4a6ddc37e9749666cdb121c9a4443044484d546546d7e136711c55c631eb9e54',
    'bounds --family chf --a -2 --b 5/3 --order 2': '397fabc0f20cc1270680ed9cecae7b35f8e9e15941fe9f537cf90a2104922883',
    'bounds --family chf --a -2 --b 5/3 --order 2 --nu 5': '45911d3ebd990e3010fe31ad61d6fd5608d5aa038a99fc9574b48a2fc0445eec',
    'zeros --nu symbolic --count 1': '9b214205c3791347f195e7b7fd292f9e9b47e9e51867712e78b9463227475b06',
    'zeros --nu 0.5 --count 1': '84c55ffe3e4ef9495b338b63c0c1bc6addaca6bc8510a621fe308b28469beeef',
    'zeros --nu 0 --count 0': 'ca5c61e0ee4ef9a2808bdf11623733a4fc01bdbb63fe36a8305511a4c4ae3a31',
    'zeros --nu 0 --count 100': '33f2f2e6356be1648f7592b0689606d0badf5d909b1ae3ed3226217c3e42e3c8',
    'zeros --nu -1 --count 1': 'cf07890b2e46208037846c264066332244e234febd55207867e76b9219846c6b',
    'zeros --nu 0 --count 1 --precision 0': '0c014058857e45df6bceaf508cb033ba9b9e7b86b0804c91f8ee309b1cba607a',
    'zeros --nu 0 --count 1 --precision -1/2': '0c014058857e45df6bceaf508cb033ba9b9e7b86b0804c91f8ee309b1cba607a',
    'zeros --family mercer --nu symbolic --count 1': '7bef151af46e91a16170514c7ef2e2e4a041f2a1d13aa2c92949477217ace0c7',
    'zeros --family mercer --a 0 --b 1 --c 2 --nu symbolic --count 1 --assert-real-zeros': '9b214205c3791347f195e7b7fd292f9e9b47e9e51867712e78b9463227475b06',
    'zeros --family mercer --a 0 --b 1 --c 2 --nu 1 --count 1': '236b5c841a87a21191c41c324ba49098ca33678eb7b823c9b5bd8540c4098943',
    'zeros --family mercer --nu 1 --count 1 --assert-real-zeros': '7bef151af46e91a16170514c7ef2e2e4a041f2a1d13aa2c92949477217ace0c7',
    'verify --order 3': '5ea0b5b7f522554117f17e5193c73d4055677adde47ce8830ca9efc6b9114e47',
    'verify --family sigma --order 3 --nu -1': '29049d864c19a6b2a1aeb4d48d2d398410fcf620120e125cd874250cea075fa3',
    'verify --family tau --order 3': '1c421de1b71db55558e30d42a8f5ae636c4e828157bb6ef3610e9bf86022cc91',
    'verify --family chf --a -2 --order 4': '3f0d1696b8ff481b5c5e41dfaab77a757e5b7dc80ce30f799aed7183ca1839fa',
    'verify --family chf --a -2 --b 5/3 --order 4 --nu 5': '45911d3ebd990e3010fe31ad61d6fd5608d5aa038a99fc9574b48a2fc0445eec',
    'ode-check --a 1 --b 2 --order 3': '327daad2843882ff97db74050673be311553585cb60cbb535cc06743902d0792',
    'ode-check --a 0 --b 1 --c 0 --nu 0 --order 3': '255773798c2ffb78f04b2685a81ea622658dfc06f0fc5f095a52ef1b3389369f',
    'ode-check --a 0 --b 1 --c 0 --nu 0 --order 4': '6ee209320b5c388eb6a41be4ce0c9263f3b9590913e4a4bb85d02905327fb7b6',
    'verify --family tau --a 0 --b 1 --c 0 --nu 0 --order 3': '93103d101461d3185c9a72e04b37284f04bb0ef9d987fe08445c2bf34913f012',
    'sums tau --a 1 --b 2 --c 3 --order 2 --format json --decimal 3': 'f6f60a332e79f93b372925a1b6cfbbb584d5ab9fc71ab8eef2da7ef426ffe1f5',
    'zeros --nu 0 --count 1 --decimal -1': '4879a3e92c69161aa08a7fa195c3e5b9ffcb8475c269f8bae497648d86e8cf02',
    'bounds --nu 1/3 --order 2 --decimal -1': '4879a3e92c69161aa08a7fa195c3e5b9ffcb8475c269f8bae497648d86e8cf02',
    '--help': '5a519223d3560ccf17d0780e5355220b0a5c342a44082a840e7d44cf4f13d0a9',
    '-h': '5a519223d3560ccf17d0780e5355220b0a5c342a44082a840e7d44cf4f13d0a9',
    'sums --help': 'c47a318850b1dca40b65d782ddf078923f6e8bfe688d34287be27a4d02539f96',
    'bounds --help': '8a60e8928a87679a745efd2fc470dc267c5c41d7d009b84cd322141000afeb4f',
    'zeros --help': '8c6db6a79508ce8421f9233f17b2d236604c237a4a0c6f19b023cf98cc8e5223',
    'verify --help': '39841c14c3bc8410ce991311a3fb23147fd2692c4b0842f76b9917d068ced201',
    'ode-check --help': '28bcb78d857f6b9e812ae00a5ded62219758c07ab0f73df7c38595e5654dc160',
}


def test_corpus_is_pinned_whole():
    keys = [" ".join(argv) for argv in CORPUS]
    assert len(set(keys)) == len(keys)
    assert set(keys) == set(_GOLDEN)


@pytest.mark.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv) or "(no arguments)")
def test_golden_cli_output(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert digest(argv) == _GOLDEN[" ".join(argv)]
