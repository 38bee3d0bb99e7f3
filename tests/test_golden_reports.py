"""Byte-identity of pinned campaign reports.

Each campaign's JSON report must hash to the digest pinned here, so a
speed-up that changes any residual, tolerance, id or parameter fails the
suite.  The digests were taken before the closed monomial operations
stopped re-validating their results, and that change kept every byte; the
d = 5 faithfulness digest was taken before the word kernel shared suffixes,
and the ``qccr`` and d = 5 ``roundtrip`` digests before relation residuals were
read from the core columns of the word kernel instead of per-term operators.

Campaigns that go through ``numpy.linalg.eigvalsh`` (``gram`` and ``demo``)
are left out: LAPACK builds may differ in the last digit of an eigenvalue.
The campaigns below use only elementwise IEEE arithmetic (products, sums,
square roots and moduli), which does not depend on the BLAS build.

Of a ``gram`` campaign, the parts that do not go through LAPACK are pinned:
the printed pairing matrix (exact rationals) and the ``bridge/*`` rows (id,
description, residual, tolerance).  Its ``positivity/*`` rows are smallest
eigenvalues, so they stay unpinned.  The d = 2 level 4 and d = 3 level 3
digests were taken before the bridge read only the vacuum column of the word
kernel; the d = 4 level 4 and d = 2 level 6 digests were taken before
``MuPoly`` arithmetic skipped re-validating its results and before one bridge
pass per family served all of a campaign's polynomials.

The CSV and Markdown digests were taken before ``add`` became one sequence
of guards and before prefixed checks were copied through ``add``.

The ``roundtrip`` digests at mu = -0.6 and mu = 0 were taken before the
conjugation series moved from operator objects to column maps and before a
roundtrip campaign shared one reconstruction between its roundtrip and its
stage suite; with mu = 0.5 alone, a sign slip in the series' weights would
pass unseen.  The d = 4, mu = -0.6, cap 10 digest was taken before the stage
suite moved from operator loops to relation sets on the word kernel.
"""

import hashlib
import json

import pytest

from tccr.cli import main

GOLDEN = {
    "roundtrip --d 3 --mu 0.5 --cap 6": "9e5c0860563320cc77984196af125adacc0dbd653c847e2a0f7e00232df6e2a4",
    "roundtrip --d 4 --mu 0.5 --cap 6": "b63bf11bedfa00176b95b9cb3859600a8776e7bae287f26372d0874498a1875b",
    # a negative mu (odd weights change sign) and the undeformed series (every weight past n = 0 is 0)
    "roundtrip --d 3 --mu -0.6 --cap 8": "ec060861b44e279fbfd02e6d37c200062f023f04ee34f1cc6555b2e3ea06a08c",
    "roundtrip --d 2 --mu 0.0 --cap 6": "e50d1f6b428c42da39c6b32e81f164b19ae4f252e9459eed26bb9108ddf96f48",
    # dim 16807: the largest relation-set passes
    "roundtrip --d 5 --mu 0.5 --cap 6": "f90f107736aeb09e8c22fd1007c3b042cf319d316f51dc04235611c29978b126",
    # dim 14641: the largest cap and a negative mu, so the longest level_diag sums of the stage suite
    "roundtrip --d 4 --mu -0.6 --cap 10": "a4888b15ca98d9697fddb04b926a198acc67e50638c011235926640da3a799bb",
    "verify --d 3 --cap 8": "ccc568eac640549cd75e058cc8a6412e58c1770376f61e9eaf758a452edc5352",
    "irreps --d 3 --cap 6": "b9c60f9c4d4dbf1d877b208015d0f59081a69322f0b6cb545875ba2adbc5dd47",
    "qccr": "eac7bba195c6021ff766427d681b7d9af10c882b8527044b74708ab20c376f96",
    "faithfulness --d 2 --cap 12 --words 1000 --max-len 6 --seed 100":
        "0c21f73e2a72f33219ff7e50e7f32a814045018d6cebad2a6a74dd1c90ad4391",
    # 100 words x 16807 columns: the only pinned kernel that spans more than one block
    "faithfulness --d 5 --cap 6 --words 100":
        "ab699a88f66940f4d7fb90106994acd920446c40a61d058784bdfeaa4dd74782",
}


@pytest.mark.parametrize("campaign", list(GOLDEN))
def test_report_bytes_are_pinned(tmp_path, campaign):
    out = tmp_path / "report.json"
    assert main([*campaign.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[campaign]


# the CSV and Markdown writers, pinned on a word-norms and a relation-set campaign
WRITER_GOLDEN = {
    ("faithfulness --d 2 --cap 12 --words 1000 --max-len 6 --seed 100", "csv"):
        "93d7e1313759ad58d671cf8ae59093f270e3d0175c0b116146ae360cee05f348",
    ("faithfulness --d 2 --cap 12 --words 1000 --max-len 6 --seed 100", "md"):
        "e72dd6db37f457ed716185f322661c7d0f0d53c4e1d90d62a01e3a9c45a8c193",
    ("verify --d 3 --cap 8", "csv"): "048e63d21b5de6c1935120e3eaf82a2747726c8db0ffff19201dcdad89eb79c5",
    ("verify --d 3 --cap 8", "md"): "29a3fdf74351a1e1aeefabcbe25aa00e9d600eddfa31afcefc772bd341aaf0e1",
}


@pytest.mark.parametrize("campaign,fmt", list(WRITER_GOLDEN))
def test_csv_and_markdown_bytes_are_pinned(tmp_path, campaign, fmt):
    out = tmp_path / f"report.{fmt}"
    assert main([*campaign.split(), "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WRITER_GOLDEN[campaign, fmt]


# campaign -> (digest of the printed matrix, digest of the bridge rows)
GRAM_GOLDEN = {
    "gram --d 2 --level 4 --cap 5 --bridge-count 20 --seed 70": (
        "0b2904a69275e2a70871d7d3cbf2c1dcc7a7c6bb6985bbef62d4a185bcbaf278",
        "85df83b0e19855c643d365e081c284c5913b42506f53491d8cf0b6ccf765bdd8",
    ),
    "gram --d 3 --level 3 --cap 5 --bridge-count 20 --seed 70": (
        "0b5468bfa50864d17dccb41ebce215f035d89e6991556adcda8ab0b5d28945d9",
        "ab9a1b256fb04def42a1121a5c03aadaecd4e2c4c61ec640caf64e819eb15b35",
    ),
    # the largest basis (341 words) and the deepest level (the longest exact coefficients)
    "gram --d 4 --level 4 --cap 5 --bridge-count 20 --seed 70": (
        "665f64b264f04f5e9c310f64921b2a26beffbf395f732f66293dcf42040f9be4",
        "1b8bdd6c56c87b76e2c53d257aa273ad8f634ba5aa580cb078564d100a795a19",
    ),
    "gram --d 2 --level 6 --cap 6 --bridge-count 20 --seed 70": (
        "df9d9e5bd1016190e5a2ca04bda01b68d1062a51fd2267f026682c52cd74318a",
        "85df83b0e19855c643d365e081c284c5913b42506f53491d8cf0b6ccf765bdd8",
    ),
}


@pytest.mark.parametrize("campaign", list(GRAM_GOLDEN))
def test_gram_matrix_and_bridge_bytes_are_pinned(tmp_path, capsys, campaign):
    out = tmp_path / "report.json"
    assert main([*campaign.split(), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    checks = json.loads(out.read_bytes())["checks"]
    keys = ("id", "description", "residual", "tolerance")
    rows = [[c[k] for k in keys] for c in checks if c["id"].startswith("bridge/")]
    assert len(rows) == 60
    matrix_digest, bridge_digest = GRAM_GOLDEN[campaign]
    assert hashlib.sha256(printed.encode()).hexdigest() == matrix_digest
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == bridge_digest
