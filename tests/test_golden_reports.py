"""Byte-identity of pinned campaign reports.

Each campaign's JSON report must hash to the digest pinned here, so a
speed-up that changes any residual, tolerance, id or parameter fails the
suite.  The digests were taken before the closed monomial operations
stopped re-validating their results, and that change kept every byte; the
d = 5 faithfulness digest was taken before the word kernel shared suffixes.

Campaigns that go through ``numpy.linalg.eigvalsh`` (``gram`` and ``demo``)
are left out: LAPACK builds may differ in the last digit of an eigenvalue.
The campaigns below use only elementwise IEEE arithmetic (products, sums,
square roots and moduli), which does not depend on the BLAS build.

Of a ``gram`` campaign, the parts that do not go through LAPACK are pinned:
the printed pairing matrix (exact rationals) and the ``bridge/*`` rows (id,
description, residual, tolerance).  Its ``positivity/*`` rows are smallest
eigenvalues, so they stay unpinned.  These digests were taken before the
bridge read only the vacuum column of the word kernel.
"""

import hashlib
import json

import pytest

from tccr.cli import main

GOLDEN = {
    "roundtrip --d 3 --mu 0.5 --cap 6": "9e5c0860563320cc77984196af125adacc0dbd653c847e2a0f7e00232df6e2a4",
    "roundtrip --d 4 --mu 0.5 --cap 6": "b63bf11bedfa00176b95b9cb3859600a8776e7bae287f26372d0874498a1875b",
    "verify --d 3 --cap 8": "ccc568eac640549cd75e058cc8a6412e58c1770376f61e9eaf758a452edc5352",
    "irreps --d 3 --cap 6": "b9c60f9c4d4dbf1d877b208015d0f59081a69322f0b6cb545875ba2adbc5dd47",
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
