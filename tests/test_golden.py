"""Every preset's CSV and the selftest text, pinned by SHA-256.

The last digits of the bound and Monte-Carlo columns depend on the numpy and
BLAS build, so the hashes hold only for the numpy version they were taken with.
The Monte-Carlo noise comes from the standard library's ``random`` module, so
the fig2 and montecarlo hashes also hold only for the CPython implementation of
``random`` they were taken with (CPython 3.11).
"""

import hashlib

import numpy as np
import pytest

from mpcrb.cli import main

NUMPY_VERSION = "2.4.6"
CSV_SHA256 = {
    "beampattern/beampattern.csv":
        "6871bff4677c44fe8a3657d89adf5542e6075519c85b8118fb81c4b265132921",
    "bounds/bounds.csv":
        "3f84c01101da988b8a0cb51aecc6c5bffe07a12e09f2304d048389bb533cd292",
    "fig2/fig2.csv":
        "e924ba4ae35a1b6fe89c8b874edc496e421e25eaaac17a4884c250d1885a05c7",
    "fig3/fig3.csv":
        "9b0fca505c40a0c6ac6e7b83ccf0bd8828e0bd917c21fc48a263a96635e6e994",
    "fig3/fig3_beampattern.csv":
        "6871bff4677c44fe8a3657d89adf5542e6075519c85b8118fb81c4b265132921",
    "fig4/fig4.csv":
        "0a3148bacd79ce3d5887ec49eb0dfa02242d6d1adde06e7405fbce0336b53aad",
    "fig5/fig5.csv":
        "4ef30d80e5096afc3e1e103b4807b1817e061a138bba3a0bb9fe69e6c8036dbe",
    "montecarlo/montecarlo.csv":
        "dd4af499daeb18d4898579dddad92dcaf4db4ee32ac362833f0a2ddd56ac64e8",
    "scenario/scenario.csv":
        "ef955e182bac00960da8e0d6c4596aa25618cbf1b5ee356a7a4a2edbfdebb92b",
}
SELFTEST_SHA256 = "2477d486ca1674544841f74757dbd6a7edabc97257cf0181d3ebf2ded2119130"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"hashes taken with numpy {NUMPY_VERSION}, "
                           f"running {np.__version__}")
def test_preset_csvs_and_selftest_text_are_byte_identical(tmp_path, capsys):
    for name in sorted({path.split("/")[0] for path in CSV_SHA256}):
        assert main([name, "--out", str(tmp_path / name)]) == 0
    assert {path: _sha256((tmp_path / path).read_bytes())
            for path in CSV_SHA256} == CSV_SHA256
    capsys.readouterr()
    assert main(["selftest"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == SELFTEST_SHA256
