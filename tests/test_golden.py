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
        "871c4abb83e3830f433d9d7d0c483e0ee088649f4150067eb8279ae4772f5d74",
    "fig2/fig2.csv":
        "4d1a631d52fc90a00b34eff0687b4541858c505777eb556e92e11871177907c5",
    "fig3/fig3.csv":
        "a1f299fc0d7ccec0bf555452a4347e20ec9eee59d448ef9209d1f5ae9856f835",
    "fig3/fig3_beampattern.csv":
        "6871bff4677c44fe8a3657d89adf5542e6075519c85b8118fb81c4b265132921",
    "fig4/fig4.csv":
        "8b86cb4283a78837d85f7bfe0bd7fdfc7b094db1bf3cd659afbae7d082005ab6",
    "fig5/fig5.csv":
        "668a7aedd677f3b402369276d0d60c9ce7fd991e76ae7ae02a0df737034ca1ff",
    "montecarlo/montecarlo.csv":
        "dd4af499daeb18d4898579dddad92dcaf4db4ee32ac362833f0a2ddd56ac64e8",
    "scenario/scenario.csv":
        "059dd5227b8bfad89189974d757e99a81cd69f44dde8a2405602f072b0ad8039",
}
SELFTEST_SHA256 = "e43d982f572a149a6a7a157f3c8e80f7f7e4b9a47947d88e019f20c85dbeb2d9"


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
