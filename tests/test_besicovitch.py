"""Certificate values."""

import pytest

from noisysft.besicovitch import lower_certificate


class TestCertificates:
    def test_phase1d(self):
        assert lower_certificate("phase1d", p=4) == pytest.approx(0.375)
        assert lower_certificate("phase1d", p=2) == pytest.approx(0.25)

    def test_bern1d(self):
        got = lower_certificate("bern1d", p=2, d=1, epsilon=0.01)
        assert got == pytest.approx(0.5 - 0.5 * 0.01)
        assert lower_certificate("bern1d", p=2, d=1, epsilon=0.0) == 0.5

    def test_grid2d(self):
        assert lower_certificate("grid2d", n=2, d=2) == pytest.approx(1 / 18)

    def test_unknown(self):
        with pytest.raises(ValueError):
            lower_certificate("nope")
