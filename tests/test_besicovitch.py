"""Each instability construction's closed-form certificate."""

import pytest

from noisysft import harness as H
from noisysft.core import ALTERNATING


class TestCertificates:
    def test_phase1d(self):
        assert H.run_instability_phase1d(4, 8, 1, 0).certificate == \
            pytest.approx(0.375)
        assert H.run_instability_phase1d(2, 4, 1, 0).certificate == \
            pytest.approx(0.25)

    def test_bern1d(self):
        got = H.run_instability_bern1d(ALTERNATING, 0.01, 64, 1, 0)
        assert got.certificate == pytest.approx(0.5 - 0.5 * 0.01)
        got = H.run_instability_bern1d(ALTERNATING, 0.0, 64, 1, 0)
        assert got.certificate == 0.5

    def test_grid2d(self):
        p = H.resolve_periodic("checkerboard")[1]
        assert H.run_instability_grid2d(p, 1, 1, 8, 1, 0).certificate == \
            pytest.approx(1 / 18)
