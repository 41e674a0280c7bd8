"""Each instability construction's closed-form certificate."""

import pytest

from noisysft import harness as H
from noisysft.core import ALTERNATING


def _certificate(rows):
    return next(r["value"] for r in rows if r["metric"] == "certificate")


class TestCertificates:
    def test_phase1d(self):
        assert _certificate(H.run_instability_phase1d(4, 8, 1, 0)) == \
            pytest.approx(0.375)
        assert _certificate(H.run_instability_phase1d(2, 4, 1, 0)) == \
            pytest.approx(0.25)

    def test_bern1d(self):
        got = H.run_instability_bern1d(ALTERNATING, 0.01, 64, 1, 0)
        assert _certificate(got) == pytest.approx(0.5 - 0.5 * 0.01)
        # at eps 0 the run would refute the certificate, so it is refused
        with pytest.raises(ValueError, match=r"epsilon 0\.0 outside \(0, 1\]"):
            H.run_instability_bern1d(ALTERNATING, 0.0, 64, 1, 0)

    def test_grid2d(self):
        p = H.resolve_periodic("checkerboard")[1]
        assert _certificate(H.run_instability_grid2d(p, 1, 1, 8, 1, 0)) == \
            pytest.approx(1 / 18)
