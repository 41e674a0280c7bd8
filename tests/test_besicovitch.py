"""Hamming density and certificate values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisysft.besicovitch import (
    hamming_density,
    lower_certificate,
)
from noisysft.core import Grid


def g(values, origin=(0,)):
    return Grid(origin, np.asarray(values))


class TestHamming:
    def test_basic(self):
        assert hamming_density(g([0, 1, 0, 1]), g([0, 1, 1, 1])) == 0.25
        assert hamming_density(g([0, 1]), g([0, 1])) == 0.0
        assert hamming_density(g([0, 1]), g([1, 0])) == 1.0

    def test_box_mismatch(self):
        with pytest.raises(ValueError):
            hamming_density(g([0, 1]), g([0, 1], origin=(1,)))
        with pytest.raises(ValueError):
            hamming_density(g([0, 1]), g([0, 1, 0]))

    words = st.lists(st.integers(0, 2), min_size=1, max_size=30)

    @settings(max_examples=80)
    @given(words, words, words)
    def test_pseudometric(self, xs, ys, zs):
        n = min(len(xs), len(ys), len(zs))
        a, b, c = g(xs[:n]), g(ys[:n]), g(zs[:n])
        dab = hamming_density(a, b)
        assert dab == hamming_density(b, a)
        assert hamming_density(a, a) == 0.0
        assert dab <= hamming_density(a, c) + hamming_density(c, b) + 1e-12
        assert 0.0 <= dab <= 1.0


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
