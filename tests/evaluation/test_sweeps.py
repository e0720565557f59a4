"""Tests for the parameter-sweep harness."""

from repro.evaluation.sweeps import (
    duplication_crossover,
    kernel_size_sweep,
    sweep,
)
from repro.partition.strategies import Strategy
from repro.workloads.kernels.fir import Fir


def test_generic_sweep_includes_baseline():
    rows = sweep(lambda taps: Fir(taps, 2).build(), [4, 8], [Strategy.CB])
    assert set(rows) == {4, 8}
    for row in rows.values():
        assert Strategy.SINGLE_BANK in row
        assert Strategy.CB in row
        assert row[Strategy.CB].cycles <= row[Strategy.SINGLE_BANK].cycles
        assert row[Strategy.CB].cost > 0


def test_kernel_size_sweep_shape():
    """CB's gain grows toward its asymptote as loop overhead amortizes,
    and never regresses."""
    series = kernel_size_sweep()
    assert [taps for taps, _g in series] == [8, 16, 32, 64, 128]
    gains = [gain for _t, gain in series]
    assert all(gain > 10.0 for gain in gains)
    assert all(b >= a - 0.5 for a, b in zip(gains, gains[1:]))
    assert gains[-1] > 45.0


def test_duplication_crossover_exists():
    rows, crossover = duplication_crossover()
    small, large = rows[0], rows[-1]
    assert small[2] > small[1]   # Dup's PCR beats CB's at small frames
    assert large[2] < large[1]   # and loses at large frames
    pcr_dups = [row[2] for row in rows]
    assert all(b < a for a, b in zip(pcr_dups, pcr_dups[1:]))
    assert crossover == 512
