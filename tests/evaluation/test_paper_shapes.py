"""The reproduction's headline assertions: the paper's result *shapes*.

These tests assert the qualitative findings of the paper's Section 4 on
the reproduced system — who wins, where duplication helps and where it
hurts, and which programs cannot be helped at all.  They run the full
Figure 7, Figure 8 and Table 3 once per module on the ``jit`` backend.
The last tests hold those figures to ``e2ebench/expected/paper_eval.json``
(generated on ``interp``) and to EXPERIMENTS.md's tables at the printed
precision, so neither the benchmark's expected results nor the docs can
drift from the code.
"""

import json
from pathlib import Path

import pytest

from repro.evaluation.figures import figure7, figure8
from repro.evaluation.paper_data import PAPER_FIGURE8_FACTS
from repro.evaluation.tables import table3

ROOT = Path(__file__).resolve().parents[2]
TABLE3_LABELS = ("FullDup", "Dup", "CB", "Ideal")


@pytest.fixture(scope="module")
def fig7():
    return figure7(backend="jit")


@pytest.fixture(scope="module")
def fig8():
    return figure8(backend="jit")


@pytest.fixture(scope="module")
def table():
    return table3(backend="jit")


def test_kernels_gain_in_paper_band(fig7):
    """Paper: CB partitioning improves every kernel, by 13%-49%."""
    for name in fig7.order:
        gain = fig7.gains["CB"][name]
        assert 10.0 <= gain <= 55.0, (name, gain)


def test_kernels_cb_matches_ideal(fig7):
    """Paper: CB achieves Ideal performance for (nearly) all kernels."""
    for name in fig7.order:
        cb = fig7.gains["CB"][name]
        ideal = fig7.gains["Ideal"][name]
        assert cb >= ideal - 4.0, (name, cb, ideal)


def test_profile_weights_comparable_to_static(fig8):
    """Paper: profile-driven edge weights give performance comparable to
    the loop-depth heuristic."""
    for name in fig8.order:
        cb = fig8.gains["CB"][name]
        pr = fig8.gains["Pr"][name]
        assert abs(cb - pr) <= 3.0, (name, cb, pr)


def test_lpc_duplication_story(fig8):
    """Paper: lpc gains only ~3% from CB but ~34% with duplication,
    close to the ~36% ideal."""
    cb = fig8.gains["CB"]["lpc"]
    dup = fig8.gains["Dup"]["lpc"]
    ideal = fig8.gains["Ideal"]["lpc"]
    assert cb < 10.0
    assert dup > 30.0
    assert dup > cb + 15.0
    assert dup >= ideal - 5.0


def test_zero_parallelism_apps_gain_nothing(fig8):
    """Paper: histogram and the G721 codecs do not benefit even from a
    dual-ported memory."""
    for name in PAPER_FIGURE8_FACTS["zero_gain_apps"]:
        assert fig8.gains["Ideal"][name] <= 3.5, name
    # G721WFencode's Ideal is +3.1%, so the 3% bound covers only these
    for name in ("histogram", "G721MLencode"):
        assert fig8.gains["Ideal"][name] <= 3.0, name


def test_ideal_upper_bounds_everything(fig8):
    for name in fig8.order:
        ideal = fig8.gains["Ideal"][name]
        for label in ("CB", "Pr", "Dup"):
            assert fig8.gains[label][name] <= ideal + 0.5, (name, label)


def test_spectral_duplication_backfires(table):
    """Paper: spectral's integrity stores make Dup slower than plain CB
    (PG 1.06 vs 1.09; PCR 1.01 vs 1.11)."""
    rows = table.rows["spectral"]
    assert rows["Dup"].pg < rows["CB"].pg
    assert rows["Dup"].pcr < rows["CB"].pcr


def test_lpc_duplication_is_cost_effective(table):
    """Paper: lpc's PCR with duplication (1.20) beats CB alone (1.04)."""
    rows = table.rows["lpc"]
    assert rows["Dup"].pcr > rows["CB"].pcr


def test_full_duplication_never_cost_effective(table):
    """Paper: full duplication's PCR is below 1 for every application."""
    for name in table.order:
        assert table.rows[name]["FullDup"].pcr < 1.0, name


def test_full_duplication_large_cost(table):
    """Paper: full duplication costs on average 62% more memory."""
    for name in table.order:
        assert table.rows[name]["FullDup"].ci > 1.3, name


def test_partitioning_alone_adds_no_memory_cost(table):
    """Paper: CB's cost increase is ~0 (mean CI 0.99); it only moves
    data between banks."""
    for name in table.order:
        assert table.rows[name]["CB"].ci <= 1.02, name


def test_partial_duplication_cost_is_modest(table):
    """Paper: partial duplication's average cost increase is ~1%."""
    for name in table.order:
        assert table.rows[name]["Dup"].ci < 1.35, name


def test_pcr_above_one_for_non_fulldup(table):
    """Paper: PCR >= 1 for every technique except full duplication."""
    for name in table.order:
        for label in ("Dup", "CB", "Ideal"):
            assert table.rows[name][label].pcr >= 0.99, (name, label)


def test_mean_row_matches_cells(table):
    pg, ci, pcr = table.mean("CB")
    cells = [table.rows[n]["CB"] for n in table.order]
    assert pg == pytest.approx(sum(c.pg for c in cells) / len(cells))
    assert ci == pytest.approx(sum(c.ci for c in cells) / len(cells))
    assert pcr == pytest.approx(sum(c.pcr for c in cells) / len(cells))


def test_mean_row_shapes(table):
    """Paper Table 3's mean row: FullDup costs ~1.6x the memory and is
    not cost-effective; Dup and CB are; Ideal bounds both."""
    _pg_full, ci_full, pcr_full = table.mean("FullDup")
    pg_dup, ci_dup, pcr_dup = table.mean("Dup")
    pg_cb, _ci_cb, pcr_cb = table.mean("CB")
    pg_ideal, _ci_ideal, _pcr_ideal = table.mean("Ideal")
    assert ci_full > 1.5        # paper: 1.62
    assert pcr_full < 1.0       # paper: 0.68
    assert ci_dup < 1.25        # paper: 1.01
    assert pcr_dup > 1.0        # paper: 1.06
    assert pcr_cb > 1.0         # paper: 1.06
    assert pg_ideal >= pg_cb
    assert pg_ideal >= pg_dup - 0.01


# ---------------------------------------------------------------------
# The figures against e2ebench's expected results and EXPERIMENTS.md
# ---------------------------------------------------------------------
def _expected():
    path = ROOT / "e2ebench" / "expected" / "paper_eval.json"
    return json.loads(path.read_text())


def _rounded_gains(series):
    return {
        label: {name: "%+.1f%%" % gain for name, gain in gains.items()}
        for label, gains in series.gains.items()
    }


def _rounded_cell(pg_ci_pcr):
    return "%.2f / %.2f / %.2f" % tuple(pg_ci_pcr)


def test_figures_equal_the_expected_results(fig7, fig8, table):
    """Every (workload, configuration) cycle count and memory cost, and
    every rounded gain, equals what the interp reference produced."""
    expected = _expected()
    for name, outcome in (("figure7", fig7), ("figure8", fig8),
                          ("table3", table)):
        measured = {
            workload: {
                strategy.name: [m.cycles, m.cost.total]
                for strategy, m in evaluation.measurements.items()
            }
            for workload, evaluation in outcome.evaluations.items()
        }
        assert measured == expected[name], name
    assert _rounded_gains(fig7) == expected["figure7_rounded"]
    assert _rounded_gains(fig8) == expected["figure8_rounded"]
    assert {
        app: {label: _rounded_cell((c.pg, c.ci, c.pcr))
              for label, c in cells.items()}
        for app, cells in table.rows.items()
    } == expected["table3_rounded"]


def _experiments_tables():
    """EXPERIMENTS.md's top-level tables: section title (up to the dash)
    -> {first cell: other cells}, with bold and italic marks dropped."""
    tables = {}
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for section in text.split("\n## ")[1:]:
        title, body = section.split("\n", 1)
        lines = [line for line in body.splitlines() if line.startswith("|")]
        rows = [
            [cell.replace("*", "").strip() for cell in line.strip("|").split("|")]
            for line in lines[2:]  # past the header and its rule
        ]
        tables[title.split(" — ")[0]] = {row[0]: row[1:] for row in rows}
    return tables


def test_experiments_md_tables_match_at_printed_precision(table):
    expected = _expected()
    tables = _experiments_tables()

    gains = expected["figure7_rounded"]
    assert tables["Figure 7"] == {
        name: [gains["CB"][name], gains["Ideal"][name]] for name in gains["CB"]
    }

    gains = expected["figure8_rounded"]
    rows = tables["Figure 8"]
    assert set(rows) == set(gains["CB"])
    for name, cells in rows.items():
        want = [gains[label][name] for label in ("CB", "Pr", "Dup", "Ideal")]
        assert cells[:4] == want, name

    rows = tables["Table 3"]
    cells = expected["table3_rounded"]
    assert set(rows) == set(cells) | {"mean", "(paper mean)"}
    for name in cells:
        assert rows[name] == [cells[name][label] for label in TABLE3_LABELS], name
    assert rows["mean"] == [
        _rounded_cell(table.mean(label)) for label in TABLE3_LABELS
    ]
