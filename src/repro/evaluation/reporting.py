"""Rendering: the reproduced figures/table and the observability report.

Each figure/table renderer prints the same rows/series the paper
reports, with the paper's own numbers alongside where the paper states
them.  :func:`render_observability` renders the per-workload
observability report (:func:`repro.obs.report.build_report`) — per-pass
compile timings, hot pcs, bank histograms, and the bank-conflict table
— as one markdown document with the machine-readable JSON embedded at
the end.
"""

import json

from repro.evaluation.paper_data import PAPER_TABLE3, PAPER_TABLE3_MEAN
from repro.evaluation.tables import TABLE3_CONFIGS


def _bar(value, scale=1.0, width=50):
    length = max(0, min(width, int(round(value * scale))))
    return "#" * length


def render_figure7(series):
    """Figure 7 as fixed-width text: per-kernel CB and Ideal gains."""
    lines = [series.title, "=" * len(series.title), ""]
    lines.append("%-14s %8s %8s   gain over single-bank baseline" % ("kernel", "CB", "Ideal"))
    for name in series.order:
        cb = series.gains["CB"][name]
        ideal = series.gains["Ideal"][name]
        lines.append(
            "%-14s %+7.1f%% %+7.1f%%  |%s"
            % (name, cb, ideal, _bar(cb))
        )
    cb_values = series.series("CB")
    lines.append("")
    lines.append(
        "CB gain range: %.1f%% .. %.1f%%, average %.1f%%  (paper: 13%%-49%%, avg 29%%)"
        % (min(cb_values), max(cb_values), sum(cb_values) / len(cb_values))
    )
    return "\n".join(lines)


def render_figure8(series):
    """Figure 8 as fixed-width text: per-application gains per config."""
    lines = [series.title, "=" * len(series.title), ""]
    header = "%-14s" % "application"
    for label in series.labels:
        header += " %8s" % label
    lines.append(header)
    for name in series.order:
        row = "%-14s" % name
        for label in series.labels:
            row += " %+7.1f%%" % series.gains[label][name]
        lines.append(row)
    cb_positive = [
        series.gains["CB"][n]
        for n in series.order
        if series.gains["Ideal"][n] > 0.5
    ]
    lines.append("")
    if cb_positive:
        lines.append(
            "CB gain where gains are possible: %.1f%%..%.1f%% (paper: 3%%-15%%)"
            % (min(cb_positive), max(cb_positive))
        )
    return "\n".join(lines)


def render_markdown(figure7_series, figure8_series, table):
    """One self-contained markdown report covering all three artifacts.

    Useful for regenerating the core of EXPERIMENTS.md after a change:
    ``python -m repro report > report.md``.
    """
    lines = ["# Reproduced evaluation", ""]
    lines.append("## Figure 7 — kernel performance gains")
    lines.append("")
    lines.append("| kernel | CB | Ideal |")
    lines.append("|---|---|---|")
    for name in figure7_series.order:
        lines.append(
            "| %s | +%.1f%% | +%.1f%% |"
            % (
                name,
                figure7_series.gains["CB"][name],
                figure7_series.gains["Ideal"][name],
            )
        )
    lines.append("")
    lines.append("## Figure 8 — application performance gains")
    lines.append("")
    header = "| application |" + "".join(
        " %s |" % label for label in figure8_series.labels
    )
    lines.append(header)
    lines.append("|---|" + "---|" * len(figure8_series.labels))
    for name in figure8_series.order:
        row = "| %s |" % name
        for label in figure8_series.labels:
            row += " +%.1f%% |" % figure8_series.gains[label][name]
        lines.append(row)
    lines.append("")
    lines.append("## Table 3 — performance/cost trade-offs")
    lines.append("")
    labels = [label for label, _s in TABLE3_CONFIGS]
    lines.append(
        "| application |"
        + "".join(" %s PG/CI/PCR |" % label for label in labels)
    )
    lines.append("|---|" + "---|" * len(labels))
    for name in table.order:
        row = "| %s |" % name
        for label in labels:
            cell = table.rows[name][label]
            row += " %.2f / %.2f / %.2f |" % (cell.pg, cell.ci, cell.pcr)
        lines.append(row)
    mean_row = "| **mean** |"
    for label in labels:
        pg, ci, pcr = table.mean(label)
        mean_row += " %.2f / %.2f / %.2f |" % (pg, ci, pcr)
    lines.append(mean_row)
    return "\n".join(lines)


def _pass_details(row):
    """One cell summarizing a pass's metrics (everything but name/time)."""
    parts = []
    for key, value in row.items():
        if key in ("pass", "seconds"):
            continue
        if isinstance(value, float):
            parts.append("%s=%.3f" % (key, value))
        else:
            parts.append("%s=%s" % (key, value))
    return ", ".join(parts)


def _render_passes(lines, config):
    lines.append("| pass | time (µs) | details |")
    lines.append("|---|---:|---|")
    for row in config["compile_passes"]:
        lines.append(
            "| %s | %.0f | %s |"
            % (row["pass"], 1e6 * (row["seconds"] or 0.0), _pass_details(row))
        )
    if config["compile_seconds"] is not None:
        lines.append(
            "| **total** | **%.0f** | |" % (1e6 * config["compile_seconds"])
        )


def _render_conflicts(lines, config, limit=15):
    conflicts = config["profile"]["conflicts"]
    if not conflicts:
        lines.append("No bank conflicts: no two memory operations to the")
        lines.append("same bank were serialized in adjacent instructions.")
        return
    lines.append("| variable pair | bank | cycles | static sites | note |")
    lines.append("|---|---|---:|---:|---|")
    for entry in conflicts[:limit]:
        note = "same variable (duplication candidate)" if entry["same_variable"] else ""
        lines.append(
            "| %s, %s | %s | %d | %d | %s |"
            % (
                entry["var_a"],
                entry["var_b"],
                entry["bank"],
                entry["cycles"],
                entry["events"],
                note,
            )
        )
    if len(conflicts) > limit:
        lines.append("")
        lines.append(
            "(%d further pairs omitted; see the JSON document.)"
            % (len(conflicts) - limit)
        )


def render_observability(report):
    """Render a :func:`repro.obs.report.build_report` dict as markdown.

    The document carries the human-readable tables (configuration
    summary, per-pass compile-time breakdown, top-N hot pcs, per-bank
    access histogram, bank-conflict table) followed by the complete
    JSON report in a fenced block, so one emission is both readable and
    machine-parseable.
    """
    base = report["baseline"]
    target = report["strategy"]
    deltas = report["deltas"]
    lines = [
        "# Observability report — %s (%s)" % (report["workload"], report["category"]),
        "",
        "Strategy **%s** vs baseline **%s**, backend `%s`."
        % (target["label"], base["label"], report["backend"]),
        "",
        "| | %s | %s | delta |" % (base["label"], target["label"]),
        "|---|---:|---:|---:|",
        "| cycles | %d | %d | %+.1f%% gain |"
        % (base["cycles"], target["cycles"], deltas["gain_percent"]),
        "| operations | %d | %d | |"
        % (base["operations"], target["operations"]),
        "| ops/cycle | %.2f | %.2f | |"
        % (base["parallelism"], target["parallelism"]),
        "| code size (instructions) | %d | %d | %+d |"
        % (base["code_size"], target["code_size"], deltas["code_size_delta"]),
        "| conflict cycles | %d | %d | %+d removed |"
        % (
            deltas["conflict_cycles_baseline"],
            deltas["conflict_cycles_strategy"],
            deltas["conflict_cycles_removed"],
        ),
    ]
    if target["duplicated"]:
        lines.append(
            "| duplicated symbols | | %s | |" % ", ".join(target["duplicated"])
        )
    for config in (base, target):
        lines += ["", "## Compile passes — %s" % config["label"], ""]
        _render_passes(lines, config)
    for config in (base, target):
        lines += ["", "## Hot pcs — %s (top %d)" % (config["label"], report["top"]), ""]
        lines.append("| pc | cycles | share | block | instruction |")
        lines.append("|---:|---:|---:|---|---|")
        for row in config["profile"]["hot_pcs"]:
            lines.append(
                "| %d | %d | %.1f%% | %s | `%s` |"
                % (
                    row["pc"],
                    row["cycles"],
                    100.0 * row["share"],
                    row["block"],
                    row["text"],
                )
            )
    lines += ["", "## Bank accesses", ""]
    lines.append("| configuration | X loads | X stores | Y loads | Y stores |")
    lines.append("|---|---:|---:|---:|---:|")
    for config in (base, target):
        banks = config["profile"]["bank_accesses"]
        lines.append(
            "| %s | %d | %d | %d | %d |"
            % (
                config["label"],
                banks["X"]["loads"],
                banks["X"]["stores"],
                banks["Y"]["loads"],
                banks["Y"]["stores"],
            )
        )
    for config in (base, target):
        lines += ["", "## Bank-conflict table — %s" % config["label"], ""]
        _render_conflicts(lines, config)
    lines += [
        "",
        "## Machine-readable report",
        "",
        "```json",
        json.dumps(report, indent=2, sort_keys=True),
        "```",
    ]
    return "\n".join(lines)


def render_partition_gap(report):
    """Render a :func:`repro.evaluation.partition_gap.partition_gap`
    dict as fixed-width text: one row per workload (exact cost starred
    when proved optimal, each heuristic's cost and gap ratio beside it)
    plus the per-partitioner aggregate block."""
    title = (
        "Partitioner gap-to-optimal (%s strategy, backend %s)"
        % (report["strategy"], report["backend"])
    )
    lines = [title, "=" * len(title), ""]
    heuristics = [p for p in report["partitioners"] if p != "exact"]
    header = "%-16s %5s %9s" % ("workload", "nodes", "exact")
    for partitioner in heuristics:
        header += " %16s" % ("%s cost/gap" % partitioner)
    lines.append(header)
    for name in report["order"]:
        row = report["workloads"][name]
        exact = row["partitioners"]["exact"]
        line = "%-16s %5d %8g%s" % (
            name,
            row["graph_nodes"],
            exact["final_cost"],
            "*" if exact["proved_optimal"] else " ",
        )
        for partitioner in heuristics:
            entry = row["partitioners"][partitioner]
            line += "     %6g/%5.3f" % (
                entry["final_cost"], row["gap"][partitioner]
            )
        lines.append(line)
    lines.append("")
    lines.append("* = proved minimum-cost by branch-and-bound")
    lines.append("")
    aggregate = report["aggregate"]
    total = aggregate["workloads"]
    lines.append(
        "%-12s %9s %8s %12s %9s"
        % ("partitioner", "mean gap", "max gap", "optimal", "mean PCR")
    )
    for partitioner in report["partitioners"]:
        stats = aggregate[partitioner]
        lines.append(
            "%-12s %9.4f %8.4f %9d/%-2d %9.2f"
            % (
                partitioner,
                stats["mean_gap"],
                stats["max_gap"],
                stats["optimal_count"],
                total,
                stats["mean_pcr"],
            )
        )
    return "\n".join(lines)


def render_table3(table):
    """Table 3 as fixed-width text: PG / CI / PCR per application."""
    title = "Table 3: Performance/Cost Trade-Offs of Exploiting Dual Data-Memory Banks"
    lines = [title, "=" * len(title), ""]
    labels = [label for label, _s in TABLE3_CONFIGS]
    header = "%-14s" % "application"
    for label in labels:
        header += " | %5s %5s %5s" % ("PG", "CI", "PCR")
    lines.append(header + "   (columns: %s)" % ", ".join(labels))
    for name in table.order:
        row = "%-14s" % name
        for label in labels:
            cell = table.rows[name][label]
            row += " | %5.2f %5.2f %5.2f" % (cell.pg, cell.ci, cell.pcr)
        lines.append(row)
        paper = PAPER_TABLE3.get(name)
        if paper:
            ref = "%-14s" % "  (paper)"
            for label in labels:
                pg, ci, pcr = paper[label]
                ref += " | %5.2f %5.2f %5.2f" % (pg, ci, pcr)
            lines.append(ref)
    mean_row = "%-14s" % "Arithmetic Mean"
    for label in labels:
        pg, ci, pcr = table.mean(label)
        mean_row += " | %5.2f %5.2f %5.2f" % (pg, ci, pcr)
    lines.append(mean_row)
    paper_mean = "%-14s" % "  (paper)"
    for label in labels:
        pg, ci, pcr = PAPER_TABLE3_MEAN[label]
        paper_mean += " | %5.2f %5.2f %5.2f" % (pg, ci, pcr)
    lines.append(paper_mean)
    return "\n".join(lines)
