"""Plain-text rendering of tables and figure data.

The benchmark harnesses and examples print their results with these helpers
so every regenerated table/figure has a consistent, diff-friendly format.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence

if TYPE_CHECKING:  # the analysis layers load numpy; format_table needs none
    from repro.analysis.accuracy import AccuracyResult
    from repro.analysis.variation import VariationReport


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render ``rows`` under ``headers`` as an aligned plain-text table."""
    rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match header length")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers)),
        "  ".join("-" * widths[index] for index in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def render_accuracy_table(results: Sequence[AccuracyResult], title: str = "") -> str:
    """Render per-benchmark error/speedup rows plus per-thread averages.

    When any result carries a confidence interval (stratified- or
    fidelity-mode runs), a ``ci95 [%]`` half-width column and a per-row
    coverage marker are added, and the overall summary reports the CI
    coverage — the fraction of rows whose reported interval contains the
    detailed-mode execution time.  When any result carries an error budget
    (fidelity-mode runs), ``budget [%]``/``within`` columns compare the
    achieved error against the declared budget and the summary reports the
    budget hit rate.
    """
    from repro.analysis.accuracy import group_by_threads, summarize

    with_ci = any(result.ci_covers_detailed is not None for result in results)
    with_budget = any(result.within_budget is not None for result in results)
    headers = ["benchmark", "threads", "error [%]", "speedup", "detailed frac", "resamples"]
    if with_ci:
        headers += ["ci95 [%]", "covers"]
    if with_budget:
        headers += ["budget [%]", "within"]
    rows: List[List[object]] = []
    for result in results:
        row: List[object] = [
            result.benchmark,
            result.num_threads,
            result.error_percent,
            result.speedup,
            result.detailed_fraction,
            result.resamples,
        ]
        if with_ci:
            if result.ci_covers_detailed is None:
                row += ["-", "-"]
            else:
                row += [
                    result.ci_half_width_percent,
                    "yes" if result.ci_covers_detailed else "no",
                ]
        if with_budget:
            if result.within_budget is None:
                row += ["-", "-"]
            else:
                row += [
                    result.error_budget_percent,
                    "yes" if result.within_budget else "no",
                ]
        rows.append(row)
    text = format_table(headers, rows)
    summary_lines = []
    for threads, summary in group_by_threads(results).items():
        summary_lines.append(
            f"average ({threads} threads): error {summary.average_error_percent:.2f}%"
            f", speedup {summary.average_speedup:.1f}x"
        )
    overall = summarize(results)
    overall_line = (
        f"overall: avg error {overall.average_error_percent:.2f}%"
        f", median error {overall.median_error_percent:.2f}%"
        f", max error {overall.max_error_percent:.2f}%"
        f", avg speedup {overall.average_speedup:.1f}x"
    )
    if overall.ci_coverage is not None:
        overall_line += (
            f", ci coverage {overall.ci_coverage * 100.0:.0f}%"
            f" (avg halfwidth {overall.average_ci_half_width_percent:.2f}%)"
        )
    if overall.budget_hit_rate is not None:
        overall_line += f", budget hit rate {overall.budget_hit_rate * 100.0:.0f}%"
    summary_lines.append(overall_line)
    parts = []
    if title:
        parts.append(title)
    parts.append(text)
    parts.extend(summary_lines)
    return "\n".join(parts)


def render_variation_report(reports: Dict[str, VariationReport], title: str = "") -> str:
    """Render the Figure 1 / Figure 5 box-plot statistics as a table."""
    headers = [
        "benchmark", "instances", "p5 [%]", "q1 [%]", "median [%]",
        "q3 [%]", "p95 [%]", "within +/-5%",
    ]
    rows = []
    for name, report in reports.items():
        rows.append(
            [
                name,
                report.box.count,
                report.box.percentile_5,
                report.box.quartile_1,
                report.box.median,
                report.box.quartile_3,
                report.box.percentile_95,
                "yes" if report.within_5_percent else "no",
            ]
        )
    text = format_table(headers, rows)
    within = sum(1 for report in reports.values() if report.within_5_percent)
    footer = f"{within} of {len(reports)} benchmarks within +/-5%"
    parts = []
    if title:
        parts.append(title)
    parts.extend([text, footer])
    return "\n".join(parts)
