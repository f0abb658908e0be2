"""Table formatting shared by the benchmark harness and examples.

Produces aligned ASCII tables in the layout of the paper's Tables 1-5
so benchmark output can be compared against the publication row by
row, plus the shared mutation-campaign summary
(:func:`mutation_summary_pairs`) that surfaces the timed-out-run
exclusion applied by the score accounting.
"""

from __future__ import annotations

__all__ = ["format_table", "format_kv", "mutation_summary_pairs"]


def _cell(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "n.a."
        if abs(value) >= 100:
            return f"{value:,.1f}"
        return f"{value:.2f}"
    if value is None:
        return "n.a."
    return str(value)


def format_table(
    headers: "list[str]",
    rows: "list[list]",
    *,
    title: "str | None" = None,
) -> str:
    """Render an aligned ASCII table."""
    cells = [[_cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    rule = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(rule)
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def mutation_summary_pairs(report) -> "list[tuple[str, object]]":
    """Key/value rows summarising a
    :class:`repro.mutation.MutationReport` for CLI output.

    Every aggregate percentage excludes timed-out (stall-budget-
    truncated) runs -- they are neither kills nor survivors -- so when
    a campaign has timeouts the summary states both the judged and the
    raw mutant counts instead of silently reporting a score over a
    shrunken population.

    When the campaign ran against a result cache
    (:class:`repro.mutation.ResultCache`), a ``result cache`` row
    states how many verdicts were replayed versus executed, and a
    ``golden trace`` row whether the reference simulation itself was
    replayed (fingerprint-keyed golden caching) or simulated fresh.
    """
    timed_out = report.timed_out_count
    if timed_out:
        mutants = f"{report.effective_total} judged / {report.total} total"
    else:
        mutants = report.total
    pairs: "list[tuple[str, object]]" = [
        ("mutants", mutants),
        ("killed", f"{report.killed_pct:.1f}%"),
        ("corrected", f"{report.corrected_pct:.1f}%"
         if report.corrected_pct is not None else "n.a."),
        ("errors risen", f"{report.risen_pct:.1f}%"),
    ]
    if timed_out:
        pairs.append((
            "timed out (excluded from score)",
            f"{timed_out} of {report.total}",
        ))
    if getattr(report, "cache_hits", None) is not None:
        pairs.append((
            "result cache",
            f"{report.cache_hits} hits / {report.cache_misses} misses",
        ))
    golden_hit = getattr(report, "golden_cache_hit", None)
    if golden_hit is not None:
        pairs.append((
            "golden trace",
            "replayed from cache" if golden_hit else "simulated (stored)",
        ))
    if getattr(report, "pruned_equivalent", None) is not None:
        pairs.append((
            "static prune",
            f"{report.pruned_equivalent} equivalent (not simulated)",
        ))
    return pairs


def format_kv(pairs: "list[tuple[str, object]]", *, indent: int = 2) -> str:
    """Aligned key/value block for summaries."""
    if not pairs:
        return ""
    width = max(len(k) for k, _ in pairs)
    pad = " " * indent
    return "\n".join(
        f"{pad}{k.ljust(width)} : {_cell(v)}" for k, v in pairs
    )
