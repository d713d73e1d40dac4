"""Rendering of Table 1: per-benchmark Base vs Ours comparison rows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = ["TechniqueRow", "BenchmarkRow", "average_row", "render_table"]


@dataclass(frozen=True)
class TechniqueRow:
    """One technique's metrics on one benchmark (half a Table 1 row)."""

    technique: str  # "Base" or "Ours"
    pct_full: float
    fragmentation_rate: float
    pct_not_found: float
    time_seconds: float
    num_control_signals: int


@dataclass(frozen=True)
class BenchmarkRow:
    """One benchmark's full Table 1 row: stats plus both techniques."""

    name: str
    num_gates: int
    num_nets: int
    num_ffs: int
    num_words: int
    avg_word_size: float
    base: TechniqueRow
    ours: TechniqueRow


def average_row(rows: Sequence[BenchmarkRow]) -> BenchmarkRow:
    """The "Average" row of Table 1: arithmetic means over benchmarks.

    The count columns (#gates, #nets, #FF, #Words) hold their means
    rounded to whole numbers; #Ctrl is the total over the benchmarks.
    """
    if not rows:
        raise ValueError("no rows to average")

    def mean(values: List[float]) -> float:
        return sum(values) / len(values)

    def tech_mean(technique: str) -> TechniqueRow:
        selected = [
            row.base if technique == "Base" else row.ours for row in rows
        ]
        return TechniqueRow(
            technique=technique,
            pct_full=mean([t.pct_full for t in selected]),
            fragmentation_rate=mean(
                [t.fragmentation_rate for t in selected]
            ),
            pct_not_found=mean([t.pct_not_found for t in selected]),
            time_seconds=mean([t.time_seconds for t in selected]),
            num_control_signals=sum(t.num_control_signals for t in selected),
        )

    return BenchmarkRow(
        name="Average",
        num_gates=round(mean([row.num_gates for row in rows])),
        num_nets=round(mean([row.num_nets for row in rows])),
        num_ffs=round(mean([row.num_ffs for row in rows])),
        num_words=round(mean([row.num_words for row in rows])),
        avg_word_size=mean([row.avg_word_size for row in rows]),
        base=tech_mean("Base"),
        ours=tech_mean("Ours"),
    )


_HEADER = (
    f"{'Bench':>8} {'#gates':>8} {'#nets':>8} {'#FF':>6} {'#Words':>7} "
    f"{'AvgSz':>6}  {'Tech':<4} {'Full%':>6} {'Frag':>6} {'NotFnd%':>8} "
    f"{'Time(s)':>8} {'#Ctrl':>6}"
)


def _format_half(row: BenchmarkRow, tech: TechniqueRow, first: bool) -> str:
    if first:
        prefix = (
            f"{row.name:>8} {row.num_gates:>8} {row.num_nets:>8} "
            f"{row.num_ffs:>6} {row.num_words:>7} {row.avg_word_size:>6.2f}"
        )
    else:
        prefix = " " * (8 + 1 + 8 + 1 + 8 + 1 + 6 + 1 + 7 + 1 + 6)
    return (
        f"{prefix}  {tech.technique:<4} {tech.pct_full:>6.1f} "
        f"{tech.fragmentation_rate:>6.2f} {tech.pct_not_found:>8.1f} "
        f"{tech.time_seconds:>8.2f} {tech.num_control_signals:>6}"
    )


def render_table(rows: Sequence[BenchmarkRow], include_average: bool = True) -> str:
    """Render rows in the layout of the paper's Table 1."""
    lines = [_HEADER, "-" * len(_HEADER)]
    for row in rows:
        lines.append(_format_half(row, row.base, first=True))
        lines.append(_format_half(row, row.ours, first=False))
    if include_average and rows:
        avg = average_row(rows)
        lines.append("-" * len(_HEADER))
        lines.append(_format_half(avg, avg.base, first=True))
        lines.append(_format_half(avg, avg.ours, first=False))
    return "\n".join(lines)
