"""Evaluation harness: golden references, accuracy metrics, Table 1 runner."""

from .metrics import EvaluationMetrics, WordOutcome, evaluate
from .reference import (
    REGISTER_NAME_RE,
    ReferenceWord,
    average_word_size,
    extract_reference_words,
)
from .report import rows_from_json, rows_to_csv, rows_to_json
from .table import BenchmarkRow, TechniqueRow, average_row, render_table

__all__ = [
    "EvaluationMetrics", "WordOutcome", "evaluate",
    "REGISTER_NAME_RE", "ReferenceWord", "average_word_size",
    "extract_reference_words",
    "rows_from_json", "rows_to_csv", "rows_to_json",
    "BenchmarkRun", "run_benchmark", "run_table1",
    "BenchmarkRow", "TechniqueRow", "average_row", "render_table",
]


def __getattr__(name):
    # The runner is imported on first use, not with the package:
    # ``python -m repro.eval.runner`` imports this package first, and a
    # runner already in sys.modules by then makes runpy warn.
    if name in ("BenchmarkRun", "run_benchmark", "run_table1"):
        from . import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
