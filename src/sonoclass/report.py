"""Evaluation reports: the confusion matrix and accuracies of one model,
the multi-method comparison, and their text and CSV renderings.

Reports carry no timings, so reruns with the same seed give identical
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EvaluationReport:
    """One model's test predictions, held as their confusion matrix.

    Per-class accuracy covers only classes present in truth; the averaged
    accuracy is their unweighted mean, reported next to the plain
    sample-weighted accuracy. Accuracies are percentages.
    """

    class_names: tuple[str, ...]
    confusion: np.ndarray  # (k, k) counts, rows = truth
    method: str = ""
    split_hash: str = ""
    config: str = ""       # the model's flat config, `key=value` joined by ';'

    @property
    def n_test(self) -> int:
        return int(self.confusion.sum())

    @property
    def per_class_accuracy(self) -> dict[str, float]:
        totals = [int(t) for t in self.confusion.sum(axis=1)]
        return {name: 100.0 * self.confusion[i, i] / total
                for i, (name, total) in enumerate(zip(self.class_names, totals)) if total}

    @property
    def averaged_accuracy(self) -> float:
        per_class = self.per_class_accuracy
        return float(np.mean(list(per_class.values()))) if per_class else 0.0

    @property
    def sample_weighted_accuracy(self) -> float:
        return 100.0 * float(np.trace(self.confusion)) / max(self.n_test, 1)


@dataclass
class ComparisonResult:
    grid_reports: list[tuple[int, int, EvaluationReport]]  # (scale, orientation, report)
    method_reports: dict[str, EvaluationReport]            # bank / patches / wavelet
    class_names: tuple[str, ...]
    split_hash: str


def tabulate_report(
    truth: np.ndarray,
    predicted: np.ndarray,
    class_names: tuple[str, ...],
    method: str = "",
    split_hash: str = "",
    config: str = "",
) -> EvaluationReport:
    """The report of parallel truth/prediction labels."""
    confusion = np.zeros((len(class_names), len(class_names)), dtype=np.int64)
    for t, p in zip(truth, predicted):
        confusion[t, p] += 1
    return EvaluationReport(class_names, confusion, method, split_hash, config)


def _pct(value: float) -> str:
    return format(value, ".6f")


def evaluation_csv(report: EvaluationReport) -> str:
    lines = ["kind,truth,predicted,value"]
    for name in report.class_names:
        if name in report.per_class_accuracy:
            lines.append(f"per_class,{name},,{_pct(report.per_class_accuracy[name])}")
    lines.append(f"averaged,,,{_pct(report.averaged_accuracy)}")
    lines.append(f"sample_weighted,,,{_pct(report.sample_weighted_accuracy)}")
    lines.append(f"n_test,,,{report.n_test}")
    lines.append(f"method,,,{report.method}")
    lines.append(f"split_hash,,,{report.split_hash}")
    for i, truth in enumerate(report.class_names):
        for j, pred in enumerate(report.class_names):
            lines.append(f"confusion,{truth},{pred},{report.confusion[i, j]}")
    return "\n".join(lines) + "\n"


def evaluation_text(report: EvaluationReport) -> str:
    width = max(len(n) for n in report.class_names)
    lines = [f"method: {report.method}    test clips: {report.n_test}", ""]
    lines.append(f"{'class'.ljust(width)}  correct/total  accuracy")
    for i, name in enumerate(report.class_names):
        total = int(report.confusion[i].sum())
        if not total:
            continue
        correct = int(report.confusion[i, i])
        lines.append(
            f"{name.ljust(width)}  {correct:>4d}/{total:<4d}     "
            f"{report.per_class_accuracy[name]:6.2f}%"
        )
    lines.append("")
    lines.append(f"averaged accuracy (unweighted): {report.averaged_accuracy:.2f}%")
    lines.append(f"sample-weighted accuracy:       {report.sample_weighted_accuracy:.2f}%")
    lines.append("")
    lines.append("confusion (rows = truth):")
    header = " " * width + "  " + " ".join(n[:6].rjust(6) for n in report.class_names)
    lines.append(header)
    for i, name in enumerate(report.class_names):
        row = " ".join(str(int(v)).rjust(6) for v in report.confusion[i])
        lines.append(f"{name.ljust(width)}  {row}")
    if report.config:
        lines.append("")
        lines.append(f"config: {report.config}")
    return "\n".join(lines) + "\n"


def single_grid_csv(result: ComparisonResult) -> str:
    header = "scale,orientation," + ",".join(result.class_names) + ",averaged"
    lines = [header]
    for scale, orientation, report in result.grid_reports:
        cells = [
            _pct(report.per_class_accuracy.get(name, float("nan")))
            for name in result.class_names
        ]
        lines.append(
            f"{scale},{orientation}," + ",".join(cells) + f",{_pct(report.averaged_accuracy)}"
        )
    return "\n".join(lines) + "\n"


def comparison_csv(result: ComparisonResult) -> str:
    methods = list(result.method_reports)
    lines = ["class," + ",".join(methods)]
    for name in result.class_names:
        cells = [
            _pct(result.method_reports[m].per_class_accuracy.get(name, float("nan")))
            for m in methods
        ]
        lines.append(f"{name}," + ",".join(cells))
    lines.append("averaged," + ",".join(
        _pct(result.method_reports[m].averaged_accuracy) for m in methods
    ))
    lines.append("sample_weighted," + ",".join(
        _pct(result.method_reports[m].sample_weighted_accuracy) for m in methods
    ))
    lines.append(f"split_hash,{result.split_hash}" + "," * (len(methods) - 1))
    return "\n".join(lines) + "\n"


def comparison_text(result: ComparisonResult) -> str:
    lines = ["single-filter grid (per-class accuracy %):", ""]
    width = max(len(n) for n in result.class_names)
    head = "scale orient  " + "  ".join(n[:7].rjust(7) for n in result.class_names) + "  averaged"
    lines.append(head)
    for scale, orientation, report in result.grid_reports:
        cells = "  ".join(
            f"{report.per_class_accuracy.get(name, float('nan')):7.2f}"
            for name in result.class_names
        )
        lines.append(f"{scale:>5d} {orientation:>6d}  {cells}  {report.averaged_accuracy:8.2f}")
    lines.append("")
    lines.append("method comparison (per-class accuracy %):")
    lines.append("")
    methods = list(result.method_reports)
    lines.append("class".ljust(width) + "  " + "  ".join(m.rjust(8) for m in methods))
    for name in result.class_names:
        cells = "  ".join(
            f"{result.method_reports[m].per_class_accuracy.get(name, float('nan')):8.2f}"
            for m in methods
        )
        lines.append(name.ljust(width) + "  " + cells)
    lines.append("averaged".ljust(width) + "  " + "  ".join(
        f"{result.method_reports[m].averaged_accuracy:8.2f}" for m in methods
    ))
    lines.append(f"\nsplit hash: {result.split_hash}")
    return "\n".join(lines) + "\n"
