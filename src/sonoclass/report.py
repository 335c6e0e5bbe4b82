"""Evaluation reports: the confusion matrix and accuracies of one model,
the multi-method comparison, and their text and CSV renderings, plus the
CV table and the MI-scores CSV: every table the CLI writes.

Reports carry no timings, so reruns with the same seed give identical
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .feature_select import MiSelection


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


def _accuracies(report: EvaluationReport, names) -> list[float]:
    """The per-class accuracy of each of names, NaN for a class with no
    test clips."""
    per_class = report.per_class_accuracy
    return [per_class.get(name, float("nan")) for name in names]


def _method_rows(result: ComparisonResult) -> list[tuple[str, list[float]]]:
    """The method table: a row of accuracies, one per method, for each
    class and then for their unweighted average."""
    columns = [_accuracies(r, result.class_names) + [r.averaged_accuracy]
               for r in result.method_reports.values()]
    labels = [*result.class_names, "averaged"]
    return [(label, [column[i] for column in columns]) for i, label in enumerate(labels)]


def evaluation_csv(report: EvaluationReport) -> str:
    lines = ["kind,truth,predicted,value"]
    lines += [f"per_class,{name},,{_pct(a)}" for name, a in report.per_class_accuracy.items()]
    lines += [f"averaged,,,{_pct(report.averaged_accuracy)}",
              f"sample_weighted,,,{_pct(report.sample_weighted_accuracy)}",
              f"n_test,,,{report.n_test}", f"method,,,{report.method}",
              f"split_hash,,,{report.split_hash}"]
    for i, truth in enumerate(report.class_names):
        for j, pred in enumerate(report.class_names):
            lines.append(f"confusion,{truth},{pred},{report.confusion[i, j]}")
    return "\n".join(lines) + "\n"


def evaluation_text(report: EvaluationReport) -> str:
    width = max(len(n) for n in report.class_names)
    lines = [f"method: {report.method}    test clips: {report.n_test}", "",
             f"{'class'.ljust(width)}  correct/total  accuracy"]
    per_class = report.per_class_accuracy
    for i, name in enumerate(report.class_names):
        if name in per_class:
            correct, total = int(report.confusion[i, i]), int(report.confusion[i].sum())
            lines.append(f"{name.ljust(width)}  {correct:>4d}/{total:<4d}     "
                         f"{per_class[name]:6.2f}%")
    lines += ["", f"averaged accuracy (unweighted): {report.averaged_accuracy:.2f}%",
              f"sample-weighted accuracy:       {report.sample_weighted_accuracy:.2f}%",
              "", "confusion (rows = truth):",
              " " * width + "  " + " ".join(n[:6].rjust(6) for n in report.class_names)]
    for i, name in enumerate(report.class_names):
        row = " ".join(str(int(v)).rjust(6) for v in report.confusion[i])
        lines.append(f"{name.ljust(width)}  {row}")
    if report.config:
        lines += ["", f"config: {report.config}"]
    return "\n".join(lines) + "\n"


def single_grid_csv(result: ComparisonResult) -> str:
    lines = ["scale,orientation," + ",".join(result.class_names) + ",averaged"]
    for scale, orientation, report in result.grid_reports:
        cells = map(_pct, _accuracies(report, result.class_names) + [report.averaged_accuracy])
        lines.append(f"{scale},{orientation}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def comparison_csv(result: ComparisonResult) -> str:
    methods = list(result.method_reports)
    weighted = [r.sample_weighted_accuracy for r in result.method_reports.values()]
    lines = ["class," + ",".join(methods)]
    for label, values in _method_rows(result) + [("sample_weighted", weighted)]:
        lines.append(f"{label}," + ",".join(map(_pct, values)))
    lines.append(f"split_hash,{result.split_hash}" + "," * (len(methods) - 1))
    return "\n".join(lines) + "\n"


def comparison_text(result: ComparisonResult) -> str:
    width = max(len(n) for n in result.class_names)
    lines = ["single-filter grid (per-class accuracy %):", "", "scale orient  "
             + "  ".join(n[:7].rjust(7) for n in result.class_names) + "  averaged"]
    for scale, orientation, report in result.grid_reports:
        cells = "  ".join(f"{a:7.2f}" for a in _accuracies(report, result.class_names))
        lines.append(f"{scale:>5d} {orientation:>6d}  {cells}  {report.averaged_accuracy:8.2f}")
    lines += ["", "method comparison (per-class accuracy %):", "",
              "class".ljust(width) + "  " + "  ".join(m.rjust(8) for m in result.method_reports)]
    for label, values in _method_rows(result):
        lines.append(label.ljust(width) + "  " + "  ".join(f"{a:8.2f}" for a in values))
    lines.append(f"\nsplit hash: {result.split_hash}")
    return "\n".join(lines) + "\n"


def cv_csv(table: list[tuple[float, float, float]]) -> str:
    """grid_search's CV table: one (c, gamma, accuracy) row per grid cell."""
    lines = ["c,gamma,cv_accuracy"] + [f"{c:.10g},{g:.10g},{a:.6f}" for c, g, a in table]
    return "\n".join(lines) + "\n"


def mi_scores_csv(selection: MiSelection) -> str:
    """Each selected feature's index and MI score in bits, best first."""
    lines = ["feature_index,score_bits"]
    lines += [f"{int(i)},{s:.12g}" for i, s in zip(selection.selected, selection.scores)]
    return "\n".join(lines) + "\n"
