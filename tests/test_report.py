"""Every table sonoclass writes, pinned byte for byte on hand-built results.

Class "rain" has no test clips, so each renderer's NaN cell, or its
omission of the class, is covered; the perfbench digests only cover
seeds where every class has test clips. The CV table and the MI-scores
CSV are taken from the files the CLI writes, with the pipeline step that
computes them replaced by a fixed result.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from sonoclass import cli, pipeline, report
from sonoclass.feature_select import MiSelection
from sonoclass.report import ComparisonResult, EvaluationReport

NAMES = ("bird", "rain", "thunderclap")


def _report(rows, method="", config=""):
    return EvaluationReport(NAMES, np.array(rows, dtype=np.int64), method, "ab12", config)


COMPARISON = ComparisonResult(
    grid_reports=[(1, 1, _report([[3, 1, 0], [0, 0, 0], [2, 0, 1]])),
                  (2, 6, _report([[4, 0, 0], [0, 0, 0], [1, 1, 1]]))],
    method_reports={"bank": _report([[4, 0, 0], [0, 0, 0], [0, 0, 3]]),
                    "patches": _report([[2, 1, 1], [0, 0, 0], [0, 1, 2]]),
                    "wavelet": _report([[1, 3, 0], [0, 0, 0], [0, 0, 3]])},
    class_names=NAMES,
    split_hash="ab12",
)
EVALUATION = _report([[3, 1, 0], [0, 0, 0], [2, 0, 1]], "bank", "method=bank;seed=0")

SINGLE_GRID_CSV = """\
scale,orientation,bird,rain,thunderclap,averaged
1,1,75.000000,nan,33.333333,54.166667
2,6,100.000000,nan,33.333333,66.666667
"""

COMPARISON_CSV = """\
class,bank,patches,wavelet
bird,100.000000,50.000000,25.000000
rain,nan,nan,nan
thunderclap,100.000000,66.666667,100.000000
averaged,100.000000,58.333333,62.500000
sample_weighted,100.000000,57.142857,57.142857
split_hash,ab12,,
"""

COMPARISON_TEXT = """\
single-filter grid (per-class accuracy %):

scale orient     bird     rain  thunder  averaged
    1      1    75.00      nan    33.33     54.17
    2      6   100.00      nan    33.33     66.67

method comparison (per-class accuracy %):

class            bank   patches   wavelet
bird           100.00     50.00     25.00
rain              nan       nan       nan
thunderclap    100.00     66.67    100.00
averaged       100.00     58.33     62.50

split hash: ab12
"""

EVALUATION_CSV = """\
kind,truth,predicted,value
per_class,bird,,75.000000
per_class,thunderclap,,33.333333
averaged,,,54.166667
sample_weighted,,,57.142857
n_test,,,7
method,,,bank
split_hash,,,ab12
confusion,bird,bird,3
confusion,bird,rain,1
confusion,bird,thunderclap,0
confusion,rain,bird,0
confusion,rain,rain,0
confusion,rain,thunderclap,0
confusion,thunderclap,bird,2
confusion,thunderclap,rain,0
confusion,thunderclap,thunderclap,1
"""

EVALUATION_TEXT = """\
method: bank    test clips: 7

class        correct/total  accuracy
bird            3/4         75.00%
thunderclap     1/3         33.33%

averaged accuracy (unweighted): 54.17%
sample-weighted accuracy:       57.14%

confusion (rows = truth):
               bird   rain thunde
bird              3      1      0
rain              0      0      0
thunderclap       2      0      1

config: method=bank;seed=0
"""

CV_TABLE = [(0.25, 2.0 ** -15, 2 / 3), (0.25, 1 / 3, 0.5), (1024.0, 2.0 ** -15, 1.0),
            (1024.0, 1 / 3, 1.0)]

CV_CSV = """\
c,gamma,cv_accuracy
0.25,3.051757812e-05,0.666667
0.25,0.3333333333,0.500000
1024,3.051757812e-05,1.000000
1024,0.3333333333,1.000000
"""

MI_SELECTION = MiSelection(selected=np.array([7, 0, 12]),
                           scores=np.array([0.123456789012345, 1.5, 1e-13]), n_features=16)

MI_SCORES_CSV = """\
feature_index,score_bits
7,0.123456789012
0,1.5
12,1e-13
"""


@pytest.mark.parametrize("render, subject, expected", [
    (report.single_grid_csv, COMPARISON, SINGLE_GRID_CSV),
    (report.comparison_csv, COMPARISON, COMPARISON_CSV),
    (report.comparison_text, COMPARISON, COMPARISON_TEXT),
    (report.evaluation_csv, EVALUATION, EVALUATION_CSV),
    (report.evaluation_text, EVALUATION, EVALUATION_TEXT),
], ids=["single_grid_csv", "comparison_csv", "comparison_text", "evaluation_csv",
        "evaluation_text"])
def test_report_bytes(render, subject, expected):
    assert render(subject) == expected


@pytest.fixture
def manifest(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text("a.wav\tbird\ttrain\n", encoding="utf-8")
    return str(path)


def test_cv_table_bytes(manifest, tmp_path, capsys, monkeypatch):
    best = pipeline.KernelParams(gamma=2.0 ** -15, c=1024.0)
    monkeypatch.setattr(pipeline, "grid_search", lambda *args, **kwargs: (best, CV_TABLE))
    out = tmp_path / "cv.csv"
    assert cli.main(["gridsearch", "--manifest", manifest, "--out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == CV_CSV.encode()
    assert capsys.readouterr().out == (
        f"CV table -> {out}\nbest: c=1024 gamma=3.051757812e-05 cv_accuracy=1.0000\n"
    )


def test_mi_scores_bytes(manifest, tmp_path, capsys, monkeypatch):
    model = SimpleNamespace(ovo=SimpleNamespace(pair_models=[None] * 3, converged=True),
                            class_names=NAMES, selection=MI_SELECTION)
    monkeypatch.setattr(pipeline, "train_model", lambda *args, **kwargs: model)
    monkeypatch.setattr(cli, "save_model", lambda path, model: None)
    out, model_path = tmp_path / "scores.csv", tmp_path / "m.txt"
    assert cli.main(["train", "--manifest", manifest, "--out", str(model_path),
                     "--dump-mi-scores", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == MI_SCORES_CSV.encode()
    assert capsys.readouterr().out == (
        f"trained 3 pair models over 3 classes -> {model_path}\nMI scores -> {out}\n"
    )
