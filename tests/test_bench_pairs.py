import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summary_of_a_lower_is_better_metric():
    parent = [2.0, 1.0, 4.0, 3.0, 5.0]
    change = [1.5, 1.2, 2.0, 1.0, 1.1]
    s = bench_pairs.summarize(parent, change, "lower", 0.25)
    assert s["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": parent}
    assert s["change"]["median"] == 1.2
    assert (s["change"]["q1"], s["change"]["q3"]) == (1.1, 1.5)
    assert s["change_wins"] == "4/5"  # pair 2 went the other way
    assert s["worse_by"] == pytest.approx(-0.6)
    assert s["bound"] == 0.25
    assert s["parent_iqr"] == 2.0
    assert not s["gap_exceeds_parent_iqr"]  # the medians are 1.8 apart
    s = bench_pairs.summarize([3.0, 3.1, 2.9], [1.0, 1.1, 0.9], "lower")
    assert s["change_wins"] == "3/3"
    assert s["gap_exceeds_parent_iqr"]


def test_summary_of_a_higher_is_better_metric_counts_a_worse_median():
    s = bench_pairs.summarize([10.0, 12.0, 11.0], [9.0, 12.0, 8.0], "higher")
    assert s["change_wins"] == "0/3"  # a tie is not a win
    assert s["worse_by"] == pytest.approx(2.0 / 11.0)
    assert not s["gap_exceeds_parent_iqr"]


def test_summary_of_one_pair_and_of_a_zero_median():
    s = bench_pairs.summarize([0.0], [0.0], "lower")
    assert s["parent"] == {"median": 0.0, "q1": 0.0, "q3": 0.0, "runs": [0.0]}
    assert s["worse_by"] is None
    assert s["change_wins"] == "0/1"


def test_summary_rejects_unpaired_runs_and_unknown_directions():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [], "lower")
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [1.0], "faster")


def test_src_lines_counts_the_package_modules_as_wc_does(tmp_path):
    package = tmp_path / "src" / "raceopt"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no final newline: wc -l counts 0
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "sub" / "c.py").write_text("not\ncounted\n")
    assert bench_pairs.src_lines(tmp_path) == 2
    assert bench_pairs.src_lines(Path(__file__).resolve().parent.parent) > 0


_TIGHT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]
_WIDE = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
_SKEWED = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 5.0, 6.0, 7.0]
# (parent runs, change runs, better, the verdict at bound 0.25)
VERDICTS = {
    "gain": (_TIGHT, [v - 2.0 for v in _TIGHT], "lower", "gain"),
    "gain-higher": (_TIGHT, [v + 2.0 for v in _TIGHT], "higher", "gain"),
    "worse": (_TIGHT, [v * 1.5 for v in _TIGHT], "lower", "worse"),
    "worse-despite-a-wide-parent": (_WIDE, [v * 2.0 for v in _WIDE], "lower", "worse"),
    "unresolved": (_WIDE, _WIDE[::-1], "lower", "unresolved"),
    "flat": (_TIGHT, _TIGHT[::-1], "lower", "flat"),
    # The parent's spread is 2x its median, but every change run beats every parent run;
    # the medians are closer than the parent's quartiles, so it is no gain either.
    "flat-when-every-change-run-wins": (_SKEWED, [0.9] * 10, "lower", "flat"),
    # 8 wins in 10, each by far more than the parent's spread: not a gain.
    "flat-at-8-of-10": (_TIGHT, [v - 2.0 for v in _TIGHT[:8]] + _TIGHT[8:], "lower", "flat"),
}


@pytest.mark.parametrize("parent, change, better, verdict", VERDICTS.values(), ids=VERDICTS)
def test_each_metric_gets_the_verdict_its_runs_support(parent, change, better, verdict):
    assert bench_pairs.summarize(parent, change, better, 0.25)["verdict"] == verdict


def test_without_a_bound_only_a_gain_is_judged():
    assert bench_pairs.summarize(_TIGHT, [v * 1.5 for v in _TIGHT], "lower")["verdict"] == "flat"
    assert bench_pairs.summarize(_WIDE, _WIDE[::-1], "lower")["verdict"] == "flat"
    assert bench_pairs.summarize(_TIGHT, [v - 2 for v in _TIGHT], "lower")["verdict"] == "gain"
