"""The verdict rule of ``benchmarks/overheads.py``'s overhead gates."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "overheads", Path(__file__).resolve().parents[1] / "benchmarks" / "overheads.py"
)
overheads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(overheads)


@pytest.mark.parametrize(
    "samples, expected",
    [
        ([0.4, 0.9, 1.1, 0.7, 1.3, 0.8, 1.0, 0.6, 1.2, 0.9], "pass"),
        ([3.4, 3.6, 3.5, 3.8, 3.3, 3.7, 3.5, 3.6, 3.4, 3.9], "fail"),
        # A tax most runs show fails even though its quietest run is under
        # the limit, where a minimum over runs would have passed it.
        ([2.1, 3.6, 3.5, 3.8, 3.3, 3.7, 3.5, 3.6, 3.4, 3.9], "fail"),
        ([2.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 4.0], "fail"),
        ([-8.6, -5.7, 2.3, 15.9, 2.7, -12.4, -10.5, -13.2, -3.1, -3.4], "unresolved"),
        # Wide samples stay unresolved even with every one over the limit.
        ([4.0, 12.0, 5.0, 14.0, 6.0, 13.0, 7.0, 15.0, 8.0, 16.0], "unresolved"),
        # q3 - q1 == 3 exactly: the spread cannot tell a pass from a fail.
        ([0.0, 0.0, 0.0, 3.0, 3.0, 3.0, 3.0], "unresolved"),
    ],
)
def test_verdict(samples, expected):
    gate = overheads.verdict(samples)
    assert gate["verdict"] == expected
    assert gate["n"] == len(samples)
    assert gate["q1_pct"] <= gate["median_pct"] <= gate["q3_pct"]


def test_verdict_reports_median_and_quartiles():
    gate = overheads.verdict([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    assert (gate["q1_pct"], gate["median_pct"], gate["q3_pct"]) == (2.0, 4.0, 6.0)
    assert gate["verdict"] == "unresolved"

