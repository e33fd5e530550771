"""Section III-B — memory scaling findings (reported as text in the paper).

Findings reproduced as a table:

* equivalent vertical/horizontal memory splits perform the same while
  neither swaps;
* "increasing memory limits did not speed up processing times";
* performance "drastically degraded" once the working set forces swap;
* "horizontally scaled instances are much more likely to swap compared to a
  single vertically scaled instance, given the same amount of memory"
  (the duplicated application footprint).
"""

import pytest

from repro.experiments.report import memory_table
from repro.experiments.section3 import memory_scaling_table


@pytest.fixture(scope="module")
def table():
    return memory_scaling_table()


@pytest.fixture(scope="module")
def rows(table):
    return {m.label: m for m in table}


def test_sec3b_regenerate(table):
    print()
    print(memory_table(table, title="Section III-B: memory vertical vs horizontal scaling"))


def test_sec3b_same_total_memory_horizontal_swaps(rows):
    assert not rows["vertical-512"].swapped
    assert rows["horizontal-2x256"].swapped


def test_sec3b_equivalent_when_no_swap(rows):
    assert rows["horizontal-2x448"].avg_response_time == pytest.approx(
        rows["vertical-512"].avg_response_time, rel=0.35
    )


def test_sec3b_more_memory_no_speedup(rows):
    assert rows["vertical-1024"].avg_response_time == pytest.approx(
        rows["vertical-512"].avg_response_time, rel=0.05
    )


def test_sec3b_swap_degrades_drastically(rows):
    assert rows["vertical-starved-224"].avg_response_time > 3.0 * rows["vertical-512"].avg_response_time
