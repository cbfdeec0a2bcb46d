"""Toy-size checks of the benchmark's own arithmetic.  run.py runs them
before every run; they also run alone:  python3 bench/selftest.py"""

from __future__ import annotations

import stats


def check() -> None:
    # tail rule: 40 samples -> rank 30, p75, with exactly 10 samples above it
    value, pct, n = stats.tail([float(v) for v in range(40, 0, -1)])
    assert (value, pct, n) == (30.0, 75.0, 40), (value, pct, n)
    value, pct, n = stats.tail([5.0] * 11)
    assert (value, pct, n) == (5.0, 100.0 / 11, 11), (value, pct, n)
    try:
        stats.tail([1.0] * 10)
    except ValueError:
        pass
    else:
        raise AssertionError("ten samples leave no percentile with ten beyond")

    # self time: root 0..10 with children 1..4 and 5..9; the first child has
    # a grandchild 2..3, the second has none
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert stats.self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0]
    rows = stats.per_name(["root", "leaf"], [0, 1, 1, 1], parent, start, end)
    assert rows["root"] == {"calls": 1, "self_ms": 3000.0, "ms": 10000.0}, rows
    assert rows["leaf"] == {"calls": 3, "self_ms": 7000.0, "ms": 8000.0}, rows

    # failed ops are counted and keep their latency
    ops = [{"key": [i], "ms": float(i), "ok": i % 4 != 0} for i in range(1, 13)]
    summary = stats.summarize([{"wall_s": 2.0, "ops": ops[:6]}, {"wall_s": 4.0, "ops": ops[6:]}])
    assert summary["attempted"] == 12 and summary["failed"] == 3, summary
    assert summary["failed_frac"] == 0.25 and summary["wall_s"] == 3.0, summary
    assert summary["op_ms_p50"] == 6.5 and summary["op_ms_tail"] == 2.0, summary

    # an op run in three passes counts three times at its median time: op k
    # takes k, k+11 and k+22 ms, so the samples are 11..21 ms, three of each
    ops = [{"key": [i % 11], "ms": float(i), "ok": True} for i in range(33)]
    summary = stats.summarize([{"wall_s": 1.0, "ops": ops}])
    assert summary["attempted"] == 33 and summary["op_ms_p50"] == 16.0, summary
    assert summary["op_ms_tail"] == 18.0, summary  # raw times would give 22


if __name__ == "__main__":
    check()
    print("selftest passed")
