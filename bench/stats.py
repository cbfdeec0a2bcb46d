"""The benchmark's own arithmetic, kept free of the package and of numpy so
the self-test can check it at toy sizes."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile that still has at least TAIL_BEYOND samples
    beyond it, by nearest rank: (value, percentile, sample count)."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    rank = n - TAIL_BEYOND
    return sorted(samples)[rank - 1], 100.0 * rank / n, n


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the time its child spans cover.  Spans come
    from one thread, so a span's children never overlap one another."""
    dur = [e - s for s, e in zip(start, end)]
    covered = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    return [d - c for d, c in zip(dur, covered)]


def per_name(names: list[str], name_id, parent, start, end) -> dict[str, dict[str, float]]:
    """calls, self_ms and ms (inclusive) for every span name, zero when unused."""
    out = {name: {"calls": 0, "self_ms": 0.0, "ms": 0.0} for name in names}
    for nid, own, s, e in zip(name_id, self_times(parent, start, end), start, end):
        row = out[names[nid]]
        row["calls"] += 1
        row["self_ms"] += own * 1000
        row["ms"] += (e - s) * 1000
    return out


def summarize(passes: list[dict]) -> dict:
    """End-to-end figures over every op of every pass.  An op's latency is
    the median of its times over the passes that ran it, which keeps
    one-off stalls of a shared machine out of the percentiles.  Failed ops
    stay in the number attempted and in the latency samples."""
    ops = [op for p in passes for op in p["ops"]]
    times: dict[tuple, list[float]] = {}
    for op in ops:
        times.setdefault(tuple(op["key"]), []).append(op["ms"])
    latencies = [statistics.median(times[tuple(op["key"])]) for op in ops]
    tail_ms, tail_pct, n = tail(latencies)
    failed = sum(not op["ok"] for op in ops)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_tail": tail_ms,
        "tail_pct": tail_pct,
        "attempted": n,
        "failed": failed,
        "failed_frac": failed / n,
    }
