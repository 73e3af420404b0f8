"""Baseline writer / comparator for benchmark regression gating.

A benchmark that wants a regression gate measures a *speedup ratio*
(optimized path vs reference path, both timed in the same run on the
same machine) per workload key and stores those ratios in a committed
``BENCH_<name>.json`` baseline.  Gating on ratios rather than absolute
seconds makes the gate machine-portable: a slower CI box slows both
paths, the ratio survives.

Baseline format::

    {
      "bench": "kernel",
      "threshold": 1.3,
      "entries": {
        "product_chain/n=32": {"speedup": 7.2,
                               "reference_s": 0.48, "optimized_s": 0.066},
        ...
      }
    }

A baseline may gate another higher-is-better number than the ratio: its
optional ``"metric"`` field names the entry field compared (the service
bench gates absolute warm ``req_per_s`` per concurrency level, because
a ratio of two noisy throughputs tripped on host noise).

``compare`` flags a key when the current value has degraded by more
than ``threshold`` relative to the committed one (``baseline >
threshold * current``).  Keys measured now but absent from the baseline
are ignored (new workloads need a baseline refresh, not a failure);
baseline keys not measured now are only checked when present in the
current run, so a ``--smoke`` subset gates just the entries it ran.
"""

from __future__ import annotations

import json
import os

DEFAULT_THRESHOLD = 1.3
DEFAULT_METRIC = "speedup"


def baseline_path(name: str) -> str:
    """``BENCH_<name>.json`` at the repository root."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.join(root, f"BENCH_{name}.json")


def load_baseline(path: str) -> dict | None:
    """The parsed baseline, or ``None`` when none has been committed."""
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def write_baseline(
    path: str,
    name: str,
    entries: dict[str, dict],
    threshold: float = DEFAULT_THRESHOLD,
    metric: str = DEFAULT_METRIC,
) -> None:
    """Write ``entries`` (key -> {"speedup": ..., ...}) as the baseline;
    ``metric`` names the gated field when it is not ``speedup``."""
    payload = {
        "bench": name,
        "threshold": threshold,
        "entries": {key: dict(value) for key, value in sorted(entries.items())},
    }
    if metric != DEFAULT_METRIC:
        payload["metric"] = metric
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote baseline {path} ({len(entries)} entries)")


def compare(baseline: dict, entries: dict[str, dict]) -> list[str]:
    """Regression messages for current ``entries`` against ``baseline``.

    Empty list means every measured key is within ``threshold`` of its
    committed value of the baseline's metric.
    """
    threshold = float(baseline.get("threshold", DEFAULT_THRESHOLD))
    metric = baseline.get("metric", DEFAULT_METRIC)
    committed = baseline.get("entries", {})
    problems = []
    for key, current in sorted(entries.items()):
        ref = committed.get(key)
        if ref is None:
            continue  # new workload: needs a baseline refresh, not a failure
        base_value = float(ref[metric])
        cur_value = float(current[metric])
        if base_value > threshold * cur_value:
            problems.append(
                f"{key}: {metric} {cur_value:.2f} is >{threshold:g}x worse "
                f"than committed {base_value:.2f}"
            )
    return problems


def gate(name: str, entries: dict[str, dict]) -> int:
    """Compare against the committed baseline; 0 = pass, 1 = regression.

    A missing baseline fails too — the gate is only meaningful once
    ``BENCH_<name>.json`` is committed (write it with the benchmark's
    ``--write-baseline`` flag).
    """
    path = baseline_path(name)
    baseline = load_baseline(path)
    if baseline is None:
        print(f"no committed baseline at {path}; run with --write-baseline first")
        return 1
    problems = compare(baseline, entries)
    if problems:
        print(f"REGRESSION against {os.path.basename(path)}:")
        for p in problems:
            print(f"  {p}")
        # Full per-shape table, not just the aggregate verdict: CI logs
        # must be enough to see *which* shapes drifted and by how much.
        metric = baseline.get("metric", DEFAULT_METRIC)
        committed = baseline.get("entries", {})
        print(f"per-shape observed vs committed {metric}:")
        for key, current in sorted(entries.items()):
            ref = committed.get(key)
            cur_value = float(current[metric])
            if ref is None:
                print(f"  {key}: {cur_value:.2f} (no committed baseline)")
                continue
            base_value = float(ref[metric])
            ratio = cur_value / base_value if base_value else float("inf")
            print(
                f"  {key}: {cur_value:.2f} vs committed "
                f"{base_value:.2f} ({ratio:.2f} of baseline)"
            )
        return 1
    checked = sum(1 for k in entries if k in baseline.get("entries", {}))
    print(
        f"bench-compare: {checked} entries within "
        f"{baseline.get('threshold', DEFAULT_THRESHOLD):g}x of "
        f"{os.path.basename(path)}"
    )
    return 0
