#!/usr/bin/env python3
"""Compare two sets of ``run.py --out`` result files, A (parent) and B.

    python3 bench/compare.py --a a1.json a2.json ... --b b1.json b2.json ...

Run the two sides alternately (A, B, B, A, ...), at least five runs a
side and ten for a claim; the i-th file of each side forms a pair.  For
every (metric, workload) this prints both medians and quartiles and one
verdict:

* **improved** — B wins at least 9/10 of the pairs (ties count for
  neither) *and* the medians differ by more than the distance between
  A's own quartiles;
* **regressed** — B's median is worse than A's by more than the
  metric's bound (``BENCHMARK.json``), and either A's spread is within
  the bound or A wins by the same 9/10-and-beyond-the-IQR rule;
* **unresolved** — A's inter-quartile spread is wider than the bound,
  so neither "unchanged" nor "regressed" can be told apart;
* **unchanged** — everything else.

Metrics without a bound (per-layer) get improved / worse / unchanged by
the pair rule alone.  A/A (both sides the same commit) must come out
with no ``improved`` and no ``regressed``; exit status is 1 if any
end-to-end pair regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from stats import quartiles  # noqa: E402

WIN_SHARE = 0.9
BETTER: Dict[str, str] = {name: better for name, _u, better, *_ in END_TO_END + PER_LAYER}
BOUND: Dict[str, float] = {name: bound for name, _u, _b, bound in END_TO_END}

Key = Tuple[str, str]  # (workload, metric)


def load_side(paths: Sequence[str]) -> Dict[Key, List[float]]:
    """(workload, metric) -> one value per result file, in file order."""
    side: Dict[Key, List[float]] = {}
    for path in paths:
        with open(path) as fh:
            document = json.load(fh)
        for workload, result in document["workloads"].items():
            values = {m: v["value"] for m, v in result["metrics"].items()}
            values.update(result.get("layers", {}))
            for metric, value in values.items():
                side.setdefault((workload, metric), []).append(float(value))
    return side


def worse_by(metric: str, parent: float, change: float) -> float:
    """How much worse ``change`` is than ``parent``, as a share of
    ``parent`` (negative when it is better)."""
    if parent == 0:
        return 0.0
    delta = (change - parent) / abs(parent)
    return -delta if BETTER.get(metric, "lower") == "higher" else delta


def verdict(
    metric: str, a: Sequence[float], b: Sequence[float],
    bound: Optional[float] = None,
) -> Dict[str, float]:
    """Medians, quartiles, pair wins and the verdict for one metric."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    pairs = list(zip(a, b))
    b_wins = sum(1 for x, y in pairs if worse_by(metric, x, y) < 0)
    a_wins = sum(1 for x, y in pairs if worse_by(metric, x, y) > 0)
    iqr = a_q3 - a_q1
    beyond = abs(b_med - a_med) > iqr
    worse = worse_by(metric, a_med, b_med)
    b_clear = bool(pairs) and b_wins >= WIN_SHARE * len(pairs) and beyond and worse < 0
    a_clear = bool(pairs) and a_wins >= WIN_SHARE * len(pairs) and beyond and worse > 0
    spread = iqr / abs(a_med) if a_med else 0.0
    if b_clear:
        label = "improved"
    elif bound is None:
        label = "worse" if a_clear else "unchanged"
    elif worse > bound and (spread <= bound or a_clear):
        label = "regressed"
    elif spread > bound:
        label = "unresolved"
    else:
        label = "unchanged"
    return {
        "a_median": a_med, "a_q1": a_q1, "a_q3": a_q3,
        "b_median": b_med, "b_q1": b_q1, "b_q3": b_q3,
        "pairs": len(pairs), "b_wins": b_wins, "a_wins": a_wins,
        "a_spread": spread, "worse_by": worse, "verdict": label,
    }


def compare(
    side_a: Dict[Key, List[float]], side_b: Dict[Key, List[float]],
    layers: bool = False,
) -> Dict[Key, Dict[str, float]]:
    out: Dict[Key, Dict[str, float]] = {}
    for key in sorted(side_a):
        workload, metric = key
        if key not in side_b or (metric not in BOUND and not layers):
            continue
        out[key] = verdict(metric, side_a[key], side_b[key], BOUND.get(metric))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", nargs="+", required=True, metavar="FILE",
                        help="result files of the parent commit")
    parser.add_argument("--b", nargs="+", required=True, metavar="FILE",
                        help="result files of the change")
    parser.add_argument("--layers", action="store_true",
                        help="also compare the per-layer metrics (no bounds)")
    parser.add_argument("--out", metavar="FILE", help="write the table as JSON")
    args = parser.parse_args(argv)

    rows = compare(load_side(args.a), load_side(args.b), args.layers)
    print(f"{'workload':<18} {'metric':<28} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'B wins':<7} {'A spread':<9} "
          f"{'bound':<6} verdict")
    for (workload, metric), r in rows.items():
        bound = BOUND.get(metric)
        print(
            f"{workload:<18} {metric:<28} "
            f"{r['a_median']:<11.5g} [{r['a_q1']:.5g}, {r['a_q3']:.5g}]".ljust(82)
            + f"{r['b_median']:<11.5g} [{r['b_q1']:.5g}, {r['b_q3']:.5g}]".ljust(35)
            + f"{r['b_wins']}/{r['pairs']}".ljust(8)
            + f"{r['a_spread']:.3f}".ljust(10)
            + (f"{bound:.2f}" if bound is not None else "-").ljust(7)
            + r["verdict"]
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                [dict(workload=w, metric=m, **r) for (w, m), r in rows.items()],
                fh, indent=2,
            )
            fh.write("\n")
    return 1 if any(
        r["verdict"] == "regressed" for (w, m), r in rows.items() if m in BOUND
    ) else 0


if __name__ == "__main__":
    sys.exit(main())
