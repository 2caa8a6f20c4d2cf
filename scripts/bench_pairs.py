"""Compare a parent commit with this checkout on the perfbench workloads.

The parent is exported with ``git archive`` into a work directory; the
change is the checkout this script sits in, as its files are now. For
every workload, N pairs of ``perfbench/run.py --trace 0`` runs alternate
which side goes first (even pairs parent first). With ``--traced`` each
side then makes one ``--trace 1`` run of each workload named there. The
result file holds every run's value, and per metric and workload the
medians, quartiles, how many pairs the change won and a verdict, and the
line count of ``src/raceopt/*.py`` on each side. The verdicts are also
printed as each workload finishes.

Run from anywhere, e.g.:

    python3 scripts/bench_pairs.py --parent HEAD~1 --seed 21 --pairs 10 \\
        --workloads implicit-gauss grid-batch score-campaign \\
        --traced implicit-gauss grid-batch --out BENCH_topic.json

Runs happen one at a time, each ``--seconds 30`` long as the benchmark
fixes it, on both sides alike. A claim needs at least 10 pairs, so fewer
are refused.
"""
from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHA_LINE = re.compile(r"output sha256 (\[.*\])")
SECONDS = 30  # the run length perfbench/README.md fixes
MIN_PAIRS = 10


def export(rev: str, dest: Path) -> str:
    """Write the files of commit ``rev`` into ``dest``; return its full hash."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], check=True,
                            capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return commit


def src_lines(checkout: Path) -> int:
    """Lines of ``src/raceopt/*.py`` in ``checkout``, counted as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "raceopt").glob("*.py"))


def run_once(checkout: Path, workload: str, seed: int, trace: bool) -> dict:
    """One perfbench invocation in ``checkout``: its verdict, metric values and digests."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    sha = SHA_LINE.search(proc.stderr)
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "failures": [line for line in proc.stderr.splitlines() if line.startswith("FAILED")],
        "output_sha256": json.loads(sha.group(1).replace("'", '"')) if sha else [],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _spread(values: list[float]) -> dict:
    """Median and quartiles (linear interpolation, as numpy's default) of the runs."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": list(values)}


def summarize(parent: list[float], change: list[float], better: str,
              bound: float | None = None) -> dict:
    """Compare one metric over paired runs; ``parent[i]`` and ``change[i]`` form pair i.

    ``better`` is "lower" or "higher". ``worse_by`` is the relative move of
    the change's median in the worse direction (negative: it got better),
    and the gap counts only when the change's median is the better one and
    lies further from the parent's than the parent's interquartile range.

    ``verdict`` is the first that holds of: "gain", the change won at least
    9 pairs in 10 and the gap counts; "worse", ``worse_by`` is above
    ``bound``; "unresolved", the parent's interquartile range is more than
    ``bound`` of its median and some change run does not beat every parent
    run; "flat". Without a bound only "gain" and "flat" are given.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of parent and change runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    p, c = _spread(parent), _spread(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    iqr = p["q3"] - p["q1"]
    gap = sign * (p["median"] - c["median"])
    worse_by = sign * (c["median"] - p["median"]) / p["median"] if p["median"] else None
    beats_all = all(sign * (b - a) < 0 for a in parent for b in change)
    if 10 * wins >= 9 * len(parent) and gap > iqr:
        verdict = "gain"
    elif bound is not None and worse_by is not None and worse_by > bound:
        verdict = "worse"
    elif bound is not None and iqr > bound * abs(p["median"]) and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "flat"
    return {
        "parent": p,
        "change": c,
        "change_wins": f"{wins}/{len(parent)}",
        "worse_by": worse_by,
        "bound": bound,
        "parent_iqr": iqr,
        "gap_exceeds_parent_iqr": gap > iqr,
        "verdict": verdict,
    }


def _pairs(sides: dict, workload: str, args) -> dict:
    runs = {"parent": [], "change": []}
    first = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            runs[side].append(run_once(sides[side], workload, args.seed, False))
        print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{side} wall_s {runs[side][-1]['metrics'].get('wall_s')}" for side in order),
            file=sys.stderr, flush=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_runs = runs["parent"] + runs["change"]
    metrics = {
        m["name"]: summarize([run["metrics"][m["name"]] for run in runs["parent"]],
                             [run["metrics"][m["name"]] for run in runs["change"]],
                             m["better"], m["bound"])
        for m in spec["end_to_end"]
    }
    for name, s in metrics.items():
        print(f"{workload} {name}: {s['verdict']} (median {s['parent']['median']} -> "
              f"{s['change']['median']}, change won {s['change_wins']})",
              file=sys.stderr, flush=True)
    return {
        "seed": args.seed,
        "pairs": args.pairs,
        "first_in_pair": first,
        "all_correct": all(run["correct"] for run in all_runs),
        "failed": {side: sum(run["failed"] for run in runs[side]) for side in runs},
        "attempted": {side: sum(run["attempted"] for run in runs[side]) for side in runs},
        "output_sha256": sorted({sha for run in all_runs for sha in run["output_sha256"]}),
        "failures": sorted({line for run in all_runs for line in run["failures"]}),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--traced", nargs="*", default=[], help="workloads to trace once per side")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}, got {args.pairs}")
    work = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        parent_commit = export(args.parent, work / "parent")
        sides = {"parent": work / "parent", "change": ROOT}
        report = {
            "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                       f"--seconds {SECONDS} --trace 0",
            "method": "parent exported with git archive, change run from its checkout; "
                      "pairs alternate which side runs first; medians and quartiles over "
                      "the per-run values, each a median over that run's passes",
            "parent_commit": parent_commit,
            "src_lines": {side: src_lines(path) for side, path in sides.items()},
            "workloads": {w: _pairs(sides, w, args) for w in args.workloads},
            "traced": {
                w: {side: run_once(path, w, args.seed, True)
                    for side, path in sides.items()}
                for w in args.traced
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
