"""Paired A/B runs of ``perfbench/run.py`` between two revisions.

Usage, from anywhere inside the repository::

    python3 tools/paired.py PARENT CHANGE --workload job-star --pairs 10

``PARENT`` and ``CHANGE`` are git revisions, or ``WORKTREE`` for the
files of the current checkout as they are on disk (tracked and untracked,
ignored files left out). Each side is exported once into its own
directory under ``--scratch``: a revision by ``git archive``, which
leaves the repository's own metadata untouched, the worktree by copying
its files. Every run starts in that directory, as a benchmark run starts
in a fresh checkout, and lasts the ``run_seconds`` of the parent's
``BENCHMARK.json``, so both sides run as long as the benchmark does.

Pair ``i`` runs both sides on seed ``SEEDS[i]`` (held-out seed 104729
first), and pairs alternate which side runs first, so a drift of the
host in phases of minutes falls on both sides evenly (Kalibera & Jones,
"Rigorous Benchmarking in Reasonable Time", ISMM 2013). Per end-to-end
metric of ``BENCHMARK.json`` it prints the median of the per-pair ratios
CHANGE / PARENT, each side's quartiles and median, the pairs CHANGE
wins (ties excluded), the two-sided sign-test p-value, whether CHANGE's
median stays within the metric's ``bound`` of PARENT's in its worse
direction (``-`` when the metric has no bound), and whether the gap of
the medians exceeds the parent's interquartile range. The last
JSON line of every run goes to ``--out`` with its pair, side, seed and
order. A run that fails, or answers a query wrongly, stops the
comparison with its side, seed and the end of its stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

#: Pair ``i`` runs seed ``SEEDS[i]``; 104729 is the benchmark's held-out seed.
SEEDS = [104729, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45]
WORKTREE = "WORKTREE"
#: Lines of a bad run's stderr repeated when the comparison stops.
STDERR_LINES = 20


def git(*args: str, cwd: Path) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout


def export(rev: str, repo: Path, dest: Path) -> None:
    """The files of ``rev`` (or of the worktree) under ``dest``."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if rev == WORKTREE:
        files = git(
            "ls-files", "-z", "--cached", "--others", "--exclude-standard",
            cwd=repo,
        ).split("\0")
        for f in filter(None, files):
            src = repo / f
            if src.is_file():
                (dest / f).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / f)
        return
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=repo, check=True,
        capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(
    checkout: Path, side: str, workload: str, seed: int, seconds: float
) -> dict:
    """The last JSON line of one ``perfbench/run.py`` run in ``checkout``.

    A run that exits non-zero, prints no JSON last line or reports
    ``"correct": false`` stops the comparison: the side, the seed and
    the last lines of the run's stderr (its ``FAILED <query>`` lines) go
    to stderr, and the exit status is 1.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        res = None
    if proc.returncode:
        why = f"exited with status {proc.returncode}"
    elif not isinstance(res, dict):
        why = "printed no JSON last line"
    elif res.get("correct") is not True:
        why = f"reported correct: {json.dumps(res.get('correct'))}"
    else:
        return res
    tail = proc.stderr.strip().splitlines()[-STDERR_LINES:]
    print(f"{side} run of {workload} on seed {seed} {why}; last lines of "
          f"its stderr:", *(f"  {line}" for line in tail), sep="\n",
          file=sys.stderr)
    raise SystemExit(1)


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of ``wins`` against ``losses``."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def quartiles(xs: list[float]) -> list[float]:
    """First quartile, median and third quartile of ``xs``."""
    if len(xs) < 2:
        return [xs[0]] * 3
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return [q1, statistics.median(xs), q3]


def within_bound(parent: float, change: float, metric: dict) -> str:
    """``yes`` when ``change`` is worse than ``parent`` by at most the
    metric's relative ``bound``, ``no`` when by more, ``-`` unbounded."""
    bound = metric.get("bound")
    if bound is None:
        return "-"
    if metric["better"] == "higher":
        ok = change >= parent * (1 - bound)
    else:
        ok = change <= parent * (1 + bound)
    return "yes" if ok else "no"


def summarize(rows: list[dict], end_to_end: list[dict]) -> list[str]:
    """One line per metric: median ratio, wins, sign test, the bound
    check of the medians, IQR check."""
    pairs: dict[int, dict[str, dict]] = {}
    for r in rows:
        pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
    lines = [
        f"{'metric':<16} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
        f"{'ratio':>7} {'wins':>6} {'p':>7} {'in bound':>8}  gap>IQR"
    ]
    for m in end_to_end:
        name, higher = m["name"], m["better"] == "higher"
        both = [
            (p["parent"][name]["value"], p["change"][name]["value"])
            for p in pairs.values()
            if name in p.get("parent", {}) and name in p.get("change", {})
        ]
        if not both:
            continue
        a = [x for x, _ in both]
        b = [y for _, y in both]
        ratios = [y / x for x, y in both if x]
        wins = sum((y > x) if higher else (y < x) for x, y in both)
        losses = sum((y < x) if higher else (y > x) for x, y in both)
        qa, qb = quartiles(a), quartiles(b)
        gap = abs(qb[1] - qa[1])
        lines.append(
            f"{name:<16} {'/'.join(f'{x:.4g}' for x in qa):>30} "
            f"{'/'.join(f'{x:.4g}' for x in qb):>30} "
            f"{statistics.median(ratios) if ratios else float('nan'):>7.3f} "
            f"{wins:>2}/{len(both):<3} {sign_test(wins, losses):>7.4f} "
            f"{within_bound(qa[1], qb[1], m):>8}  "
            f"{'yes' if gap > qa[2] - qa[0] else 'no'}"
        )
    return lines


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--scratch", type=Path, default=Path("/tmp/paired"))
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    if not 1 <= args.pairs <= len(SEEDS):
        p.error(f"--pairs must be in 1..{len(SEEDS)}")
    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()).strip())
    sides = {
        side: rev if rev == WORKTREE else git("rev-parse", rev, cwd=repo).strip()
        for side, rev in (("parent", args.parent), ("change", args.change))
    }
    dirs = {}
    for side, rev in sides.items():
        dirs[side] = args.scratch / side
        export(rev, repo, dirs[side])
    bench = json.loads((dirs["parent"] / "BENCHMARK.json").read_text())
    out = args.out or args.scratch / f"paired-{args.workload}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    with out.open("w") as fh:
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for k, side in enumerate(order):
                res = run_once(
                    dirs[side], side, args.workload, SEEDS[i],
                    bench["run_seconds"],
                )
                row = {
                    "pair": i, "side": side, "rev": sides[side],
                    "seed": SEEDS[i], "order": k, "workload": args.workload,
                    "result": res,
                }
                rows.append(row)
                fh.write(json.dumps(row) + "\n")
                fh.flush()
                qps = res["metrics"].get("throughput_qps", {}).get("value")
                print(f"pair {i} seed {SEEDS[i]} {side}: {qps:.1f} q/s",
                      file=sys.stderr)
    print(f"{args.workload}: {args.parent} -> {args.change}, "
          f"{args.pairs} pairs, raw runs in {out}")
    print("\n".join(summarize(rows, bench["end_to_end"])))


if __name__ == "__main__":
    main()
