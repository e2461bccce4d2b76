"""Output checks on one ``sprachbund all`` workspace.

The checks read only the manifests' ``members``/``pivot``/``shards`` and
``simmat.json``'s ``languages``/``values``; every other artifact is compared
as bytes only, so its format may change without touching the benchmark.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

UNCOMPARED = {"run.log"}


def digests(ws: Path) -> dict[str, str]:
    """SHA-256 of every file in the workspace except the run log."""
    return {str(p.relative_to(ws)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(ws.rglob("*"))
            if p.is_file() and p.name not in UNCOMPARED}


def workspace_bytes(ws: Path) -> int:
    return sum(p.stat().st_size for p in ws.rglob("*") if p.is_file())


def brute_force_pivot(members: list[str], values: np.ndarray,
                      index: dict[str, int]) -> str:
    """Member with the largest summed similarity to its cluster; ties to the
    smallest code."""
    codes = sorted(members)
    rows = [index[c] for c in codes]
    best, best_sum = None, float("-inf")
    for code, i in zip(codes, rows):
        total = float(values[i, rows].sum())
        if total > best_sum:
            best, best_sum = code, total
    return best


def check_workspace(ws: Path, languages: list[str], groups: list[list[str]],
                    ks: list[int]) -> list[str]:
    """Every way the workspace disagrees with the workload; empty if none."""
    errors = []
    simmat = json.loads((ws / "simmat.json").read_text(encoding="utf-8"))
    index = {code: i for i, code in enumerate(simmat["languages"])}
    values = np.asarray(simmat["values"], dtype=np.float64)
    if sorted(index) != sorted(languages):
        errors.append("simmat.json languages differ from the workload's")
    partitions: dict[int, set[frozenset]] = {}
    for k in ks:
        path = ws / f"manifest_k{k}.json"
        if not path.exists():
            errors.append(f"{path.name} is missing")
            continue
        clusters = json.loads(path.read_text(encoding="utf-8"))["clusters"]
        flat = [code for c in clusters for code in c["members"]]
        if len(clusters) != k:
            errors.append(f"{path.name}: {len(clusters)} clusters, expected {k}")
        if len(flat) != len(set(flat)):
            errors.append(f"{path.name}: clusters are not disjoint")
        if set(flat) != set(languages):
            errors.append(f"{path.name}: clusters do not cover every language")
        for c in clusters:
            if sorted(c["shards"]) != sorted(f"{m}.txt" for m in c["members"]):
                errors.append(f"{path.name}: shards do not match members")
            if c["pivot"] != brute_force_pivot(c["members"], values, index):
                errors.append(f"{path.name}: pivot {c['pivot']} is not the "
                              f"brute-force argmax")
        partitions[k] = {frozenset(c["members"]) for c in clusters}
    ordered = sorted(partitions)
    for coarse, fine in zip(ordered, ordered[1:]):
        if not all(any(part <= big for big in partitions[coarse])
                   for part in partitions[fine]):
            errors.append(f"manifest_k{fine} does not refine manifest_k{coarse}")
    g = len(groups)
    if g in partitions and partitions[g] != {frozenset(x) for x in groups}:
        errors.append(f"manifest_k{g} differs from the planted groups")
    return errors
