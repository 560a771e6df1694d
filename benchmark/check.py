"""Output check for one finished `sysrisk run` directory.

Digests pin the outputs byte for byte where a reference was recorded. The
invariants hold for every correct run at any seed: a completed, certified,
non-degenerate manifest, monotone 0/1 labels, both frontiers antichains equal
to the minimal acceptable and maximal unacceptable lattice points, the outer
frontier one spacing below acceptable points, and EAR minimizers taken from
the inner frontier.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

OUTPUTS = ("labels.csv", "inner_frontier.csv", "outer_frontier.csv")


def digests(outdir) -> dict:
    """sha256 of the labels, both frontiers and the EAR minimizers."""
    outdir = Path(outdir)
    out = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in OUTPUTS}
    ear = json.loads((outdir / "ear.json").read_text())
    minimizers = json.dumps([r["minimizers"] for r in ear["results"]])
    out["ear_minimizers"] = hashlib.sha256(minimizers.encode()).hexdigest()
    return out


def _read_points(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _indices(points: np.ndarray, axes) -> np.ndarray:
    """Lattice indices of coordinate rows; raises if a coordinate is off the lattice."""
    idx = np.empty(points.shape, dtype=int)
    for d, axis in enumerate(axes):
        pos = np.clip(np.searchsorted(axis, points[:, d]), 0, axis.size - 1)
        if not np.array_equal(axis[pos], points[:, d]):
            raise ValueError(f"frontier coordinate off the lattice in dimension {d + 1}")
        idx[:, d] = pos
    return idx


def _is_antichain(idx: np.ndarray) -> bool:
    for i, row in enumerate(idx):
        below = (idx <= row).all(axis=1)
        below[i] = False
        if below.any():
            return False
    return True


def _extreme(labels: np.ndarray, value: int, step: int) -> set:
    """Points labelled value with no neighbour labelled value one step away (step -1: below)."""
    keep = labels == value
    for d in range(labels.ndim):
        same = labels == value
        shifted = np.zeros_like(same)
        if step < 0:
            shifted[(slice(None),) * d + (slice(1, None),)] = same[(slice(None),) * d + (slice(None, -1),)]
        else:
            shifted[(slice(None),) * d + (slice(None, -1),)] = same[(slice(None),) * d + (slice(1, None),)]
        keep &= ~shifted
    return {tuple(int(v) for v in row) for row in np.argwhere(keep)}


def invariant_problems(outdir) -> list[str]:
    """Every broken invariant of one run directory, as readable messages."""
    outdir = Path(outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    problems = []
    if manifest.get("status") != "completed":
        problems.append(f"manifest status {manifest.get('status')!r}")
    if manifest.get("certified") is not True:
        problems.append("sandwich not certified")
    if manifest.get("degenerate") is not None:
        problems.append(f"degenerate box {manifest.get('degenerate')!r}")

    table = _read_points(outdir / "labels.csv")
    coords, flat = table[:, :-1], table[:, -1]
    axes = [np.unique(coords[:, d]) for d in range(coords.shape[1])]
    shape = tuple(a.size for a in axes)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    if flat.size != int(np.prod(shape)) or not np.array_equal(grid, coords):
        return problems + ["labels.csv is not the full lattice in lexicographic order"]
    if not np.isin(flat, (0, 1)).all():
        return problems + ["labels outside {0, 1}"]
    labels = flat.astype(np.int8).reshape(shape)
    for d in range(labels.ndim):
        if (np.diff(labels, axis=d) < 0).any():
            problems.append(f"labels not monotone along dimension {d + 1}")

    inner = _indices(_read_points(outdir / "inner_frontier.csv"), axes)
    outer = _indices(_read_points(outdir / "outer_frontier.csv"), axes)
    for name, idx in (("inner", inner), ("outer", outer)):
        if not _is_antichain(idx):
            problems.append(f"{name} frontier is not an antichain")
    if {tuple(int(v) for v in r) for r in inner} != _extreme(labels, 1, -1):
        problems.append("inner frontier differs from the minimal acceptable points")
    if {tuple(int(v) for v in r) for r in outer} != _extreme(labels, 0, +1):
        problems.append("outer frontier differs from the maximal unacceptable points")
    res = np.array(shape)
    for o in outer:
        up = o + 1
        if (up < res).all() and labels[tuple(up)] != 1:
            problems.append(f"sandwich broken at lattice index {tuple(int(v) for v in o)}")
            break

    frontier = {tuple(r) for r in _read_points(outdir / "inner_frontier.csv")}
    ear = json.loads((outdir / "ear.json").read_text())
    for result in ear["results"]:
        if not result["minimizers"] or any(tuple(m) not in frontier for m in result["minimizers"]):
            problems.append(f"EAR minimizers for w={result['weights']} not on the inner frontier")
    return problems
