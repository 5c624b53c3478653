"""Correctness gate: simulated statistics are an identity, not a metric.

Every cell result the benchmark sees is reduced to a digest of its full
``stats.dump()``.  A run passes only if

* every source of the same cells in the run (repeated cold sweeps, the
  corpus build and the warm sweeps, the serve tier's store, the CLI's
  store) agrees cell for cell;
* the digests match the pinned ones in ``golden.json`` for seeds that
  have a pin (the default benchmark scale only);
* N and L checksums agree per (app, line size), because relocation must
  not change any value the program loads.

Functions here take plain dicts, so the tests can inject a mismatch.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")


class GateError(AssertionError):
    """The program's outputs are wrong; the run must fail."""


def stats_digest(dump: dict) -> str:
    return hashlib.sha256(json.dumps(dump, sort_keys=True).encode()).hexdigest()


def matrix_digest(cells: dict[str, dict]) -> str:
    """One digest over every cell's stats digest, in cell-id order."""
    sha = hashlib.sha256()
    for cell_id in sorted(cells):
        sha.update(f"{cell_id}={cells[cell_id]['digest']}\n".encode())
    return sha.hexdigest()


def check_same_cells(reference: dict[str, dict], other: dict[str, dict],
                     what: str) -> None:
    """``other`` must hold exactly the reference's cells, digest for digest."""
    if set(reference) != set(other):
        missing = sorted(set(reference) ^ set(other))[:4]
        raise GateError(f"{what}: cell sets differ (e.g. {missing})")
    for cell_id in sorted(reference):
        for key in ("digest", "checksum"):
            if reference[cell_id][key] != other[cell_id][key]:
                raise GateError(
                    f"{what}: cell {cell_id} {key} differs "
                    f"({reference[cell_id][key]!r} vs {other[cell_id][key]!r})"
                )


def check_checksums(cells: dict[str, dict]) -> None:
    """N and L of one (app, line size) must load the same values."""
    pairs: dict[str, dict[str, int]] = {}
    for cell_id, cell in cells.items():
        app, line, variant = cell_id.split("/")
        pairs.setdefault(f"{app}/{line}", {})[variant] = cell["checksum"]
    for pair, variants in sorted(pairs.items()):
        if len(set(variants.values())) != 1:
            raise GateError(f"checksums differ across variants of {pair}: {variants}")


def check_golden(cells: dict[str, dict], seed: int, scale: float) -> bool:
    """Compare with the pinned digest; returns whether a pin existed."""
    golden = json.loads(GOLDEN_PATH.read_text())
    if scale != golden["scale"]:
        return False
    pinned = golden["matrix_digest"].get(str(seed))
    if pinned is None:
        return False
    actual = matrix_digest(cells)
    if actual != pinned:
        raise GateError(
            f"seed {seed}: simulated stats digest {actual[:16]} differs from "
            f"the pinned {pinned[:16]}"
        )
    return True


def check_matrix(sources: list[tuple[str, dict[str, dict]]], seed: int,
                 scale: float) -> bool:
    """The full gate over every source of the Figure-5 cells in one run."""
    if not sources:
        raise GateError("no cell results to check")
    name, reference = sources[0]
    if not reference:
        raise GateError(f"{name}: no cells")
    for other_name, other in sources[1:]:
        check_same_cells(reference, other, f"{name} vs {other_name}")
    check_checksums(reference)
    return check_golden(reference, seed, scale)
