"""Output check against reference outputs recorded from the seed commit.

References live in ``reference/``: one manifest per workload and input
(``<workload>-<data seed>-<start price>.json``, mapping output name to
SHA-256) and the recorded CSVs, xz-compressed and named by hash in
``reference/blobs/``.
A byte-identical output passes. Any other output passes only if it has the
same header, row count and non-numeric cells, and every numeric cell is
within the tolerance below. Tick files are compared by hash alone: their
bytes are the program's contract (``%.12g`` prices), so any change is wrong.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import lzma
import math
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "reference"

# Tolerances as (rtol, atol) on |got - want| <= atol + rtol * |want|, per
# output file stem. A key other than "*" names a column or, for row-keyed
# files such as garch.csv, the value of a row's first cell; None exempts it.
TOLERANCES = {
    # Ledger arithmetic on recorded prices along a fixed decision path: only
    # a different summation order may move these, by a few ulps.
    "trades": {"*": (1e-9, 1e-9)},
    "equity": {"*": (1e-9, 0.0)},
    # Ratios of the equity curve (returns, alpha, beta, Sharpe): far tighter
    # than any change a different trade would make, looser than reordering.
    "report": {"*": (1e-7, 1e-12)},
    # delta1 is a grid value nudged by VPIN; vpin is a bucket mean in [0, 1].
    "signals": {"*": (1e-6, 1e-12)},
    "vpin": {"*": (1e-9, 1e-12)},
    # L-BFGS stops at gtol 1e-7 in the transformed parameters, so a valid
    # change of path (a warm start, a reordered likelihood sum) lands within
    # about 1e-5 of the same optimum; 1e-4 still fails any other model. The
    # log-likelihood is flat at the optimum and moves only at second order.
    # Standard errors come from a finite-difference Hessian. The iteration
    # count describes the optimizer's path, not the result.
    "garch": {"*": (1e-4, 1e-12), "std_error": (1e-3, 1e-12),
              "log_likelihood": (1e-9, 0.0), "iterations": None},
    # Test statistics and p-values of closed-form regressions.
    "diagnostics": {"*": (1e-6, 1e-9)},
}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _stem(name: str) -> str:
    return name.split(".")[0].split("_")[0]


def hash_only(name: str) -> bool:
    return _stem(name) not in TOLERANCES


def record(key: str, files: dict[str, Path]) -> None:
    """Store `files` as the reference outputs named `key`."""
    blobs = REF_DIR / "blobs"
    blobs.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for name, path in sorted(files.items()):
        digest = sha256(path)
        manifest[name] = digest
        blob = blobs / f"{digest}.xz"
        if not hash_only(name) and not blob.exists():
            blob.write_bytes(lzma.compress(path.read_bytes(), preset=9))
    (REF_DIR / f"{key}.json").write_text(json.dumps(manifest, indent=1) + "\n")


def load_manifest(key: str) -> dict[str, str] | None:
    path = REF_DIR / f"{key}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _number(cell: str) -> float | None:
    # integer-looking cells (timestamps, quantities, counts) must match exactly
    if cell.lstrip("-").isdigit():
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(got: str, want: str, tolerances: dict) -> str | None:
    """None when `got` matches `want` within `tolerances`, else the reason."""
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    if not got_rows or got_rows[0] != want_rows[0]:
        return "header differs"
    if len(got_rows) != len(want_rows):
        return f"{len(got_rows) - 1} rows, reference has {len(want_rows) - 1}"
    header = want_rows[0]
    for lineno, (g_row, w_row) in enumerate(zip(got_rows, want_rows), start=1):
        if len(g_row) != len(w_row):
            return f"line {lineno}: {len(g_row)} fields, reference has {len(w_row)}"
        for col, (g, w) in enumerate(zip(g_row, w_row)):
            if g == w:
                continue
            key = w_row[0] if w_row[0] in tolerances else header[col]
            tol = tolerances.get(key, tolerances["*"])
            if tol is None:
                continue
            g_num, w_num = _number(g), _number(w)
            if g_num is None or w_num is None:
                return f"line {lineno} {header[col]}: {g!r}, reference {w!r}"
            rtol, atol = tol
            if math.isnan(g_num) and math.isnan(w_num):
                continue
            if not abs(g_num - w_num) <= atol + rtol * abs(w_num):
                return (f"line {lineno} {header[col]}: {g}, reference {w} "
                        f"(tolerance rtol {rtol:g} atol {atol:g})")
    return None


def check_file(name: str, path: Path, want_hash: str) -> str | None:
    """None when the output at `path` matches its reference, else the reason."""
    if not path.is_file():
        return f"{name}: missing"
    if sha256(path) == want_hash:
        return None
    if hash_only(name):
        return f"{name}: bytes differ from the reference"
    want = lzma.decompress((REF_DIR / "blobs" / f"{want_hash}.xz").read_bytes())
    reason = compare_csv(path.read_text(encoding="utf-8"), want.decode("utf-8"),
                         TOLERANCES[_stem(name)])
    return None if reason is None else f"{name}: {reason}"
