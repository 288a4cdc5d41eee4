"""Digest the CI step's CLI outputs under one pinned numeric environment.

Usage, from anywhere (standard library and numpy):

    python3 tools/golden.py        # rewrites tests/golden/outputs.json

The commands are the body of the ``examples`` shell function of the CI step
"README CLI examples, run twice and compared" (``.github/workflows/tier1.yml``),
run once by ``bash -e`` with ``sa-adapt`` bound to this interpreter's
``python -m sa_adapt.cli`` over this checkout's ``src``. Every file they write
inside the examples directory is digested with sha256; the ``bench`` report,
which holds measured durations, goes beside that directory and is not.

Output bytes follow the CPU as well as the thread count: OpenBLAS picks its
kernels, and numpy its SIMD loops, from the host's instruction set. So the
commands run with ``PINNED`` in their environment (one BLAS thread, the
Haswell kernels) and with numpy's dispatch capped at AVX2: every dispatched
feature above it that the host has is named in ``NPY_DISABLE_CPU_FEATURES``.
The digests hold only in that environment, on an x86-64 host with AVX2 and
with the numpy version and BLAS build recorded beside them;
``tests/test_golden.py`` skips on any other host.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x, whose digests would not match anyway
    from numpy.core import _multiarray_umath as umath

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
GOLDEN = ROOT / "tests" / "golden" / "outputs.json"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Haswell"}
# numpy's x86 feature names at or below AVX2 (the Haswell set); 2.x groups them
# as X86_V2 and X86_V3
UP_TO_AVX2 = {
    "MMX", "SSE", "SSE2", "SSE3", "SSSE3", "SSE41", "POPCNT", "SSE42", "AVX", "F16C",
    "FMA3", "AVX2", "X86_V2", "X86_V3",
}


def blas_build() -> str:
    """numpy's BLAS library and its build configuration."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas.get('openblas configuration', blas.get('version'))}"


def unpinnable(recorded: dict) -> str | None:
    """Why this host cannot reproduce digests made in the ``recorded``
    environment ({"numpy": version, "blas": build}), or None."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"the digests need an x86-64 host; this one is {platform.machine()}"
    if not umath.__cpu_features__.get("AVX2"):
        return "the digests need AVX2, which this CPU lacks"
    made = "the digests were made with"
    if np.__version__ != recorded["numpy"]:
        return f"{made} numpy {recorded['numpy']}; this host has {np.__version__}"
    if blas_build() != recorded["blas"]:
        return f"{made} BLAS {recorded['blas']!r}; this host has {blas_build()!r}"
    return None


def pinned_env() -> dict[str, str]:
    """The environment the examples run in: ours, ``PINNED`` and the AVX2 cap."""
    above = [
        f for f in umath.__cpu_dispatch__
        if umath.__cpu_features__.get(f) and f not in UP_TO_AVX2
    ]
    return {
        **os.environ, **PINNED,
        "NPY_DISABLE_CPU_FEATURES": " ".join(above),
        "PYTHONPATH": str(ROOT / "src"),
    }


def examples_function() -> str:
    """The ``examples() { ... }`` definition of the CI step, dedented."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == "examples() {")
    indent = lines[start][: len(lines[start]) - len(lines[start].lstrip())]
    end = next(i for i in range(start + 1, len(lines)) if lines[i] == indent + "}")
    return "\n".join(line[len(indent):] for line in lines[start : end + 1])


def run_examples(work: Path) -> dict[str, str]:
    """Run the CI examples in ``work/out``; {relative path: sha256} of each file."""
    out = work / "out"
    out.mkdir(parents=True)
    script = (
        f'sa-adapt() {{ "{sys.executable}" -m sa_adapt.cli "$@"; }}\n'
        f'{examples_function()}\nexamples "$1"\n'
    )
    proc = subprocess.run(
        ["bash", "-e", "-c", script, "examples", str(out)],
        env=pinned_env(), capture_output=True, text=True, check=False,
    )
    if proc.returncode:
        raise RuntimeError(f"the CI examples failed ({proc.returncode}):\n{proc.stderr}")
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def changed_files(recorded: dict[str, str], found: dict[str, str]) -> list[str]:
    """Each file whose digest differs, or that only one side has, labelled."""
    changed = []
    for name in sorted(recorded.keys() | found.keys()):
        if recorded.get(name) != found.get(name):
            state = "missing" if name not in found else "new" if name not in recorded else "changed"
            changed.append(f"{name} ({state})")
    return changed


def main() -> int:
    environment = {"numpy": np.__version__, "blas": blas_build()}
    reason = unpinnable(environment)
    if reason:
        print(f"golden: {reason}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as work:
        files = run_examples(Path(work))
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    payload = {"environment": environment, "pinned": PINNED, "files": files}
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"golden: {len(files)} digests written to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
