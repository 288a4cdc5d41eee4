"""The CI step's CLI outputs keep the bytes recorded in ``tests/golden/outputs.json``.

``tools/golden.py`` runs the commands of the CI step "README CLI examples, run
twice and compared" in subprocesses under one pinned numeric environment and
digests every file they write; after a change that moves bytes on purpose, it
rewrites the file. A host that cannot reproduce that environment skips.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)


def test_ci_examples_keep_their_golden_digests(tmp_path):
    recorded = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    reason = golden.unpinnable(recorded["environment"])
    if reason:
        pytest.skip(reason)
    changed = golden.changed_files(recorded["files"], golden.run_examples(tmp_path))
    assert not changed, (
        f"{len(changed)} outputs differ from {golden.GOLDEN.name} "
        f"(rewrite it with tools/golden.py if they should): " + ", ".join(changed)
    )
