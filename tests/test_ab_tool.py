"""The in-process A/B tool runs every benchmark workload at tiny sizes.

The tool swaps ``sa_adapt`` packages in ``sys.modules``, so each case runs it
in a subprocess of its own, as the benchmark self-check runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = """
import json, sys
from pathlib import Path
sys.path[:0] = [{tools!r}, {benchmarks!r}]
import ab, workloads
out = ab.run(Path({parent!r}), Path({change!r}), {name!r}, rounds=2, seed=4, sizes=workloads.TINY)
print(json.dumps(out))
"""


def run_ab(parent: Path, name: str) -> subprocess.CompletedProcess:
    script = RUN.format(tools=str(ROOT / "tools"), benchmarks=str(ROOT / "benchmarks"),
                        parent=str(parent), change=str(ROOT), name=name)
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("name", ["tta-reference", "train-churn", "ocl-gated"])
def test_same_checkout_gives_identical_outputs_and_three_phases(name):
    result = run_ab(ROOT, name)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["reports_identical"] is True
    phases = ("call_s", "stream_s", "finalize_s")
    assert set(out["change_wins"]) == set(phases)
    for side in ("parent", "change"):
        assert set(out[side]) == set(phases)
        for phase in phases:
            runs = out[side][phase]["runs_s"]
            assert len(runs) == 2 and all(t >= 0.0 for t in runs)
        for call, stream, finalize in zip(*(out[side][p]["runs_s"] for p in phases)):
            assert stream + finalize == pytest.approx(call, abs=1e-9)
            if name == "ocl-gated":  # no stream: the whole call is the stream phase
                assert finalize == 0.0
            else:  # the report, and for train-churn the k-means, follow the stream
                assert 0.0 < finalize < call


@pytest.mark.parametrize(
    "module, old, new, message",
    [
        ("config.py", "DEFAULT_ALPHA = 0.7\n", "DEFAULT_ALPHA = 0.6\n",
         "reports or bank bytes differ in round 0"),
        ("harness.py", "default_rng(spec.rng_seed)", "default_rng(spec.rng_seed + 1)",
         "the two sides generate different train-churn streams"),
    ],
    ids=["reports", "stream"],
)
def test_a_changed_parent_exits_nonzero(tmp_path, module, old, new, message):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "sa_adapt" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    result = run_ab(tmp_path, "train-churn")
    assert result.returncode == 1
    assert message in result.stderr
