"""The in-process A/B tool runs every benchmark workload at tiny sizes.

The tool swaps ``sa_adapt`` packages in ``sys.modules``, so each case runs it
in a subprocess of its own, as the benchmark self-check runs.
"""

import json
import os
import shutil
import statistics
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
    # one round per half, the second half imported and set up in the other order
    halves = out["halves"]
    assert [h["import_order"] for h in halves] == [["parent", "change"], ["change", "parent"]]
    assert [h["rounds"] for h in halves] == [1, 1]
    for phase in phases:
        assert sum(h["change_wins"][phase] for h in halves) == out["change_wins"][phase]
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


@pytest.mark.parametrize("rounds", ["1", "3"])
def test_rounds_that_do_not_split_into_two_equal_halves_are_rejected(rounds):
    args = ["--workload", "ocl-gated", "--parent-dir", str(ROOT), "--change-dir", str(ROOT),
            "--rounds", rounds, "--seed", "4"]
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), *args],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 1
    assert f"rounds must be even and at least 2, one half per import order, got {rounds}" \
        in result.stderr


STUB_RUN = """
import json, os, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
side = Path.cwd().name
wide = 1.0 + seed % 2  # the parent's runs alternate 2, 1, 2, 1: spread (2 - 1) / 1.5
values = {
    "items_per_s": 100.0,  # no spread: resolved, though neither side wins
    "call_s.mean": wide if side == "parent" else 1.5,  # spread past the bound: unresolved
    "setup_s": wide if side == "parent" else 0.5,  # as wide, but every change run is better
    "peak_rss_mb": 50.0,
}
touched = bytearray(4 << 20)  # page faults for the tool to count
print("host " + json.dumps({"git_commit": "unknown",
                            "mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_")}))
print(f"harness.generate_stream.s {seed / 10!r} s")
metrics = {m: {"value": v, "unit": "x"} for m, v in values.items()}
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))
"""


def test_bench_pairs_default_malloc_runs_children_without_the_mmap_threshold(tmp_path):
    (tmp_path / "side" / "benchmarks").mkdir(parents=True)
    (tmp_path / "side" / "benchmarks" / "run.py").write_text(STUB_RUN)
    (tmp_path / "side" / "src").mkdir()
    out = tmp_path / "pairs.json"
    args = ["--parent-dir", "side", "--change-dir", "side", "--pairs", "tta-reference=2",
            "--first-seed", "1", "--seconds", "0.1", "--out", str(out), "--default-malloc"]
    env = {k: v for k, v in os.environ.items() if k != "MALLOC_MMAP_THRESHOLD_"}
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_pairs.py"), *args],
                            cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert result.returncode == 0, result.stderr
    document = json.loads(out.read_text())
    assert document["child_env"] == {}
    assert [run["host"]["mmap_threshold"] for run in document["runs"]] == [None] * 4


def test_bench_pairs_records_each_sides_resolved_checkout(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "benchmarks").mkdir(parents=True)
        (tmp_path / side / "benchmarks" / "run.py").write_text(STUB_RUN)
        (tmp_path / side / "src").mkdir()
    out = tmp_path / "pairs.json"
    args = ["--parent-dir", str(tmp_path / "change" / ".." / "parent"),
            "--change-dir", "change", "--pairs", "train-churn=4", "--first-seed", "1",
            "--seconds", "0.1", "--out", str(out)]
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_pairs.py"), *args],
                            cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    document = json.loads(out.read_text())
    paths = {side: str((tmp_path / side).resolve()) for side in ("parent", "change")}
    assert document["checkouts"] == paths
    assert len(document["runs"]) == 8
    assert all(run["checkout"] == paths[run["side"]] for run in document["runs"])
    assert document["child_env"] == {"MALLOC_MMAP_THRESHOLD_": "131072"}
    assert all(run["host"]["mmap_threshold"] == "131072" for run in document["runs"])
    assert [run["printed"] for run in document["runs"][:2]] == [
        {"harness.generate_stream.s": 0.1}
    ] * 2
    summary = document["summary"]["train-churn"]
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert {m: summary[m]["bound"] for m in bounds} == bounds
    got = {m: (summary[m]["parent_spread"], summary[m]["resolved"], summary[m]["change_wins"])
           for m in bounds}
    assert got == {
        "items_per_s": (0.0, True, "0/4"),
        "call_s.mean": (pytest.approx(1 / 1.5), False, "2/4"),
        "setup_s": (pytest.approx(1 / 1.5), True, "4/4"),
        "peak_rss_mb": (0.0, True, "0/4"),
    }
    # each child's minor page faults, per run and summarized beside the metrics
    assert all(isinstance(run["minor_faults"], int) and run["minor_faults"] > 0
               for run in document["runs"])
    for name in ("minor_faults", "minor_faults_per_item"):
        for side in ("parent", "change"):
            runs = [run["minor_faults"] for run in document["runs"] if run["side"] == side]
            assert summary[name][side]["runs"] == runs  # one attempted item a run
            assert summary[name][side]["median"] == statistics.median(runs)
