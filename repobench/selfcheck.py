"""Quick self-check of the benchmark at a tiny size (about a minute).

Usage, from the root of a checkout::

    python3 repobench/selfcheck.py

It asserts that

* ``BENCHMARK.json`` keeps its required shape and limits, and ``layer_map.json``
  maps every per-layer metric to real end-to-end metrics and workloads;
* every workload, untraced and traced, emits exactly the metrics
  ``BENCHMARK.json`` names for the mode, each printed with its unit and
  direction, and a final JSON line of the required form;
* a deliberately wrong served score is counted as a failed request;
* without the program's sources, ``run.py`` exits non-zero and prints
  no result.

Not collected by pytest on purpose: it starts servers and takes a minute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys

import harness

NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_PATTERN = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict, layer_map: dict) -> None:
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }, sorted(spec)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    end_to_end = {entry["name"]: entry for entry in spec["end_to_end"]}
    per_layer = {entry["name"]: entry for entry in spec["per_layer"]}
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert entry["better"] in ("lower", "higher"), entry
        assert UNIT_PATTERN.match(entry["unit"]), entry
    for name in names + list(end_to_end) + list(per_layer):
        assert NAME_PATTERN.match(name), name
    assert len(set(names + list(end_to_end) + list(per_layer))) == (
        len(names) + len(end_to_end) + len(per_layer)
    ), "a name is used twice"
    setup = end_to_end["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"] for entry in spec["end_to_end"])
    assert layer_map["seeds"]["default"] == 2009 and layer_map["seeds"]["held_out"] == 7
    assert set(layer_map["workload_kinds"]) == set(names)
    assert set(layer_map["layers"]) == set(per_layer), (
        sorted(set(layer_map["layers"]) ^ set(per_layer))
    )
    for metric, entry in layer_map["layers"].items():
        for target, workload in entry["moves"] + ([entry["guard"]] if "guard" in entry else []):
            assert target in end_to_end or target in per_layer, (metric, target)
            assert workload in names, (metric, workload)
        assert all(workload in names for workload in entry["flat"]), metric


def check_output(text: str, spec: dict, trace: bool) -> dict:
    """The printed lines name every metric with unit and direction."""
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    lines = text.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert set(result["metrics"]) == {entry["name"] for entry in entries}
    for entry in entries:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"], entry
        assert isinstance(metric["value"], (int, float)), entry
        assert any(
            line.split()[:1] == [entry["name"]]
            and f" {entry['unit']} " in line
            and f"({entry['better']} is better)" in line
            for line in lines
        ), f"no printed line for {entry['name']}"
    return result


def run_tiny(workload: str, trace: bool, spec: dict) -> dict:
    import run

    module = run._module(workload)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run.execute(workload, 11, 1.0, trace, params=module.TINY)
    result = check_output(buffer.getvalue(), spec, trace)
    assert result["correct"] and result["failed"] == 0, (workload, trace, result)
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, (workload, name)
    return result


def check_wrong_score_fails() -> None:
    import analyst_session

    def corrupt(replies):
        for position, (kind, request, response, cache) in enumerate(replies):
            if kind == "full" and response is not None and response.correspondences:
                first, *rest = response.correspondences
                wrong = dataclasses.replace(first, score=first.score + 1e-6)
                replies[position] = (kind, request, dataclasses.replace(
                    response, correspondences=(wrong, *rest)), cache)
                return
        raise AssertionError("no full-grid reply to corrupt")

    outcome = analyst_session.run(11, 1.0, False, analyst_session.TINY, inspect=corrupt)
    problems = [s.problem for s in outcome.traffic.samples if not s.ok]
    assert problems == ["score-mismatch"], problems


def check_without_program() -> None:
    bare = harness.WORK_ROOT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(harness.SPEC_PATH, bare / "BENCHMARK.json")
    shutil.copytree(
        harness.BENCH_DIR, bare / harness.BENCH_DIR.name,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    try:
        completed = subprocess.run(
            [sys.executable, f"{harness.BENCH_DIR.name}/run.py",
             "--workload", "hot-reads", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert completed.returncode != 0, completed
    assert '"metrics"' not in completed.stdout, completed.stdout


def main() -> int:
    harness.require_program()
    import run

    spec = harness.load_spec()
    check_spec(spec, harness.load_layer_map())
    print("selfcheck: BENCHMARK.json and layer_map.json consistent", flush=True)
    for workload in run.WORKLOADS:
        for trace in (False, True):
            run_tiny(workload, trace, spec)
            print(f"selfcheck: {workload} trace={int(trace)} emits every metric",
                  flush=True)
    check_wrong_score_fails()
    print("selfcheck: a wrong served score counts as a failed request", flush=True)
    check_without_program()
    print("selfcheck: without the program, run.py exits non-zero with no result",
          flush=True)
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
