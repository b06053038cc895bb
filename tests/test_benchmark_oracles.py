"""The benchmark's own oracles, run on the output of each of its inputs: the
``analyze`` report of the ``closed_route`` and ``planar_sweep`` inputs, and the
``classical`` standard output of the ``classical_scaling`` ones."""

import json

import pytest

import nonlocal_audit as na
from nonlocal_audit.cli import main

from conftest import perfbench_modules

workloads, oracles = perfbench_modules()
INPUTS = [item for workload in ("closed_route", "planar_sweep")
          for item in workloads.generate(workload, 0)]
CLASSICAL_INPUTS = workloads.generate("classical_scaling", 0)


@pytest.mark.parametrize("item", INPUTS, ids=lambda item: item.name)
def test_analyze_report_passes_benchmark_oracle(item, tmp_path, capsys):
    ref = item.catalog_id
    if ref is None:
        path = tmp_path / f"{item.name}.json"
        path.write_text(json.dumps(item.game))
        ref = str(path)
    assert main(["analyze", ref, "--format", "json"]) == 0
    report = capsys.readouterr().out
    assert oracles.check_analyze(oracles.expected_for(item, na), report) == []


@pytest.mark.parametrize("item", CLASSICAL_INPUTS, ids=lambda item: item.name)
def test_classical_stdout_passes_benchmark_oracle(item, tmp_path, capsys):
    path = tmp_path / f"{item.name}.json"
    path.write_text(json.dumps(item.game))
    assert main(["classical", str(path)]) == 0
    stdout = capsys.readouterr().out
    assert oracles.check_classical(oracles.expected_for(item, na), stdout) == []
