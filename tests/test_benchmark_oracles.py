"""The benchmark's own oracles, run on the ``analyze`` report of each of its inputs."""

import json

import pytest

import nonlocal_audit as na
from nonlocal_audit.cli import main

from conftest import perfbench_modules

workloads, oracles = perfbench_modules()
INPUTS = [item for workload in ("closed_route", "planar_sweep")
          for item in workloads.generate(workload, 0)]


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
