"""The benchmark recorder's workload specs (``tools/bench_record.py``)."""

import importlib.util
from pathlib import Path

import pytest


def recorder():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_spec_reads_an_even_pair_count():
    assert recorder().workload_spec("library-verdicts:10") == ("library-verdicts", 10)


@pytest.mark.parametrize(
    "spec", ["cli-cold:3", "cli-cold:1", "cli-cold:0", "cli-cold", "cli-cold:", ":4",
             "cli-cold:-2", "cli-cold:two", "cli-cold:4:2"]
)
def test_recorder_refuses_odd_and_malformed_pair_counts_before_any_run(spec, capsys):
    # an odd count runs the change second more often, and cli-cold setup_s favours the
    # side that runs first; the refusal comes from argparse, before any tree is exported
    argv = ["--base", "HEAD", "--head", "HEAD", "--out", "unused.json", "--seed", "1",
            "--workload", "groupsim-sweeps:2", "--workload", spec]
    with pytest.raises(SystemExit) as exc:
        recorder().main(argv)
    assert exc.value.code == 2
    assert f"argument --workload: {spec!r} is not NAME:PAIRS" in capsys.readouterr().err
