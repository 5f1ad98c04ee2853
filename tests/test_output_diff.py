"""The numeric diff of two trees' output groups (benchmarks/output_diff.py):
how it classes one group's leaves, and a run of every group."""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                     "output_diff.py")


@pytest.fixture(scope="module")
def output_diff():
    spec = importlib.util.spec_from_file_location("output_diff", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bit_identical_leaves_are_the_same(output_diff):
    a = np.array([1.0, np.nan, np.inf])
    assert output_diff.compare([a, "x = 1.5"], [a.copy(), "x = 1.5"]) \
        == ("same", 0.0, 0.0)


def test_moved_numbers_report_their_largest_difference(output_diff):
    a = np.array([1.0, np.nan, 0.0])
    status, d, r = output_diff.compare(
        [a, "x = 1.5 at 2"],
        [a + [0.0, 0.0, 1e-15], "x = 1.5000000000000002 at 2"])
    assert status == "changed"
    assert d == 1e-15
    assert r == 1.0
    # equal numbers with other bits (a signed zero) change nothing numeric
    assert output_diff.compare([np.array([0.0])], [np.array([-0.0])]) \
        == ("changed", 0.0, 0.0)
    # a NaN facing a number is an infinite difference
    assert output_diff.compare([np.array([np.nan])], [np.array([1.0])]) \
        == ("changed", np.inf, np.inf)


def test_changed_text_or_shape_is_flagged(output_diff):
    assert output_diff.compare(["x = 1"], ["y = 1"])[0] == "flagged"
    assert output_diff.compare(["x = 1"], ["x = 1, 2"])[0] == "flagged"
    a = np.zeros(3)
    assert output_diff.compare([a], [a[:2]])[0] == "flagged"
    assert output_diff.compare([a], [a, a])[0] == "flagged"


def test_atol_fails_a_group_that_moves_too_far(output_diff, capsys):
    old = {"kept": [np.array([1.0])], "moved": [np.array([1.0, 2.0])]}
    new = {"kept": [np.array([1.0])], "moved": [np.array([1.0, 2.0 + 4e-16])]}
    assert output_diff.report(old, new) == 0
    assert output_diff.report(old, new, atol=1e-15) == 0
    assert output_diff.report(old, new, atol=1e-16) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("moved: abs 4.44e-16") \
        and lines[-2].endswith("OVER --atol 1e-16")
    assert lines[-1].endswith(", 1 over --atol 1e-16")
    # a NaN facing a number moves by inf, past any bound
    nan = {"kept": [np.array([np.nan])]}
    assert output_diff.report({"kept": [np.array([1.0])]}, nan,
                              atol=1e300) == 1


def test_it_stands_alone_and_parses_result_numbers(output_diff):
    # Loading the tool imports nothing from the benchmark's directory and
    # no levyou module.
    code = ("import importlib.util, sys\n"
            "spec = importlib.util.spec_from_file_location('d', sys.argv[1])\n"
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
            "assert 'workloads' not in sys.modules\n"
            "assert not any('perfbench' in p for p in sys.path)\n"
            "assert not [m for m in sys.modules if m.startswith('levyou')]\n")
    subprocess.run([sys.executable, "-c", code, _PATH], check=True)
    found = output_diff._NUMBER.findall(
        "t,s=-1.5e-07,+2 .5 3. nan -inf 1E+300 x12")
    assert found == ["-1.5e-07", "+2", ".5", "3.", "nan", "-inf", "1E+300",
                     "12"]


def test_a_tree_against_itself_reads_same_in_every_group():
    # Runs every group, twice, in child processes that find levyou through
    # the tree's src alone.
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, _PATH, root, root], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    *lines, summary = done.stdout.splitlines()
    assert len(lines) >= 130
    assert all(line.endswith(": same") for line in lines)
    assert summary.startswith(f"-- {len(lines)} same, 0 changed")
    assert summary.endswith(", 0 flagged")
