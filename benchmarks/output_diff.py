#!/usr/bin/env python3
"""Compare the outputs of two levyou trees, group by group, in numbers.

``output_digest.py`` can only say that a group changed.  This script runs
``output_digest.groups()`` of each tree in its own subprocess, with that
tree's ``src`` first on the path, and prints one line per group:

* ``same`` when the group is bit-identical in both trees;
* otherwise the largest absolute and relative difference of the group's
  numbers.  Numbers inside text groups (result files, reprs, error
  messages) are parsed with ``_NUMBER``, the same pattern as the perfbench
  output checks;
* ``TEXT DIFFERS`` when the group's text, with the numbers taken out,
  differs, or its arrays change shape or count.

A last line sums up the groups and the largest differences.  The exit
status is 1 when a group is flagged or found in one tree only, or, with
``--atol X``, when a group's numbers move by more than X absolute (a NaN
or infinity facing another value moves by inf); else 0.

Usage::

    python3 benchmarks/output_diff.py OLD_TREE NEW_TREE [--atol X]
"""

import argparse
import os
import pickle
import re
import subprocess
import sys
import tempfile

import numpy as np

# A number in result text: signed decimals and exponents, nan and inf.
_NUMBER = re.compile(
    r"[-+]?(?:nan|inf|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
)

# Run in each tree: pickle every group as a list of leaves, each a string
# or an array, in the order ``output_digest.digest`` hashes them.
_CHILD = """
import pickle, sys
tree, out = sys.argv[1:]
sys.path[:0] = [tree + "/src", tree + "/benchmarks"]
import numpy as np
import output_digest

def leaves(value):
    if isinstance(value, str):
        return [value]
    if isinstance(value, tuple):
        return [leaf for part in value for leaf in leaves(part)]
    return [np.asarray(value)]

with open(out, "wb") as fh:
    pickle.dump([(label, leaves(value))
                 for label, value in output_digest.groups()], fh)
"""


def run_groups(tree):
    """The groups of ``tree`` as an ordered dict of label -> leaves."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "groups.pickle")
        subprocess.run([sys.executable, "-c", _CHILD,
                        os.path.abspath(tree), out], check=True)
        with open(out, "rb") as fh:
            return dict(pickle.load(fh))


def numbers(leaf):
    """The numbers of one leaf as a float array, and its text with the
    numbers taken out (the dtype and shape, for an array)."""
    if isinstance(leaf, str):
        return (np.array([float(x) for x in _NUMBER.findall(leaf)]),
                _NUMBER.sub("#", leaf))
    return leaf.astype(np.float64).ravel(), (leaf.dtype.str, leaf.shape)


def bitwise_equal(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def largest_difference(a, b):
    """(largest absolute, largest relative) difference of two float
    arrays; equal values, NaN pairs included, differ by 0, and a NaN or
    infinity facing another value by inf."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.where(same, 0.0, np.abs(a - b))
        d[np.isnan(d)] = np.inf
        rel = np.where(same, 0.0, d / np.maximum(np.abs(a), np.abs(b)))
        rel[np.isnan(rel)] = np.inf
    return float(d.max(initial=0.0)), float(rel.max(initial=0.0))


def compare(old, new):
    """(status, largest absolute, largest relative difference) of one
    group's leaves; the status is "same", "changed" or "flagged"."""
    if len(old) == len(new) and all(map(bitwise_equal, old, new)):
        return "same", 0.0, 0.0
    status = "changed" if len(old) == len(new) else "flagged"
    worst_abs = worst_rel = 0.0
    for a, b in zip(old, new):
        (xa, skel_a), (xb, skel_b) = numbers(a), numbers(b)
        if skel_a != skel_b or xa.shape != xb.shape:
            status = "flagged"
            continue
        d, r = largest_difference(xa, xb)
        worst_abs, worst_rel = max(worst_abs, d), max(worst_rel, r)
    return status, worst_abs, worst_rel


def report(old, new, atol=None):
    """Print one line per group of ``old`` and ``new`` (label -> leaves)
    and a summary; return the exit status: 1 when a group is flagged,
    found in one tree only, or moved by more than ``atol`` absolute."""
    counts = {"same": 0, "changed": 0, "flagged": 0}
    worst_abs = worst_rel = 0.0
    over = 0
    for label in [*old, *(label for label in new if label not in old)]:
        if label not in old or label not in new:
            status = "flagged"
            line = f"only in {'NEW' if label in new else 'OLD'}"
        else:
            status, d, r = compare(old[label], new[label])
            line = f"abs {d:.3g}  rel {r:.3g}"
            if status == "changed":
                worst_abs, worst_rel = max(worst_abs, d), max(worst_rel, r)
            elif status == "same":
                line = "same"
            else:
                line = f"TEXT DIFFERS; numbers {line}"
            if atol is not None and d > atol:
                over += 1
                line += f"  OVER --atol {atol:g}"
        counts[status] += 1
        print(f"{label}: {line}")
    summary = (f"-- {counts['same']} same, {counts['changed']} changed in "
               f"numbers only (largest abs {worst_abs:.3g}, rel "
               f"{worst_rel:.3g}), {counts['flagged']} flagged")
    if atol is not None:
        summary += f", {over} over --atol {atol:g}"
    print(summary)
    return 1 if counts["flagged"] or over else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Compare the outputs of two levyou trees, group by "
                    "group.")
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--atol", type=float, default=None,
                        help="also exit 1 when a group's numbers move by "
                             "more than this, absolute")
    args = parser.parse_args(argv)
    old, new = run_groups(args.old_tree), run_groups(args.new_tree)
    return report(old, new, args.atol)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
