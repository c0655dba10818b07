"""``causal-eval`` reproduces checked-in reports byte for byte.

``tests/data/causal_eval/`` holds a small trained flow (``flow.txt``, two
layers over a 5-coordinate DAG of three generations), the linear SEM of its
data (``sem.json``) and the reports that ``causal-eval`` wrote for them in
each ground-truth mode before the flow-side queries shared one pinned
reconstruction and the two reports one query loop.  A change that moves any
bit of an interventional sample, a counterfactual or a ground truth fails
here.  The coordinate-major inversion sums each pass in BLAS's other
orientation, so its answers may move by rounding; regenerated with the
command below and compared with these files, no reported number moved (0
of the 60 breakdown entries and 2 totals per file), so the files stood
unedited.  They were rewritten on purpose when counterfactuals came to
refill only j's descendants, on both sides, and the reports to answer a
target's values in blocks, one inversion per block: regenerated with the
command below and compared number by number before the overwrite, each
file's 30 I-MSE entries and both totals stayed bitwise the same, and 5 of
its 30 C-MSE entries moved, the same 5 in both files.  Three are targets
that do not descend from j (coordinate 2 under j = 1), which went from
3.8e-32 to exactly 0.0; two are descendants, which moved by one ulp.
They were rewritten on purpose again when each conditioner pass came to
add its biases inside its products (a bias column against a row of ones),
which moves rounding only: regenerated with the command below and compared
number by number before the overwrite, 23 of the 60 breakdown entries
moved in ``exact.json`` (12 I-MSE, 11 C-MSE) and 24 in ``sample.json`` (13
and 11), by at most 6.8e-14 relative; no entry that is exactly 0.0 moved.
Of the totals only ``exact.json``'s I-MSE moved, by 5.6e-17.
"""

import os

import pytest

from strnn import cli

DATA = os.path.join(os.path.dirname(__file__), "data", "causal_eval")


@pytest.mark.parametrize("mode", ["exact", "sample"])
def test_causal_eval_matches_golden_bytes(mode, tmp_path, monkeypatch):
    # The report records the --flow and --sem paths as given; relative paths
    # keep it the same wherever the repository sits.
    monkeypatch.chdir(DATA)
    out = tmp_path / f"{mode}.json"
    assert cli.main(["causal-eval", "--flow", "flow.txt", "--sem", "sem.json",
                     "--out", str(out), "--value-count", "3", "--samples", "200",
                     "--n-obs", "100", "--seed", "7", "--ground-truth", mode]) == 0
    with open(os.path.join(DATA, f"{mode}.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()
