"""Tests of the benchmark's verdict gate: python3 -m pytest perfbench"""

import verdicts


def test_gate_counts_each_fault():
    # a flipped status, a missing report, a vacuous negative control (and
    # an error, a wrong exit code, a repeat, a lost invocation) count wrong
    assert verdicts.self_test() == []


def test_seed_reaches_only_mirror_pairing():
    a = verdicts.invocations("geometry", 1)
    b = verdicts.invocations("geometry", 2)
    differ = [x[0] for x, y in zip(a, b) if x != y]
    assert [argv[0] for argv in differ] == ["mirror-pairing"] * 2
    assert all(argv[argv.index("--seed") + 1] == "1" for argv in differ)
    for w in ("ladder", "hqe"):
        assert verdicts.invocations(w, 1) == verdicts.invocations(w, 2)


def test_report_counts_match_the_workloads():
    counts = {w: sum(len(r) for _, _, r in verdicts.invocations(w, 0))
              for w in verdicts.WORKLOADS}
    assert counts == {"ladder": 41, "geometry": 55, "hqe": 7}
