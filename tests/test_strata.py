import itertools

import pytest

from oracles import partition_count
from veronese.errors import InputError
from veronese.strata import (
    EQUAL,
    GREATER_EQUAL,
    IN_CLOSURE_OF,
    INCOMPARABLE,
    LESS_EQUAL,
    UNKNOWN,
    StratumLabel,
    closure_relation,
    dominance_compare,
    hilb_stratum_codim,
    hilb_stratum_dim,
    partitions_enumerate,
    sigma_stratum_dim,
    stratification_report,
)

L = StratumLabel.make


def test_partitions_small_cases():
    assert [p.parts for p in partitions_enumerate(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert [p.parts for p in partitions_enumerate(4) if not p.is_trivial()] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
    ]


def test_partition_counts_against_recurrence_oracle():
    for t in range(1, 11):
        assert len(partitions_enumerate(t)) == partition_count(t)
    assert partition_count(6) == 11


def test_label_validation():
    with pytest.raises(InputError):
        L([1, 2])
    with pytest.raises(InputError):
        L([0])


def test_dominance_examples():
    assert dominance_compare(L([2, 1, 1]), L([2, 2])) == LESS_EQUAL
    assert dominance_compare(L([2, 2]), L([3, 1])) == LESS_EQUAL
    assert dominance_compare(L([3, 1, 1, 1]), L([2, 2, 2])) == INCOMPARABLE
    assert dominance_compare(L([4]), L([4])) == EQUAL
    assert dominance_compare(L([3, 1]), L([2, 1, 1])) == GREATER_EQUAL
    with pytest.raises(InputError):
        dominance_compare(L([2]), L([3]))


def test_dominance_partial_order_axioms_up_to_8():
    for t in range(1, 9):
        labels = partitions_enumerate(t)
        for a in labels:
            assert dominance_compare(a, a) == EQUAL
        for a, b in itertools.product(labels, labels):
            rel = dominance_compare(a, b)
            if rel == EQUAL:
                assert a == b  # antisymmetry
        for a, b, c in itertools.product(labels, repeat=3):
            if dominance_compare(a, b) in (LESS_EQUAL, EQUAL) and dominance_compare(
                b, c
            ) in (LESS_EQUAL, EQUAL):
                assert dominance_compare(a, c) in (LESS_EQUAL, EQUAL)


def test_dominance_extrema():
    # (1,...,1) and (t) are comparable to everything: the two extremes
    for t in range(2, 9):
        labels = partitions_enumerate(t)
        bottom, top = L([1] * t), L([t])
        for lab in labels:
            assert dominance_compare(bottom, lab) in (LESS_EQUAL, EQUAL)
            assert dominance_compare(top, lab) in (GREATER_EQUAL, EQUAL)
            if lab.parts not in (bottom.parts, top.parts):
                assert dominance_compare(bottom, lab) == LESS_EQUAL
                assert dominance_compare(top, lab) == GREATER_EQUAL


def test_hilb_dims_match_component_sum_oracle():
    for m in (2, 3):
        for t in range(2, 7):
            for lab in partitions_enumerate(t):
                s = lab.num_parts
                oracle = m * s + sum((p - 1) * (m - 1) for p in lab.parts)
                assert hilb_stratum_dim(m, lab) == oracle == m * t + s - t
                assert hilb_stratum_codim(lab) == t - s


def test_sigma_dims_examples():
    assert sigma_stratum_dim(2, L([2, 1])) == 7
    assert sigma_stratum_dim(2, L([1, 1, 1])) == 8
    # the closed formula (m+1)t - 1 - t + l at (3, (3)) gives 9
    assert sigma_stratum_dim(3, L([3])) == 9
    assert sigma_stratum_dim(3, L([2, 1])) == 10
    assert sigma_stratum_dim(3, L([1, 1, 1])) == 11
    assert sigma_stratum_dim(2, L([3])) == 6


def test_hilb_plus_span_equals_sigma():
    for m in (2, 3):
        for t in range(2, 7):
            for lab in partitions_enumerate(t):
                assert hilb_stratum_dim(m, lab) + (t - 1) == sigma_stratum_dim(m, lab)


def test_unique_codim1_stratum():
    for t in range(2, 9):
        codim1 = [
            lab for lab in partitions_enumerate(t) if hilb_stratum_codim(lab) == 1
        ]
        assert [lab.parts for lab in codim1] == [(2,) + (1,) * (t - 2)]


def test_closure_relation_cases():
    assert closure_relation(L([2, 1, 1, 1]), L([3, 2])).status == IN_CLOSURE_OF
    assert closure_relation(L([3, 1, 1]), L([4, 1])).status == IN_CLOSURE_OF
    assert closure_relation(L([2, 2, 1]), L([3, 2])).status == IN_CLOSURE_OF
    assert closure_relation(L([2, 2, 1]), L([2, 2, 1])).rule == "equal"
    assert closure_relation(L([3, 1]), L([2, 2])).status == UNKNOWN
    fact = closure_relation(L([2, 2]), L([3, 1]))
    assert fact.status == UNKNOWN and fact.dominance == LESS_EQUAL


def test_closure_implies_smaller_dimension():
    for t in range(2, 8):
        labels = partitions_enumerate(t)
        for a, b in itertools.product(labels, labels):
            fact = closure_relation(a, b)
            if fact.status == IN_CLOSURE_OF:
                for m in (2, 3):
                    if a == b:
                        assert hilb_stratum_dim(m, b) == hilb_stratum_dim(m, a)
                    else:
                        assert hilb_stratum_dim(m, b) < hilb_stratum_dim(m, a)


def test_stratification_report_shapes():
    rep = stratification_report(2, 9, 4)
    assert len(rep["labels"]) == 5
    assert rep["true_stratification"] is True
    assert rep["uniqueness_regime"] is True
    assert sorted(rep["codim1_strata_in_dagger"]) == [[2, 2], [3, 1]]
    trivial = next(e for e in rep["labels"] if e["parts"] == [1, 1, 1, 1])
    assert trivial["lex_rank"] == 0 and trivial["dagger_codim"] is None
    rep = stratification_report(2, 5, 4)
    assert rep["true_stratification"] is False
    rep = stratification_report(3, 9, 3)
    dims = {tuple(e["parts"]): e["sigma_dim"] for e in rep["labels"]}
    assert dims == {(1, 1, 1): 11, (2, 1): 10, (3,): 9}
