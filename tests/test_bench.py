import json
from math import comb

import pytest

from latinrect.bench import CSV_HEADER, csv_text, fitted_exponents, json_lines_text, measure, sweep
from latinrect.guards import ResourceGuardError


def test_measure_term_counts():
    assert measure(2, 5).terms == 6
    assert measure(3, 3).terms == 20
    for k in (2, 3, 4):
        for n in (0, 1, 4, 9):
            q = 2 ** (k - 1)
            assert measure(k, n).terms == comb(n + q - 1, q - 1)


def test_op_counts_at_k4_n10_are_pinned():
    # multiplications are those of the seed evaluator; additions count each
    # distinct block sum once per g (the seed re-added shared blocks: 2307448)
    r = measure(4, 10)
    assert r.terms == 19448
    assert r.mults_inner == 724152
    assert r.mults_actual == 158080
    assert r.mults_paper_model == 175032
    assert r.adds == 1483768


def test_paper_model_charges_n_minus_one_per_term():
    # each term multiplies n column factors together: n - 1 multiplications
    for k in (2, 3):
        for n in range(1, 11):
            r = measure(k, n)
            assert r.mults_paper_model == r.terms * (n - 1)


def test_paper_model_dominates_actual():
    for k in (2, 3):
        for n in range(3, 13):
            r = measure(k, n)
            assert r.mults_paper_model >= r.mults_actual


def test_measure_respects_guard():
    with pytest.raises(ResourceGuardError):
        measure(4, 40, max_terms=100)


def test_sweep_exponent_two_rows():
    result = sweep(2, range(8, 33))
    slope = result.exponents["mults_paper_model"]
    assert 1.7 <= slope <= 2.3
    assert 0.7 <= result.exponents["terms"] <= 1.3


def test_single_point_sweep_has_no_exponents():
    result = sweep(3, [9])
    assert all(v is None for v in result.exponents.values())


def test_fitted_exponents_skip_zero_values():
    reports = sweep(2, [0, 1]).reports
    # mults are zero at n <= 1; the fit must not blow up on log(0)
    assert fitted_exponents(reports)["mults_paper_model"] is None


def test_csv_emission():
    result = sweep(2, range(4, 9))
    lines = csv_text(result).splitlines()
    assert lines[0] == CSV_HEADER
    data = [line for line in lines[1:] if not line.startswith("#")]
    footer = [line for line in lines[1:] if line.startswith("#")]
    assert len(data) == 5
    assert all(line.split(",")[0] == "2" for line in data)
    assert any(line.startswith("# fitted_exponent_mults_paper_model=") for line in footer)


def test_json_lines_emission():
    result = sweep(3, range(3, 6))
    lines = json_lines_text(result).splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 4
    for rec in records[:-1]:
        assert rec["k"] == 3
        assert rec["terms"] == str(comb(rec["n"] + 3, 3))
        assert "mults_inner" in rec
    assert "fitted_exponents" in records[-1]
