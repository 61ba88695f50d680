import sys

import golden
import latinrect
import workloads


def test_pinned_values_match_independent_methods():
    limit = sys.get_int_max_str_digits()
    assert golden.derive_all(latinrect) == workloads.load_golden()
    assert sys.get_int_max_str_digits() == limit

