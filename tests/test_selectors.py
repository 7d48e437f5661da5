"""Property tests of the two order-statistic selectors the trainer runs every
epoch, against the numpy routines they replace: the stable-argsort trim
selection and np.median for the adaptive Huber threshold; and of the
trainer's loss groups, which compute every loss for several runs at once
through views of the stacked arrays, against the one-run loss functions."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracle import canonical_bytes
from robustnn import losses as L
from robustnn.net import Architecture
from robustnn.optimizer import OptimizerSpec, _LossGroup, _Slots

# few distinct values, so ties are the rule rather than the exception
TIE_POOL = [0.0, -0.0, 1.0, 2.5, -3.0, 1e300, -1.7e308, np.inf, -np.inf, np.nan]


def float_arrays(max_size):
    sizes = st.integers(1, max_size)
    return st.one_of(
        hnp.arrays(np.float64, sizes, elements=st.floats(allow_nan=True, allow_infinity=True)),
        hnp.arrays(np.float64, sizes, elements=st.sampled_from(TIE_POOL)),
        hnp.arrays(np.float64, sizes, elements=st.integers(-3, 3).map(float)),
    )


alphas = st.one_of(
    st.sampled_from([0.1, 0.25, 0.5]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=400, deadline=None)
@given(keys=float_arrays(80), alpha=alphas)
@example(keys=np.full(8, 7.0), alpha=0.5)
@example(keys=np.array([np.nan, 1.0, np.nan, -np.inf, np.inf]), alpha=0.25)
@example(keys=np.array([np.nan, np.nan, np.nan, 2.0]), alpha=0.25)
@example(keys=np.array([-0.0, 0.0, -0.0, 0.0]), alpha=0.5)
def test_trimmed_select_equals_stable_argsort_oracle(keys, alpha):
    h = L.trim_count(keys.size, alpha)
    kept = np.sort(np.argsort(keys, kind="stable")[:h])
    with np.errstate(all="ignore"):
        aggregate = float(keys[kept].mean())
        res = L.trimmed_select(keys, alpha)
    assert res.h == h
    assert res.kept_indices.dtype.kind == "i"
    np.testing.assert_array_equal(res.kept_indices, kept)
    assert same_bits(res.aggregate, aggregate)


@settings(max_examples=400, deadline=None)
@given(r=float_arrays(81))
@example(r=np.zeros(4))
@example(r=np.zeros(5))
@example(r=np.array([1.0, -1.0, 1.0, -1.0]))
@example(r=np.array([np.nan, 1.0]))
@example(r=np.array([3.0, np.nan, -2.0]))
@example(r=np.array([np.inf, -np.inf, 1.0, 2.0]))
@example(r=np.array([5e-324, -5e-324]))
@example(r=np.array([1.7e308, -1.7e308]))
def test_adaptive_huber_delta_equals_floored_np_median(r):
    with np.errstate(all="ignore"):
        expected = max(float(np.median(np.abs(r))), L.HUBER_DELTA_FLOOR)
        got = L.adaptive_huber_delta(r)
    assert same_bits(got, expected) or (math.isnan(got) and math.isnan(expected))



def float_rows(max_rows, max_cols):
    """2-D arrays of the kinds above: ties, NaN and infinities per row."""
    shapes = st.tuples(st.integers(1, max_rows), st.integers(1, max_cols))
    return shapes.flatmap(lambda shape: st.one_of(
        hnp.arrays(np.float64, shape, elements=st.floats(allow_nan=True, allow_infinity=True)),
        hnp.arrays(np.float64, shape, elements=st.sampled_from(TIE_POOL)),
        hnp.arrays(np.float64, shape, elements=st.integers(-3, 3).map(float)),
    ))


@settings(max_examples=300, deadline=None)
@given(keys=float_rows(5, 40), alpha=alphas)
@example(keys=np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 2.0, 1.0]]), alpha=0.5)
@example(keys=np.array([[np.nan, 1.0, 0.0, 2.0], [1.0, 1.0, 0.0, 0.0]]), alpha=0.25)
# a NaN threshold in one row and surplus ties in the other add up to h per row
@example(keys=np.array([[np.nan, np.nan, np.nan, 1.0], [1.0, 1.0, 1.0, 1.0]]), alpha=0.5)
# a row the partition settles, one tied across its h-th key and one whose
# h-th key is NaN: only the last two are selected again
@example(keys=np.array([[4.0, 1.0, 3.0, 2.0], [2.0, 2.0, 1.0, 2.0],
                        [np.nan, 1.0, np.nan, np.nan]]), alpha=0.5)
def test_row_wise_trim_selects_what_trimmed_select_selects(keys, alpha):
    # the slot trainer selects the kept rows of several runs at once; each
    # row keeps what the stable argsort keeps
    h = L.trim_count(keys.shape[1], alpha)
    n = keys.shape[1]
    with np.errstate(all="ignore"):
        got = L._trim_rows(keys, h)
        for j, row in enumerate(keys):
            want = L.trimmed_select(row, alpha).kept_indices
            np.testing.assert_array_equal(got[j], want + j * n)
            oracle = np.sort(np.argsort(row, kind="stable")[:h])
            np.testing.assert_array_equal(got[j], oracle + j * n)


@settings(max_examples=300, deadline=None)
@given(r=float_rows(5, 41))
@example(r=np.array([[1.0, np.nan, 3.0], [1.0, 2.0, 3.0]]))
def test_row_wise_median_equals_floored_np_median(r):
    with np.errstate(all="ignore"):
        got = L._floored_median(np.abs(r), L._median_kth(r.shape[1]))
        for j, row in enumerate(r):
            expected = max(float(np.median(np.abs(row))), L.HUBER_DELTA_FLOOR)
            assert same_bits(got[j, 0], expected) or (math.isnan(got[j, 0])
                                                     and math.isnan(expected))


GROUP_LOSSES = [L.LossSpec.huber(), L.LossSpec.huber(1.5), L.LossSpec.squared(),
                L.LossSpec.tukey(), L.LossSpec.trimmed(0.25), L.LossSpec.trimmed(0.5)]


@settings(max_examples=300, deadline=None)
@given(r=float_rows(6, 41), loss=st.sampled_from(GROUP_LOSSES), epochs=st.integers(1, 3))
@example(r=np.array([[1.0, np.nan, 3.0], [1.0, 1.0, 1.0], [2.0, -2.0, 2.0]]),
         loss=L.LossSpec.huber(), epochs=1)
@example(r=np.array([[np.inf, -np.inf, 0.0, -0.0], [5e-324, 0.0, 0.0, 1e300]]),
         loss=L.LossSpec.huber(), epochs=2)
def test_a_loss_group_computes_what_the_loss_functions_compute(r, loss, epochs):
    # the group's rows of losses, dL/dyhat and objectives, and its Huber
    # threshold, are those of each row alone, epoch after epoch through the
    # same group: the same bytes, but for which NaN a NaN is (a clip at a
    # NaN threshold returns another operand's NaN for a column of them)
    rows, n = r.shape
    batch = _Slots(Architecture(2, (3,)), n, OptimizerSpec(), rows + 1)
    group = _LossGroup(batch, loss, 1, rows)
    for epoch in range(epochs):
        rolled = np.roll(r, epoch, axis=1)
        batch.r[1:] = rolled
        with np.errstate(all="ignore"):
            sums = group.losses()
            for j, row in enumerate(rolled):
                delta = L.adaptive_huber_delta(row) if loss.adaptive_huber else None
                if loss.adaptive_huber:
                    assert canonical_bytes(group.delta[j, 0]) == canonical_bytes(delta)
                per = L.loss_value(loss, row, delta)
                assert canonical_bytes(group.per[j]) == canonical_bytes(per)
                assert canonical_bytes(group.error[j]) == \
                    canonical_bytes(-L.loss_gradient(loss, row, delta))
                if loss.is_trimmed:
                    kept = L.trimmed_select(per, loss.trim_alpha).kept_indices
                    np.testing.assert_array_equal(group.kept[j], kept + j * n)
                    per = per[kept]
                assert canonical_bytes(sums[j]) == canonical_bytes(np.add.reduce(per))
