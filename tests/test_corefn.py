import math
from fractions import Fraction

import numpy as np
import pytest

from varlat import (
    DegenerateInput,
    EmptyInput,
    LengthMismatch,
    NonFiniteValue,
    NonMonotoneBreakpoints,
    fit_power_law,
    lacunary_sign,
    make_pcf,
    pcf_antiderivative_eval_many,
    pcf_eval,
    pcf_eval_many,
    qvariation,
    qvariation_rows,
    trapezoid_weights,
)
from varlat.corefn import _as_float_array


class TestMakePcf:
    def test_single_cell_indicator(self):
        f = make_pcf([0.0, 1.0], [1.0])
        assert f.support == (0.0, 1.0)
        assert f.total_mass == 1.0

    def test_merges_adjacent_equal_values(self):
        f = make_pcf([0.0, 1.0, 2.0], [1.0, 1.0])
        assert f.breakpoints_array.tolist() == [0.0, 2.0]
        assert f.values_array.tolist() == [1.0]

    def test_rejects_decreasing_breakpoints(self):
        with pytest.raises(NonMonotoneBreakpoints):
            make_pcf([1.0, 0.0], [1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            make_pcf([0.0, 1.0, 2.0], [1.0])

    def test_rejects_nan_value(self):
        with pytest.raises(NonFiniteValue):
            make_pcf([0.0, 1.0], [float("nan")])


class TestPcfEval:
    def test_left_endpoint_included(self):
        f = make_pcf([0.0, 1.0], [1.0])
        assert pcf_eval(f, 0.0) == 1.0

    def test_right_endpoint_excluded(self):
        f = make_pcf([0.0, 1.0], [1.0])
        assert pcf_eval(f, 1.0) == 0.0

    def test_outside_support_is_zero(self):
        f = make_pcf([0.0, 1.0], [1.0])
        assert pcf_eval(f, -0.5) == 0.0
        assert pcf_eval(f, 7.0) == 0.0

    def test_sign_pattern_cell_at_even_index(self):
        # two-cell alternating pattern: the cell [1/4, 1/2) carries the
        # negative sign of its even index in the geometric ladder
        g = lacunary_sign(2.0, -2)
        assert pcf_eval(g, 0.3) == -1.0
        assert pcf_eval(g, 0.7) == 1.0

    def test_eval_many_matches_scalar(self, rng, make_random_pcf):
        f = make_random_pcf()
        xs = rng.uniform(-3.0, 3.0, 50)
        many = pcf_eval_many(f, xs)
        assert many.tolist() == [pcf_eval(f, x) for x in xs]


class TestAntiderivative:
    def test_total_mass(self):
        f = make_pcf([0.0, 1.0], [1.0])
        assert pcf_antiderivative_eval_many(f, [2.0])[0] == 1.0

    def test_half_mass(self):
        f = make_pcf([0.0, 1.0], [1.0])
        assert pcf_antiderivative_eval_many(f, [0.5])[0] == 0.5

    def test_cancellation(self):
        f = make_pcf([0.0, 1.0, 2.0], [1.0, -1.0])
        assert pcf_antiderivative_eval_many(f, [2.0])[0] == 0.0

    def test_zero_left_of_support(self):
        f = make_pcf([0.0, 1.0], [1.0])
        assert pcf_antiderivative_eval_many(f, [-3.0])[0] == 0.0

    def test_monotone_for_nonnegative_values(self, rng):
        bps = np.sort(rng.uniform(-2, 2, 7))
        f = make_pcf(bps, rng.uniform(0.0, 2.0, 6))
        xs = np.sort(rng.uniform(-3, 3, 40))
        vals = pcf_antiderivative_eval_many(f, xs)
        assert np.all(np.diff(vals) >= 0)

    def test_exact_on_breakpoints(self, make_random_pcf):
        for _ in range(20):
            f = make_random_pcf()
            bps = f.breakpoints_array.tolist()
            got = pcf_antiderivative_eval_many(f, [bps[-1]])[0]
            want = sum(
                c * (b1 - b0)
                for c, b0, b1 in zip(f.values_array.tolist(), bps, bps[1:])
            )
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestGrids:
    def test_trapezoid_weights_on_uniform_grid(self):
        w = trapezoid_weights([0.0, 1.0, 2.0, 3.0])
        assert w.tolist() == [0.5, 1.0, 1.0, 0.5]

    def test_weights_sum_to_span(self, rng):
        pts = np.sort(rng.uniform(0, 5, 40))
        assert trapezoid_weights(pts).sum() == pytest.approx(pts[-1] - pts[0])

    def test_trapezoid_weights_on_uneven_points(self):
        assert trapezoid_weights([0.0, 2.0, 3.0]).tolist() == [1.0, 1.5, 0.5]

    def test_trapezoid_weights_reject_a_single_point(self):
        with pytest.raises(EmptyInput):
            trapezoid_weights([0.5])


class TestFitPowerLaw:
    def test_identity_law(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        fit = fit_power_law(xs, xs)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_square_law(self):
        xs = np.array([1.0, 3.0, 9.0, 27.0])
        fit = fit_power_law(xs, xs**2)
        assert fit.slope == pytest.approx(2.0, abs=1e-10)

    def test_cube_root_with_prefactor(self):
        xs = np.array([1.0, 2.0, 5.0, 10.0, 20.0])
        fit = fit_power_law(xs, 3.0 * xs ** (1.0 / 3.0))
        assert fit.slope == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)

    def test_rejects_all_equal_xs(self):
        with pytest.raises(DegenerateInput):
            fit_power_law([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_rejects_too_few_points(self):
        with pytest.raises(DegenerateInput):
            fit_power_law([1.0, 2.0], [1.0, 2.0])

    def test_rejects_nonpositive_data(self):
        with pytest.raises(DegenerateInput):
            fit_power_law([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])


def _flat(data):
    return _as_float_array(data, "grid points")


def _rows(data):
    return qvariation_rows(data, 2.0)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: _rows([[1.0, 2.0], [3.0]]),
            lambda: _rows([1.0, 2.0]),
            lambda: _rows(5.0),
            lambda: make_pcf([0.0, 1.0], 1.0),
            lambda: _flat(5.0),
            lambda: _flat([[0.0, 1.0], [2.0, 3.0]]),
            lambda: make_pcf(1.0, [1.0]),
            lambda: qvariation(3.0, 2.0),
            lambda: fit_power_law(3.0, [1.0, 2.0, 3.0]),
            lambda: fit_power_law([1.0, 2.0, 3.0], 3.0),
            lambda: _flat("123"),
            lambda: _flat(b"12"),
            lambda: _flat(["a", "b"]),
            lambda: _flat(["1", "2"]),
            lambda: _flat(np.array(["1", "2"])),
            lambda: _flat([object(), 1.0]),
            lambda: _flat([1.0, [2.0, 3.0]]),
            lambda: _rows(["ab", "cd"]),
            lambda: _rows([b"12", b"34"]),
            lambda: _flat([Fraction(1, 2), "3"]),
            lambda: _flat(np.array([Fraction(1, 2), b"3"], dtype=object)),
        ],
        ids=[
            "ragged-rows",
            "rows-not-iterable",
            "matrix-not-iterable",
            "values-not-iterable",
            "grid-not-iterable",
            "grid-not-flat",
            "breakpoints-not-iterable",
            "sequence-not-iterable",
            "fit-not-iterable",
            "fit-ys-not-iterable",
            "grid-is-a-string",
            "grid-is-bytes",
            "grid-of-letters",
            "grid-of-digit-strings",
            "grid-of-numpy-strings",
            "grid-of-objects",
            "grid-with-nested-entry",
            "rows-are-strings",
            "rows-are-bytes",
            "grid-mixes-numbers-and-digit-strings",
            "grid-mixes-numbers-and-bytes",
        ],
    )
    def test_raises_length_mismatch(self, build):
        with pytest.raises(LengthMismatch):
            build()

    def test_accepts_generators(self):
        f = make_pcf((float(k) for k in range(4)), iter([1, 2, 3]))
        rows = _as_float_array(((k, -k) for k in range(4)), "rows", ndim=2)
        assert f.breakpoints_array.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert rows[:, 1].tolist() == [0.0, -1.0, -2.0, -3.0]

    def test_accepts_mixed_number_types(self):
        f = make_pcf([Fraction(1, 2), 1, np.float32(1.5)], [1.0, 2.0])
        assert f.breakpoints_array.tolist() == [0.5, 1.0, 1.5]


class TestReadOnlyStorage:
    def test_stored_arrays_are_read_only_copies(self):
        bps, vals = np.array([0.0, 1.0, 3.0]), np.array([2.0, -1.0])
        pts, mat = np.array([0.0, 1.0, 2.0]), np.ones((3, 2))
        f = make_pcf(bps, vals)
        flat = _as_float_array(pts, "points")
        rows = _as_float_array(mat, "rows", ndim=2)
        stored = {
            "pcf.breakpoints": f.breakpoints_array,
            "pcf.values": f.values_array,
            "pcf.cumulative_mass": f.cumulative_mass,
            "merged pcf": make_pcf([0.0, 1.0, 2.0], [1.0, 1.0]).values_array,
            "flat": flat,
            "rows": rows,
            "fortran rows": _as_float_array(np.asfortranarray(mat), "rows", ndim=2),
        }
        for name, arr in stored.items():
            assert arr.dtype == np.float64, name
            assert arr.flags.c_contiguous, name
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[0] = 99.0

        for caller_input in (bps, vals, pts, mat):
            caller_input[0] = 99.0
        assert f.breakpoints_array.tolist() == [0.0, 1.0, 3.0]
        assert f.values_array.tolist() == [2.0, -1.0]
        assert flat.tolist() == [0.0, 1.0, 2.0]
        assert rows.tolist() == [[1.0, 1.0]] * 3

    def test_scalar_readers_return_python_floats(self):
        f = make_pcf(np.array([0.0, 1.0, 3.0]), np.array([2.0, -1.0]))
        assert type(pcf_eval(f, 0.5)) is float and pcf_eval(f, 0.5) == 2.0
        assert type(pcf_eval(f, 5.0)) is float
        assert all(type(end) is float for end in f.support)
        assert type(f.total_mass) is float and f.total_mass == 0.0
