import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gridscan as gs
from gridscan.dataset import CsvFormatError, kind_from_name


def test_normalize_endpoints():
    ops = gs.normalize(np.array([[10.0], [20.0], [30.0]]), ["gen01_P"])
    assert ops.values[:, 0].tolist() == [-1.0, 0.0, 1.0]


def test_normalize_constant_column_maps_to_zero():
    ops = gs.normalize(np.array([[5.0], [5.0], [5.0]]), ["x"])
    assert ops.values[:, 0].tolist() == [0.0, 0.0, 0.0]
    # round-trip recovers the constant exactly
    assert gs.denormalize(ops)[:, 0].tolist() == [5.0, 5.0, 5.0]


def test_normalize_affine_map_direct_evaluation():
    # column [0, 1, 4]: affine map sends 0 -> -1, 4 -> +1, so 1 -> -0.5
    ops = gs.normalize(np.array([[0.0], [1.0], [4.0]]), ["x"])
    assert np.allclose(ops.values[:, 0], [-1.0, -0.5, 1.0])


def test_normalize_rejects_non_finite_with_location():
    raw = np.ones((3, 2))
    raw[1, 1] = np.nan
    with pytest.raises(ValueError, match="row 1, column 1"):
        gs.normalize(raw, ["a", "b"])


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 12), st.integers(1, 6)),
        elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )
)
def test_normalize_roundtrip_and_range(raw):
    ops = gs.normalize(raw, [f"a{i}" for i in range(raw.shape[1])])
    assert ops.values.min() >= -1.0 and ops.values.max() <= 1.0
    back = gs.denormalize(ops)
    assert np.allclose(back, raw, rtol=1e-9, atol=1e-9 * (1 + np.abs(raw).max()))


def test_operating_point_set_is_read_only(year):
    with pytest.raises(ValueError):
        year.values[0, 0] = 0.5


def test_kind_inference():
    assert kind_from_name("gen03_P") == gs.AttributeKind.GENERATOR_P
    assert kind_from_name("load01_Q") == gs.AttributeKind.LOAD_Q
    assert kind_from_name("inter02_P") == gs.AttributeKind.INTERCONNECTOR_P
    assert kind_from_name("hvdc01_Q") == gs.AttributeKind.HVDC_Q
    assert kind_from_name("frequency") == gs.AttributeKind.OTHER


def test_load_csv_well_formed(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("hour,a_P,b_Q\n0,1.0,2.0\n1,2.0,3.0\n2,3.0,4.0\n")
    ops = gs.load_csv(p)
    assert ops.n_points == 3
    assert ops.attribute_names() == ["a_P", "b_Q"]
    assert ops.values[:, 0].tolist() == [-1.0, 0.0, 1.0]


def test_load_csv_text_cell_cites_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("hour,a\n0,1.0\n1,oops\n")
    with pytest.raises(CsvFormatError, match="row 3"):
        gs.load_csv(p)


def test_load_csv_ragged_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("hour,a,b\n0,1.0,2.0\n1,1.0\n")
    with pytest.raises(CsvFormatError, match="row 3"):
        gs.load_csv(p)


def test_load_csv_duplicate_hour(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("hour,a\n0,1.0\n0,2.0\n")
    with pytest.raises(CsvFormatError, match="duplicate hour 0"):
        gs.load_csv(p)


def test_save_then_load_full_year(tmp_path, year):
    # the year-long horizon: 8760 hourly operating points survive a
    # save/load round trip
    p = tmp_path / "year.csv"
    gs.save_csv(year, p)
    assert (tmp_path / "year.csv.norm.json").exists()
    back = gs.load_csv(p)
    assert back.n_points == 8760
    assert np.allclose(back.values, year.values, atol=1e-9)


def test_generate_deterministic():
    cfg = gs.SyntheticYearConfig(n_hours=500, n_attributes=5, seed=42)
    a = gs.generate_synthetic_year(cfg)
    b = gs.generate_synthetic_year(cfg)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.timestamps, b.timestamps)


def test_generate_zero_amplitudes_all_zero():
    cfg = gs.SyntheticYearConfig(
        n_hours=100, n_attributes=3, seed=0,
        seasonal_amplitude=0.0, diurnal_amplitude=0.0, noise_sigma=0.0,
    )
    data = gs.generate_synthetic_year(cfg)
    assert np.all(data.values == 0.0)


def test_generate_diurnal_autocorrelation(year):
    # the 24-hour component shows up as a lag-24 autocorrelation peak,
    # which an off-cycle lag like 13 cannot match
    def autocorr(x, lag):
        x = x - x.mean()
        return float(np.dot(x[:-lag], x[lag:]) / np.dot(x, x))

    for col in range(0, year.n_attributes, 5):
        x = year.values[:, col]
        assert autocorr(x, 24) > autocorr(x, 13)


def test_generate_metadata_lists_informative(year):
    assert year.metadata["informative_indices"] == [0, 1, 2]
    assert year.metadata["informative_names"] == year.attribute_names()[:3]


def test_generate_rejects_bad_config():
    with pytest.raises(ValueError):
        gs.SyntheticYearConfig(n_attributes=3, n_informative=5)
    with pytest.raises(ValueError):
        gs.SyntheticYearConfig(noise_sigma=-0.1)
