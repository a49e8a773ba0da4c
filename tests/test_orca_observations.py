"""Tests for the Orca observation pipeline."""

import numpy as np
import pytest

from repro.cc.netsim import MonitorReport
from repro.orca.observations import FEATURE_NAMES, ObservationBuilder, ObservationConfig


def make_report(throughput=500.0, loss=0.0, delay=0.02, n_acks=100.0, interval=0.2,
                srtt=0.05, min_rtt=0.04, cwnd=20.0):
    return MonitorReport(throughput_pps=throughput, loss_rate=loss, avg_queuing_delay=delay,
                         n_acks=n_acks, interval=interval, srtt=srtt, min_rtt=min_rtt,
                         avg_rtt=srtt, cwnd=cwnd, sent_pps=throughput)


class TestConfig:
    def test_invalid_history(self):
        with pytest.raises(ValueError):
            ObservationConfig(history_len=0)

    def test_invalid_scales(self):
        with pytest.raises(ValueError):
            ObservationConfig(delay_scale=0.0)

    def test_dimensions(self):
        config = ObservationConfig(history_len=3)
        assert config.feature_dim == len(FEATURE_NAMES)
        assert config.state_dim == 3 * len(FEATURE_NAMES)


class TestBuilder:
    def test_initial_state_is_zero(self):
        builder = ObservationBuilder(ObservationConfig(history_len=2))
        assert np.allclose(builder.state(), 0.0)

    def test_state_dim_matches_config(self):
        builder = ObservationBuilder(ObservationConfig(history_len=4))
        assert builder.observe(make_report()).shape == (4 * len(FEATURE_NAMES),)

    def test_all_features_within_bounds(self):
        builder = ObservationBuilder()
        state = builder.observe(make_report(throughput=1e6, loss=2.0, delay=10.0, n_acks=1e9))
        assert np.all(state <= 2.0 + 1e-9)
        assert np.all(state >= -1.0 - 1e-9)

    def test_history_stacking_newest_first(self):
        builder = ObservationBuilder(ObservationConfig(history_len=2))
        builder.observe(make_report(loss=0.1))
        state = builder.observe(make_report(loss=0.9))
        loss_indices = builder.feature_indices("loss")
        assert state[loss_indices[0]] == pytest.approx(0.9)
        assert state[loss_indices[1]] == pytest.approx(0.1)

    def test_delay_normalization(self):
        config = ObservationConfig(delay_scale=0.2)
        builder = ObservationBuilder(config)
        state = builder.observe(make_report(delay=0.1))
        assert state[builder.feature_indices("delay")[0]] == pytest.approx(0.5)

    def test_inv_rtt_feature(self):
        builder = ObservationBuilder()
        state = builder.observe(make_report(srtt=0.08, min_rtt=0.04))
        assert state[builder.feature_indices("inv_rtt")[0]] == pytest.approx(0.5)

    def test_inv_rtt_defaults_to_one_without_samples(self):
        builder = ObservationBuilder()
        state = builder.observe(make_report(srtt=0.0, min_rtt=0.0))
        assert state[builder.feature_indices("inv_rtt")[0]] == pytest.approx(1.0)

    def test_dcwnd_sign_tracks_changes(self):
        builder = ObservationBuilder()
        builder.observe(make_report(cwnd=20.0))
        state_up = builder.observe(make_report(cwnd=30.0))
        assert state_up[builder.feature_indices("dcwnd")[0]] > 0.0
        state_down = builder.observe(make_report(cwnd=10.0))
        assert state_down[builder.feature_indices("dcwnd")[0]] < 0.0

    def test_max_throughput_tracked(self):
        builder = ObservationBuilder()
        builder.observe(make_report(throughput=100.0))
        builder.observe(make_report(throughput=900.0))
        assert builder.max_throughput == pytest.approx(900.0)
        state = builder.observe(make_report(throughput=450.0))
        assert state[builder.feature_indices("throughput")[0]] == pytest.approx(0.5)

    def test_reset_clears_history(self):
        builder = ObservationBuilder()
        builder.observe(make_report())
        builder.reset()
        assert np.allclose(builder.state(), 0.0)
        assert builder.max_throughput == pytest.approx(1.0)

    def test_feature_indices_validation(self):
        builder = ObservationBuilder()
        with pytest.raises(KeyError):
            builder.feature_indices("nonexistent")
        with pytest.raises(IndexError):
            builder.feature_indices("delay", steps=[99])

    def test_feature_indices_cover_all_steps(self):
        builder = ObservationBuilder(ObservationConfig(history_len=3))
        indices = builder.feature_indices("delay")
        assert len(indices) == 3
        assert len(set(indices)) == 3

    @pytest.mark.parametrize("history_len", [1, 2, 3, 5])
    def test_feature_columns_select_the_feature_indices(self, history_len):
        builder = ObservationBuilder(ObservationConfig(history_len=history_len))
        positions = np.arange(builder.state_dim)
        for name in FEATURE_NAMES:
            assert positions[builder.feature_columns(name)].tolist() == builder.feature_indices(name)
        with pytest.raises(KeyError):
            builder.feature_columns("nonexistent")

    def test_feature_history_matches_observations(self):
        builder = ObservationBuilder(ObservationConfig(history_len=3, delay_scale=1.0))
        for delay in (0.1, 0.2, 0.3):
            builder.observe(make_report(delay=delay))
        history = builder.feature_history("delay")
        assert history[0] == pytest.approx(0.3)
        assert history[2] == pytest.approx(0.1)
