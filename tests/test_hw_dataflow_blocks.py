"""Tests for the dataflow ablation and the template block inventory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.stats import WindowStats
from repro.errors import ConfigurationError
from repro.hw import REFERENCE_WORKLOAD
from repro.hw.blocks import fixed_block_totals, template_inventory
from repro.hw.dataflow import (
    dataflow_energy_ratio,
    feature_stationary_cost,
    ram_word_energy,
    rotation_stationary_cost,
)
from repro.hw.resources import DEFAULT_RESOURCE_MODEL


class TestDataflowAblation:
    def test_feature_stationary_wins_on_typical_window(self):
        """Sec. 4.2's decision: with ~10x more features than keyframes,
        the feature-stationary order saves substantial access energy."""
        ratio = dataflow_energy_ratio(REFERENCE_WORKLOAD)
        assert ratio > 3.0

    def test_small_ram_is_cheaper_per_word(self):
        assert ram_word_energy(100) < ram_word_energy(10_000)

    def test_rotation_ram_is_the_small_one(self):
        feature = feature_stationary_cost(REFERENCE_WORKLOAD)
        rotation = rotation_stationary_cost(REFERENCE_WORKLOAD)
        assert feature.ram_capacity_words < rotation.ram_capacity_words

    @given(
        st.integers(min_value=50, max_value=500),
        st.integers(min_value=5, max_value=20),
        st.floats(min_value=2.0, max_value=15.0),
    )
    @settings(max_examples=40)
    def test_wins_across_slam_regimes(self, features, keyframes, avg_obs):
        """Whenever features outnumber keyframes by the SLAM-typical
        margin, feature-stationary is the right dataflow."""
        stats = WindowStats(
            num_features=features,
            avg_observations=avg_obs,
            num_keyframes=keyframes,
            num_marginalized=1,
            num_observations=int(features * avg_obs),
        )
        if features >= 5 * keyframes:
            assert dataflow_energy_ratio(stats) > 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            feature_stationary_cost(
                WindowStats(
                    num_features=0,
                    avg_observations=1.0,
                    num_keyframes=1,
                    num_marginalized=0,
                )
            )


class TestBlockInventory:
    def test_fixed_blocks_sum_to_model_base(self):
        """The inventory partitions exactly the R0 of Equ. 16."""
        totals = fixed_block_totals()
        for kind in ("lut", "ff", "bram", "dsp"):
            assert totals[kind] == pytest.approx(
                getattr(DEFAULT_RESOURCE_MODEL, kind).base, rel=1e-9
            )

    def test_customizable_blocks_match_model_slopes(self):
        inventory = {b.name: b for b in template_inventory()}
        dschur = inventory["d-type-schur (per MAC)"]
        assert dschur.dsp == DEFAULT_RESOURCE_MODEL.dsp.per_nd
        chol = inventory["cholesky (per Update unit)"]
        assert chol.lut == DEFAULT_RESOURCE_MODEL.lut.per_s

    def test_three_customizable_blocks(self):
        customizable = [b for b in template_inventory() if b.customizable]
        assert len(customizable) == 3  # the paper's nd / nm / s

    def test_buffers_hold_the_s_matrix(self):
        from repro.linalg.smatrix import SMatrixLayout

        inventory = {b.name: b for b in template_inventory()}
        buffers = inventory["parameter-and-io-buffers"]
        needed = SMatrixLayout(15, 15).compact_words * 32 / 36_864
        assert buffers.bram > needed * 0.5

    def test_jacobian_units_carry_most_fixed_dsp(self):
        inventory = [b for b in template_inventory() if not b.customizable]
        dsp = {b.name: b.dsp for b in inventory}
        assert max(dsp, key=dsp.get) == "visual-jacobian-unit"
