"""Tests for model configuration and Table 3 parameter counting."""

import math

import pytest

from repro.config import (
    MoEModelConfig,
    PAPER_CONFIGS,
    large_config,
    medium_config,
    paper_config,
    small_config,
    small_lr_config,
    small_sr_config,
    super_config,
)
from repro.moe.layer import compute_capacity


class TestPaperConfigs:
    def test_all_presets_constructible(self):
        for name in PAPER_CONFIGS:
            cfg = paper_config(name)
            assert cfg.total_params() > 0
            assert cfg.activated_params() > 0

    @pytest.mark.parametrize(
        "factory, expected_total_b, expected_active_b",
        [
            (small_config, 10.1, 1.3),
            (medium_config, 55.2, 5.2),
            (large_config, 201.4, 11.5),
            (super_config, 545.4, 28.7),
        ],
    )
    def test_table3_parameter_counts(self, factory, expected_total_b, expected_active_b):
        """Total / activated parameter counts should land near Table 3."""
        cfg = factory()
        total_b = cfg.total_params() / 1e9
        active_b = cfg.activated_params() / 1e9
        assert total_b == pytest.approx(expected_total_b, rel=0.12)
        assert active_b == pytest.approx(expected_active_b, rel=0.25)

    def test_table3_architecture_fields(self):
        small = small_config()
        assert (small.seq_length, small.hidden_size, small.ffn_hidden_size) == (
            2048,
            2048,
            1408,
        )
        assert (small.num_experts, small.top_k, small.num_layers) == (64, 6, 28)
        large = large_config()
        assert (large.num_experts, large.top_k) == (256, 8)
        sup = super_config()
        assert sup.num_layers == 61

    def test_activated_less_than_total(self):
        for name in ("small", "medium", "large", "super"):
            cfg = paper_config(name)
            assert cfg.activated_params() < cfg.total_params()

    def test_small_variants(self):
        assert small_sr_config().seq_length == 1024
        assert small_sr_config().num_layers == 28
        assert small_lr_config().num_layers == 14
        assert small_lr_config().seq_length == 2048

    def test_unknown_config_raises(self):
        with pytest.raises(KeyError):
            paper_config("gigantic")


class TestMoEModelConfig:
    def test_validation_rejects_bad_topk(self):
        with pytest.raises(ValueError):
            MoEModelConfig(
                name="bad",
                seq_length=128,
                hidden_size=64,
                ffn_hidden_size=32,
                num_experts=4,
                top_k=8,
                num_layers=2,
            )

    def test_validation_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            MoEModelConfig(
                name="bad",
                seq_length=0,
                hidden_size=64,
                ffn_hidden_size=32,
                num_experts=4,
                top_k=2,
                num_layers=2,
            )

    def test_expert_capacity_formula(self):
        cfg = small_config()
        capacity = compute_capacity(2048, cfg.top_k, cfg.num_experts, cfg.capacity_factor)
        expected = math.ceil(1.25 * 2048 * 6 / 64)
        assert capacity == expected

    def test_expert_capacity_rejects_bad_inputs(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            compute_capacity(0, cfg.top_k, cfg.num_experts, cfg.capacity_factor)

    def test_scaled_returns_modified_copy(self):
        cfg = small_config()
        deeper = cfg.scaled(num_layers=56)
        assert deeper.num_layers == 56
        assert cfg.num_layers == 28
        assert deeper.hidden_size == cfg.hidden_size

    def test_flops_scale_with_topk(self):
        base = large_config()
        higher_k = base.scaled(top_k=16)
        assert higher_k.flops_per_token() > base.flops_per_token()

    def test_train_flops_is_three_times_forward(self):
        cfg = small_config()
        assert cfg.train_flops_per_token() == pytest.approx(3 * cfg.flops_per_token())

    def test_moe_layer_counts_with_frequency(self):
        cfg = small_config().scaled(moe_layer_frequency=2)
        assert cfg.num_moe_layers == 14
        assert cfg.num_dense_layers == 14

    def test_summary_contains_headline_numbers(self):
        summary = medium_config().summary()
        assert summary["name"] == "medium"
        assert summary["total_params_B"] > summary["activated_params_B"]
