"""Tests for the analysis modules: redundancy, trade-off, sensitivity, checkpointing."""

import pytest

from repro.analysis import (
    KNOWN_MOE_MODELS,
    advantage_border_topk,
    characterize_alltoall_latency,
    compare_ssmb_vs_checkpointing,
    mean_latency_by_scale,
    redundancy_by_ep_size,
    sample_redundancy_rate,
    ssmb_advantage,
    tradeoff_table,
)
from repro.config import ParallelConfig, frontier_system, paper_config


class TestRedundancyAnalysis:
    def test_fig4_series(self):
        """The Fig. 4 series: redundancy falls from ~75% to ~9% as EP grows."""
        series = redundancy_by_ep_size()
        assert series[16] == pytest.approx(0.751, abs=0.03)
        assert series[256] == pytest.approx(0.092, abs=0.03)
        values = [series[ep] for ep in (16, 32, 64, 128, 256)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_sampled_close_to_analytic(self):
        sampled = sample_redundancy_rate(256, 8, 64, num_tokens=2000, seed=0)
        analytic = redundancy_by_ep_size()[64]
        assert sampled == pytest.approx(analytic, abs=0.03)

    def test_skewed_routing_increases_redundancy(self):
        uniform = sample_redundancy_rate(256, 8, 64, num_tokens=2000, seed=1, skew=0.0)
        skewed = sample_redundancy_rate(256, 8, 64, num_tokens=2000, seed=1, skew=1.2)
        assert skewed > uniform


class TestTradeoffAnalysis:
    def test_fig17_model_classification(self):
        """DeepSeek models in SSMB's zone, Mixtral in TED's, for all S."""
        table = tradeoff_table()
        for seq in (2048, 4096, 8192):
            assert table["deepseek-moe"][seq] is True
            assert table["deepseek-v3"][seq] is True
            assert table["mixtral-8x7b"][seq] is False
            assert table["mixtral-8x22b"][seq] is False

    def test_arctic_flips_with_sequence_length(self):
        """Arctic sits near the border: the verdict depends on S (Fig. 17)."""
        table = tradeoff_table()
        verdicts = [table["arctic"][s] for s in (2048, 4096, 8192)]
        assert verdicts[0] is False
        assert verdicts[-1] is True

    def test_border_formula(self):
        border = advantage_border_topk(2048, 4096, capacity_factor=1.0)
        assert border == pytest.approx(1.0)
        assert ssmb_advantage(2048, 2, 4096) is True  # k=2 above border=1
        assert ssmb_advantage(2048, 1, 4096) is False

    def test_known_models_have_positive_dims(self):
        for point in KNOWN_MOE_MODELS.values():
            assert point.ffn_hidden_size > 0 and point.top_k > 0

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            ssmb_advantage(0, 2, 2048)
        with pytest.raises(ValueError):
            advantage_border_topk(1024, 0)


class TestAlltoallSensitivity:
    def test_latency_grows_then_spikes_beyond_rack(self):
        """Figs. 18-19: latency is flat-ish within a rack and the outlier
        fraction appears only beyond 256 GPUs."""
        samples = characterize_alltoall_latency(
            gpu_counts=(8, 64, 256, 512), num_runs=120, seed=3
        )
        means = mean_latency_by_scale(samples)
        assert means[512] > means[256] >= means[64]
        by_count = {s.num_gpus: s for s in samples}
        threshold = 3 * by_count[256].mean_ms
        assert by_count[512].outlier_fraction(threshold) > 0
        assert by_count[64].outlier_fraction(threshold) == pytest.approx(0.0)

    def test_p99_exceeds_mean_beyond_rack(self):
        samples = characterize_alltoall_latency(gpu_counts=(512,), num_runs=150, seed=5)
        assert samples[0].p99_ms > 1.5 * samples[0].mean_ms

    def test_invalid_runs_rejected(self):
        with pytest.raises(ValueError):
            characterize_alltoall_latency(gpu_counts=(8,), num_runs=0)


class TestCheckpointingComparison:
    def test_fig14_ssmb_wins(self):
        parallel = ParallelConfig(
            world_size=256,
            ep_size=64,
            tp_size=2,
            micro_batch_size=1,
            global_batch_size=1024,
            dispatch="rbd",
        )
        result = compare_ssmb_vs_checkpointing(
            paper_config("large"), parallel, frontier_system(32)
        )
        assert result.speedup > 1.2
        assert result.ssmb_tflops > result.checkpointing_tflops
        # Both strategies keep activations manageable.
        assert result.checkpointing_activation_gb < result.ssmb_activation_gb * 2.5

    def test_requires_tp_at_least_two(self):
        parallel = ParallelConfig(world_size=256, ep_size=64, tp_size=1, global_batch_size=1024)
        with pytest.raises(ValueError):
            compare_ssmb_vs_checkpointing(paper_config("large"), parallel)
