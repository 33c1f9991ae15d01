"""pacebench: benchmark video encoders under real-time and unconstrained frame delivery.

The package pairs a frame pacer (simulated live capture at exactly the
source rate) with an external-encoder harness, then quantifies coding
efficiency between encoders via BD rate-quality deltas over rate-quality
curves.

Re-exports resolve lazily so that light-weight children (the mock encoder
runs as ``python -m pacebench.mock_encoder`` hundreds of times per
benchmark) load neither ``pacebench.dataset`` nor ``json``.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "BdResult": "bd",
    "CommonRange": "bd",
    "bd_quality": "bd",
    "bd_rate": "bd",
    "common_range": "bd",
    "interpolate": "bd",
    "prune_monotone": "bd",
    "RateQualityCurve": "curves",
    "load_curve_csv": "curves",
    "save_curve_csv": "curves",
    "FrameBuffer": "dataset",
    "PixelFormat": "dataset",
    "VideoSequence": "dataset",
    "frame_byte_size": "dataset",
    "load_manifest": "dataset",
    "open_frame_reader": "dataset",
    "parse_y4m_header": "dataset",
    "BenchmarkConfig": "harness",
    "EncoderProfile": "harness",
    "InputMode": "harness",
    "OutputMode": "harness",
    "RunMode": "harness",
    "RunRecord": "harness",
    "achieved_bitrate": "harness",
    "render_command": "harness",
    "run_benchmark": "harness",
    "throughput_stats": "harness",
    "PacingReport": "pacer",
    "PacingSchedule": "pacer",
    "buffer_latency": "pacer",
    "frame_interval": "pacer",
    "MosCategory": "quality",
    "MosLabel": "quality",
    "QualityReport": "quality",
    "collect_curve": "quality",
    "parse_metric_report": "quality",
    "vmaf_to_mos": "quality",
    "ComparisonMatrix": "report",
    "build_matrix": "report",
    "group_average": "report",
    "rank_profiles": "report",
    "render": "report",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
