"""Behavioral simulator and verification harness for a CTIA-based
in-pixel computing accelerator."""

from .adc import AdcConfig, cds_signed, maxpool, quantize, relu_requantize
from .golden import compare_runs, golden_layer
from .mapper import (
    BnParams,
    ConvSpec,
    FusedLayer,
    Schedule,
    build_schedule,
    fuse_and_quantize,
    fuse_bn,
    output_dims,
    quantize_weights,
)
from .metrics import (
    MismatchSpec,
    bandwidth_reduction,
    energy_estimate,
    linearity_sweep,
    metrics_report,
    monte_carlo,
    op_count,
)
from .pipeline import CalibrationMap, ChainConfig, simulate_layer
from .pixel import (
    FitResult,
    PixelParams,
    fit_transfer,
    integrate,
)
from .pixel_array import (
    ArrayConfig,
    readout_frame,
    run_mac_cycle,
)
from .wtc import CounterConfig, match_ticks, match_time

__version__ = "0.1.0"
