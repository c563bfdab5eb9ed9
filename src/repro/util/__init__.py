"""Shared utilities: units, errors, deterministic RNG.

These helpers are deliberately dependency-light; every other subpackage may
import from here, and this package imports nothing else from :mod:`repro`.
"""

from repro.util.errors import (
    ReproError,
    ConfigurationError,
    SimulationError,
    TopologyError,
    QueryError,
)
from repro.util.units import (
    KILO,
    MEGA,
    GIGA,
    bits_to_bytes,
    bytes_to_bits,
    parse_bandwidth,
    parse_bytes,
    parse_time,
    format_bandwidth,
    format_bytes,
    format_time,
    mbps,
    gbps,
    kbps,
)
from repro.util.rng import make_rng, spawn_rng

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "TopologyError",
    "QueryError",
    "KILO",
    "MEGA",
    "GIGA",
    "bits_to_bytes",
    "bytes_to_bits",
    "parse_bandwidth",
    "parse_bytes",
    "parse_time",
    "format_bandwidth",
    "format_bytes",
    "format_time",
    "mbps",
    "gbps",
    "kbps",
    "make_rng",
    "spawn_rng",
]
