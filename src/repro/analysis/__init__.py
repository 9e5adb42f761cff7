"""Analysis: figure/table reproduction drivers, the paper's numbers, and the
findings that compare the two (:mod:`repro.analysis.findings`)."""

from repro.analysis import figures
from repro.analysis.expectations import PAPER
from repro.analysis.figures import *  # noqa: F403 (the drivers)
from repro.analysis.hosting import (
    HOSTING_PLANS,
    HostingPlan,
    most_common_recommendation,
)

__all__ = [
    "HOSTING_PLANS",
    "HostingPlan",
    "PAPER",
    "most_common_recommendation",
    *figures.__all__,
]
