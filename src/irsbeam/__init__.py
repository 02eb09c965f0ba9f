"""Beamforming design and rate simulation for an active IRS link.

An active intelligent reflecting surface amplifies as well as phase
shifts, subject to a reflect-power budget and an amplification noise
penalty. This package provides the channel model, four coefficient
designs plus two sanity baselines, the link metrics, a brute-force
optimality oracle for small surfaces, and a seeded Monte-Carlo
experiment harness with a CSV-emitting CLI.
"""

from .system import *
from .beamforming import *
from .metrics import *
from .oracle import *
from .config import *
from .experiments import *

__version__ = "0.1.0"
