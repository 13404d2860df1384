"""qtrack: optimal quantum operations for tracking sequences of density matrices.

The package provides a generic dense SDP route and a closed-form qubit route
to the same tracking problems, each able to certify the other's optimality.
The command line, :mod:`qtrack.cli`, is imported only when asked for, so that
``python -m qtrack.cli`` runs it as ``__main__`` without a second copy.
"""

from . import (
    analytic,
    applications,
    channels,
    distances,
    linalg,
    multistep,
    sdp,
    serialize,
    tracking,
)

__all__ = [
    "analytic",
    "applications",
    "channels",
    "cli",
    "distances",
    "linalg",
    "multistep",
    "sdp",
    "serialize",
    "tracking",
]

__version__ = "0.1.0"
