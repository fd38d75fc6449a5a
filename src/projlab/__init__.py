"""projlab: discretized restricted-projection, incidence and decoupling lab."""

from . import covering, curve, dyadic, fourier, fractal, incidence, projection  # noqa: F401

__version__ = "0.1.0"
