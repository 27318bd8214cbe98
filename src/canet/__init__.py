"""canet: multivariate time-series anomaly detection built on coupled
temporal attention and adaptive global-local sensor graphs."""

# The bench's absent-name test deletes this re-export; it goes with that wrapper.
from canet.attention import scaled_dot_attention

__version__ = "0.1.0"
