"""Path-integral attribution of macro indicators over multi-agent feature panels."""

__version__ = "0.1.0"

from . import attribution, baselines, panel, scalingbias, study, valuefn  # noqa: F401
