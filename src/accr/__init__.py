"""accr: almost contact B-metric structures, their curvature, and Yamabe almost solitons."""

__version__ = "0.1.0"
