"""Geometry kernels used only by the battery."""
