"""Deterministic discrete-event simulation of a global batch run."""
