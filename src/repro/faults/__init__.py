"""Fault injection: crash and restart plans applied to a simulator."""
