"""End-to-end and per-layer benchmark of the casgd simulator (see README.md)."""
