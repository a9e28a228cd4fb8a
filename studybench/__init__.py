"""End-to-end study benchmark for the repro package; see README.md."""
