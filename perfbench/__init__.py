"""Benchmark of the charp scenario path; see README.md."""
