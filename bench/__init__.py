"""The repository's performance benchmark (see bench/README.md).

Everything here measures ``src/repro`` from outside, through its public
functions; nothing under ``src/`` imports from this package.
"""
