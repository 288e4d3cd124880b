"""perfbench: the steady, host-normalized benchmark of the LEQA reference paths.

``run.py`` is the entry point; see its docstring and ``README.md``.
"""
