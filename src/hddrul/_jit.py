"""Backend flag kept for the benchmark's environment line.

Every kernel is plain vectorized NumPy; no compiler is used. The flag stays
because ``perfbench/run.py`` reads it when it prints the environment.
"""

JIT_ENABLED = False
