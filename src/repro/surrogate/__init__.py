"""Empty compatibility package; only the :mod:`.guide` stub remains.

The learned sweep-pruning code that lived here was removed: Algorithm 1
always runs the full selection and tuning sweeps.
"""
