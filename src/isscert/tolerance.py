"""The one tolerance rule: every check of lhs <= rhs fails where ``exceeds``
says so, relative to |rhs| or to a size of the numbers' own, with no
absolute floor, so a rule homogeneous in x gives one verdict at every |x|.
Not check tolerances, so kept where they are: lmi.SYMMETRY_TOL (1e-12)
validates input, which REL_TOL would loosen 1000x; lmi.GRAM_TOL, GRAM_STEPS
and the margins of lmi.synthesize are design choices; certify.DEGENERATE_GAP
is where a rate gap is too small to divide by; the 1e-12 of
simulate._step_count rounds a step count, as bench/generate.py does;
simulate.FINITE_LIMIT stops a run; the flow rule's dini_coeff h shrinks with h.
"""

import numpy as np

REL_TOL = 1e-9


def exceeds(lhs, rhs, scale=None):
    """lhs > rhs + REL_TOL scale elementwise, scale |rhs| by default, through one
    float array; the slack is capped, so inf compares exactly; NaN never exceeds."""
    size = rhs if scale is None else scale
    bound = np.abs(size, out=np.empty(np.broadcast(rhs, size).shape))
    np.multiply(np.minimum(bound, np.finfo(float).max, out=bound), REL_TOL, out=bound)
    bound += rhs
    return np.greater(lhs, bound)
