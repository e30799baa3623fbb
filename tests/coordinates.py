"""The coordinate jets of a soliton context, for tests that write a field
in them: a context hands its coordinate jets to its builder and holds none
after, so a test builds them again from the context's jet space."""

import numpy as np


def coordinate_jets(ctx) -> tuple:
    """x1, ..., xn as jets at the context's sample points: ``JetSpace.variables``
    seeded at ``ctx.points["x"]``, the seeds of the variables after them
    being 0.0, which the coordinate jets do not read."""
    x = ctx.points["x"]
    rest = np.zeros((ctx.space.n_vars - len(x), x.shape[1]))
    return tuple(ctx.space.variables(np.vstack([x, rest]))[:len(x)])
