"""Workload contract: build a module, predict its outputs, verify a run."""

import math


class Workload:
    """One benchmark: a DSL program plus its reference model.

    Subclasses set ``name`` and ``category`` ('kernel' or 'application'),
    implement :meth:`build` to construct a *fresh* module (compilation
    consumes modules, so the harness calls ``build`` once per
    configuration), and :meth:`expected` to compute the reference outputs
    with ordinary Python/NumPy.
    """

    name = None
    category = None
    #: relative tolerance for float output comparison
    rtol = 1e-9
    #: absolute tolerance floor
    atol = 1e-9

    def build(self):
        """Return a freshly built :class:`repro.ir.Module`."""
        raise NotImplementedError

    def expected(self):
        """Map of global name -> expected contents after a run."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def verify(self, simulator, expected=None):
        """Check the simulator's final state against :meth:`expected`.

        A caller verifying several runs of one workload computes the
        reference model once and passes it as *expected*.  Raises
        ``AssertionError`` naming the first mismatching element.
        """
        if expected is None:
            expected = self.expected()
        for name, want in expected.items():
            got = simulator.read_global(name)
            if not isinstance(want, (list, tuple)):
                want = [want]
            if not isinstance(got, (list, tuple)):
                got = [got]
            if len(got) != len(want):
                raise AssertionError(
                    "%s: %s has %d elements, expected %d"
                    % (self.name, name, len(got), len(want))
                )
            for i, (g, w) in enumerate(zip(got, want)):
                if not _close(g, w, self.rtol, self.atol):
                    raise AssertionError(
                        "%s: %s[%d] = %r, expected %r"
                        % (self.name, name, i, g, w)
                    )

    def __repr__(self):
        return "<Workload %s (%s)>" % (self.name, self.category)


def _close(got, want, rtol, atol):
    if isinstance(want, int) and isinstance(got, int):
        return got == want
    return math.isclose(got, want, rel_tol=rtol, abs_tol=atol)
