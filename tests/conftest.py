"""Session-wide caches shared by the test modules.

Operator bundles, clamped maps, base-flow samples, and solved pencils are
deterministic and moderately expensive, so they are built once and reused
across files.
"""

import numpy as np
import pytest

import mhdes
from mhdes.orr_evp import pencil_forms


class Workbench:
    def __init__(self):
        self._ops = {}
        self._maps = {}
        self._samples = {}
        self._sols = {}

    def op(self, N):
        if N not in self._ops:
            self._ops[N] = mhdes.build_operator(N)
        return self._ops[N]

    def maps(self, N):
        if N not in self._maps:
            self._maps[N] = mhdes.clamped_restrict(self.op(N))
        return self._maps[N]

    def params(self, flow, Ha, Pm=0.1):
        return mhdes.Params(flow=flow, Ha=float(Ha), Pm=float(Pm))

    def sample(self, flow, Ha, N):
        key = (flow, float(Ha), N)
        if key not in self._samples:
            self._samples[key] = mhdes.profile_for(
                self.params(flow, Ha), self.op(N).nodes)
        return self._samples[key]

    def pencil(self, flow, Ha, a, N=60, Pm=0.1):
        p = self.params(flow, Ha, Pm)
        return mhdes.assemble_pencil(p, a, self.op(N),
                                     self.sample(flow, Ha, N), self.maps(N))

    def solution(self, flow, Ha, a, N=60, Pm=0.1):
        key = (flow, float(Ha), float(Pm), float(a), N)
        if key not in self._sols:
            self._sols[key] = mhdes.solve_max_m(self.pencil(flow, Ha, a, N, Pm))
        return self._sols[key]

    def slope(self, flow, Ha, a, N=60, Pm=0.1):
        """dm/da of the solution at a, by the Hellmann-Feynman formula as
        the reference: K is linear in a and S = Q2 + 2 a^2 Q1 + a^4 Q0, so
        dm/da = m/a - m (4 a s1 + 4 a^3 s0) / (s2 + 2 a^2 s1 + a^4 s0)
        with s_k = q^H blockdiag(Q_k, Q_k) q of the modal eigenvector q."""
        sol = self.solution(flow, Ha, a, N, Pm)
        forms = pencil_forms(self.params(flow, Ha, Pm), self.op(N),
                             self.sample(flow, Ha, N), self.maps(N))
        s0, s1, s2 = (np.vdot(sol.q, sol.q @ Q).real
                      for Q in (forms.Q0, forms.Q1, forms.Q2))
        return sol.m / a - sol.m * ((4.0 * a * s1 + 4.0 * a**3 * s0)
                                    / (s2 + 2.0 * a * a * s1 + a**4 * s0))

    def eig_field(self, flow, Ha, a, N=60, Pm=0.1):
        sol = self.solution(flow, Ha, a, N, Pm)
        return mhdes.make_trial_field(a, sol.w_hat, sol.l_hat, self.op(N))


@pytest.fixture(scope="session")
def wb():
    return Workbench()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260815)
