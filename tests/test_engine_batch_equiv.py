"""Engine-level execution-mode equivalence on one LLC backend.

:mod:`tests.test_engine_equiv` compares the fast path (vector exec on the
array backend) against the oracle (scalar exec on the scalar backend),
so a divergence there may come from either the exec mode or the LLC
backend.  These tests hold the backend fixed at ``"array"`` and vary
only the exec mode: the batched vector drain must be *the same
simulation* as the per-packet scalar loop over the same cache model —
every recorded metric field and every controller decision identical.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import EXEC_MODES
from tests.test_engine_equiv import _run_iat, _run_leaky


class TestExecModeEquivalence:
    @pytest.mark.parametrize("seed", [8, 77])
    def test_vector_equals_scalar_fig8(self, seed):
        assert (_run_leaky("vector", seed, backend="array")
                == _run_leaky("scalar", seed, backend="array"))

    def test_all_modes_match_fig9_many_flows(self):
        runs = [_run_leaky(mode, 11, n_flows=128, backend="array")
                for mode in EXEC_MODES]
        assert len(runs) == 2
        assert runs[0] == runs[1]

    def test_vector_equals_scalar_with_iat_daemon(self):
        vec_metrics, vec_history = _run_iat("vector", 7, backend="array")
        sca_metrics, sca_history = _run_iat("scalar", 7, backend="array")
        assert vec_history, "the daemon was expected to act"
        assert vec_metrics == sca_metrics
        assert vec_history == sca_history
