"""ParMAC trainer: distributed training matches serial behaviour."""

import numpy as np
import pytest

from repro.autoencoder import BinaryAutoencoder
from repro.core.evaluation import PrecisionEvaluator
from repro.core.mac import MACTrainerBA
from repro.core.parmac import ParMACTrainerBA
from repro.core.penalty import GeometricSchedule
from repro.distributed.costmodel import CostModel


@pytest.fixture(scope="module")
def X():
    from repro.data.synthetic import make_clustered

    return make_clustered(240, 10, n_clusters=4, rng=2)


SCHED = GeometricSchedule(1e-4, 2.0, 6)


class TestSimulatedBackends:
    @pytest.mark.parametrize("backend", ["sync", "async"])
    def test_trains_and_records(self, X, backend):
        ba = BinaryAutoencoder.linear(10, 4)
        tr = ParMACTrainerBA(ba, SCHED, n_machines=4, backend=backend, seed=0)
        h = tr.fit(X)
        assert len(h) >= 1
        assert np.isfinite(h.records[-1].e_q)
        assert h.records[-1].time > 0  # virtual clock populated

    def test_close_to_serial_mac(self, X):
        # ParMAC "gives almost identical results to MAC" (section 6).
        serial = BinaryAutoencoder.linear(10, 4)
        MACTrainerBA(serial, SCHED, w_epochs=2, decoder_exact=False, seed=0).fit(X)
        par = BinaryAutoencoder.linear(10, 4)
        ParMACTrainerBA(par, SCHED, n_machines=4, epochs=2, seed=0).fit(X)
        e_serial = serial.e_ba(X)
        e_par = par.e_ba(X)
        assert e_par <= e_serial * 1.25 + 1e-9

    def test_machine_count_does_not_degrade(self, X):
        # Figs. 7-8: varying P jitters the curve (minibatch ordering) but
        # does not systematically degrade the result.
        sched = GeometricSchedule(1e-3, 2.5, 8)
        finals = []
        for P in (1, 2, 4, 8):
            ba = BinaryAutoencoder.linear(10, 4)
            h = ParMACTrainerBA(ba, sched, n_machines=P, seed=0).fit(X)
            finals.append(h.records[-1].e_ba)
        assert max(finals) <= min(finals) * 2.0

    def test_evaluator_integration(self, X):
        ba = BinaryAutoencoder.linear(10, 4)
        ev = PrecisionEvaluator(X[:15], X, K=20, k=10)
        h = ParMACTrainerBA(ba, SCHED, n_machines=3, evaluator=ev, seed=0).fit(X)
        assert all(r.precision is not None for r in h.records)

    def test_cost_model_drives_times(self, X):
        cheap = ParMACTrainerBA(
            BinaryAutoencoder.linear(10, 4), SCHED, n_machines=4,
            cost=CostModel(t_wr=1, t_wc=0, t_zr=1), seed=0,
        )
        pricey = ParMACTrainerBA(
            BinaryAutoencoder.linear(10, 4), SCHED, n_machines=4,
            cost=CostModel(t_wr=1, t_wc=10_000, t_zr=1), seed=0,
        )
        t_cheap = cheap.fit(X).total_time
        t_pricey = pricey.fit(X).total_time
        assert t_pricey > t_cheap

    def test_alphas_load_balancing(self, X):
        ba = BinaryAutoencoder.linear(10, 4)
        tr = ParMACTrainerBA(
            ba, SCHED, n_machines=3, alphas=[2.0, 1.0, 1.0], seed=0
        )
        tr.fit(X)
        sizes = [tr.cluster_.shards[p].n for p in tr.cluster_.machines]
        assert sizes[0] == pytest.approx(2 * sizes[1], abs=2)

    def test_shuffle_ring_works(self, X):
        ba = BinaryAutoencoder.linear(10, 4)
        h = ParMACTrainerBA(
            ba, SCHED, n_machines=4, shuffle_ring=True, epochs=2, seed=0
        ).fit(X)
        assert np.isfinite(h.records[-1].e_q)

    def test_tworound_scheme(self, X):
        ba = BinaryAutoencoder.linear(10, 4)
        h = ParMACTrainerBA(
            ba, SCHED, n_machines=4, epochs=2, scheme="tworound", seed=0
        ).fit(X)
        assert np.isfinite(h.records[-1].e_q)

    def test_rejects_bad_backend(self, X):
        with pytest.raises(ValueError):
            ParMACTrainerBA(
                BinaryAutoencoder.linear(10, 4), SCHED, n_machines=2,
                backend="smoke-signals",
            )

    def test_rejects_bad_z0(self, X):
        tr = ParMACTrainerBA(
            BinaryAutoencoder.linear(10, 4), SCHED, n_machines=2, seed=0
        )
        with pytest.raises(ValueError):
            tr.fit(X, Z0=np.zeros((10, 4), dtype=np.uint8))


class TestMultiprocessBackend:
    @pytest.mark.parametrize(
        "n_machines, epochs, scheme",
        [(2, 1, "rounds"), (1, 2, "rounds"), (2, 3, "rounds"), (2, 2, "tworound")],
        ids=["two-machines", "single-machine", "three-epochs", "tworound"],
    )
    def test_trains(self, X, n_machines, epochs, scheme):
        ba = BinaryAutoencoder.linear(10, 4)
        tr = ParMACTrainerBA(
            ba, GeometricSchedule(1e-4, 2.0, 4), n_machines=n_machines,
            epochs=epochs, scheme=scheme, backend="multiprocess", seed=0,
        )
        h = tr.fit(X)
        assert len(h) == 4
        assert np.isfinite(h.records[-1].e_q)
        assert h.records[-1].e_q < h.records[0].e_q * 1.5
        extra = h.records[-1].extra
        assert extra["w_time"] > 0 and extra["z_time"] > 0 and extra["wall_time"] > 0

    def test_rejects_empty_shards(self):
        from repro.distributed.backends import get_backend

        backend = get_backend("multiprocess")()
        with pytest.raises(ValueError, match="at least one shard"):
            backend.setup(None, [])

    def test_evaluator_sees_each_iteration(self, X):
        ba = BinaryAutoencoder.linear(10, 4)
        ev = PrecisionEvaluator(X[:10], X, K=20, k=10)
        tr = ParMACTrainerBA(
            ba, GeometricSchedule(1e-4, 2.0, 3), n_machines=2,
            backend="multiprocess", evaluator=ev, seed=0,
        )
        h = tr.fit(X)
        assert all(r.precision is not None for r in h.records)
