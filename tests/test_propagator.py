import math
import signal
import threading
import time

import numpy as np
import pytest

import tunneltimes.propagator as propagator
from tunneltimes.errors import (
    DomainError,
    InsufficientFluxError,
    NonConvergenceError,
)
from tunneltimes.propagator import (
    CN_PHASE_BUDGET,
    ArrivalRecord,
    GridSpec,
    empirical_delay,
    evolve,
    grid_errors,
    init_state,
    measure_arrival,
    suggest_grid,
)
from tunneltimes.scattering import Barrier, amplitude_grid
from tunneltimes.wavepacket import Packet

SMALL = GridSpec(-130.0, 120.0, 0.1, 0.005)


def dense_crank_nicolson(state, spec, barrier, n_steps):
    """Reference CN: n_steps dense solves of A psi' = B psi, with
    A, B = I +- (i dt/2) H."""
    x = spec.x
    v = np.where(np.abs(x) <= barrier.width / 2.0, barrier.height, 0.0)
    t = 1.0 / (2.0 * barrier.mass * spec.dx ** 2)
    h = (np.diag(2.0 * t + v) - t * np.eye(len(x), k=1)
         - t * np.eye(len(x), k=-1))
    a_mat = np.eye(len(x)) + 0.5j * spec.dt * h
    b_mat = np.eye(len(x)) - 0.5j * spec.dt * h
    ref = state
    for _ in range(n_steps):
        ref = np.linalg.solve(a_mat, b_mat @ ref)
    return ref


@pytest.fixture(scope="module")
def small_state(barrier):
    return init_state(Packet(1.0, 30.0), barrier, SMALL)


class TestGridSpec:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["x_min", "x_max", "dx", "dt"])
    def test_non_finite_field_rejected(self, field, value):
        # an infinite wall used to construct and then overflow in init_state
        fields = {"x_min": -130.0, "x_max": 120.0, "dx": 0.1, "dt": 0.005}
        fields[field] = value
        with pytest.raises(DomainError, match=field):
            GridSpec(**fields)

    @pytest.mark.parametrize("fields", [
        {"x_max": -130.0}, {"x_max": -140.0}, {"dx": 0.0}, {"dx": -0.1},
        {"dt": 0.0}, {"dt": -0.005},
    ], ids=lambda f: " ".join(f"{k}={v}" for k, v in f.items()))
    def test_inconsistent_spec_rejected(self, fields):
        with pytest.raises(DomainError, match="inconsistent grid spec"):
            GridSpec(**{"x_min": -130.0, "x_max": 120.0, "dx": 0.1,
                        "dt": 0.005, **fields})


class TestInitState:
    def test_norm_one(self, small_state):
        assert SMALL.norm(small_state) == pytest.approx(1.0, abs=1e-12)

    def test_mean_position(self, small_state, barrier):
        x = SMALL.x
        mean = float(np.sum(x * np.abs(small_state) ** 2) * SMALL.dx)
        assert mean == pytest.approx(-7.5 - 15.0, abs=SMALL.dx)

    def test_mean_momentum(self, small_state):
        psi = small_state
        k = 2.0 * math.pi * np.fft.fftfreq(len(psi), d=SMALL.dx)
        spec = np.abs(np.fft.fft(psi)) ** 2
        mean_k = float(np.sum(k * spec) / np.sum(spec))
        assert abs(mean_k - 1.0) <= 2.0 * math.pi / 30.0

    def test_too_small_grid(self, barrier):
        with pytest.raises(DomainError, match="does not fit"):
            init_state(Packet(1.0, 300.0), barrier, SMALL)


class TestEvolve:
    def test_free_group_velocity(self, small_state):
        free = Barrier(0.0, 15.0, 1.0)
        n = 3000
        out = evolve(small_state, SMALL, free, n)
        x = SMALL.x
        x0 = float(np.sum(x * np.abs(small_state) ** 2) * SMALL.dx)
        x1 = float(np.sum(x * np.abs(out) ** 2) * SMALL.dx)
        v = (x1 - x0) / (n * SMALL.dt)
        assert abs(v - 1.0) < 0.01

    def test_norm_conserved(self, small_state, barrier):
        out = evolve(small_state, SMALL, barrier, 2000)
        assert abs(SMALL.norm(out) - 1.0) < 1e-7

    def test_cfl_guard(self, barrier):
        # CN has no dt bound: dt = 0.1 is 10x the old m*dx^2 limit, and the
        # step stays unitary and equal to dense CN (A/2 is diagonally
        # dominant for every dt, see _stepper).
        spec = GridSpec(-130.0, 120.0, 0.1, 0.1)
        state = init_state(Packet(1.0, 30.0), barrier, spec)
        out = evolve(state, spec, barrier, 600)
        assert abs(spec.norm(out) - 1.0) < 1e-9
        # the dense reference on the dense test's window at the same dx, dt
        window = GridSpec(-40.0, 20.0, spec.dx, spec.dt)
        state = init_state(Packet(1.0, 20.0), barrier, window)
        ref = dense_crank_nicolson(state, window, barrier, 50)
        got = evolve(state, window, barrier, 50)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_determinism(self, small_state, barrier):
        a = evolve(small_state, SMALL, barrier, 500)
        b = evolve(small_state, SMALL, barrier, 500)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n_steps", [1, 50])
    def test_matches_dense_crank_nicolson(self, barrier, n_steps):
        # Dense A psi' = B psi solves guard the Cayley update 2 A^-1 psi - psi
        # and the reuse of one factorization across steps.
        spec = GridSpec(-40.0, 20.0, 0.3, 0.04)
        state = init_state(Packet(1.0, 20.0), barrier, spec)
        assert len(spec.x) == 199
        ref = dense_crank_nicolson(state, spec, barrier, n_steps)
        got = evolve(state, spec, barrier, n_steps)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestArrival:
    def test_transmitted_fraction_matches_stationary(self, barrier):
        # k0 L0 = 60 >> 1: fraction approaches |T(k0)|^2
        k0 = 1.5
        packet = Packet(k0, 40.0)
        spec = GridSpec(-220.0, 220.0, 0.12, 0.006)
        rec = measure_arrival(packet, barrier, spec, 25.0, 22000)
        t_coeff = abs(amplitude_grid(k0, barrier)[3]) ** 2
        assert rec.transmitted_fraction == pytest.approx(t_coeff, rel=0.10)

    def test_pinned_small_grid(self, barrier):
        # Pinned to the earlier sparse-LU stepper's values, which the LAPACK
        # stepper reproduces to ~1e-12 relative.
        packet = Packet(1.0, 30.0)
        rec = measure_arrival(packet, barrier, SMALL, 25.0, 12000)
        final = evolve(init_state(packet, barrier, SMALL), SMALL, barrier,
                       12000)
        assert rec.mean_arrival == pytest.approx(40.828628885566424, rel=1e-9)
        assert rec.transmitted_fraction == pytest.approx(0.08516689572862175,
                                                         rel=1e-9)
        assert rec.norm_drift == pytest.approx(abs(SMALL.norm(final) - 1.0),
                                               abs=1e-15)
        assert rec.norm_drift < 1e-9
        density = np.abs(final) ** 2
        edges = np.r_[density[:10], density[-10:]]
        assert rec.wall_probability == pytest.approx(np.sum(edges) * SMALL.dx,
                                                     rel=1e-12)

    def test_detector_must_sit_past_barrier(self, barrier):
        with pytest.raises(DomainError):
            measure_arrival(Packet(1.0, 30.0), barrier, SMALL, 5.0, 10)

    def test_point_step_budget_raises_before_stepping(self, barrier,
                                                     monkeypatch):
        def no_stepping(*args, **kwargs):
            raise AssertionError("built a state past the point-step budget")

        monkeypatch.setattr(propagator, "init_state", no_stepping)
        monkeypatch.setattr(propagator, "_stepper", no_stepping)
        n_steps = propagator._MAX_POINT_STEPS // SMALL.n_points + 1
        with pytest.raises(NonConvergenceError, match=r"2499 points x "):
            measure_arrival(Packet(1.0, 30.0), barrier, SMALL, 25.0, n_steps)
        assert SMALL.n_points == len(SMALL.x) == 2499

    def test_insufficient_flux_guard(self, barrier):
        # a window far too short for anything to arrive
        with pytest.raises(InsufficientFluxError):
            measure_arrival(Packet(1.0, 30.0), barrier, SMALL, 60.0, 20)


def _earlier_grid(packet, barrier, detector_x):
    """The walls, dx and window that suggest_grid has always set."""
    k0, L0, a, m = packet.k0, packet.L0, barrier.width, barrier.mass
    k_fast = max(k0, barrier.kappa0) + max(0.75, 6.0 * math.pi / L0)
    t_total = (L0 + a + detector_x + 0.45 * L0) / (k0 / m)
    x_max = 0.5 * (k_fast / m * t_total + detector_x) + 10.0
    x_min = -max(L0 + a / 2.0 + 20.0,
                 0.5 * (k_fast / m * t_total - detector_x) + 10.0)
    dx = min(2.0 * math.pi / (20.0 * k_fast), a / 50.0)
    return x_min, x_max, dx, t_total


class TestSuggestGrid:
    # k0 0.3, 1.1 and 1.5 on the reference barrier, and a thin barrier on
    # which the a/50 candidate sets dx
    CASES = [(0.3, 150.0, 15.0), (1.1, 150.0, 15.0), (1.5, 30.0, 15.0),
             (1.1, 150.0, 2.0)]

    @pytest.mark.parametrize("k0, L0, a", CASES)
    def test_dt_meets_the_phase_budget(self, k0, L0, a):
        packet, barrier = Packet(k0, L0), Barrier.from_two_mv(1.0, a, 1.0)
        spec, _ = suggest_grid(packet, barrier, 30.0)
        cn_error, _ = grid_errors(packet, barrier, spec)
        assert cn_error == pytest.approx(CN_PHASE_BUDGET, rel=1e-12)

    @pytest.mark.parametrize("k0, L0, a", CASES)
    def test_walls_dx_and_window_unchanged(self, k0, L0, a):
        packet, barrier = Packet(k0, L0), Barrier.from_two_mv(1.0, a, 1.0)
        spec, n = suggest_grid(packet, barrier, 30.0)
        x_min, x_max, dx, t_total = _earlier_grid(packet, barrier, 30.0)
        assert (spec.x_min, spec.x_max, spec.dx) == (x_min, x_max, dx)
        assert (n - 1) * spec.dt < t_total <= n * spec.dt
        if a == 2.0:
            assert spec.dx == a / 50.0

    def test_window_past_the_float_range_is_refused(self, barrier):
        # at L0 = 5e307 the window over dt is inf steps: refused as a run too
        # long, not an OverflowError from ceil(inf)
        with pytest.raises(NonConvergenceError,
                           match=r"^Crank-Nicolson run: .* = inf steps"):
            suggest_grid(Packet(1.0, 5e307), barrier, 30.0)

    def test_halving_dt_moves_the_delay_under_one_percent(self, barrier):
        # the budget leaves the delay's time-step error well below its dx
        # error; measured at 0.30%
        packet = Packet(1.5, 30.0)
        spec, n = suggest_grid(packet, barrier, 30.0)
        half = GridSpec(spec.x_min, spec.x_max, spec.dx, spec.dt / 2.0)
        d1, _, _ = empirical_delay(packet, barrier, 30.0, spec, n)
        d2, _, _ = empirical_delay(packet, barrier, 30.0, half, 2 * n)
        assert abs(d2 - d1) < 0.01 * abs(d1)


class TestEmpiricalDelay:
    def test_free_self_difference(self):
        free = Barrier(0.0, 15.0, 1.0)
        spec = GridSpec(-130.0, 130.0, 0.12, 0.007)
        delay, _, _ = empirical_delay(Packet(1.0, 30.0), free, 40.0,
                                      spec, 12000)
        assert abs(delay) <= spec.dt

    def test_window_follows_spec_dt(self, barrier, monkeypatch):
        # A spec without n_steps gets the suggest_grid window at its own dt.
        seen = []

        def fake(packet, barrier, spec, detector_x, n_steps):
            seen.append(n_steps)
            return ArrivalRecord(detector_x, 1.0, 1.0, 0.0, 0.0, spec, n_steps)

        monkeypatch.setattr(propagator, "measure_arrival", fake)
        packet = Packet(1.5, 30.0)
        spec, n = suggest_grid(packet, barrier, 30.0)
        fine = GridSpec(spec.x_min, spec.x_max, spec.dx / 2.0, spec.dt / 4.0)
        empirical_delay(packet, barrier, 30.0)
        empirical_delay(packet, barrier, 30.0, fine)
        empirical_delay(packet, barrier, 30.0, None, 7)
        assert seen[:2] == [n, n]
        assert abs(seen[2] * fine.dt - n * spec.dt) <= spec.dt
        assert seen[4:] == [7, 7]

    def test_records_name_their_grid(self, barrier, monkeypatch):
        # suggest_grid runs only for a missing grid; each record names the
        # grid and step count that produced it
        calls = []
        suggest = propagator.suggest_grid

        def counting(*args):
            calls.append(suggest(*args))
            return calls[-1]

        monkeypatch.setattr(propagator, "suggest_grid", counting)
        packet = Packet(1.0, 30.0)
        coarse = GridSpec(-130.0, 120.0, 0.2, 0.02)
        _, rec, free = empirical_delay(packet, barrier, 25.0, coarse, 2000)
        assert calls == []
        assert (rec.spec, rec.n_steps) == (free.spec, free.n_steps) \
            == (coarse, 2000)
        _, rec, free = empirical_delay(packet, barrier, 25.0)
        assert len(calls) == 1
        assert (rec.spec, rec.n_steps) == (free.spec, free.n_steps) \
            == calls[0]

    def test_hartman_sign_moderate_packet(self, barrier):
        packet = Packet(0.5, 40.0)
        delay, rec, _ = empirical_delay(packet, barrier, 30.0)
        assert delay < 0.0
        assert rec.transmitted_fraction > 1e-6

    def test_detector_robustness(self, barrier):
        # away from sharp resonances the estimator moves with the detector
        # only through residual dispersion of the filtered packet
        packet = Packet(1.5, 30.0)
        spec, n = suggest_grid(packet, barrier, 30.0)
        d1, _, _ = empirical_delay(packet, barrier, 30.0, spec, n)
        d2, _, _ = empirical_delay(packet, barrier, 30.0 + 10.0 * spec.dx,
                                   spec, n)
        assert abs(d2 - d1) <= 2.0 * spec.dt + 0.02 * abs(d1)

    def test_grid_refinement(self, barrier):
        packet = Packet(1.5, 30.0)
        spec, n = suggest_grid(packet, barrier, 30.0)
        fine = GridSpec(spec.x_min, spec.x_max, spec.dx / 2.0, spec.dt / 4.0)
        d1, _, _ = empirical_delay(packet, barrier, 30.0, spec, n)
        d2, _, _ = empirical_delay(packet, barrier, 30.0, fine, 4 * n)
        assert abs(d2 - d1) <= 0.05 * abs(d1)


class TestConcurrentRuns:
    """The free run steps on a worker thread, the barrier run on the caller's.

    The faults are injected into _stepper, since a replaced measure_arrival
    is run serially.
    """

    @pytest.fixture
    def thread_errors(self, monkeypatch):
        # exceptions that escape a thread; empirical_delay must hand its
        # worker's exception to the caller instead
        seen = []
        monkeypatch.setattr(threading, "excepthook", seen.append)
        return seen

    def test_records_equal_serial_runs(self, barrier):
        # bit-equality only, so the suggested grid (dt on the phase budget)
        # serves; SMALL's dt is 14x finer than the budget needs
        packet = Packet(1.0, 30.0)
        spec, n = suggest_grid(packet, barrier, 25.0)
        delay, rec, free = empirical_delay(packet, barrier, 25.0, spec, n)
        serial = measure_arrival(packet, barrier, spec, 25.0, n)
        serial_free = measure_arrival(packet, Barrier(0.0, 15.0, 1.0), spec,
                                      25.0, n)
        assert rec == serial
        assert free == serial_free
        assert delay == serial.mean_arrival - serial_free.mean_arrival

    def test_runs_overlap_on_two_threads(self, barrier, monkeypatch):
        # both runs must reach the rendezvous, which a serial caller never does
        meet = threading.Barrier(2, timeout=10.0)
        ran_on = {}
        step = propagator._stepper

        def meeting(psi, spec, barrier, *args):
            meet.wait()
            ran_on[barrier.height] = threading.current_thread()
            return step(psi, spec, barrier, *args)

        monkeypatch.setattr(propagator, "_stepper", meeting)
        empirical_delay(Packet(1.0, 30.0), barrier, 25.0, SMALL, 9000)
        assert ran_on[barrier.height] is threading.current_thread()
        assert ran_on[0.0] is not threading.current_thread()

    def test_barrier_error_wins_when_both_runs_fail(self, barrier, monkeypatch,
                                                    thread_errors):
        # the free run raises after the barrier run: the caller waits for it
        # and still sees the barrier run's error
        barrier_failed = threading.Event()

        def failing(psi, spec, barrier, *args):
            if barrier.height == 0.0:
                assert barrier_failed.wait(10.0)
                time.sleep(0.2)
                raise InsufficientFluxError("free run starved")
            barrier_failed.set()
            raise InsufficientFluxError("barrier run starved")

        monkeypatch.setattr(propagator, "_stepper", failing)
        before = threading.active_count()
        with pytest.raises(InsufficientFluxError, match="barrier run starved"):
            empirical_delay(Packet(1.0, 30.0), barrier, 60.0, SMALL, 20)
        assert threading.active_count() == before
        assert thread_errors == []

    def test_barrier_error_stops_the_free_run(self, barrier, monkeypatch,
                                              thread_errors):
        # 200,000 steps of the free run take ~16 s; once the barrier run
        # raises, the free run must end within a step, not finish its window
        free_stepping = threading.Event()
        free_ended = []
        step = propagator._stepper

        def stepping(psi, spec, barrier, *args):
            if barrier.height != 0.0:
                assert free_stepping.wait(10.0)
                time.sleep(0.1)
                raise KeyboardInterrupt
            free_stepping.set()
            try:
                return step(psi, spec, barrier, *args)
            except BaseException as exc:
                free_ended.append(exc)
                raise

        monkeypatch.setattr(propagator, "_stepper", stepping)
        before = threading.active_count()
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            empirical_delay(Packet(1.0, 30.0), barrier, 25.0, SMALL, 200_000)
        assert time.perf_counter() - start < 3.0
        assert [type(e) for e in free_ended] == [propagator._Stopped]
        assert threading.active_count() == before
        assert thread_errors == []

    def test_interrupt_while_waiting_stops_the_free_run(self, barrier,
                                                        monkeypatch,
                                                        thread_errors):
        # the barrier run has returned and the caller waits for the free run
        # when SIGINT lands: the free run must end within a step, not step
        # out its 200,000-step (~16 s) window
        barrier_returned = threading.Event()
        free_ended = []
        main_ident = threading.get_ident()
        step = propagator._stepper

        def stepping(psi, spec, barrier, n_steps, *args):
            if barrier.height != 0.0:
                # a steady outgoing current: the barrier run returns at once
                barrier_returned.set()
                return psi, np.tile([1.0, 1.0, 1.0 + 1.0j], (n_steps, 1))
            assert barrier_returned.wait(10.0)
            time.sleep(0.2)
            signal.pthread_kill(main_ident, signal.SIGINT)
            try:
                return step(psi, spec, barrier, n_steps, *args)
            except BaseException as exc:
                free_ended.append(exc)
                raise

        monkeypatch.setattr(propagator, "_stepper", stepping)
        before = threading.active_count()
        start = time.perf_counter()
        # A process started with SIGINT ignored (a background job of a
        # non-interactive shell) never gets Python's default handler, so
        # the signal would not become a KeyboardInterrupt.
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                empirical_delay(Packet(1.0, 30.0), barrier, 25.0, SMALL, 200_000)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert time.perf_counter() - start < 3.0
        assert [type(e) for e in free_ended] == [propagator._Stopped]
        assert threading.active_count() == before
        assert thread_errors == []

    def test_free_run_error_reaches_caller(self, barrier, monkeypatch,
                                           thread_errors):
        step = propagator._stepper

        def failing(psi, spec, barrier, *args):
            if barrier.height == 0.0:
                raise InsufficientFluxError("free run starved")
            return step(psi, spec, barrier, *args)

        monkeypatch.setattr(propagator, "_stepper", failing)
        before = threading.active_count()
        with pytest.raises(InsufficientFluxError, match="free run starved"):
            empirical_delay(Packet(1.0, 30.0), barrier, 25.0, SMALL, 9000)
        assert threading.active_count() == before
        assert thread_errors == []

    def test_replaced_measure_arrival_runs_serially(self, barrier,
                                                    monkeypatch):
        # a replacement may not be thread-safe: barrier run first, on the
        # caller's thread, and the free run only if the barrier run returns
        calls = []

        def fake(packet, barrier, spec, detector_x, n_steps):
            calls.append((barrier.height, threading.current_thread()))
            if barrier.height != 0.0 and n_steps == 20:
                raise InsufficientFluxError("barrier run starved")
            return ArrivalRecord(detector_x, barrier.height, 1.0, 0.0, 0.0,
                                 spec, n_steps)

        monkeypatch.setattr(propagator, "measure_arrival", fake)
        me = threading.current_thread()
        delay, _, _ = empirical_delay(Packet(1.0, 30.0), barrier, 25.0,
                                      SMALL, 10)
        assert delay == barrier.height
        assert calls == [(barrier.height, me), (0.0, me)]
        calls.clear()
        with pytest.raises(InsufficientFluxError, match="barrier run starved"):
            empirical_delay(Packet(1.0, 30.0), barrier, 25.0, SMALL, 20)
        assert calls == [(barrier.height, me)]
