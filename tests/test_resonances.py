import math
import tracemalloc

import numpy as np
import pytest

from tunneltimes import resonances, scattering, special
from tunneltimes.errors import DomainError, NonConvergenceError
from tunneltimes.phasetime import phase_time, phase_time_fd
from tunneltimes.resonances import (
    ResonanceDecomposition,
    ResonancePole,
    build_decomposition,
    find_poles,
    lorentzian_delay,
    reconstruct_amplitude,
    remainder_delay,
    verify_remainder,
    winding_count,
)
from tunneltimes.scattering import Barrier


def logderiv_delay(k0, barrier):
    """(1/2) sum_parity (m/k0) dtheta_parity/dk, i.e. tau_ph - a m/k0."""
    return phase_time_fd(k0, barrier) - barrier.width * barrier.mass / k0


@pytest.fixture(scope="module")
def decomposition(barrier):
    return build_decomposition(barrier)


class TestFindPoles:
    def test_harvest_matches_winding(self, barrier):
        # find_poles raises CountMismatchError internally on disagreement;
        # here we re-count explicitly for the reference rectangle
        rect = (0.5, 3.0, -1.0, 0.0)
        poles = find_poles(barrier, rect)
        for parity in ("+", "-"):
            n = winding_count(barrier, rect, parity)
            assert n == sum(1 for p in poles if p.parity == parity)

    def test_pinned_reference_poles(self, barrier):
        # bitwise pins of the reference rectangle's harvest: any reordering
        # of the shared W+- arithmetic moves the last bits of these values
        expect = [
            ("+", 1.0206234967640282 - 0.005500776179567506j, 4.7651545067296695e-15),
            ("+", 1.1744383513550642 - 0.041253217015293095j, 7.321030004829e-16),
            ("+", 1.4374259218061773 - 0.08736452379629836j, 3.695642072730202e-17),
            ("+", 1.7627075963928829 - 0.12896435627373534j, 8.589289554929844e-17),
            ("+", 2.121761763363232 - 0.16350111134736592j, 1.2471264186673368e-16),
            ("+", 2.499893419462067 - 0.19205213310732994j, 4.989634604592965e-16),
            ("+", 2.889509495756792 - 0.2160323043115581j, 2.772841860961684e-16),
            ("-", 1.080516240282463 - 0.02044474112742039j, 1.4338730476011458e-15),
            ("-", 1.2956035849419774 - 0.06436095977992011j, 2.107311611147361e-16),
            ("-", 1.594485044553768 - 0.10904673055611946j, 1.2523282874088387e-16),
            ("-", 1.939160750654871 - 0.1470733431256386j, 1.0291829534605384e-16),
            ("-", 2.309028131548482 - 0.17843132793088848j, 2.337021922336869e-16),
            ("-", 2.6935794553065344 - 0.20453573150337304j, 1.0274766488309402e-17),
        ]
        poles = find_poles(barrier, (0.5, 3.0, -1.0, 0.0))
        assert [(p.parity, p.k_pole, p.residual) for p in poles] == expect

    def test_residuals_tiny(self, decomposition):
        for p in decomposition.poles:
            assert p.residual < 1e-10

    def test_resonance_near_k0_1p1(self, decomposition):
        assert any(0.9 <= p.k_pole.real <= 1.3 for p in decomposition.poles)

    def test_all_lower_half_for_square_barrier(self, barrier):
        assert winding_count(barrier, (0.1, 3.0, 1e-6, 1.5), "+") == 0
        assert winding_count(barrier, (0.1, 3.0, 1e-6, 1.5), "-") == 0

    def test_widths_positive(self, decomposition):
        for p in decomposition.poles:
            assert p.Gamma > 0.0
            assert p.lifetime == pytest.approx(1.0 / p.Gamma)

    def test_rejects_rect_containing_origin(self, barrier):
        with pytest.raises(DomainError):
            find_poles(barrier, (-0.5, 0.5, -0.5, 0.5))

    @pytest.mark.parametrize("rect", [(2.0, 1.0, -1.0, 0.0),
                                      (0.5, 3.0, 0.0, -1.0),
                                      (0.5, 0.5, -1.0, 0.0)])
    def test_rejects_reversed_or_empty_rect(self, barrier, rect):
        # a reversed contour winds negatively, so without the check the
        # count reads -4 / -7 and surfaces as a count mismatch
        with pytest.raises(DomainError, match="re_lo < re_hi"):
            find_poles(barrier, rect)
        with pytest.raises(DomainError, match="re_lo < re_hi"):
            winding_count(barrier, rect, "+")

    @pytest.mark.parametrize("parity", ["", "+-", "even", None])
    def test_winding_count_rejects_unknown_parity(self, barrier, parity):
        with pytest.raises(DomainError, match="parity must be"):
            winding_count(barrier, (0.5, 3.0, -1.0, 0.0), parity)

    def test_thick_barrier_winding(self):
        # the real axis passes within 1e-4 of narrow a = 60 resonances,
        # where a phase-only bisection rule aliased and counted 25
        b = Barrier.from_two_mv(1.0, 60.0)
        rect = (0.5, 3.0, -1.0, 0.0)
        assert winding_count(b, rect, "+") == 27
        assert winding_count(b, rect, "-") == 27

    def test_thick_barrier_harvest(self):
        b = Barrier.from_two_mv(1.0, 60.0)
        poles = find_poles(b, (0.5, 3.0, -1.0, 0.0))
        assert len(poles) == 54
        assert max(p.residual for p in poles) < 1e-10

    def test_poles_sit_under_phase_time_peaks(self, barrier, decomposition):
        # each narrow pole must align with a local maximum of tau_ph(k) on
        # the real axis to within its own half width
        ks = np.linspace(0.95, 1.35, 2001)
        taus = np.array([phase_time(float(k), barrier) for k in ks])
        peak_ks = ks[1:-1][(taus[1:-1] > taus[:-2]) & (taus[1:-1] > taus[2:])]
        for p in decomposition.poles:
            kr = p.k_pole.real
            if 1.0 <= kr <= 1.3 and p.Gamma < 0.2:
                assert np.min(np.abs(peak_ks - kr)) < abs(p.k_pole.imag)

    @pytest.mark.parametrize("two_mv, a", [(1.0, 100.0), (4.0, 60.0),
                                           (1.0, 200.0)])
    def test_lifted_contour_counts_near_real_resonances(self, two_mv, a):
        # resonances ~2e-5 under the real axis: a top edge on Im k = 0
        # counted 43 / 44 at a = 100 and 21 (+) at 2mV = 4; the walk lifts
        # it to Im k = 0.05, above which V >= 0 leaves no zero of W. At
        # a = 200 the poles are ~pi/a = 0.016 apart, and 48 initial segments
        # along Re k aliased (arg W turned by ~2 pi inside segments that
        # passed the ratio test) and read 76 (+) / 77 (-) for 90
        b = Barrier.from_two_mv(two_mv, a)
        count = math.floor(a * math.sqrt(9.0 - two_mv) / math.pi) // 2
        for parity in ("+", "-"):
            assert winding_count(b, (0.5, 3.0, -1.0, 0.0), parity) == count
            assert winding_count(b, (0.5, 3.0, -1.0, 0.05), parity) == count

    @pytest.mark.parametrize("rect", [(0.5, 0.6, -1.0, 0.0),
                                      (0.5, 3.0, -1.0, 0.0)])
    def test_root_just_inside_a_side_counts(self, rect):
        # a root 6.8e-4 inside Re k = 0.5 turns arg W by nearly 2 pi along a
        # left-edge segment whose end-point ratio passes; checked at one
        # resolution the walk counted 5 for 6 and 55 for 56 (+)
        b = Barrier.from_two_mv(0.25, 120.0)
        dec = build_decomposition(b, rect)
        for parity in ("+", "-"):
            assert winding_count(b, rect, parity) == len(dec.poles_of(parity))

    @pytest.mark.parametrize("b", [Barrier.from_two_mv(0.0, 15.0),
                                   Barrier(0.5, 0.0)],
                             ids=["free", "zero-width"])
    def test_no_poles_without_a_barrier(self, b):
        # W+- has no zeros here and V*a = 0 forms no seeds, so the search
        # returns no pole and leaks no RuntimeWarning (an error in this suite)
        assert find_poles(b, (0.5, 3.0, -1.0, 0.0)) == []

    @pytest.mark.parametrize("a", [200.0, 250.0, 280.0])
    def test_very_thick_barriers_answer(self, a):
        # the default rectangle spans up to 256 pole indices at a ~ 284; at
        # a = 200 the Im -1e-3 seed missed the barrier-top root (winding 90,
        # harvest 89), and 600 phase samples stepped past 1 rad near a = 230
        b = Barrier.from_two_mv(1.0, a)
        rect = (0.5, 3.0, -1.0, 0.0)
        dec = build_decomposition(b, rect)
        for parity in ("+", "-"):
            assert winding_count(b, rect, parity) == len(dec.poles_of(parity))
        assert verify_remainder(dec)["ok"]
        assert max(p.residual for p in dec.poles) < 1e-10
        if a == 200.0:
            assert any(abs(p.k_pole - (1.000123 - 2.47e-6j)) < 1e-6
                       for p in dec.poles_of("+"))

    @pytest.mark.parametrize("a", [290.0, 300.0, 1e9, 1e300, 1.7e308])
    def test_too_many_pole_indices_fail_before_newton(self, a, monkeypatch):
        # the index count grows with a; past _MAX_INDICES it is refused
        # before any seed array is formed or W is evaluated
        def no_evaluation(*args):
            raise AssertionError("W evaluated")

        monkeypatch.setattr(resonances, "_w_terms", no_evaluation)
        with pytest.raises(NonConvergenceError, match="pole indices"):
            find_poles(Barrier.from_two_mv(1.0, a), (0.5, 3.0, -1.0, 0.0))

    def test_pole_index_count_past_the_float_range_is_inf(self, barrier):
        # k * k overflows at both ends of Re k in [1e299, 1e300]: the index
        # count is inf, not inf - inf = nan
        with pytest.raises(NonConvergenceError, match="^pole search: inf pole indices"):
            find_poles(barrier, (1e299, 1e300, -1.0, 0.0))

    @pytest.mark.parametrize("two_mv, a, rect", [
        (4.0, 350.0, (0.5, 3.0, -1.0, 0.0)),
        (1.0, 1000.0, (0.5, 1.2, -1.0, 0.0)),
        (1.0, 1000.0, (1.0, 1.01, -1.0, 0.0)),
    ])
    def test_near_top_roots_of_thick_barriers(self, two_mv, a, rect):
        # poles ~1e-6 under the real axis and ~3e-4 apart: seeds at Im -1e-3
        # reached a neighbour first (winding 125 / 106 / 23 against a harvest
        # of 124 / 102 / 19). Residuals reach 1.6e-9 at a = 1000, but each
        # stays within 2 eps |k W'|/|W_num|, the rounding floor of W there.
        b = Barrier.from_two_mv(two_mv, a)
        dec = build_decomposition(b, rect)
        for parity in ("+", "-"):
            assert winding_count(b, rect, parity) == len(dec.poles_of(parity))
        assert verify_remainder(dec)["ok"]
        for p in dec.poles:
            Wn, _, dW = resonances._w_terms(p.k_pole, b, p.parity, slope=True)[p.parity]
            assert p.residual <= 2.0 * np.finfo(float).eps * abs(p.k_pole * dW / Wn)

    def test_badly_conditioned_duplicates_merge(self):
        # on a vanishing barrier the seeds settle on the roots near Im k = -2
        # up to 3e-4 apart, inside each root's rounding radius 4 eps
        # |W_num|/|W'| (5e-4 to 1.5e-3); kept apart they read winding 5 !=
        # harvest 10 for parity +
        b = Barrier.from_two_mv(2e-12, 15.0)
        rect = (0.5, 3.0, -3.0, 0.0)
        dec = build_decomposition(b, rect)
        counts = {parity: len(dec.poles_of(parity)) for parity in "+-"}
        assert counts == {"+": 5, "-": 6}
        for parity in "+-":
            assert winding_count(b, rect, parity) == counts[parity]
        assert verify_remainder(dec)["ok"]

    def test_seed_at_fabry_perot_depth(self):
        # the n = 3 root of 2mV = 4, a = 350 lies 1.04e-6 under the real axis
        b = Barrier.from_two_mv(4.0, 350.0)
        root = 2.00018127 - 1.0357e-6j
        seeds = resonances._index_seeds(b, (0.5, 3.0, -1.0, 0.0))
        seed = seeds[np.argmin(np.abs(seeds.real - root.real))]
        assert abs(seed.real - root.real) < 1e-7
        assert abs(seed.imag - root.imag) < 0.01 * abs(root.imag)

    def test_seeds_formed_once(self, barrier, monkeypatch):
        calls = []
        index_seeds = resonances._index_seeds

        def counting(*args):
            calls.append(args)
            return index_seeds(*args)

        monkeypatch.setattr(resonances, "_index_seeds", counting)
        assert find_poles(barrier, (0.5, 3.0, -1.0, 0.0))
        assert len(calls) == 1

    @pytest.mark.parametrize("b", [Barrier.from_two_mv(0.0, 15.0),
                                   Barrier(0.5, 0.0)],
                             ids=["free", "zero-width"])
    def test_no_barrier_forms_no_seeds(self, b, monkeypatch):
        def no_evaluation(*args):
            raise AssertionError("W evaluated")

        assert resonances._index_seeds(b, (0.5, 3.0, -1.0, 0.0)).size == 0
        monkeypatch.setattr(resonances, "_w_terms", no_evaluation)
        assert find_poles(b, (0.5, 3.0, -1.0, 0.0)) == []

    @pytest.mark.parametrize("a", [1e7, 1e300, 1.7e308])
    def test_walk_budget_charged_before_the_first_level(self, a, monkeypatch):
        # max(48, |side| a/pi) segments per side, up to past the float
        # range: refused before the first level is built or W evaluated
        def no_evaluation(*args, **kwargs):
            raise AssertionError("W evaluated")

        monkeypatch.setattr(resonances, "_w_terms", no_evaluation)
        tracemalloc.start()
        try:
            with pytest.raises(NonConvergenceError, match="winding walk budget exhausted"):
                winding_count(Barrier.from_two_mv(1.0, a), (0.5, 3.0, -1.0, 0.0), "+")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("a, rect", [
        (700.0, (1.0, 1.1, -2.0, 0.0)), (2000.0, (1.0, 1.001, -1.0, 0.0)),
    ])
    def test_walk_stops_where_w_overflows(self, a, rect):
        # cosh(kappa a/2) overflows on the bottom edge; the walk used to split
        # NaN segments, warning, until its evaluation budget ran out
        with pytest.raises(NonConvergenceError, match="W is 0 or inf at k = "):
            winding_count(Barrier.from_two_mv(1.0, a), rect, "+")

    def test_tall_barrier_lowest_resonance(self):
        # lowest over-barrier resonance of a tall barrier sits near
        # V + (pi/a)^2/(2m) (standard single-mode estimate)
        b = Barrier.from_two_mv(25.0, 4.0, 1.0)
        poles = find_poles(b, (5.02, 5.6, -1.0, 0.0))
        assert poles
        lowest = min(poles, key=lambda p: p.E_R)
        estimate = 12.5 + (math.pi / 4.0) ** 2 / 2.0
        assert abs(lowest.E_R - estimate) / estimate < 0.15


_GRID_STEP = 0.05  # the uniform seed grid that the pole-index seeds replaced


def _seed_grid(rect):
    re_lo, re_hi, im_lo, im_hi = rect
    res = np.arange(re_lo, re_hi + _GRID_STEP / 2, _GRID_STEP)
    ims = np.arange(im_lo, im_hi + _GRID_STEP / 2, _GRID_STEP)
    return (res[:, None] + 1j * ims[None, :]).ravel()


def _plain_newton(seeds, barrier, parity):
    """Reference: every seed takes all _NEWTON_STEPS damped Newton steps."""
    k = seeds.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(resonances._NEWTON_STEPS):
            _, W, dW = resonances._w_terms(k, barrier, parity, slope=True)[parity]
            step = W / dW
            step = np.where(np.abs(step) > 0.2,
                            0.2 * step / np.abs(step), step)
            k = k - step
    return k


def _plain_harvest(barrier, rect, parity, seeds):
    """Reference harvest: plain Newton, pairwise dedup, scalar residuals."""
    re_lo, re_hi, im_lo, im_hi = rect
    k = _plain_newton(seeds, barrier, parity)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Wn, W, dW = resonances._w_terms(k, barrier, parity, slope=True)[parity]
        abs_wn = np.maximum(np.abs(Wn), 1e-300)
        cut = np.maximum(resonances._POLISH_RTOL,
                         4.0 * np.finfo(float).eps * np.abs(k * dW) / abs_wn)
        keep = ((np.abs(W) / abs_wn < cut)
                & (k.real > re_lo + 1e-9) & (k.real < re_hi - 1e-9)
                & (k.imag > im_lo + 1e-9) & (k.imag < im_hi - 1e-9)
                & np.isfinite(k))
    roots = []
    for z in k[keep]:
        if all(abs(z - r) > resonances._DEDUP_TOL for r in roots):
            roots.append(complex(z))
    roots.sort(key=lambda z: (z.real, z.imag))
    residuals = []
    for z in roots:
        Wnz, Wz = resonances._w_terms(z, barrier, parity)[parity]
        residuals.append(float(abs(Wz) / abs(Wnz)))
    return roots, residuals


# the three resonance rectangles and barriers of the benchmark
BENCH_CASES = [(15.0, (0.5, 3.0, -1.0, 0.0)), (15.0, (0.5, 6.0, -1.0, 0.0)),
               (60.0, (0.5, 3.0, -1.0, 0.0))]

_DEFAULT_RECT = (0.5, 3.0, -1.0, 0.0)
# (2mV, a, rect): the benchmark's reports, thick and tall barriers, a thin
# rectangle, deep rectangles (a = 2 has its poles down to Im k ~ -2), the
# free barrier, which has no poles, and rectangles reaching Re k < 0, where
# the zeros of W+- mirror as k -> -conj(k)
GRID_CASES = [
    (1.0, 15.0, _DEFAULT_RECT), (1.0, 15.0, (0.5, 6.0, -1.0, 0.0)),
    (1.0, 60.0, _DEFAULT_RECT), (1.0, 100.0, _DEFAULT_RECT),
    (4.0, 60.0, _DEFAULT_RECT), (1.0, 60.0, (0.5, 6.0, -1.0, 0.0)),
    (25.0, 4.0, (5.02, 5.6, -1.0, 0.0)), (1.0, 15.0, (0.9, 1.2, -0.1, 0.0)),
    (1.0, 2.0, (0.5, 6.0, -3.0, 0.0)), (1.0, 15.0, (0.2, 3.0, -3.0, 0.0)),
    (0.0, 15.0, _DEFAULT_RECT), (1.0, 15.0, (-3.0, -0.5, -1.0, 0.0)),
    (1.0, 15.0, (-3.0, 3.0, -1.0, -1e-3)),
]


class TestMaskedNewton:
    @pytest.mark.parametrize("a, rect", BENCH_CASES)
    def test_harvest_matches_plain_loop(self, a, rect):
        b = Barrier.from_two_mv(1.0, a)
        poles = find_poles(b, rect)
        seeds = resonances._index_seeds(b, rect)
        for parity in ("+", "-"):
            roots, residuals = _plain_harvest(b, rect, parity, seeds)
            got = [p for p in poles if p.parity == parity]
            assert [p.k_pole for p in got] == roots
            assert [p.residual for p in got] == residuals

    @pytest.mark.parametrize("two_mv, a, rect", GRID_CASES)
    def test_index_seeds_agree_with_grid(self, two_mv, a, rect):
        # the 0.05 seed grid reaches the same roots from ~25x more seeds;
        # roots seeded from elsewhere differ in the last bits only (the
        # worst is 4.7e-14, on the barrier-top root at a = 100)
        b = Barrier.from_two_mv(two_mv, a)
        poles = find_poles(b, rect)
        for parity in ("+", "-"):
            roots, _ = _plain_harvest(b, rect, parity, _seed_grid(rect))
            got = [p.k_pole for p in poles if p.parity == parity]
            assert len(got) == len(roots) == winding_count(b, rect, parity)
            assert all(abs(g - r) <= 1e-13 for g, r in zip(got, roots))

    def test_work_counter(self, barrier, monkeypatch):
        # each seed costs _NEWTON_STEPS steps and one harvest evaluation;
        # the 0.05 grid spent 28,179 points here. Only slope evaluations
        # count: the winding walk has its own budget, and the residuals
        # take no slope.
        rect = (0.5, 3.0, -1.0, 0.0)
        points = {"+": 0, "-": 0}
        w_terms = resonances._w_terms

        def counting(k, b, parity, slope=False):
            if slope:
                points[parity] += np.size(k)
            return w_terms(k, b, parity, slope)

        monkeypatch.setattr(resonances, "_w_terms", counting)
        poles = find_poles(barrier, rect)
        n_seeds = resonances._index_seeds(barrier, rect).size
        for parity in ("+", "-"):
            n_roots = sum(1 for p in poles if p.parity == parity)
            assert points[parity] <= ((resonances._NEWTON_STEPS + 1) * n_seeds
                                      + n_roots)
        assert sum(points.values()) < 28_179 / 4

    def test_one_kernel_pass_per_point_evaluation(self, barrier, monkeypatch):
        # each slope evaluation of _w_terms makes exactly one even-kernel
        # pass; the other passes belong to the winding walk, one per
        # bisection level, and to the residuals
        counts = {"slope": 0, "inside": 0, "outside": 0}
        inside = []
        even_kernels = scattering.even_kernels
        w_terms = resonances._w_terms

        def counting_kernels(w, names):
            counts["inside" if inside else "outside"] += 1
            return even_kernels(w, names)

        def counting_values(k, b, parity, slope=False):
            if not slope:
                return w_terms(k, b, parity)
            counts["slope"] += 1
            inside.append(parity)
            try:
                return w_terms(k, b, parity, slope)
            finally:
                inside.pop()

        for module in (scattering, special):  # special's views call it too
            monkeypatch.setattr(module, "even_kernels", counting_kernels)
        monkeypatch.setattr(resonances, "_w_terms", counting_values)
        find_poles(barrier, (0.5, 3.0, -1.0, 0.0))
        assert counts["inside"] == counts["slope"] > 0
        assert counts["outside"] > 0


class TestReconstruction:
    def test_product_factor_unimodular(self, decomposition):
        ks = np.linspace(0.3, 2.8, 100)
        for parity in ("+", "-"):
            prod = reconstruct_amplitude(ks, decomposition, parity)
            assert np.max(np.abs(np.abs(prod) - 1.0)) < 1e-12

    def test_remainder_unimodular_100_samples(self, decomposition):
        assert len(decomposition.energies) == 100
        ks = np.sqrt(2.0 * decomposition.barrier.mass * decomposition.energies)
        for g in resonances._remainders(ks, decomposition):
            assert np.max(np.abs(np.abs(g) - 1.0)) < 1e-6

    def test_verify_passes(self, decomposition):
        rep = verify_remainder(decomposition)
        assert rep["ok"]
        assert rep["max_modulus_error"] < 1e-6

    def test_spurious_pole_fails(self, barrier, decomposition):
        kp = 1.5 - 0.001j
        ep = kp * kp / 2.0
        spurious = ResonancePole(
            parity="+", k_pole=kp, E_pole=complex(ep), E_R=ep.real,
            Gamma=-2.0 * ep.imag, lifetime=-0.5 / ep.imag, residual=1.0,
        )
        bad = ResonanceDecomposition(
            barrier=barrier,
            poles=decomposition.poles + (spurious,),
            energies=decomposition.energies,
        )
        assert not verify_remainder(bad)["ok"]

    def test_missing_pole_fails(self, barrier, decomposition):
        sharpest = min(decomposition.poles, key=lambda p: p.Gamma)
        bad = ResonanceDecomposition(
            barrier=barrier,
            poles=tuple(p for p in decomposition.poles if p is not sharpest),
            energies=decomposition.energies,
        )
        assert not verify_remainder(bad)["ok"]

    def test_mirror_rectangle_checks_its_poles(self, barrier):
        # left of Re k = 0 sit the 13 mirrors -conj(k_j), |Re k| 1.02-2.89:
        # the energies reach |re_min|, and each mirror enters as its
        # reflection k_j, so the check sees the sharpest one go missing
        dec = build_decomposition(barrier, (-3.0, -0.5, -1.0, 0.0))
        assert len(dec.poles) == 13
        assert dec.energies[-1] == 0.5 * 3.0 ** 2 * 0.9
        assert verify_remainder(dec)["ok"]
        sharpest = min(dec.poles, key=lambda p: abs(p.Gamma))
        assert sharpest.k_pole.real < 0.0
        bad = ResonanceDecomposition(
            barrier=barrier,
            poles=tuple(p for p in dec.poles if p is not sharpest),
            energies=dec.energies,
        )
        assert not verify_remainder(bad)["ok"]

    def test_pole_and_mirror_divide_their_energy_once(self, barrier,
                                                      decomposition):
        # (-3, 3) holds the 13 poles k_j and their 13 mirrors, energies
        # conj(E_j): the factor is that of the k_j alone, not 1
        dec = build_decomposition(barrier, (-3.0, 3.0, -1.0, -1e-3))
        assert len(dec.poles) == 26
        assert verify_remainder(dec)["ok"]
        ks = np.linspace(0.3, 2.8, 100)
        for parity in ("+", "-"):
            np.testing.assert_allclose(
                reconstruct_amplitude(ks, dec, parity),
                reconstruct_amplitude(ks, decomposition, parity), rtol=1e-12)

    @pytest.mark.parametrize("a, n_phase", [(15.0, 600), (200.0, 1059),
                                            (2e4, 1 << 16)])
    def test_phase_sweep_samples_per_barrier_width(self, decomposition, a,
                                                   n_phase, monkeypatch):
        # ~2a samples per unit k keep the background's steps near 0.5 rad;
        # past 2^16 of them the sweep is held there, and its steps grow
        sizes = []
        remainders = resonances._remainders

        def counting(k, dec):
            sizes.append(np.size(k))
            return remainders(k, dec)

        monkeypatch.setattr(resonances, "_remainders", counting)
        verify_remainder(ResonanceDecomposition(
            Barrier.from_two_mv(1.0, a), (), decomposition.energies))
        assert sizes == [100, n_phase]

    def test_remainder_amplitude_calls(self, barrier, monkeypatch):
        # one amplitude_grid call gives both parities: the 100 energies and
        # the 600-point phase walk cost one call each, the FD slope one call
        calls = []
        amplitude_grid = resonances.amplitude_grid

        def counting(k, b):
            calls.append(np.size(k))
            return amplitude_grid(k, b)

        monkeypatch.setattr(resonances, "amplitude_grid", counting)
        dec = build_decomposition(barrier)
        report = verify_remainder(dec)
        assert calls == [100, 600]
        assert report == {"ok": True, "max_modulus_error": 8.881784197001252e-16,
                          "max_phase_step": 0.05915379680277409}
        calls.clear()
        assert remainder_delay(0.5 * 1.1 ** 2, dec) == -12.150769743040204
        assert calls == [4]


class TestLorentzianDelay:
    def test_isolated_line_center(self, barrier):
        # a single pole probed at its center contributes exactly 2/Gamma
        kp = 2.0 - 0.01j
        ep = kp * kp / 2.0
        pole = ResonancePole(
            parity="+", k_pole=kp, E_pole=complex(ep), E_R=ep.real,
            Gamma=-2.0 * ep.imag, lifetime=-0.5 / ep.imag, residual=0.0,
        )
        dec = ResonanceDecomposition(
            barrier=barrier, poles=(pole,), energies=np.array([ep.real]),
        )
        assert lorentzian_delay(ep.real, dec) == pytest.approx(
            2.0 / pole.Gamma, rel=1e-12
        )

    def test_mirror_poles_are_skipped(self, barrier):
        # left of Re k = 0 every pole is a mirror -conj(k) of a resonance,
        # with Gamma < 0 and so no lifetime: none of them enters the sum
        poles = find_poles(barrier, (-3.0, -0.5, -1.0, 0.0))
        assert len(poles) == 13
        assert all(not p.is_resonance and p.lifetime == math.inf
                   for p in poles)
        dec = ResonanceDecomposition(barrier=barrier, poles=tuple(poles),
                                     energies=np.array([0.5]))
        for e0 in [0.05, 0.5, 2.0]:
            assert lorentzian_delay(e0, dec) == 0.0

    def test_far_detuned_vanishes(self, decomposition):
        assert lorentzian_delay(1e6, decomposition) < 1e-8

    def test_weights_bounded(self, decomposition):
        # every Lorentzian weight lies in (0, 1]
        for E0 in np.linspace(0.05, 4.0, 40):
            for p in decomposition.poles:
                w = (0.5 * p.Gamma) ** 2 / (
                    (E0 - p.E_R) ** 2 + (0.5 * p.Gamma) ** 2)
                assert 0.0 < w <= 1.0

    def test_matches_logderiv_minus_remainder(self, barrier, decomposition):
        k0 = 1.1
        e0 = 0.5 * k0 * k0
        lor = lorentzian_delay(e0, decomposition)
        total = logderiv_delay(k0, barrier)
        rem = remainder_delay(e0, decomposition)
        assert abs(lor - (total - rem)) <= 0.2 * abs(lor)


class TestLogDerivativeDelay:
    def test_identity_with_phase_time(self, barrier, rng):
        # delay = tau_ph(k0) - a m / k0, exactly
        for k0 in 0.1 + rng.random(20) * 2.4:
            k0 = float(k0)
            lhs = logderiv_delay(k0, barrier)
            rhs = phase_time(k0, barrier) - 15.0 / k0
            scale = max(abs(rhs), 15.0 / k0)
            assert abs(lhs - rhs) <= 1e-8 * scale

    def test_free_limit(self):
        b = Barrier(1e-12, 15.0, 1.0)
        assert abs(logderiv_delay(1.0, b)) < 1e-6

    def test_peaked_in_resonance_window(self, barrier, decomposition):
        # the delay peaks near the resonance poles; at each in-window pole
        # center it is large and positive (2/Gamma-ish), while between
        # resonances and below the barrier top it can stay Hartman-negative
        ks = np.linspace(0.9, 1.3, 41)
        vals = np.array([logderiv_delay(float(k), barrier)
                         for k in ks])
        interior_max = float(np.max(vals[1:-1]))
        assert interior_max > max(vals[0], vals[-1])
        assert interior_max > 0.0
        for p in decomposition.poles:
            kr = p.k_pole.real
            if 0.9 <= kr <= 1.3:
                center = logderiv_delay(kr, barrier)
                assert center > 0.5 / p.Gamma

    def test_rejects_nonpositive_k(self, barrier):
        with pytest.raises(DomainError):
            logderiv_delay(0.0, barrier)
