"""Gaussian sections: sampling streams, evaluation, zero extraction."""

import cmath
import math
import os
import subprocess
import sys
import textwrap
import threading
from functools import partial
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import stats as sps

from bergman_zeros.statistics import TestFunction

from bergman_zeros import disc, experiments, sections
from bergman_zeros.disc import Annulus, make_disc_space
from bergman_zeros.sections import (
    count_zeros_batch,
    find_zeros,
    find_zeros_batch,
    sample_etas,
    section_stream,
    truncation_length,
)
import oracles
from oracles import evaluate


@pytest.fixture(scope="module")
def space10():
    return make_disc_space(10, truncation_length(10, 0.7))


class TestSampling:
    def test_deterministic_streams(self, space10):
        a = sample_etas(space10, 42, (3, 7), 1)[0]
        b = sample_etas(space10, 42, (3, 7), 1)[0]
        assert np.array_equal(a, b)
        c = sample_etas(space10, 42, (3, 8), 1)[0]
        assert not np.array_equal(a, c)

    def test_prefix_stability_across_lengths(self):
        # paired-seed comparisons across p rely on shared stream prefixes
        small = make_disc_space(10, 40)
        large = make_disc_space(10, 90)
        a = sample_etas(small, 9, (1,), 1)[0]
        b = sample_etas(large, 9, (1,), 1)[0]
        assert np.array_equal(a, b[:40])

    def test_unit_second_moment(self):
        rng = section_stream(123, (0,))
        flat = rng.standard_normal(200_000)
        eta = (flat[0::2] + 1j * flat[1::2]) / math.sqrt(2.0)
        m2 = np.mean(np.abs(eta) ** 2)
        assert abs(m2 - 1.0) < 0.02
        # Re and Im each carry variance 1/2
        assert np.var(eta.real) == pytest.approx(0.5, abs=0.02)
        assert np.var(eta.imag) == pytest.approx(0.5, abs=0.02)

    def test_squared_modulus_is_exponential(self):
        rng = section_stream(7, ())
        flat = rng.standard_normal(200_000)
        eta = (flat[0::2] + 1j * flat[1::2]) / math.sqrt(2.0)
        stat = sps.kstest(np.abs(eta) ** 2, "expon")
        assert stat.pvalue >= 0.01

    def test_draw_row_zero_is_one_row_draw(self):
        [(p, space, etas)] = experiments._draw([6], 0.45, 5, 11, {})
        assert etas[0].tobytes() == sample_etas(space, 11, (p,), 1)[0].tobytes()
        # and a row is built from interleaved normals
        flat = section_stream(11, (p,)).standard_normal(2 * space.L)
        assert etas[0].tobytes() == ((flat[0::2] + 1j * flat[1::2]) / math.sqrt(2.0)).tobytes()

    def test_draw_extends_by_rows(self):
        [(_, _, short)] = experiments._draw([6], 0.45, 7, 11, {})
        [(_, _, long)] = experiments._draw([6], 0.45, 14, 11, {})
        assert short.tobytes() == long[:7].tobytes()

    def test_draw_across_chunk_boundary_is_one_call(self):
        # more rows than one count chunk: still one pass of the one stream
        space = make_disc_space(4, 6)
        samples = experiments.COUNT_CHUNK + 5
        etas = sections.sample_etas(space, 3, (4,), samples)
        flat = section_stream(3, (4,)).standard_normal((samples, 2 * space.L))
        assert etas.tobytes() == (flat.view(np.complex128) / math.sqrt(2.0)).tobytes()

    def test_paired_draw_is_column_prefix(self):
        diagnostics = {}
        draws = list(experiments._draw([4, 6, 8], 0.45, 9, 5, diagnostics, paired=True))
        lengths = [space.L for _, space, _ in draws]
        assert lengths == sorted(set(lengths))
        widest = draws[-1][2]
        for _, space, etas in draws:
            assert etas.shape == (9, space.L)
            assert etas.tobytes() == np.ascontiguousarray(widest[:, : space.L]).tobytes()
        assert diagnostics == {p: {"truncation_length": L} for p, L in zip([4, 6, 8], lengths)}

    def test_drawn_moments(self):
        # 200 000 entries; each mean within 6 standard errors of 0
        etas = sections.sample_etas(make_disc_space(10, 50), 17, (10,), 4000).ravel()
        for values in (etas.real, etas.imag, np.abs(etas) ** 2 - 1.0, (etas**2).real, (etas**2).imag):
            assert abs(np.mean(values)) <= 6.0 * np.std(values) / math.sqrt(values.size)

    def test_one_stream_per_p(self, monkeypatch):
        calls = []
        stream = sections.section_stream

        def counted(seed, path=()):
            calls.append(tuple(path))
            return stream(seed, path)

        monkeypatch.setattr(sections, "section_stream", counted)
        experiments.hole_probability_experiment([4, 6, 8], Annulus(0.25, 0.45), 50, seed=3)
        assert calls == [(4,), (6,), (8,)]
        calls.clear()
        experiments.equidistribution_experiment([10, 20], Annulus(0.25, 0.6), 20, seed=3, paired_seeds=True)
        assert calls == [()]


class TestEvaluate:
    def test_single_basis_vector(self, space10):
        eta = np.zeros(space10.L, dtype=np.complex128)
        eta[0] = 1.0
        z = 0.35 * np.exp(0.4j)
        log_modulus, _ = evaluate(space10, eta, z)
        expected = (
            0.5 * space10.log_coeffs[0]
            + math.log(abs(z))
            + 0.5 * space10.p * math.log(abs(math.log(abs(z) ** 2)))
        )
        assert log_modulus == pytest.approx(expected, abs=1e-12)

    def test_linearity_in_coefficients(self, space10):
        rng = np.random.default_rng(0)
        eta1 = (rng.normal(size=space10.L) + 1j * rng.normal(size=space10.L)) / math.sqrt(2)
        eta2 = (rng.normal(size=space10.L) + 1j * rng.normal(size=space10.L)) / math.sqrt(2)
        z = 0.5 * np.exp(1.1j)
        vals = []
        for eta in (eta1, eta2, eta1 + eta2):
            log_modulus, phase = evaluate(space10, eta, z)
            vals.append(cmath.rect(math.exp(log_modulus), phase))
        assert vals[2] == pytest.approx(vals[0] + vals[1], rel=1e-10)

    def test_second_moment_matches_kernel(self, space10):
        # E |S(z)|^2 in the h_p norm equals the kernel function, checked
        # at ten points with a shared coefficient batch
        m = 10_000
        etas = np.empty((m, space10.L), dtype=np.complex128)
        for i in range(m):
            etas[i] = sample_etas(space10, 321, (i,), 1)[0]
        rng = np.random.default_rng(14)
        for _ in range(10):
            z = rng.uniform(0.25, 0.6) * np.exp(2j * np.pi * rng.random())
            log_amp = 0.5 * space10.log_coeffs + space10.ells * math.log(abs(z))
            shift = np.max(log_amp)
            basis = np.exp(log_amp - shift) * np.exp(1j * space10.ells * np.angle(z))
            weight = 2.0 * (shift + 0.5 * space10.p * math.log(-2.0 * math.log(abs(z))))
            sq = np.abs(etas @ basis) ** 2 * math.exp(weight)
            ratio = sq / disc.kernel_function(space10.p, abs(z))
            se = np.std(ratio, ddof=1) / math.sqrt(m)
            assert abs(np.mean(ratio) - 1.0) <= 3.0 * se

    def test_underflow_marker(self, space10):
        assert evaluate(space10, np.zeros(space10.L, dtype=np.complex128), 0.3) == (-math.inf, 0.0)


class TestTruncationLength:
    def test_monotone_in_tolerance(self):
        l_loose = disc.adaptive_truncation(100, 0.7, 1e-4**2)
        l_tight = disc.adaptive_truncation(100, 0.7, 1e-10**2)
        assert l_loose <= l_tight

    def test_extended_precision_tail_oracle(self):
        # smallest L with true tail <= eps^2 * head, computed at 80 digits
        p, b, eps = 10, 0.5, sections.ZERO_TAIL_EPS
        ours = truncation_length(p, b)
        with mp.workdps(80):
            x = mp.mpf(str(b)) ** 2
            total = mp.polylog(1 - p, x)  # sum_ell ell^(p-1) x^ell, closed form

            def tail_ok(L):
                head = mp.nsum(lambda l: l ** (p - 1) * x**l, [1, L])
                return total - head <= eps * eps * head

            exact = next(L for L in range(1, 400) if tail_ok(L))
        assert exact <= ours <= exact + 2
        assert tail_ok(ours)

    def test_truncation_stability_of_zero_counts(self):
        # appending 10 more basis terms leaves paired zero counts unchanged
        p, region = 100, Annulus(0.2, 0.7)
        L = truncation_length(p, region.b)
        base = make_disc_space(p, L)
        ext = make_disc_space(p, L + 10)
        m = 500
        etas_ext = np.empty((m, L + 10), dtype=np.complex128)
        for i in range(m):
            etas_ext[i] = sample_etas(ext, 55, (i,), 1)[0]
        counts_base = count_zeros_batch(base, etas_ext[:, :L], region)
        counts_ext = count_zeros_batch(ext, etas_ext, region)
        se = np.std(counts_base, ddof=1) / math.sqrt(m)
        assert abs(np.mean(counts_ext) - np.mean(counts_base)) < se


class TestFindZeros:
    def test_single_term_has_no_zeros(self, space10):
        eta = np.zeros(space10.L, dtype=np.complex128)
        eta[0] = 1.0
        zs = find_zeros(space10, eta, Annulus(0.1, 0.6))
        assert zs.mult.sum() == 0

    def test_constructed_single_zero(self, space10):
        # section proportional to z (z - w)
        w = 0.4 * np.exp(0.7j)
        eta = np.zeros(space10.L, dtype=np.complex128)
        eta[0] = -w / math.exp(0.5 * space10.log_coeffs[0])
        eta[1] = 1.0 / math.exp(0.5 * space10.log_coeffs[1])
        zs = find_zeros(space10, eta, Annulus(0.1, 0.6))
        assert zs.mult.sum() == 1
        assert zs.z[0] == pytest.approx(w, abs=1e-10)

    def test_vanishing_low_coefficients(self, space10):
        # section proportional to z^3 (z - w1) (z - w2): the double root of
        # S(z) / z at 0 is split off, and only the other two are iterated
        ws = [0.3 * np.exp(1.1j), 0.5 * np.exp(-2.0j)]
        eta = _with_zeros(space10, [0.0, 0.0, *ws])
        assert eta[0] == 0.0 and eta[1] == 0.0
        zs = find_zeros(space10, eta, Annulus(0.1, 0.6))
        assert zs.unconverged.tolist() == [0] and zs.mult.tolist() == [1, 1]
        assert zs.z.tolist() == pytest.approx(ws, abs=1e-10)

    def test_double_root_merged_and_flagged(self, space10):
        # section proportional to z (z - w)^2 = z^3 - 2 w z^2 + w^2 z
        w = 0.45 * np.exp(-1.2j)
        coeffs = {1: w**2, 2: -2.0 * w, 3: 1.0}
        eta = np.zeros(space10.L, dtype=np.complex128)
        for ell, c in coeffs.items():
            eta[ell - 1] = c / math.exp(0.5 * space10.log_coeffs[ell - 1])
        zs = find_zeros(space10, eta, Annulus(0.1, 0.6))
        assert zs.mult.sum() == 2
        assert len(zs.z) == 1
        assert zs.mult.tolist() == [2]

    def test_degree_bookkeeping_against_roots_oracle(self):
        # the truncated section is z * P(z) with deg P = L - 1: the oracle's
        # roots inside the annulus must match an eigenvalue solve of P
        p = 8
        space = make_disc_space(p, truncation_length(p, 0.6))
        eta = sample_etas(space, 77, (0,), 1)[0]
        region = Annulus(0.05, 0.6)
        zs = find_zeros(space, eta, region)
        coeffs = eta * np.exp(0.5 * space.log_coeffs)
        roots = np.roots(coeffs[::-1])
        assert roots.size == space.L - 1
        inside = np.sum((np.abs(roots) > region.a) & (np.abs(roots) < region.b))
        assert zs.mult.sum() == int(inside)

    def test_zeros_sorted_and_in_region(self, space10):
        eta = sample_etas(space10, 5, (0,), 1)[0]
        region = Annulus(0.15, 0.65)
        zs = find_zeros(space10, eta, region)
        radii = np.abs(zs.z).tolist()
        assert radii == sorted(radii)
        assert all(region.a < r < region.b for r in radii)

    def test_phase_invariance(self, space10):
        eta = sample_etas(space10, 13, (4,), 1)[0]
        region = Annulus(0.1, 0.65)
        za = find_zeros(space10, eta, region)
        zb = find_zeros(space10, np.exp(0.77j) * eta, region)
        assert len(za.z) == len(zb.z)
        for x, mx, y, my in zip(za.z, za.mult, zb.z, zb.mult):
            assert x == pytest.approx(y, abs=1e-10)
            assert mx == my

    def test_unconverged_roots_noted_and_kept(self, space10, monkeypatch):
        # three Aberth sweeps leave roots moving: each is counted, and those
        # in the annulus stay in the zero set, far from every converged zero
        eta = sample_etas(space10, 5, (0,), 1)[0]
        region = Annulus(0.15, 0.65)
        converged = find_zeros(space10, eta, region)
        assert converged.unconverged.tolist() == [0]
        monkeypatch.setattr(sections, "ABERTH_MAX_ITER", 3)
        zs = find_zeros(space10, eta, region)
        assert zs.unconverged[0] > 0 and zs.z.size > 0
        assert all(np.min(np.abs(converged.z - z)) > 1e-11 for z in zs.z)

    def test_truncation_guard(self):
        # L = 40 falls short at p = 60 on |z| <= 0.8, for the oracle and both batch entry points
        space, region = make_disc_space(60, 40), Annulus(0.2, 0.8)
        etas = np.ones((2, 40), dtype=np.complex128)
        for call in (partial(find_zeros, space, etas[0]), partial(count_zeros_batch, space, etas),
                     partial(find_zeros_batch, space, etas)):
            with pytest.raises(disc.TruncationError) as exc:
                call(region)
            assert exc.value.required_length == truncation_length(60, 0.8) > 40

    def test_rejects_row_of_wrong_shape(self, space10):
        # a row one term short, and a batch of rows in place of one row
        for eta in (np.ones(space10.L - 1, dtype=np.complex128), np.ones((2, space10.L), dtype=np.complex128)):
            with pytest.raises(ValueError) as err:
                find_zeros(space10, eta, Annulus(0.1, 0.6))
            assert str(err.value) == f"coefficient row of shape {eta.shape} does not match the truncation length L = {space10.L}"


class TestArgumentPrinciple:
    def test_monomial_winding(self, space10):
        # section proportional to z^k: winding k on both circles, count 0
        eta = np.zeros(space10.L, dtype=np.complex128)
        eta[4] = 2.3
        assert count_zeros_batch(space10, eta[None, :], Annulus(0.2, 0.6)).tolist() == [0]
        windings, failed = sections._winding(space10, eta[None, :], 0.5)
        assert windings[0] == 5 and not failed[0]

    def test_empty_annulus(self, space10):
        etas = sample_etas(space10, 3, (1,), 1)
        assert count_zeros_batch(space10, etas, Annulus(0.5, 0.5 + 1e-12)).tolist() == [0]

    def test_agrees_with_companion(self, space10):
        # the argument principle alone: a failed row would be counted by find_zeros itself
        region = Annulus(0.15, 0.65)
        for i in range(60):
            etas = sample_etas(space10, 99, (i,), 1)
            counts, unresolved = sections._counts(space10, etas, region)
            assert not unresolved.any()
            assert counts.tolist() == [find_zeros(space10, etas[0], region).mult.sum()]

    def test_batch_matches_scalar(self, space10):
        region = Annulus(0.2, 0.6)
        m = 64
        etas = np.empty((m, space10.L), dtype=np.complex128)
        for i in range(m):
            etas[i] = sample_etas(space10, 31, (i,), 1)[0]
        batch = count_zeros_batch(space10, etas, region)
        for i in range(m):
            assert count_zeros_batch(space10, etas[i : i + 1], region).tolist() == [batch[i]]

    def test_contour_zero_perturbation(self, space10):
        # place a zero exactly on the outer contour; the count must still
        # resolve, through find_zeros
        w = 0.6
        eta = np.zeros(space10.L, dtype=np.complex128)
        eta[0] = -w / math.exp(0.5 * space10.log_coeffs[0])
        eta[1] = 1.0 / math.exp(0.5 * space10.log_coeffs[1])
        [count] = count_zeros_batch(space10, eta[None, :], Annulus(0.2, w))
        assert count in (0, 1)


def _with_zeros(space, zeros):
    """Coefficient row of a section proportional to z (z - w_1) ... (z - w_k)."""
    k = len(zeros)
    eta = np.zeros(space.L, dtype=np.complex128)
    eta[: k + 1] = np.poly(zeros)[::-1] / np.exp(0.5 * space.log_coeffs[: k + 1])
    return eta


def _row(zs, i=0):
    """The zeros and multiplicities of row i of a Zeros, as lists."""
    at = zs.row == i
    return zs.z[at].tolist(), zs.mult[at].tolist()


def _linear_statistic(phi, zs):
    """Y(phi) of a one-row Zeros, zero by zero."""
    return sum(m * phi.value(abs(z)) for z, m in zip(zs.z, zs.mult))


def _reference_winding(space, eta, r, n_init, max_rounds=40):
    """Per-row phase tracking that re-sorts the whole refined grid each round."""
    thetas = np.linspace(0.0, 2.0 * math.pi, n_init, endpoint=False)
    amp = np.exp(0.5 * space.log_coeffs + space.ells * math.log(r))

    def values(th):
        return np.exp(1j * np.outer(th, space.ells)) @ (eta * amp)

    vals = values(thetas)
    for _ in range(max_rounds):
        assert np.min(np.abs(vals)) >= 1e-13 * np.max(np.abs(vals)), "zero on the contour"
        phases = np.angle(vals)
        dphi = (np.diff(phases, append=phases[:1]) + math.pi) % (2.0 * math.pi) - math.pi
        bad = np.abs(dphi) >= math.pi / 2.0
        if not bad.any():
            return round(float(np.sum(dphi)) / (2.0 * math.pi))
        nxt = np.append(thetas[1:], thetas[0] + 2.0 * math.pi)
        mids = 0.5 * (thetas[bad] + nxt[bad])
        order = np.argsort(np.concatenate([thetas, mids]), kind="stable")
        thetas = np.concatenate([thetas, mids])[order]
        vals = np.concatenate([vals, values(mids)])[order]
    raise AssertionError("refinement did not settle")


class TestCircleValues:
    # (L, n): L < n (128, the holes windings; 256) and the fold L > n;
    # n = 72 is not a power of two; then the
    # fold's block edges, L = n - 1, n, 2n - 1 and 2n, where ell = L lands
    # on the last index of a block or the first of the next
    SHAPES = [(35, 128), (300, 128), (185, 256), (700, 256), (114, 72), (476, 1024)] + [
        (L, n) for n in (72, 128) for L in (n - 1, n, 2 * n - 1, 2 * n)
    ]

    @staticmethod
    def _direct(coeff: np.ndarray, n: int) -> np.ndarray:
        """sum_ell coeff_ell e^{2 pi i ell j / n}, term by term in long double."""
        ell = np.arange(1, coeff.shape[1] + 1)
        angle = 2.0 * np.pi * np.longdouble(1) * (np.outer(ell, np.arange(n)) % n) / n
        c = coeff.astype(np.clongdouble)
        return np.einsum("ml,lj->mj", c, np.cos(angle)) + 1j * np.einsum("ml,lj->mj", c, np.sin(angle))

    @pytest.mark.parametrize("L, n", SHAPES)
    def test_matches_direct_sum(self, L, n):
        rng = np.random.default_rng(L * n)
        coeff = rng.standard_normal((3, L)) + 1j * rng.standard_normal((3, L))
        coeff[2] *= np.exp(-0.05 * np.arange(L))  # terms that decay, as the scaled coefficients do
        got = sections._circle_values(coeff, n)
        ref = self._direct(coeff, n)
        assert got.shape == (3, n)
        # unnormalised: the values themselves, magnitudes included
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref).max(axis=1, keepdims=True))


class TestWindingEngine:
    R = 0.5

    @pytest.mark.parametrize("p, region", [(8, Annulus(0.25, 0.45)), (20, Annulus(0.2, 0.7))])
    def test_matches_per_row_reference(self, p, region):
        space = make_disc_space(p, truncation_length(p, region.b))
        etas = np.array([sample_etas(space, 8, (i,), 1)[0] for i in range(150)])
        for r in (region.a, region.b):
            windings, failed = sections._winding(space, etas, r)
            assert not failed.any()
            n = sections._initial_points(space, r)
            assert windings.tolist() == [_reference_winding(space, eta, r, n) for eta in etas]

    def test_angle_counts(self):
        # the first pass: the least 2^a 3^b >= max(64, 8 (n + 8)), n the expected
        # zero count of |z| < r; the seed grid: max(64, 2^ceil(log2 8 (n + 8)))
        smooth = np.sort([2**a * 3**b for a in range(16) for b in range(10)])
        for p in range(2, 401):
            space = make_disc_space(p, 1)
            for r in np.exp(np.linspace(-12.0, math.log(0.95), 13)):
                x = 8.0 * (disc.zero_counting_function(p, r) + 8.0)
                assert sections._initial_points(space, r) == smooth[np.searchsorted(smooth, max(64.0, x))]
                assert sections._seed_angles(space, r) == max(64, 1 << int(math.ceil(math.log2(x))))

    def test_zero_near_contour_refines_deeply(self, space10):
        # zeros at relative distance 1e-9 outside and inside the contour:
        # the phase jumps by ~pi within an angle of ~1e-9, so only deep
        # midpoint refinement resolves it; no fallback is needed
        w_out = self.R * (1.0 + 1e-9) * np.exp(0.3j)
        w_in = self.R * (1.0 - 1e-9) * np.exp(0.3j)
        etas = np.array([_with_zeros(space10, [w_out]), _with_zeros(space10, [w_in])])
        windings, failed = sections._winding(space10, etas, self.R)
        assert windings.tolist() == [1, 2]
        assert not failed.any()
        # the same at p = 200, r = 0.7 (L = 476 terms, 2 592 angles): a random
        # section whose linear term is moved to put a zero at w.  The midpoints'
        # powers of e^{it} drift by about L eps in phase; the reference's table
        # of exponentials does not
        p, r = 200, 0.7
        space = make_disc_space(p, truncation_length(p, r))
        eta = sample_etas(space, 29, (p,), 1)[0]
        amp = np.exp(0.5 * space.log_coeffs)
        etas = np.array([eta] * 2)
        for row, f in zip(etas, (1.0 + 1e-9, 1.0 - 1e-9)):
            w = r * f * np.exp(0.3j)
            row[0] -= np.sum(eta * amp * w ** (space.ells - 1)) / amp[0]
        windings, failed = sections._winding(space, etas, r)
        n = sections._initial_points(space, r)
        assert n == 2592 and not failed.any()
        assert windings.tolist() == [_reference_winding(space, eta, r, n) for eta in etas]
        assert windings[1] == windings[0] + 1

    def test_refinement_cap_fails_rows(self, space10, monkeypatch):
        # zeros 5e-15 outside the contour: after 19 splits each unresolved
        # segment's increment is still within ~1e-7 of -pi, so leaving out
        # the second row's two gives a wrong but integer winding; only the
        # segments left in the queue mark that row failed
        near = [self.R * (1.0 + 1e-14) * np.exp(1j * t) for t in (0.3, 2.0)]
        etas = np.array([_with_zeros(space10, near[:1]), _with_zeros(space10, near)])
        monkeypatch.setattr(sections, "MAX_ROUNDS", 20)
        _, failed = sections._winding(space10, etas, self.R)
        assert failed.all()

    def test_zero_on_contour_takes_oracle_path(self, space10):
        # one zero exactly on a grid angle, one between grid angles
        region = Annulus(0.2, self.R)
        etas = np.array([_with_zeros(space10, [self.R]), _with_zeros(space10, [self.R * np.exp(0.3j)])])
        _, failed = sections._winding(space10, etas, self.R)
        assert failed.all()
        assert sections._counts(space10, etas, region)[1].all()
        oracle = [find_zeros(space10, eta, region).mult.sum() for eta in etas]
        assert count_zeros_batch(space10, etas, region).tolist() == oracle

    def test_contour_zeros_counted_by_oracle(self, space10):
        # zeros on the contour and 1e-6 to 3e-6 either side of it
        region = Annulus(0.2, self.R)
        eta = _with_zeros(space10, [self.R + dr for dr in (0.0, -1e-6, 2e-6, -3e-6)])
        assert sections._counts(space10, eta[None, :], region)[1].tolist() == [True]
        assert count_zeros_batch(space10, eta[None, :], region).tolist() == [find_zeros(space10, eta, region).mult.sum()]

    def test_batch_without_flagged_rows(self, space10, monkeypatch):
        # no zero near the contour: the first pass settles every row, so
        # allowing no refinement round at all changes nothing
        etas = np.zeros((5, space10.L), dtype=np.complex128)
        for k in range(5):
            etas[k, k] = 1.0  # z^(k+1)
        far = np.array([_with_zeros(space10, [0.2j]), _with_zeros(space10, [-0.8])])
        etas = np.concatenate([etas, far])
        monkeypatch.setattr(sections, "MAX_ROUNDS", 1)
        windings, failed = sections._winding(space10, etas, self.R)
        assert windings.tolist() == [1, 2, 3, 4, 5, 2, 1]
        assert not failed.any()

    def _near_contour_rows(self, space):
        """8 rows, each with one zero 1e-7 relative outside (even rows) or inside (odd rows) |z| = R."""
        angles = np.linspace(0.1, 6.0, 8)
        rel = np.where(np.arange(8) % 2 == 0, 1.0 + 1e-7, 1.0 - 1e-7)
        return np.array([_with_zeros(space, [self.R * f * np.exp(1j * t)]) for f, t in zip(rel, angles)])

    def test_batch_with_every_row_flagged(self, space10, monkeypatch):
        etas = self._near_contour_rows(space10)
        windings, failed = sections._winding(space10, etas, self.R)
        assert windings.tolist() == [1, 2] * 4 and not failed.any()
        monkeypatch.setattr(sections, "MAX_ROUNDS", 1)
        _, failed = sections._winding(space10, etas, self.R)
        assert failed.all()

    def test_failed_rows_counted_by_oracle(self, space10, monkeypatch):
        # the rows above with no refinement round: every winding at R fails
        # and the winding differences read 0, but the counts are the oracle's
        etas = self._near_contour_rows(space10)
        region = Annulus(0.2, self.R)
        monkeypatch.setattr(sections, "MAX_ROUNDS", 1)
        counts, unresolved = sections._counts(space10, etas, region)
        assert unresolved.all() and not counts.any()
        assert count_zeros_batch(space10, etas, region).tolist() == [0, 1] * 4

    def test_chunk_independence(self, monkeypatch):
        p, region = 20, Annulus(0.2, 0.7)
        space = make_disc_space(p, truncation_length(p, region.b))
        etas = np.array([sample_etas(space, 17, (i,), 1)[0] for i in range(300)])
        # rows with a zero close to each contour exercise the refinement queue
        near = [_with_zeros(space, [region.b * (1.0 + 1e-8) * np.exp(2.0j)]),
                _with_zeros(space, [region.a * (1.0 - 1e-8) * np.exp(-1.0j)])]
        etas = np.concatenate([etas[:150], near, etas[150:]])
        whole = count_zeros_batch(space, etas, region)
        halves = np.concatenate([count_zeros_batch(space, etas[:151], region),
                                 count_zeros_batch(space, etas[151:], region)])
        assert np.array_equal(whole, halves)
        monkeypatch.setattr(sections, "BLOCK_ENTRIES", 5000)  # many row blocks in pass one
        assert np.array_equal(count_zeros_batch(space, etas, region), whole)
        monkeypatch.setattr(sections, "BLOCK_ENTRIES", 2 * space.L)  # and two segments per refinement block
        assert np.array_equal(count_zeros_batch(space, etas, region), whole)

    @pytest.mark.parametrize("p, region", [(8, Annulus(0.25, 0.45)), (100, Annulus(0.2, 0.7))])
    def test_agrees_with_companion_roots(self, p, region):
        space = make_disc_space(p, truncation_length(p, region.b))
        etas = np.array([sample_etas(space, 2024, (p, i), 1)[0] for i in range(200)])
        counts, unresolved = sections._counts(space, etas, region)
        assert not unresolved.any()
        roots = [find_zeros(space, eta, region).mult.sum() for eta in etas]
        assert counts.tolist() == roots


class TestGridSeeds:
    SEED = 20260811

    @staticmethod
    def _circle(vals):
        return (vals, *sections._quadrants(vals))

    @pytest.mark.parametrize("p", [40, 100, 200])
    def test_quadrant_windings_match_phases(self, p, monkeypatch):
        # the int8 cell windings against np.angle + wrap + rint, cell by
        # cell on every ring, then the seeds they place
        phi = TestFunction(0.35, 0.65)
        [(_, space, etas)] = experiments._draw([p], phi.b, 16, self.SEED, {})
        n_a = sections._seed_angles(space, phi.b)
        prev = None
        for r in sections._grid_radii(space, phi.support, 2.0 * math.pi / n_a):
            circle = self._circle(sections._circle_values(etas * sections._scales(space, math.log(r))[0], n_a))
            if prev is not None:
                assert np.array_equal(sections._cell_windings(prev, circle), oracles.cell_windings(prev, circle))
            prev = circle
        seeds = sections._grid_seeds(space, etas, phi.support)
        monkeypatch.setattr(sections, "_cell_windings", oracles.cell_windings)
        ref = sections._grid_seeds(space, etas, phi.support)
        assert seeds[0].size >= 16 and all(np.array_equal(a, b) for a, b in zip(seeds, ref))

    @pytest.mark.parametrize("p, rows", [(40, 12), (80, 16), (100, 64)])
    def test_ring_blocks_change_no_seed(self, p, rows, monkeypatch):
        # blocks of 1, 2 and 3 rings, and the whole grid as one block: one
        # _circle_values call per block, and the same seeds bit for bit
        phi = TestFunction(0.35, 0.65)
        [(_, space, etas)] = experiments._draw([p], phi.b, rows, self.SEED, {})
        n_a = sections._seed_angles(space, phi.b)
        rings = sections._grid_radii(space, phi.support, 2.0 * math.pi / n_a).size
        ring_entries = rows * max(n_a, space.L)
        calls = []
        values = sections._circle_values
        monkeypatch.setattr(sections, "_circle_values", lambda coeff, n, out=None: (calls.append(coeff.shape[0]), values(coeff, n, out))[1])
        seeds = sections._grid_seeds(space, etas, phi.support)
        for per in (1, 2, 3, rings):
            calls.clear()
            monkeypatch.setattr(sections, "BLOCK_ENTRIES", per * ring_entries)
            got = sections._grid_seeds(space, etas, phi.support)
            assert calls == [rows * per] * (rings // per) + [rows * (rings % per)] * (rings % per > 0)
            assert all(np.array_equal(a, b) for a, b in zip(got, seeds))

    @pytest.mark.parametrize("p", [2, 4, 10, 40, 100, 300])
    @pytest.mark.parametrize("region", [Annulus(0.05, 0.95), Annulus(0.1, 0.8), Annulus(0.35, 0.65), Annulus(0.25, 0.45)])
    def test_newton_powers_stay_finite(self, p, region):
        # a seed's terms are scaled at its cell's inner ring: |z / rho|^L <= e^(L max dlog r) <= e^100
        space = make_disc_space(p, truncation_length(p, region.b))
        radii = sections._grid_radii(space, region, 2.0 * math.pi / sections._seed_angles(space, region.b))
        assert space.L * np.max(np.diff(np.log(radii))) <= 100.0

    def test_quadrant_windings_on_the_axes(self):
        # values on both axes with either sign of zero, and on the diagonals:
        # edges of two quadrants either way, exact half turns among them
        values = np.array([complex(re, im) for re, im in [
            (1.0, 0.0), (1.0, -0.0), (-1.0, 0.0), (-1.0, -0.0), (2.0, -0.0), (-0.5, 0.0),
            (0.0, 1.0), (-0.0, 1.0), (0.0, -1.0), (-0.0, -1.0), (-0.0, 3.0), (0.0, -0.5),
            (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (0.5, -2.0), (-2.0, 0.5),
        ]])
        rng = np.random.default_rng(5)
        inner, outer = (self._circle(values[rng.integers(0, values.size, (4000, 4))]) for _ in range(2))
        got = sections._cell_windings(inner, outer)
        assert np.array_equal(got, oracles.cell_windings(inner, outer))
        assert (got == 1).any() and (got == -1).any()
        assert {2, -2} <= set(inner[2].ravel().tolist())


class TestBatchedZeros:
    SEED = 20260811

    @pytest.mark.parametrize("p", [40, 80, 100])
    def test_linear_statistics_match_companion_roots(self, p):
        # the clt/variance path against find_zeros, sample by sample
        phi = TestFunction(0.35, 0.65)
        [(_, space, etas)] = experiments._draw([p], phi.b, 200, self.SEED, {})
        ys, notes = experiments._linear_statistics(phi)(space, etas)
        batch = find_zeros_batch(space, etas, phi.support)
        for i in range(etas.shape[0]):
            zs = find_zeros(space, etas[i], phi.support)
            assert abs(ys[i] - _linear_statistic(phi, zs)) <= 1e-9
            # every certified zero, after the accepted last step
            z = batch.z[batch.row == i]
            assert len(z) == len(zs.z) and np.all(np.abs(z - zs.z) <= 1e-10 * np.abs(zs.z))
        assert notes.shape == (200, 3) and not notes.any() and not batch.fallback.any()

    def test_empty_batch(self):
        region = Annulus(0.35, 0.65)
        space = make_disc_space(40, truncation_length(40, region.b))
        zs = find_zeros_batch(space, np.zeros((0, space.L), dtype=np.complex128), region)
        assert all(a.size == 0 for a in zs)

    def test_wide_annulus_zero_sets(self):
        # c_ell |z|^ell spans far beyond the double range here; Halley
        # scales each seed at its cell's inner ring.  Every zero within
        # 1e-9 of the oracle, and within 1e-10 relative after the last step
        p, region = 60, Annulus(0.1, 0.8)
        [(_, space, etas)] = experiments._draw([p], region.b, 16, self.SEED, {})
        zs = find_zeros_batch(space, etas, region)
        assert not zs.fallback.any() and not zs.unconverged.any()
        for i, row in enumerate(etas):
            ref = find_zeros(space, row, region)
            z = zs.z[zs.row == i]
            assert len(z) == len(ref.z)
            assert np.max(np.abs(z - ref.z)) < 1e-9
            assert np.all(np.abs(z - ref.z) <= 1e-10 * np.abs(ref.z))

    def test_subnormal_leading_coefficient(self):
        # p = 10 on (0.05, 0.95), L = 597: the terms c_ell |z|^ell span far
        # beyond the double range across the annulus (balanced at one
        # radius, the highest coefficient was subnormal), so the oracle
        # scales every root at its own radius.  A double zero appended to the
        # 64 drawn rows must fall back, so the fallback rows are always covered
        region = Annulus(0.05, 0.95)
        [(_, space, drawn)] = experiments._draw([10], region.b, 64, self.SEED, {})
        w = 0.45 * np.exp(-1.2j)
        etas = np.vstack([drawn, _with_zeros(space, [w, w, 0.3j])])
        counts, unresolved = sections._counts(space, etas, region)
        assert not unresolved.any()
        zsets = [find_zeros(space, row, region) for row in etas]
        assert [zs.mult.sum() for zs in zsets] == counts.tolist()
        assert not any(zs.unconverged[0] for zs in zsets)
        batch = find_zeros_batch(space, etas, region)
        fallback = np.flatnonzero(batch.fallback)
        assert batch.fallback.size == 65 and 64 in fallback
        assert all(_row(batch, i) == _row(zsets[i]) for i in fallback)

    def test_double_zero_takes_fallback(self, space10):
        phi = TestFunction(0.1, 0.6)
        w = 0.45 * np.exp(-1.2j)
        double = _with_zeros(space10, [w, w, 0.3j])
        etas = np.array([sample_etas(space10, 8, (0,), 1)[0], double])
        zs = find_zeros_batch(space10, etas, phi.support)
        assert zs.fallback.tolist() == [False, True] and zs.unconverged[0] == 0
        ref = find_zeros(space10, double, phi.support)
        assert _row(zs, 1) == _row(ref) and ref.mult.sum() == 3
        ys, notes = experiments._linear_statistics(phi)(space10, etas)
        assert ys[1] == pytest.approx(_linear_statistic(phi, ref), rel=1e-14)
        counts = dict(zip(experiments._ROOT_NOTES, notes.sum(axis=0).tolist()))
        # Aberth converges only linearly at a double zero, so one of its two
        # roots may be counted as unconverged
        assert counts == {"fallback_rows": 1, "newton_nonconvergence": ref.unconverged[0], "merges": 1}

    def test_fallback_rows_keep_row_order(self, space10):
        # double zeros in rows 0 and 2: the oracle's zeros go back between the
        # certified rows, and each row gets the linear statistic of its own zeros
        phi = TestFunction(0.1, 0.6)
        w = 0.45 * np.exp(-1.2j)
        double = _with_zeros(space10, [w, w, 0.3j])
        etas = np.array([double, sample_etas(space10, 8, (0,), 1)[0], double, sample_etas(space10, 8, (1,), 1)[0]])
        zs = find_zeros_batch(space10, etas, phi.support)
        assert zs.fallback.tolist() == [True, False, True, False]
        assert np.all(np.diff(zs.row) >= 0)
        ys, _ = experiments._linear_statistics(phi)(space10, etas)
        for i, eta in enumerate(etas):
            assert abs(ys[i] - _linear_statistic(phi, find_zeros(space10, eta, phi.support))) <= 1e-9

    def test_missed_zero_takes_fallback(self, space10, monkeypatch):
        # a seed grid that misses a zero: the count, not the grid, decides
        region = Annulus(0.1, 0.6)
        etas = np.array([sample_etas(space10, 8, (i,), 1)[0] for i in range(3)])
        full = find_zeros_batch(space10, etas, region)
        seeds = sections._grid_seeds

        def one_seed_short(*args):
            own, *rest = seeds(*args)
            keep = np.arange(own.size) != np.flatnonzero(own == 0)[0]
            return own[keep], *(a[keep] for a in rest)

        monkeypatch.setattr(sections, "_grid_seeds", one_seed_short)
        zs = find_zeros_batch(space10, etas, region)
        assert not full.fallback.any() and zs.fallback.tolist() == [True, False, False]
        assert _row(zs, 0) == _row(find_zeros(space10, etas[0], region))
        assert all(_row(zs, i) == _row(full, i) for i in (1, 2))
        assert zs.unconverged[1:].tolist() == full.unconverged[1:].tolist()

    def test_unresolved_contour_takes_fallback(self, space10):
        # zeros on the outer circle and 1e-6 to 3e-6 either side of it: both
        # the count and the batched finder hand the row to find_zeros
        region = Annulus(0.2, 0.5)
        stuck = _with_zeros(space10, [region.b + dr for dr in (0.0, -1e-6, 2e-6, -3e-6)])
        etas = np.array([sample_etas(space10, 8, (1,), 1)[0], stuck])
        counts, unresolved = sections._counts(space10, etas, region)
        assert unresolved.tolist() == [False, True]
        ref = find_zeros(space10, stuck, region)
        assert count_zeros_batch(space10, etas, region).tolist() == [counts[0], ref.mult.sum()]
        zs = find_zeros_batch(space10, etas, region)
        assert zs.fallback.tolist() == [False, True]
        assert _row(zs, 1) == _row(ref)
        assert zs.unconverged[0] == 0

    def test_block_size_does_not_change_zeros(self, monkeypatch):
        # a row's certifying winding counts depend on that row only: row blocks
        # of 5000 // 512 = 9 and 5000 // 256 = 19 rows give the same zero sets as the default
        p, region = 40, Annulus(0.35, 0.65)
        [(_, space, etas)] = experiments._draw([p], region.b, 64, self.SEED, {})
        zs = find_zeros_batch(space, etas, region)
        monkeypatch.setattr(sections, "BLOCK_ENTRIES", 5000)
        assert all(np.array_equal(a, b) for a, b in zip(find_zeros_batch(space, etas, region), zs))

    def test_ring_past_b_certifies_large_p(self):
        # at p = 300 the ring that passes b lies 8e-5 past it; a zero just inside b, whose outer arc aliases,
        # needs a cell beyond that ring.  Without the extra ring 2 of these rows fell back
        region = Annulus(0.35, 0.65)
        [(_, space, etas)] = experiments._draw([300], region.b, 64, 7, {})
        assert find_zeros_batch(space, etas, region).fallback.sum() == 0

    def test_work_buffers_stay_within_a_block(self):
        # in a fresh thread, which starts with no buffers: every request of the zero finder and of the
        # winding counts is at most BLOCK_ENTRIES entries, also where one ring of every row is more
        # (4 096 angles at p = 300)
        sizes = {}

        def run():
            region = Annulus(0.35, 0.65)
            for p in (40, 100, 300):
                for rows in (12, 64):
                    [(_, space, etas)] = experiments._draw([p], region.b, rows, self.SEED, {})
                    find_zeros_batch(space, etas, region)
            for p, count_region, rows in ((200, Annulus(0.2, 0.7), 200), (8, Annulus(0.25, 0.45), 4000),
                                          (300, region, 64)):
                [(_, space, etas)] = experiments._draw([p], count_region.b, rows, self.SEED, {})
                count_zeros_batch(space, etas, count_region)
            sizes.update((name, buf.size) for name, buf in vars(sections._pool).items())

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert {"coeff", "values", "last ring", "scale", "terms", "rows", "phases"} <= sizes.keys()
        assert max(sizes.values()) <= sections.BLOCK_ENTRIES

    def test_concurrent_calls_keep_their_buffers(self):
        # four threads on two cores, switching often, each on its own batch: a buffer shared between
        # threads would mix their blocks, and their zeros and counts would differ from the serial ones
        region = Annulus(0.35, 0.65)
        batches = [next(experiments._draw([p], region.b, 16, self.SEED + p, {}))[1:] for p in (40, 60, 80, 100)]
        serial = [find_zeros_batch(space, etas, region) for space, etas in batches]
        count_region = Annulus(0.2, 0.7)
        count_batches = [next(experiments._draw([p], count_region.b, 200, self.SEED + p, {}))[1:]
                         for p in (50, 100, 150, 200)]
        serial_counts = [count_zeros_batch(space, etas, count_region) for space, etas in count_batches]
        results = [None] * len(batches)
        counts = [None] * len(batches)

        def run(i):
            for _ in range(3):
                results[i] = find_zeros_batch(*batches[i], region)
                counts[i] = count_zeros_batch(*count_batches[i], count_region)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, ref in zip(results, serial):
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        for got, ref in zip(counts, serial_counts):
            assert np.array_equal(got, ref)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor page faults as glibc's allocator gives them")
    def test_warm_calls_fault_no_pages(self):
        # in a fresh process: block-sized arrays allocated and freed on every call faulted in about 4 700
        # pages per warm find_zeros_batch call at p = 100 with 12 rows, 5 400 at p = 80 with 16 rows, and
        # 990 per warm count_zeros_batch call at p = 200 on (0.2, 0.7) with 200 rows
        probe = textwrap.dedent("""
            import resource
            from bergman_zeros import experiments, sections
            from bergman_zeros.disc import Annulus
            cases = [(sections.find_zeros_batch, p, Annulus(0.35, 0.65), rows) for p, rows in ((100, 12), (80, 16))]
            cases += [(sections.count_zeros_batch, 200, Annulus(0.2, 0.7), 200),
                      (sections.count_zeros_batch, 8, Annulus(0.25, 0.45), 4000)]
            for call, p, region, rows in cases:
                [(_, space, etas)] = experiments._draw([p], region.b, rows, 1, {})
                for _ in range(2):
                    call(space, etas, region)
                start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                for _ in range(5):
                    call(space, etas, region)
                print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / 5)
        """)
        src = str(Path(sections.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
        faults = [float(line) for line in out.split()]
        assert len(faults) == 4 and max(faults) <= 200, faults

    def test_newton_scaled_by_radius(self):
        # at p = 300, c_1 / max c_ell is below the smallest double; the
        # terms scaled at a ring's radius near the point are not
        p, w, rho = 300, 0.3 * np.exp(0.5j), 0.29
        space = make_disc_space(p, truncation_length(p, 0.5))
        assert np.exp(0.5 * (space.log_coeffs[0] - space.log_coeffs.max())) == 0.0
        coeff = _with_zeros(space, [w]) * sections._scales(space, math.log(rho))[0]
        z, converged = sections._newton(space, coeff[None, :], np.array([w * 1.001]), np.array([rho]))
        assert converged[0] and abs(z[0] - w) < 1e-12

    def test_accepted_step_error_bound(self, monkeypatch):
        # S = z^100 (z - w): at w, K = |c2^2 - c3| = 100 * 101 / (2 |w|^2), c_k = S^(k) / (k! S').
        # From 1.2e-4 off, the second step (about K 1.2e-4^3 = 8e-7) is taken
        # as the last, and leaves an error of K |step|^3 = 2e-13, far above
        # the rounding of the terms (about 100 ulps of |w|)
        ell0, w, rho = 100, 0.1 * np.exp(0.3j), 0.098
        space = make_disc_space(40, truncation_length(40, 0.65))
        eta = np.zeros(space.L, dtype=np.complex128)
        eta[ell0 - 1 : ell0 + 1] = np.array([-w, 1.0]) / np.exp(0.5 * space.log_coeffs[ell0 - 1 : ell0 + 1])
        coeff = (eta * sections._scales(space, math.log(rho))[0])[None, :]
        k = ell0 * (ell0 + 1) / (2.0 * abs(w) ** 2)
        iterates = []
        for sweeps in (1, 2):
            monkeypatch.setattr(sections, "NEWTON_MAX_ITER", sweeps)
            z, converged = sections._newton(space, coeff, np.array([w * (1.0 + 1.2e-3)]), np.array([rho]))
            iterates.append(z[0])
        assert converged.tolist() == [True]
        step = abs(iterates[1] - iterates[0])
        assert step < sections.HALLEY_TOL and k * step**3 > 1e-13
        assert abs(abs(iterates[1] - w) - k * step**3) <= 0.02 * k * step**3
