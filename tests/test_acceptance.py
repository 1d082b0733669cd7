"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines.
"""

import math
from contextlib import contextmanager

import numpy as np

from conftest import random_kraus_channel
from oracles import apply_coupling, mi_bruteforce, seal_expected_mi_by_classes
from sealsim.analysis import (
    bit_announcement_probs,
    decode_success_probability,
    expected_mutual_information,
    mismatch_probability,
    mutual_information_k,
    seal_class_masses,
    seal_expected_mutual_information,
)
from sealsim.cli import main
from sealsim.protocol import ProtocolParams, monte_carlo
from sealsim.qubit import (
    IDENTITY,
    SIGMA_3,
    DensityMatrix,
    ProtocolPureState,
    apply_channel,
    depolarizing_channel,
    identity_channel,
    maximally_mixed,
    seal_channel,
    state_density,
    validate_channel,
)

N, PA = 119, 0.05

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)
OFFDIAG = np.array([[0, 1], [1, 0]], dtype=complex)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {description}")
        raise
    print(f"[criterion {num:2d}] PASS  {description}")


def test_criterion_01_mismatch_closed_form():
    with criterion(1, "mismatch probability matches 1/4 (1 + x - sqrt(1-x)) to 1e-12"):
        for x in np.arange(0.0, 1.0001, 0.05):
            got = mismatch_probability(seal_channel(float(x))).matched_basis_conditional
            expected = 0.25 * (1.0 + x - math.sqrt(1.0 - min(float(x), 1.0)))
            assert abs(got - expected) <= 1e-12


def test_criterion_02_state_maps_and_coupling_oracle():
    with criterion(2, "damping family reproduces all state maps and its unitary dilation to 1e-12"):
        inputs = {s: state_density(s).matrix for s in ProtocolPureState}
        for x in np.linspace(0.0, 1.0, 21):
            x = float(x)
            ch = seal_channel(x)
            root = math.sqrt(1.0 - x)
            expected = {
                ProtocolPureState.ZERO: KET0,
                ProtocolPureState.ONE: x * KET0 + (1 - x) * KET1,
                ProtocolPureState.PLUS: 0.5
                * ((1 + x) * KET0 + (1 - x) * KET1 + root * OFFDIAG),
                ProtocolPureState.MINUS: 0.5
                * ((1 + x) * KET0 + (1 - x) * KET1 - root * OFFDIAG),
            }
            for s, want in expected.items():
                got = apply_channel(ch, state_density(s)).matrix
                assert np.abs(got - want).max() <= 1e-12
            chaotic = apply_channel(ch, maximally_mixed()).matrix
            assert np.abs(chaotic - 0.5 * (IDENTITY + x * SIGMA_3)).max() <= 1e-12

            for completion in (0, 1):
                for rho in list(inputs.values()) + [maximally_mixed().matrix]:
                    via_kraus = apply_channel(ch, DensityMatrix(rho)).matrix
                    via_dilation = apply_coupling(x, rho, completion)
                    assert np.abs(via_kraus - via_dilation).max() <= 1e-12


def test_criterion_03_zero_leak_endpoints():
    with criterion(3, "identity and depolarizing channels leak <= 1e-12 bits"):
        for ch in (identity_channel(), depolarizing_channel(0.3), depolarizing_channel(1.0)):
            mi = expected_mutual_information(bit_announcement_probs(ch), N, PA)
            assert mi.mi_bits <= 1e-12
        for p in (0.3, 1.0):
            mm = mismatch_probability(depolarizing_channel(p)).matched_basis_conditional
            assert mm > 0.0
            assert abs(mm - p / 2.0) <= 1e-12


def test_criterion_04_full_damping_anchor():
    with criterion(4, "expected MI at x=1 equals 1 - (1 - pa/2)^N to 1e-9 via both routes"):
        anchor = 1.0 - (1.0 - PA / 2.0) ** N
        generic = expected_mutual_information(bit_announcement_probs(seal_channel(1.0)), N, PA)
        grouped = seal_expected_mutual_information(1.0, N, PA)
        assert abs(generic.mi_bits - anchor) <= 1e-9
        assert abs(grouped.mi_bits - anchor) <= 1e-9


def test_criterion_05_specialization_consistency():
    with criterion(5, "damping and generic evaluators agree with the count-class sum to 1e-9"):
        for x in np.arange(0.0, 1.0001, 0.1):
            x = float(x)
            oracle = seal_expected_mi_by_classes(x, N, PA)
            grouped = seal_expected_mutual_information(x, N, PA)
            generic = expected_mutual_information(bit_announcement_probs(seal_channel(x)), N, PA)
            assert abs(grouped.mi_bits - oracle) <= 1e-9
            assert abs(generic.mi_bits - oracle) <= 1e-9
        for x in (0.3, 0.8, 1.0):
            for k in range(31):
                masses = seal_class_masses(x, k)
                assert abs(sum(m[1] for m in masses) - 1.0) <= 1e-12
                assert abs(sum(m[2] for m in masses) - 1.0) <= 1e-12


def test_criterion_06_bruteforce_oracle():
    with criterion(6, "count-class MI equals literal 4^k enumeration to 1e-10 for k <= 12"):
        random_channel = random_kraus_channel(np.random.default_rng(20240613), 3)
        report = validate_channel(random_channel)
        assert report.passes and not report.unital
        for ch in (seal_channel(0.3), seal_channel(0.8), random_channel):
            dist = bit_announcement_probs(ch)
            for k in range(13):
                brute = mi_bruteforce(dist.probs_given_b[0], dist.probs_given_b[1], k)
                assert abs(mutual_information_k(dist, k) - brute) <= 1e-10


def test_criterion_07_monte_carlo_agreement():
    with criterion(7, "10^6-shot Monte Carlo at x=0.5 matches the analytic values to 5 SE"):
        trials = math.ceil(1_000_000 / N)
        params = ProtocolParams(n_shots=N, p_announce=PA, message_bit=0, seed=1234)
        stats = monte_carlo(params, seal_channel(0.5), trials)
        assert stats.shots >= 1_000_000

        expected_freqs = (0.25, 0.25, 0.375, 0.125)
        for freq, err, want in zip(
            stats.bit_announcement_freqs, stats.bit_announcement_errs, expected_freqs
        ):
            assert abs(freq - want) <= 5 * err

        expected_mismatch = 0.25 * (1.5 - math.sqrt(0.5))
        assert abs(expected_mismatch - 0.19822) <= 5e-6
        assert abs(stats.mismatch_rate - expected_mismatch) <= 5 * stats.mismatch_rate_err


def test_criterion_08_decode_success():
    with criterion(8, "identity-channel decode succeeds at the closed-form rate and never errs"):
        params = ProtocolParams(n_shots=N, p_announce=PA, message_bit=1, seed=99)
        stats = monte_carlo(params, identity_channel(), trials=10_000)
        target = decode_success_probability(N, PA)
        assert abs(target - 0.9509) <= 1e-4
        assert abs(stats.decode_success_rate - target) <= 5 * stats.decode_success_err
        assert stats.decode_correct_count == stats.decode_success_count
        assert stats.mismatch_count == 0


def test_criterion_09_curve_shape(tmp_path):
    with criterion(9, "sweep CSV columns start at zero and never decrease"):
        out = tmp_path / "curves.csv"
        assert main(["sweep", "--out", str(out)]) == 0
        rows = [
            [float(v) for v in line.split(",")]
            for line in out.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("x,")
        ]
        assert len(rows) == 21
        mi = [r[1] for r in rows]
        mm = [r[2] for r in rows]
        assert mi[0] == 0.0 and mm[0] == 0.0
        assert all(b >= a - 1e-12 for a, b in zip(mi, mi[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(mm, mm[1:]))


def test_criterion_10_determinism(capsys):
    with criterion(10, "repeated simulate runs with one seed are byte-identical"):
        argv = [
            "simulate",
            "--channel",
            "seal",
            "--x",
            "0.5",
            "--trials",
            "300",
            "--seed",
            "31337",
        ]
        outputs = []
        for _ in range(3):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
