#!/usr/bin/env python3
"""Cross-check the Monte Carlo harness against the closed-form analysis.

For each channel, runs a seeded simulation and prints empirical statistics
next to the analytic predictions with z-scores.  Anything beyond a few
standard errors would flag a disagreement between the simulator and the
formulas.
"""

import argparse
import math

from sealsim.analysis import (
    bit_announcement_probs,
    expected_mutual_information,
    mismatch_probability,
)
from sealsim.protocol import ProtocolParams, information_density, monte_carlo
from sealsim.qubit import (
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    seal_channel,
)


def zscore(empirical, err, analytic):
    if err == 0:
        return 0.0 if empirical == analytic else float("inf")
    return (empirical - analytic) / err


def check_channel(channel, params, trials):
    stats = monte_carlo(params, channel, trials)
    dist = bit_announcement_probs(channel)
    predicted = dist.probs_given_b[params.message_bit]
    mismatch = mismatch_probability(channel).matched_basis_conditional

    print(f"\n{channel.label}  ({stats.shots} shots, {stats.bit_announcement_total} coded bits)")
    print(f"  {'statistic':<20} {'empirical':>10} {'analytic':>10} {'z':>7}")
    labels = ("freq(sigma1,c=0)", "freq(sigma1,c=1)", "freq(sigma3,c=0)", "freq(sigma3,c=1)")
    for label, freq, err, want in zip(
        labels, stats.bit_announcement_freqs, stats.bit_announcement_errs, predicted
    ):
        print(f"  {label:<20} {freq:>10.5f} {want:>10.5f} {zscore(freq, err, want):>7.2f}")
    print(
        f"  {'mismatch_rate':<20} {stats.mismatch_rate:>10.5f} {mismatch:>10.5f}"
        f" {zscore(stats.mismatch_rate, stats.mismatch_rate_err, mismatch):>7.2f}"
    )
    # mean posterior log-likelihood ratio: unbiased for the mutual information
    density = information_density(params, channel, trials, dist.probs_given_b)
    mi_emp, mi_se = density.mean(), density.std(ddof=1) / math.sqrt(trials)
    mi = expected_mutual_information(dist, params.n_shots, params.p_announce)
    print(
        f"  {'information_bits':<20} {mi_emp:>10.5f} {mi.mi_bits:>10.5f}"
        f" {zscore(mi_emp, mi_se, mi.mi_bits):>7.2f}"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    params = ProtocolParams(n_shots=119, p_announce=0.05, message_bit=0, seed=args.seed)
    for channel in (
        identity_channel(),
        seal_channel(0.25),
        seal_channel(0.5),
        seal_channel(0.9),
        depolarizing_channel(0.4),
        dephasing_channel(),
    ):
        check_channel(channel, params, args.trials)


if __name__ == "__main__":
    main()
