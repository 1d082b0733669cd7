"""Simulated transcripts carry exactly the predicted amount of information.

Averaging the posterior log-likelihood ratio log2(Pr(string|true message) /
Pr(string)) over simulated runs with a uniformly random message is an
unbiased estimate of the mutual information, built only from the
single-announcement probabilities.  It has to land on the closed-form
expectation, which checks the simulator, the announcement distribution, and
the string-length weighting against each other in one shot.
"""

import math

import pytest

from sealsim.analysis import bit_announcement_probs, expected_mutual_information
from sealsim.protocol import ProtocolParams, information_density
from sealsim.qubit import seal_channel

N, PA = 119, 0.05


@pytest.mark.parametrize("x,trials", [(0.5, 6000), (1.0, 5000)], ids=["seal05", "seal10"])
def test_transcript_information_matches_expected_mi(x, trials):
    channel = seal_channel(x)
    dist = bit_announcement_probs(channel)
    # message bit t % 2 on stream t: a uniform prior over the message
    values = information_density(ProtocolParams(N, PA, 0, 2718), channel, trials, dist.probs_given_b)
    mean = values.mean()
    se = values.std(ddof=1) / math.sqrt(trials)
    analytic = expected_mutual_information(dist, N, PA).mi_bits
    assert abs(mean - analytic) <= 5 * se
