import math

import numpy as np
from hypothesis import strategies as st

from sealsim.qubit import BlochVector, KrausChannel, density_from_bloch

# The largest damping strength whose second Kraus operator, sqrt(x)|0><1|,
# KrausChannel drops (its Frobenius norm sqrt(x) is at most
# ZERO_OPERATOR_TOL, 1e-14); one ulp above, the operator is kept.
LAST_DROPPED_STRENGTH = float.fromhex("0x1.fb0f6be50601ap-94")
FIRST_KEPT_STRENGTH = math.nextafter(LAST_DROPPED_STRENGTH, 1.0)


def sphere_point(u: float, w: float) -> tuple[float, float, float]:
    """Map (u, w) in the unit square to a unit 3-vector."""
    cos_t = 1.0 - 2.0 * u
    sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))
    return (sin_t * math.cos(2.0 * math.pi * w), sin_t * math.sin(2.0 * math.pi * w), cos_t)


@st.composite
def bloch_vectors(draw):
    lam = draw(st.floats(min_value=0.0, max_value=1.0))
    u = draw(st.floats(min_value=0.0, max_value=1.0))
    w = draw(st.floats(min_value=0.0, max_value=1.0))
    return BlochVector(lam, sphere_point(u, w))


@st.composite
def density_matrices(draw):
    return density_from_bloch(draw(bloch_vectors()))


def random_density(rng):
    lam = rng.random()
    return density_from_bloch(BlochVector(lam, sphere_point(rng.random(), rng.random())))


def random_kraus_channel(rng, n_ops: int = 3) -> KrausChannel:
    """Random valid channel: slice a Haar-ish isometry into 2x2 blocks."""
    g = rng.normal(size=(2 * n_ops, 2)) + 1j * rng.normal(size=(2 * n_ops, 2))
    q, _ = np.linalg.qr(g)
    ops = tuple(q[2 * i : 2 * i + 2, :] for i in range(n_ops))
    return KrausChannel(ops, label=f"random-{n_ops}op")


def rotated_channel(inner: KrausChannel, theta: float) -> KrausChannel:
    """Compose a rotation after a channel; tilts its Bloch image off the z axis."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    ops = tuple(rot @ op for op in inner.operators)
    return KrausChannel(ops, label=f"{inner.label}+rot({theta:g})")
