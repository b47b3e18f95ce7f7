"""Circle-measure convolution, for the tests of the smearing composition law."""

from phaseopt.optimal import CircleMeasure


def convolve(nu: CircleMeasure, mu: CircleMeasure) -> CircleMeasure:
    """nu * mu: the atoms pair up, and the density carries the rest of nu_hat(k) mu_hat(k)."""
    atoms = tuple((p1 * p2, w1 * w2) for p1, w1 in nu.atoms for p2, w2 in mu.atoms)
    deg = max(len(nu.density_coeffs), len(mu.density_coeffs))
    coeffs = tuple(
        nu.fourier(k) * mu.fourier(k) - sum((w * p ** (-k) for p, w in atoms), 0.0j)
        for k in range(deg)
    )
    return CircleMeasure(atoms=atoms, density_coeffs=coeffs)
