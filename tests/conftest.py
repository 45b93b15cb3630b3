"""Shared fixtures; heavyweight pipeline objects are built once per session."""
import pytest

from hexamer import kernels, matching, spectra

import paper_checks


@pytest.fixture(scope="session")
def toy():
    return kernels.build_toy_bulk()


@pytest.fixture(scope="session")
def extended():
    return kernels.build_extended_bulk()


@pytest.fixture(scope="session")
def blended():
    return kernels.build_blended_bulk()


@pytest.fixture(scope="session")
def hper():
    return kernels.build_hper()


@pytest.fixture(scope="session")
def beta_star(dirac, hper):
    beta1, beta3, oriented = spectra.verify_gap_criterion(dirac, hper)
    assert oriented is hper  # beta1 > 0 for this detuning; no sign flip
    return abs(beta1)


@pytest.fixture(scope="session")
def dirac(blended):
    return spectra.locate_double_dirac(blended)


@pytest.fixture(scope="session")
def dirac_toy(toy):
    return spectra.locate_double_dirac(toy)


@pytest.fixture(scope="session")
def vgauge(dirac):
    return spectra.fix_gauge_v(dirac)


@pytest.fixture(scope="session")
def iface(blended, hper):
    return kernels.InterfaceKernel.from_bulks(blended, hper, 0.05)


@pytest.fixture(scope="session")
def gap(dirac, beta_star):
    r = 0.9 * 0.05 * beta_star
    return (dirac.lambda_star - r, dirac.lambda_star + r)


@pytest.fixture(scope="session")
def pipeline(iface):
    return matching.MatchingPipeline(iface)


@pytest.fixture(scope="session")
def modes(pipeline, dirac, beta_star):
    return matching.count_interface_modes(pipeline, dirac.lambda_star, beta_star, 0.9, 201)


@pytest.fixture(scope="session")
def oracle(iface, gap):
    return paper_checks.direct_oracle(iface, gap)


@pytest.fixture(scope="session")
def bulk_strip(blended):
    return kernels.BlockedStripOperator(blended)


@pytest.fixture(scope="session")
def green_pv(bulk_strip, dirac, vgauge):
    from hexamer import green

    return green.physical_green_pv(bulk_strip, dirac, vgauge, range(-12, 13), 14, 16)
