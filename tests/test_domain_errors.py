"""Every public entry point rejects input outside its domain with ValueError
(the CLI with exit code 2), rather than answering or failing elsewhere."""

import pytest

import planepart as pp
from planepart import cli, dedekind

CTX = pp.PrecisionContext(30)

REJECTED = {
    "precision_for(0)": lambda: pp.precision_for(0),
    "bernoulli_number(-1)": lambda: pp.bernoulli_number(-1),
    "lambda_param(0, 1)": lambda: pp.lambda_param(0, 1, CTX),
    "lambda_param(0, 1) in floats": lambda: pp.lambda_param(0, 1),
    "mstar_theory(1, 0)": lambda: pp.mstar_theory(1, 0, CTX),
    "mstar_theory(1, 0) in floats": lambda: pp.mstar_theory(1, 0),
    "n_cutoff_theory(0)": lambda: pp.n_cutoff_theory(0, "0.5", CTX),
    "vp_rational(1, 1, 3)": lambda: dedekind.vp_rational(1, 1, 3),
    "vp_rational(0, 0, 1)": lambda: dedekind.vp_rational(0, 0, 1),
    "vp_hk(0, 1, 3)": lambda: pp.vp_hk(0, 1, 3, CTX),
    "reciprocity_residual(4, 3)": lambda: pp.reciprocity_residual(4, 3, CTX),
    "b_min(1)": lambda: pp.b_min(1, CTX),
    "PlanePartitionTable((2,))": lambda: pp.PlanePartitionTable((2,)),
    "p2_exact_table(10)[-1]": lambda: pp.p2_exact_table(10)[-1],
}


@pytest.mark.parametrize("call", REJECTED.values(), ids=REJECTED.keys())
def test_rejects_out_of_domain_input(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("kappa2", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("bound", [pp.n_cutoff_theory], ids=lambda f: f.__name__)
def test_non_finite_kappa2_is_named(bound, kappa2):
    # an infinite or nan kappa2 has no N(n)
    with pytest.raises(ValueError, match="kappa2"):
        bound(100, kappa2, CTX)


def test_cli_phi_rejects_k0():
    assert cli.main(["--quiet", "phi", "5", "0"]) == 2
