"""Shared fixtures."""

import pytest

from mpqg.cartan import PRESETS, CartanDatum, ParamMatrix

# Consistent free entries per preset: within a connected component the
# diagonal entries satisfy q_ii^a_ij = q_jj^a_ji.
NUMERIC_ENTRIES = {
    "A1": {(0, 0): 5},
    "A1xA1": {(0, 0): 5, (1, 1): 7, (0, 1): 3},
    "A2": {(0, 0): 5, (1, 1): 5, (0, 1): 3},
    "B2": {(0, 0): 9, (1, 1): 3, (0, 1): 5},
    "G2": {(0, 0): 8, (1, 1): 2, (0, 1): 3},
}


@pytest.fixture(params=[(p, m) for p in PRESETS
                        for m in ("symbolic", "numeric", "root-of-unity")],
                ids=lambda pm: f"{pm[0]}-{pm[1]}")
def preset_params(request):
    """(datum, parameter matrix) for every preset in the symbolic, numeric
    and root-of-unity modes; root-of-unity parameters have order 5 (7 on
    G2) and give the finite grading group."""
    preset, mode = request.param
    datum = CartanDatum.preset(preset)
    if mode == "symbolic":
        return datum, ParamMatrix.symbolic(datum)
    if mode == "numeric":
        return datum, ParamMatrix.numeric(datum, NUMERIC_ENTRIES[preset])
    return datum, ParamMatrix.root_of_unity(datum, 7 if preset == "G2" else 5)
