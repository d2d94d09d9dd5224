"""Golden outputs of the series layer.

The digests below were computed from the package at commit 6197fbf, whose
series were dicts of {exponent tuple: Fraction}, before they became integer
numerators over one denominator. Any change to the written coefficients,
their order or their "num/den" form shows here.

To recompute them, run this file as a script: it prints both tables.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from ascentseq import cli
from ascentseq.series import GF_NAMES, RESIDUAL_NAMES, residual

ORDERS = range(21)
FORMATS = ("json", "csv", "plain")


def coeffs_digest(name: str, fmt: str) -> str:
    """sha256 of the outputs of `coeffs --gf name --order K --format fmt`
    for K = 0..20, each followed by its exit code and a NUL byte."""
    h = hashlib.sha256()
    for k in ORDERS:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["coeffs", "--gf", name, "--order", str(k), "--format", fmt])
        h.update(f"{buf.getvalue()}{code}\0".encode())
    return h.hexdigest()


def residual_digest(name: str) -> str:
    return hashlib.sha256(json.dumps(residual(name, 12).to_json_dict()).encode()).hexdigest()


COEFFS_DIGESTS = {
    ("C_pair", "json"): "82b9aa53983e402f36b96b8ab54da25b0553875569617141aa7a210fe425d408",
    ("C_pair", "csv"): "38a0a996e644d342011724f831528cd398f530f63bf6cc8dd579ae5772260a73",
    ("C_pair", "plain"): "32b8219a103e5febf8560d3fe48f33467009a56efc23de33385d2ad581043994",
    ("D_pair", "json"): "22359287317edcc693f42c77917504f0725b5a0fdb0633776f99787227dcff05",
    ("D_pair", "csv"): "a3f41ab1677c30d28ee4aba92e083f53ab6888aca0c596095cf0452ea0a449c3",
    ("D_pair", "plain"): "d8213158f8983b2c90243989f82a1ab7d3565624f24b7ffa4ae8d689f773b9a6",
    ("C2", "json"): "2efb40cb629f7d2cfc1e71ad0eb25f7808d700e9889077f16fe239f2e9c8b506",
    ("C2", "csv"): "3bac3426204e50a7353d462de872a152d2191b8b5e712415fd277cc45486a49d",
    ("C2", "plain"): "34977c3fc44e2a07070a99f6d5fe09d52806bd281bda694923f8eca03ad3bb8c",
    ("C_total_pair", "json"): "8add444d630fef111a7539274b11dce05252414344bb40c449a168014cd79c1d",
    ("C_total_pair", "csv"): "49ef263ff3877f36e11e1041ea640b6a9f1963ba84b8050504772938da868c9c",
    ("C_total_pair", "plain"): "1f07194e2f79043f1708e21b0c29f8ebf09541315ccd1df7cafe2352c7929275",
    ("C_0021", "json"): "a93ec3e6e86dfe853a30932dcb5f54ebdae0aa0851c5e83d31772e7ebe55f66b",
    ("C_0021", "csv"): "adec580e3ad151178070d9458bbcd8282193a273747c9bd8efc30b9a717b96f4",
    ("C_0021", "plain"): "9688eba114afa4728a8d7b0233ae9c42dc07eaa1947f19ade730b1d4da0b9757",
    ("D_0021", "json"): "fa578f11fe84ea8696cd2c498e9f714ae4cfebd7556f4df5df5e2eb80832845d",
    ("D_0021", "csv"): "fdcdcab0a6cf5e523fa60afed7d6a9a93e9447a9d6ae1827f5f428b84defd61d",
    ("D_0021", "plain"): "b52e4c01c8c7ace2489e850f6b703b4324777cd55a6932b361e4718716dca216",
    ("total_0021", "json"): "b5bea1871cf1c810e31171ccb090a0903541d0408f27928e3dbe7544c4fc95cd",
    ("total_0021", "csv"): "c4dad0b36dc5e25f3c07c0566767c4609e92c2aa5bd760d46b462f6aeae1459d",
    ("total_0021", "plain"): "1f07194e2f79043f1708e21b0c29f8ebf09541315ccd1df7cafe2352c7929275",
    ("f", "json"): "54106cca4ee5220b3402840ffd0d532891b1169c004b9c9e9cfaab3ff5d8ceeb",
    ("f", "csv"): "e8027930daf73e4403358489389b94ac21a099886771b748ed4ae93884966bde",
    ("f", "plain"): "cd652a8e07a43e8efdfa937a66b9627fa140b6b37d853113776dae7060344984",
    ("g", "json"): "5074bd51ad1881b1ec6c82cc68a6cf4f5b7ab2ccc023bd3c634bb93018412776",
    ("g", "csv"): "a05f228c0925bc31d31b6516e68e77c7a9389bcb596ea0033365607f1680aecb",
    ("g", "plain"): "ad149613b861728c53d67e3488a198665edf7c321374a9a6074df3dbf71710b9",
}

RESIDUAL_DIGESTS = {
    "pair_c": "47c271d1679f280cd707a835bcd4e49219ce9ea62c3fea56d41539c6261aa988",
    "pair_d": "47c271d1679f280cd707a835bcd4e49219ce9ea62c3fea56d41539c6261aa988",
    "t0021_c": "35d8dcba55d272c10e7f69ae0e5f222b1c4ebdb2fbfe6bf99842c85a7def5312",
    "t0021_d": "35d8dcba55d272c10e7f69ae0e5f222b1c4ebdb2fbfe6bf99842c85a7def5312",
}


def test_every_closed_form_and_residual_is_pinned():
    assert set(COEFFS_DIGESTS) == {(n, f) for n in GF_NAMES for f in FORMATS}
    assert set(RESIDUAL_DIGESTS) == set(RESIDUAL_NAMES)


@pytest.mark.parametrize("name, fmt", sorted(COEFFS_DIGESTS))
def test_coeffs_output_is_golden(name, fmt):
    assert coeffs_digest(name, fmt) == COEFFS_DIGESTS[name, fmt]


@pytest.mark.parametrize("name", sorted(RESIDUAL_DIGESTS))
def test_residual_json_is_golden(name):
    assert residual_digest(name) == RESIDUAL_DIGESTS[name]


if __name__ == "__main__":
    print("COEFFS_DIGESTS = {")
    for name in GF_NAMES:
        for fmt in FORMATS:
            print(f"    ({name!r}, {fmt!r}): {coeffs_digest(name, fmt)!r},")
    print("}\n\nRESIDUAL_DIGESTS = {")
    for name in RESIDUAL_NAMES:
        print(f"    {name!r}: {residual_digest(name)!r},")
    print("}")
