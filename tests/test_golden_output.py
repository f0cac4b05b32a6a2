"""Byte-identity of the structured CLI output, pinned by sha256 digests.

Each entry is the exit status and the sha256 of the ``--format structured``
stdout of one command on a catalog code or on a code file in ``data/``.
``share-key`` derives its key from the code's twirl plan with ``--seed 1``;
on codes with no intermediate structure it exits 2 with empty stdout.
``simulate`` runs only ``--check duality --seed 1``, whose records carry
no floating-point measurement; the dense checks' measurements depend on
the BLAS build.  ghz_13 is past ``FULL_LISTING_MAX_N``: its ``classify``
output lists no records, while the duality check still compares every
subset's class and (r, s).

The ``rand_`` files are random odd-prime codes; ``ghz_x_3`` is the
3-qubit GHZ code in the X basis, written as Pauli strings.  In [[3,2]]_3 and
[[7,2]]_65537 the intermediate subsets split as (r, s) = (0, 1) and (1, 1),
in [[8,2]]_10007 as (1, 0), so both terms of the complement's
(k - r - s, s) are pinned.  [[5,1]]_3 is the one whose access structure
is not a threshold one, so its ``share-key`` pins the monotone scheme's
draws.

A change that alters any of these bytes on purpose must say why and record
the new digests.
"""

import hashlib
from pathlib import Path

import pytest

from stabshare.cli import main

GOLDEN = {
    ("validate", "cnot_2_1"): (
        0, "4e3ba0a900f82eabdcec584a532078c425c77af5013a8f9100e72499ce6aee26"),
    ("classify", "cnot_2_1"): (
        0, "53338be7c5a790caaf833814ce1b2960a8896106a997c9cc13954a0b8644e3bc"),
    ("twirl-plan", "cnot_2_1"): (
        0, "80a3bdf32097763b5820871f226dde0a774f54f71c53f790d4dbdecd3cee19d9"),
    ("share-key", "cnot_2_1"): (
        0, "ebe8b74af6512775e9f7e0fb7a7936735da53e71110dd084f592d2ea394e6293"),
    ("validate", "five_qubit"): (
        0, "cad790807ec34fd1fa31d2564a32b57016553b03f878327740ab20fa62662387"),
    ("classify", "five_qubit"): (
        0, "64bdf1dcb95d4b46984ae1e325d0229b794a4c5bdb7c5815dd801ae5b595b7ba"),
    ("twirl-plan", "five_qubit"): (
        0, "fac728d22a85c2d4d13d15c84a9c6089e312d939fa27431aad6a1b73078e8135"),
    ("share-key", "five_qubit"): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("validate", "four_two_two"): (
        0, "ec284ba0c90d82f593bf3096b10a3aafeca19221f5f8a59bc6df8cf1b9d6dc35"),
    ("classify", "four_two_two"): (
        0, "edb7eecf63d6dd54e16183f19ba3633c33f9d36a2fe322f3b2d362b56823a90b"),
    ("twirl-plan", "four_two_two"): (
        0, "bb994b435a169afd57397e9135a04cb9b50298d99bdfcd3f67adb7962cd4e8fa"),
    ("share-key", "four_two_two"): (
        0, "3ede8e1b827c1f1f7c6331cc6bf45cd95843e0e0cba72616820f419ef19bdef4"),
    ("validate", "steane"): (
        0, "1b2f197678ed60ae06182e0cdaa59a47bce6509904ee434241b5b0ce02facb0d"),
    ("classify", "steane"): (
        0, "113f85958e225a39bb2642863a6d4803232b25c762b4af6df6024abb749f8206"),
    ("twirl-plan", "steane"): (
        0, "a6bbdfa3a588c37cb0044d5196fb298b38acfbc3feeed2b04a64ed4961a7071e"),
    ("share-key", "steane"): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("validate", "ghz_3"): (
        0, "35cbec5bab4a748da16da2f7af9b8b749da54fd3dc406cb7376bb44ae306faaa"),
    ("classify", "ghz_3"): (
        0, "09cf600ee5932eeec70dca5771ba3fdf5e010f17c84a583fcecddc10547d22d6"),
    ("twirl-plan", "ghz_3"): (
        0, "74e1e970b77f5ac239e4da0c00dc12a90069842b711213c63499d9dddfc2dde7"),
    ("share-key", "ghz_3"): (
        0, "4e1c5258c8a30f4b70c8cc79b59b444981525a166d7a420e7c11cd2da0fdff1e"),
    ("validate", "ghz_4"): (
        0, "1f68f87532334657a812edb115516575426670c69c644b63f96d16a28a93d844"),
    ("classify", "ghz_4"): (
        0, "5b6edc21630bbcf3e545403bc8e12b895bd9af922d27741b8ecc74c88d6a79cb"),
    ("twirl-plan", "ghz_4"): (
        0, "c885f45cf55db2db147d8507f782c72af9248b65ba6996ee273a6fc78a249f5e"),
    ("share-key", "ghz_4"): (
        0, "ef822e2b70ed2ecb562d5548c1fba5b36a767405c93125360c1c6b768ea38015"),
    ("validate", "ghz_5"): (
        0, "063367338b9ea30dd90741d954cb38b5014965bdab342ab5cf9438ea555763ca"),
    ("classify", "ghz_5"): (
        0, "cb9fd332f6ca658decff6323d4c32465ca5ebfa34dfa91091d00383508cadcff"),
    ("twirl-plan", "ghz_5"): (
        0, "af8d047bd963951c41e50413b68bf0f4e577d8427ca5d70d4657e996401fa9e2"),
    ("share-key", "ghz_5"): (
        0, "e5272df00c6dd1f6dbf7ade1d52ab3903bdd414ea44cc4e9ad37ab1582462e12"),
    ("validate", "ghz_6"): (
        0, "a39b8653eebeeeb3eb7571cd7b09c2d13ad46dc63f0d0ffea0fc64f125d6c46c"),
    ("classify", "ghz_6"): (
        0, "8ff9927b6926214b040f368844bd0e753ba56f24b9a1ecfe203bc7bb6c9fa84a"),
    ("twirl-plan", "ghz_6"): (
        0, "85e60e43238f9daa168e5ba9e037418f310b0316a613176a87be3426be98ec55"),
    ("share-key", "ghz_6"): (
        0, "ca8e66a1944af9acb31aaa15279d4bd1c42a826d01d84ae66c57b2629d9ff191"),
    ("validate", "ghz_7"): (
        0, "cea7076c0b2728d6e5575a1e0484189ffe5a97433dbadfe13e6dbc27db764579"),
    ("classify", "ghz_7"): (
        0, "ca0699ff14e33a0bb1eb85907f9903f4fd21cc3bcb78a5b0e8daca2893ede7fa"),
    ("twirl-plan", "ghz_7"): (
        0, "14f0ca4d8225c79c9a5f090d5c283749c22a4b11215184bd7664e511cb294931"),
    ("share-key", "ghz_7"): (
        0, "f4bffed716769cd171efe7b52f43489bb77eb8678ce3c91430be0b08be8c4e87"),
    ("validate", "ghz_8"): (
        0, "221e711b8e8e71f770fe212ac6bd4ed0c1790316b21afd4ad8bc21abb1fb370a"),
    ("classify", "ghz_8"): (
        0, "458b6cb6a728215ab1f70a61209999a155ceb6f11a71369537c3c686435998ea"),
    ("twirl-plan", "ghz_8"): (
        0, "cb192d49ac6d46d3d559f228d26c090aafbd6f490983a8a092167e7e76861f8f"),
    ("share-key", "ghz_8"): (
        0, "0f19021f242324fd5a5b69298445b55a0c1a9bad0c85997b1871946c0987724b"),
    ("validate", "ghz_9"): (
        0, "cbe2f2b1528895014d8e4de53050f8c39dd164d11b9be1bf7db56df39e317e9d"),
    ("classify", "ghz_9"): (
        0, "e49729be02958fdee0c5964814f30207df926b57b96cb69eea4e17f655a7e409"),
    ("twirl-plan", "ghz_9"): (
        0, "7733776b5b87cc34e8f1ed8ef34c59cffd1ecede3736beb85b1cb6191bd37130"),
    ("share-key", "ghz_9"): (
        0, "5b9960c9e90286dd5c1fc002a5381e60b5332fa056b3a750825c2be5b0e77365"),
    ("classify", "ghz_10"): (
        0, "61d7c55c6eb48dadfdcf864e30304d47d0d292c7e04ed273bf1ae1a33e92ac56"),
    ("twirl-plan", "ghz_10"): (
        0, "5cb838d20dcfc7096c0eb156be014c458594057faa349114c2f0bfd4e83111d9"),
    ("classify", "ghz_11"): (
        0, "f4a04564eca6b6804e942696f1d6ec7e49b705d4be93220fd0a965d68af7a13f"),
    ("twirl-plan", "ghz_11"): (
        0, "b29b993d12136b3a9e5b2380433c8fbc2187cf5ac6ad4f1c8206e0e208e37681"),
    ("classify", "ghz_12"): (
        0, "cf01eb65faeeda8f1a12316ccecfcc4abbfa800a8770729b1e8300287d30a3b0"),
    ("twirl-plan", "ghz_12"): (
        0, "93c939e5b1fb7560379e56602409b633f35b90f465858eef28272efd29da843a"),
    ("classify", "rand_3_3_2"): (
        0, "74bd5f095c30f67185dc6b63730e1e9e91b974924d35f8fdb50379dc7c993303"),
    ("twirl-plan", "rand_3_3_2"): (
        0, "975af0e56ecadac7a8fab7e8c5c2fbdf9a572796d451c43abcb5fb6dbcb99fdb"),
    ("classify", "rand_65537_7_2"): (
        0, "95f413963f869626a45e15d90e01374675ff42de06174d63935efcff27659003"),
    ("twirl-plan", "rand_65537_7_2"): (
        0, "69fc7a5c11200027556cc0755bc70962c083559e637dee4298d2806902480d0b"),
    ("classify", "rand_10007_8_2"): (
        0, "b99a8d2eb74a39c7b4eec335c44a31143a1885831b9c74028e6c38cc25e9cf55"),
    ("twirl-plan", "rand_10007_8_2"): (
        0, "eb0127e63424a40f5de52e0e7f9b20c1ddcd0b9e3fc58ecee987814c1274fe90"),
    ("share-key", "rand_3_5_1"): (
        0, "bb15e7fb7d3eacb280e99d81fcc523c7edf159742596550d3e0f45c9cb409816"),
    ("simulate", "cnot_2_1"): (
        0, "ad54a344095b99b9775ed722a8741d70840923adb3bb527a411265cf6e58b995"),
    ("simulate", "five_qubit"): (
        0, "69f179c200e778a586eec18b287517f81d35b03235656f15a2a6196b68512f23"),
    ("simulate", "four_two_two"): (
        0, "0f3c2baabda511afd40bd215f9337f9cb115eda3883e101465187cc6fdea0bb3"),
    ("simulate", "steane"): (
        0, "d17f381cf9e888133c72082c7a80b779d00b639168d852b85294aabea0831d47"),
    ("simulate", "ghz_3"): (
        0, "67368a02983f1596af3226cbaacc2686238ca379e63bbad1333dcad4ff2674ff"),
    ("simulate", "ghz_8"): (
        0, "0b9ad47e2c28538f19b48aa091e5caee2f7d4ea605df7992c203ca0108dcfe1d"),
    ("simulate", "ghz_13"): (
        0, "c02d2369a2cdff1f14c5504aabc70f1463574f88897eb471af3df9af97387847"),
    ("simulate", "ghz_x_3"): (
        0, "b4141af78e59b309500db07c8ba16e78f6cb8fdb7d3068cf71c76a7fb8d5cad1"),
    ("simulate", "rand_3_3_2"): (
        0, "7ffd09ba92e51ab5956ea6aa76d4cb21926a9b917e4566a2a7f9c7068c6b0dca"),
    ("simulate", "rand_3_5_1"): (
        0, "a7ef8b99864932d1b3c9085a006379053cd3de2d39b6a77bb6ca9c4f23b5902e"),
    ("simulate", "rand_10007_8_2"): (
        0, "fd732958c518ddff87925f7b570a705fd4ce27f033ef1e19b3c0803858cac5ae"),
    ("simulate", "rand_65537_7_2"): (
        0, "76638f2e2ba12b910d1f07ba32073b13335128901a6cdc3bb2518044b91cfffd"),
}

DATA = Path(__file__).parent / "data"


def _argv(command: str, code: str) -> list[str]:
    if (DATA / f"{code}.json").exists():
        source = [str(DATA / f"{code}.json")]
    elif code.startswith("ghz_"):
        source = ["catalog:ghz_n", "--n", code[len("ghz_"):]]
    else:
        source = [f"catalog:{code}"]
    if command == "share-key":
        return ["share-key", "--from-plan", *source, "--seed", "1"]
    if command == "simulate":
        return ["simulate", *source, "--seed", "1", "--check", "duality"]
    return [command, *source]


@pytest.mark.parametrize("command,code", sorted(GOLDEN))
def test_structured_output_is_byte_identical(capsys, command, code):
    status = main(_argv(command, code) + ["--format", "structured"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (status, digest) == GOLDEN[command, code]
