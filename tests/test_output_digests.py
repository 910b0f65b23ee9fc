"""Stdout of the table subcommands, pinned by SHA-256.

Every case runs `growth`, `powers` or `dynamics` (plain, `--bounds`,
`--classify`) in CSV, JSON and JSON with `--emit-elements` on three shipped
configs, and compares the exit code and the digest of stdout with the
recorded ones.  A change to anything
these commands print shows here first.

The representative cases print the chosen class representatives of free,
free-abelian, direct-product, permutation and double-coset instances (in
growth, dynamics, axiom and suite output), so a change to the canonical
order or to how classes are represented shows there.  They also pin the
growth tables of the n >= 3 coset instances in `tests/instances/`; a `-c`
argument ending in `.json` is a path from the repository root, any other
names a shipped config.

The bench guard runs every op of every benchmark workload, for two seeds,
and compares its exit code and stdout digest with `bench/oracle.json`, so a
change that the benchmark would count as a failed op fails here first.
"""

import hashlib
import importlib.util
import json
import pathlib

import pytest

from mvgroups.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent

# config -> the element word used as --x / --z
ELEMENT = {"nat": "1", "z_pm1": "g1", "heis_swap": "a"}
FORMATS = {
    "csv": [],
    "json": ["--format", "json"],
    "json-elements": ["--format", "json", "--emit-elements"],
}
COMMANDS = {
    "growth": ["growth", "--radius", "4"],
    "powers": ["powers", "--x", "{w}", "--radius", "4"],
    "dynamics": ["dynamics", "--z", "{w}", "--steps", "6"],
    "dynamics-bounds": ["dynamics", "--z", "{w}", "--steps", "6", "--bounds"],
    "dynamics-classify": ["dynamics", "--z", "{w}", "--steps", "6", "--classify"],
}

# case id -> (exit code, SHA-256 of stdout)
CLI_DIGESTS = {
    "growth/nat/csv": (0, "5d302be88b36c6ae71a9ca1d0c3b74536d14e0702311d777753095be541e1007"),
    "growth/nat/json": (0, "f099cd00c2e1169a74a868b6f98c060240da09211e519f7cc82244615cec6559"),
    "growth/nat/json-elements": (0, "21f1602fe65dd7e99a9ef0d14c3b88768d8bed64a0030b8ec8c7c62493963e40"),
    "growth/z_pm1/csv": (0, "5d302be88b36c6ae71a9ca1d0c3b74536d14e0702311d777753095be541e1007"),
    "growth/z_pm1/json": (0, "f099cd00c2e1169a74a868b6f98c060240da09211e519f7cc82244615cec6559"),
    "growth/z_pm1/json-elements": (0, "21f1602fe65dd7e99a9ef0d14c3b88768d8bed64a0030b8ec8c7c62493963e40"),
    "growth/heis_swap/csv": (0, "9d73b6ec93cc6ef29fe5b034766bf325e021a48bce54a0d605698b3403bc980a"),
    "growth/heis_swap/json": (0, "3f7c3db9431e205b8f66e050ec4bcf7e6e5cc84c9a19ffc7d788f886ca5a247c"),
    "growth/heis_swap/json-elements": (0, "7fc5f528a9a81e901af439b4c528c0403ca677748794886aba7d1ffddf411e49"),
    "powers/nat/csv": (0, "68ee98387383a2b8a57970c6223104c6ccb81a7cc1e24ffed35051edf6e8a59e"),
    "powers/nat/json": (0, "bcc57cd5af3bbbc0122ea7551210ae12cd840d8407bbe1659b892c7d03c1aab6"),
    "powers/nat/json-elements": (0, "2d10c3a003da19225d479b209817cd7b2456c1362517097936be7780af10a950"),
    "powers/z_pm1/csv": (0, "68ee98387383a2b8a57970c6223104c6ccb81a7cc1e24ffed35051edf6e8a59e"),
    "powers/z_pm1/json": (0, "bcc57cd5af3bbbc0122ea7551210ae12cd840d8407bbe1659b892c7d03c1aab6"),
    "powers/z_pm1/json-elements": (0, "2d10c3a003da19225d479b209817cd7b2456c1362517097936be7780af10a950"),
    "powers/heis_swap/csv": (0, "c2b7199f5c5aed70c0936832a0b7317737c69f63288cd727532bf429b7436eab"),
    "powers/heis_swap/json": (0, "5bb01669d85e730ac2860666e45859fcc7769424cde5d0e422994ea07d6cdc62"),
    "powers/heis_swap/json-elements": (0, "434c2b873ad37adde842a45e792276ba7d0e746f232a09f45128a125499f8736"),
    "dynamics/nat/csv": (0, "82cf394bd61eceffe4a32db6c9c6d5120c9914c7eba9a65267f834589e8c773b"),
    "dynamics/nat/json": (0, "d28eda6578cbfd88d67c729cad966629aceb3ae915a4acfe31ff49310d1f38bf"),
    "dynamics/nat/json-elements": (0, "2b614abdcef361bbbe4b08ca8e4ff23d00abd5bc68d2afa1635223334e8e028b"),
    "dynamics/z_pm1/csv": (0, "82cf394bd61eceffe4a32db6c9c6d5120c9914c7eba9a65267f834589e8c773b"),
    "dynamics/z_pm1/json": (0, "d28eda6578cbfd88d67c729cad966629aceb3ae915a4acfe31ff49310d1f38bf"),
    "dynamics/z_pm1/json-elements": (0, "2b614abdcef361bbbe4b08ca8e4ff23d00abd5bc68d2afa1635223334e8e028b"),
    "dynamics/heis_swap/csv": (0, "2a355c925c1776614636f1eedbbf523a4c6d3ad1a4cb38b406a9cf74a37dc6c0"),
    "dynamics/heis_swap/json": (0, "43dfc05ac94fcb8bc440e314b1ad861de01ff8bb64b66680bfb33d213ae376f6"),
    "dynamics/heis_swap/json-elements": (0, "3069510c8486ac7b04c2203edeeef3a4dce0a8103c8656a82ed3a4b197fec156"),
    "dynamics-bounds/nat/csv": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "dynamics-bounds/nat/json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "dynamics-bounds/nat/json-elements": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "dynamics-bounds/z_pm1/csv": (0, "6bddaef31b434d0b621bf6b1b5ac85c8161386f4249c9a0e255e0cd369378c25"),
    "dynamics-bounds/z_pm1/json": (0, "f416181fd40382e6c306e60466550b06c8d1ea47667cb9f1f7894442094895bf"),
    "dynamics-bounds/z_pm1/json-elements": (0, "195e2d589eba4aaae73a700180576a0ab76a5d5b89f1886f2af9290125c5e450"),
    "dynamics-bounds/heis_swap/csv": (0, "3719541ac2aba90ea87408abef937fbb6a3ecb2333d5a39330d8b3848c85821c"),
    "dynamics-bounds/heis_swap/json": (0, "7987a0df7e7260882475d45589613c414b6df382c91ee006e1a3d3c4603106f4"),
    "dynamics-bounds/heis_swap/json-elements": (0, "13795a9ef822e7a81e404674c38f7e92f6d4abca5447162de7a362cc0875b899"),
    "dynamics-classify/nat/csv": (0, "128c6ce08e065f1089c89e21164f8f7e6e025e8e18b382e8a4f0a0b8ac970299"),
    "dynamics-classify/nat/json": (0, "489a1e824f316b46b90d10a6eeb09e4d6eac696826a3a9637ca3c73125a05e7d"),
    "dynamics-classify/nat/json-elements": (0, "2db296ee595979d622ae3149cbcaa0d6b9d3f1e41586b9cab689bda2ee6ef726"),
    "dynamics-classify/z_pm1/csv": (0, "128c6ce08e065f1089c89e21164f8f7e6e025e8e18b382e8a4f0a0b8ac970299"),
    "dynamics-classify/z_pm1/json": (0, "489a1e824f316b46b90d10a6eeb09e4d6eac696826a3a9637ca3c73125a05e7d"),
    "dynamics-classify/z_pm1/json-elements": (0, "2db296ee595979d622ae3149cbcaa0d6b9d3f1e41586b9cab689bda2ee6ef726"),
    "dynamics-classify/heis_swap/csv": (0, "0196ae45b5f455e02d7be089d6d345e10c3fc6a1ae74d8b549a1110e90d1299c"),
    "dynamics-classify/heis_swap/json": (0, "c3742de6ae2534a92a65ce5abdd2fa8c3e699895dfb96171240aec91ad4c755d"),
    "dynamics-classify/heis_swap/json-elements": (0, "e3206dbba49eff138a8d3e18572355fce250ee23f8173646d13218a0cd2bec15"),
}

# case id -> (argv, exit code, SHA-256 of stdout)
REPRESENTATIVE_DIGESTS = {
    "growth-elements/free2_swap": (
        ["growth", "-c", "free2_swap", "--radius", "3", "--format", "json", "--emit-elements"],
        0, "d2a8c61707126865cc2f51430cfff61fb8f2f83cb95f2634d17feeab9ff518ad"),
    "growth-elements/z3xF2_example46": (
        ["growth", "-c", "z3xF2_example46", "--radius", "3", "--format", "json",
         "--emit-elements"],
        0, "d1fb5616fc72dadbc088fc8d80b77a872fc6ea9e0487d410710b2718198b4b54"),
    "growth-elements/s3_conj": (
        ["growth", "-c", "s3_conj", "--radius", "3", "--format", "json", "--emit-elements"],
        0, "f9ea9a2041f4f41a1d625c50f0a8715430d66ae2c5e3890e294faab1f3cf61b0"),
    "growth-elements/s3_doublecoset": (
        ["growth", "-c", "s3_doublecoset", "--radius", "3", "--format", "json",
         "--emit-elements"],
        0, "b7c87f8a3917ff585abbe8cc95c11bb4f559fa3c0476907ef5661f820f8e4757"),
    "growth-elements/z2_swap": (
        ["growth", "-c", "z2_swap", "--radius", "3", "--format", "json", "--emit-elements"],
        0, "92504230043f5681c4c4bdc124056cf0e47b59299b79976e5d74713e0147b4b2"),
    "growth-elements/z2_pm1": (
        ["growth", "-c", "z2_pm1", "--radius", "3", "--format", "json", "--emit-elements"],
        0, "4c88031ce8f01f13bf768fdfcfc03f35003f7026cea5c87eac6b47af414e8301"),
    "verify-thm43/free2_swap": (
        ["verify", "-c", "free2_swap", "--suite", "thm43", "--radius", "3"],
        0, "b00b0599d5f9d663f66053b40b0f17fd1f609500ff5fc1575dd53f86ac8ef846"),
    "verify-lemma47/s3_conj": (
        ["verify", "-c", "s3_conj", "--suite", "lemma47", "--radius", "3"],
        0, "443fd774ef1f9ca2c9648281638b712b165384d6adda759cf16aac3635cb711c"),
    "axioms-json/nat_mutated": (
        ["axioms", "-c", "nat_mutated", "--format", "json"],
        1, "344241703665db02042c2ce471339b57bf81a685961c5fb9c3ba4e8f3c9bf527"),
    "axioms/s3_conj": (
        ["axioms", "-c", "s3_conj"],
        0, "0efc5a3dbc0e9d2c928f212ac3458fb1280f5e87893c712f89d32b304ce229f7"),
    "axioms/s3_doublecoset": (
        ["axioms", "-c", "s3_doublecoset"],
        0, "1fd4dcf77b9707be242698149821efd3965611f957ed5fb63d0a7f5c98bdc279"),
    "dynamics-elements/s3_conj": (
        ["dynamics", "-c", "s3_conj", "--z", "t*c", "--steps", "6", "--bounds",
         "--format", "json", "--emit-elements"],
        0, "15cf6d24ebf4585d461738cc2adcd822889ee8fbd37692fecbabc4f2b3bd080f"),
    "dynamics-elements/s3_doublecoset": (
        ["dynamics", "-c", "s3_doublecoset", "--z", "c", "--steps", "6",
         "--format", "json", "--emit-elements"],
        0, "0ec140bddab8e01537c698eb7f9c912bc455a6e7f2185452c9f26ad5146bb58c"),
    "verify-proof34/heis_swap": (
        ["verify", "-c", "heis_swap", "--suite", "proof34", "--radius", "3"],
        0, "17e6e89c21ccbd8f183c72ab67e2dafffc1e57779b547e8bede3c99028f24b6b"),
    "verify-lemma47/free2_swap": (
        ["verify", "-c", "free2_swap", "--suite", "lemma47", "--radius", "3"],
        0, "443fd774ef1f9ca2c9648281638b712b165384d6adda759cf16aac3635cb711c"),
    "growth-elements/z3_shift": (
        ["growth", "-c", "tests/instances/z3_shift.json", "--radius", "3", "--format", "json",
         "--emit-elements"],
        0, "6c30ca8736642198309209cd5b5d8e4fa0bf90531d35f8539826f86cb1679bd1"),
    "growth-elements/f3_shift": (
        ["growth", "-c", "tests/instances/f3_shift.json", "--radius", "3", "--format", "json",
         "--emit-elements"],
        0, "bfac647f1577a70fc97ad7ae76a052443448f2e4c5be8ff51b16f62def78ea6f"),
    "growth-elements/z2_dihedral": (
        ["growth", "-c", "tests/instances/z2_dihedral.json", "--radius", "3", "--format", "json",
         "--emit-elements"],
        0, "4edbed2270b9211a86012c0c53198fb3e3955e5c39c9871b8285cb304c30af96"),
    "growth/z3_shift": (
        ["growth", "-c", "tests/instances/z3_shift.json", "--radius", "5"],
        0, "f0915330c6d3855829f8c66ced929b1050cab18767abb4846871afc73e53e1f9"),
    "growth/f3_shift": (
        ["growth", "-c", "tests/instances/f3_shift.json", "--radius", "5"],
        0, "fafb28cc859612b2beda4a785a2d826c33b24d1a8acc1014f37b3b82e60a5fb2"),
    "growth/z2_dihedral": (
        ["growth", "-c", "tests/instances/z2_dihedral.json", "--radius", "5"],
        0, "ed7f3c093c1448018f569e7b95d279c7a0c6b34b4accf8a279d8f95ab3dcff0b"),
    "dynamics-elements/free2_swap": (
        ["dynamics", "-c", "free2_swap", "--z", "g1", "--y", "g1*g1*g2", "--steps", "5",
         "--format", "json", "--emit-elements"],
        0, "300933b29007f41ecfd6357d9230fba21b3747b5f13602aa999a07025ebf17d2"),
    "powers-elements/z2_pm1": (
        ["powers", "-c", "z2_pm1", "--x", "g1*g1*g2", "--radius", "5", "--format", "json",
         "--emit-elements"],
        0, "ca91fb3daf9ad7e36505995f3842c69bd6466a03564e5f36f2bea6b4566891e7"),
    "powers-elements/z3xF2_example46": (
        ["powers", "-c", "z3xF2_example46", "--x", "h*g1", "--radius", "4", "--format", "json",
         "--emit-elements"],
        0, "35c0d878d3a69a7d5025b838604028e6c8d70bf02b4f7bd22ff838547fa2246f"),
}


def cli_cases():
    for command, template in COMMANDS.items():
        for config, word in ELEMENT.items():
            subcommand, *args = [a.format(w=word) for a in template]
            for fmt, flags in FORMATS.items():
                argv = [subcommand, "-c", str(ROOT / "configs" / f"{config}.json"),
                        *args, *flags]
                yield f"{command}/{config}/{fmt}", argv


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case,argv", list(cli_cases()), ids=[c for c, _ in cli_cases()])
def test_cli_stdout_digest(case, argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    assert (code, digest(out)) == CLI_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(REPRESENTATIVE_DIGESTS))
def test_representative_stdout_digest(case, capsys):
    argv, code, expected = REPRESENTATIVE_DIGESTS[case]
    argv = [str(ROOT / a if a.endswith(".json") else ROOT / "configs" / f"{a}.json")
            if prev == "-c" else a for prev, a in zip([None, *argv], argv)]
    assert run(argv) == code
    assert digest(capsys.readouterr().out) == expected


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


BENCH_ORACLE = json.loads((ROOT / "bench" / "oracle.json").read_text())


@pytest.mark.parametrize("workload", sorted(BENCH_ORACLE))
@pytest.mark.parametrize("seed", [0, 1])
def test_bench_ops_match_the_oracle(workload, seed, tmp_path, capsys):
    ops = _bench_workloads().build(workload, seed, tmp_path)["ops"]
    assert {op["label"] for op in ops} == set(BENCH_ORACLE[workload])
    for op in ops:
        # generated configs are written under tmp_path, shipped ones are read in place
        argv = [str((tmp_path if a.startswith("bench") else ROOT) / a) if prev == "-c" else a
                for prev, a in zip([None, *op["argv"]], op["argv"])]
        code = run(argv)
        want = BENCH_ORACLE[workload][op["label"]]
        assert (code, digest(capsys.readouterr().out)) == (want["exit"], want["sha256"]), \
            op["label"]
