"""Golden digests: seeded outputs stay byte-identical across versions.

Criterion 10 only checks that a rerun repeats within one version. These
digests pin the bytes themselves, so a refactor or an optimisation that
moves one float in a run file, in ``summary.csv`` or in
``significance.csv`` fails here. Every algorithm meets every noise on
zdt1 with population 10 and 300 evaluations, five seeds each, so the
significance table has rows. After a declared result change, print the
new digests with ``PYTHONPATH=src python tests/test_golden.py``.

That set stops at confidence 0.75 and budget 3, where the Hoeffding
radius never gets small enough for a race to decide anything. A second
set races at confidence 0.25 with budget 8, where races decide thousands
of individuals, so the bytes also pin every decision the race makes.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from raceopt.harness import ExperimentConfig, run_batch
from raceopt.problems import NOISE_NAMES
from raceopt.racing import ALGORITHM_IDS, SelectionRace, Status

SEEDS = (0, 1, 2, 3, 4)
RACE_IDS = tuple(a for a in ALGORITHM_IDS if a.startswith("rsp"))


def golden_configs() -> list[ExperimentConfig]:
    return [
        ExperimentConfig(
            "zdt1",
            noise,
            algorithm,
            sampling_budget=3,
            confidence=0.75,
            population_size=10,
            max_evaluations=300,
            seeds=SEEDS,
        )
        for algorithm in ALGORITHM_IDS
        for noise in NOISE_NAMES
    ]


def decide_configs() -> list[ExperimentConfig]:
    return [
        ExperimentConfig(
            "zdt1",
            noise,
            algorithm,
            sampling_budget=8,
            confidence=0.25,
            population_size=10,
            max_evaluations=600,
            seeds=SEEDS,
        )
        for algorithm in RACE_IDS
        for noise in NOISE_NAMES
    ]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(out: Path, configs: list[ExperimentConfig]) -> dict[str, str]:
    """Per (algorithm, noise): a digest over its seeds' run-file digests;
    plus the digests of the two scored tables."""
    run_batch(configs, out)
    digests: dict[str, str] = {}
    for cfg in configs:
        joined = "".join(_sha256(out / "runs" / cfg.run_filename(s)) for s in SEEDS)
        digests[f"{cfg.algorithm}/{cfg.noise}"] = hashlib.sha256(joined.encode()).hexdigest()
    for table in ("summary.csv", "significance.csv"):
        digests[table] = _sha256(out / table)
    return digests


# Generated from the program before the vectorised hypervolume sweep and
# the single-pass run-file reader; both had to leave them unchanged.
GOLDEN = {
    "implicit/none": "ae59f2324a47e78e8903c736280c5ca70c12aac0a46382292f4c922a120b1dbc",
    "implicit/gaussian": "f7bc41544338e0053b28de363c9df73927aadfeaf7ca0109654df97b433d844c",
    "implicit/cauchy": "a05734407321690559cbb3486707411a973048e1481a5db3b3edb5f893e60a64",
    "implicit/gumbel": "10e73b29882dcd07f3a3741aea02b790e62c162a2d55ab841c44e0689ea0720a",
    "static-avg/none": "1028a6ffb11f5205b5a2e0e2938401f2e63c333574a3e790323f72047829f533",
    "static-avg/gaussian": "a4fe9786a9bdac44e4e24870812ad5694a69dc256ce83b2ed52f74c48ee064b8",
    "static-avg/cauchy": "b264556b37fe836a75c3a4e3a318f16461b9b9ebdec3449ddd431c74d7c45c21",
    "static-avg/gumbel": "29496f6a13a07cccf26399d70a4f41bc2d1ada38e310d33bc969d9778324d738",
    "static-med/none": "6fbc47ade623cbb21ec529586b2681b6ec1c78740f427b0a886c7a634d0bca20",
    "static-med/gaussian": "6d5ac84415059545605931b79f270c1a3251130e396d3e3032f9ca3cd3221a0c",
    "static-med/cauchy": "5361ad8dc195ca581957dfdac77f90ef79d40ca42dddb1609d8bd7f6ff89c945",
    "static-med/gumbel": "4578a0558bc5d5794db649bcd624053c6880489301655d6dabbae8e20038793a",
    "rsp-i/none": "d298c3401e77dc85fd4afa4ee18ee96d2174b5187b630ba346746259878a7351",
    "rsp-i/gaussian": "6f0e8f085a01a022becea49fb96881111973f39c828a2d24d4dc50c22ecd2503",
    "rsp-i/cauchy": "174c44ef9725e956f8737a2060640c86830ce0b8f50910bff507e6c85c42a3ed",
    "rsp-i/gumbel": "4488bd4854c26b26773b07cef4c58ea03d83345c60e1f7adaa7ecda1547a995e",
    "rsp-avg/none": "fc44b76d17a1efc1ebd9fad4c4c9d5c8dd6f5645a42e5d71c45a917e91d4f0a4",
    "rsp-avg/gaussian": "fc3eea8aef6f7a765035d888151c7b0b057ef5019f34758dcd3de567f36a0fff",
    "rsp-avg/cauchy": "59c9ae642df7c794aa07ecf12710b6a1a85e180f3f4af49a74dc069b0664e948",
    "rsp-avg/gumbel": "c52944373dbd8544139fdc4a6968b11cfb23e10a139ddc2ea64e0a31fa57dacd",
    "rsp-med/none": "acb5a2b64c733590075a500ae3a9c7921703113326783c76184bc639cf06445b",
    "rsp-med/gaussian": "cffc360e7db4d3785c58d72029f9aa7678be20baec82df7b0695b6bd1d92e303",
    "rsp-med/cauchy": "e0e447ddefd4c0dacb0e01892e501d77a64d1596ca0c676b908c8f49fd905a07",
    "rsp-med/gumbel": "ef67d051ac63e1e8404fe0cb0002029e45e375d3c08cbc420c630ebff6a6cc09",
    "summary.csv": "565dd9ef1ac57b2ca7b2cfd74122ce11a7bd4f972f767c845609b73f00fa246c",
    "significance.csv": "16e84f1898e30038981d12dc69b558d51017c1b1c1eadb80496a1e77bbd08627",
}


# Generated from the program before the array-backed race core; it had
# to leave them unchanged. The set makes this many Hoeffding decisions.
DECIDE_GOLDEN = {
    "rsp-i/none": "1a748fc6abecea2f8429049887321f379ecc6dfde8f6452bc577f0cb34b7413e",
    "rsp-i/gaussian": "d548ef114f510acae4f3633e748df8adeb52062daa63f31e5c743882d38003e6",
    "rsp-i/cauchy": "7b942324d69bee153d22033680fcc8b4008fcf577875525fcd83bdf5e853f1e7",
    "rsp-i/gumbel": "b68f87cbc27874ea9c71428f0059b41361673b14ed20c93527671f03ec338d2a",
    "rsp-avg/none": "b8951acf3404f01701865c288b8c97ee2bac5d96371e02e0e4faf858c5af8920",
    "rsp-avg/gaussian": "66c65f2dc894d6adf387d75c38a25dab32ab97ef8df1243b11a9c165c46b5d60",
    "rsp-avg/cauchy": "2b02028bd0bcea7814c13c599eada5fe2c1e7729e8c2e9bc2927580659d49331",
    "rsp-avg/gumbel": "8cbc41f179990a14c411900a6fd7bf295598e6ff639b924a558d90e036d300cf",
    "rsp-med/none": "a51864b7b9ac992c98b6b5fe3c8b2d086e37e1bc7403b78275f664c0cefdd0df",
    "rsp-med/gaussian": "a30166f52de179d49a3ab429ac9b3f74e2f393f795fac65a6ed681f16cad84b5",
    "rsp-med/cauchy": "e54fc92e07ae970b15e0fff40de9ec54948ddfccd28689ae9fe0b5a01bc0c86c",
    "rsp-med/gumbel": "6302684c89ec4f3ed177e256ec5b390d379c4b1face48f632cdb8884773f83d5",
    "summary.csv": "21cf5b69e45645ec2c9d151a613f07113777b02bd1a96e8e46e305ded13c5d72",
    "significance.csv": "a3b7d919318eed057d8c0189510cf464c08de96433adfc779a37ccb2b81fc2f9",
}
DECIDE_DECISIONS = 5316


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict[str, str]:
    return output_digests(tmp_path_factory.mktemp("golden"), golden_configs())


def counted_decide_digests(out: Path) -> tuple[dict[str, str], int]:
    """The decide set's digests, plus the individuals that ``record``
    took out of the race: the race's own decisions, not its fill-ins."""
    decided = 0
    record = SelectionRace.record

    def counting(race, chosen):
        nonlocal decided
        before = int(np.count_nonzero(race.status == Status.RACING))
        record(race, chosen)
        decided += before - int(np.count_nonzero(race.status == Status.RACING))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SelectionRace, "record", counting)
        digests = output_digests(out, decide_configs())
    return digests, decided


@pytest.fixture(scope="module")
def decide(tmp_path_factory) -> tuple[dict[str, str], int]:
    return counted_decide_digests(tmp_path_factory.mktemp("decide"))


def test_golden_set_covers_every_algorithm_and_noise():
    pairs = {(cfg.algorithm, cfg.noise) for cfg in golden_configs()}
    assert pairs == {(a, n) for a in ALGORITHM_IDS for n in NOISE_NAMES}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden_digest(digests, name):
    assert digests[name] == GOLDEN[name]


def test_golden_digests_cover_every_output(digests):
    assert set(digests) == set(GOLDEN)


def test_decide_set_covers_every_race_and_noise():
    pairs = {(cfg.algorithm, cfg.noise) for cfg in decide_configs()}
    assert pairs == {(a, n) for a in RACE_IDS for n in NOISE_NAMES}


@pytest.mark.parametrize("name", sorted(DECIDE_GOLDEN))
def test_decide_bytes_match_golden_digest(decide, name):
    assert decide[0][name] == DECIDE_GOLDEN[name]


def test_decide_digests_cover_every_output(decide):
    assert set(decide[0]) == set(DECIDE_GOLDEN)


def test_decide_set_races_decide(decide):
    assert decide[1] == DECIDE_DECISIONS > 0


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, value in output_digests(Path(tmp), golden_configs()).items():
            print(f'    "{key}": "{value}",')
    with tempfile.TemporaryDirectory() as tmp:
        found, decided = counted_decide_digests(Path(tmp))
        for key, value in found.items():
            print(f'    "{key}": "{value}",')
        print(f"DECIDE_DECISIONS = {decided}")
