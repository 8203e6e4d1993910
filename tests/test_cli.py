"""CLI behavior: formats, exit codes, determinism, round-trips."""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "etale_quadrics", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def records_by_degree(payload):
    out = {}
    for r in payload["records"]:
        out.setdefault(r["degree"], []).append(r["order"])
    return out


def test_decompose_text():
    res = run_cli("decompose", "7")
    assert res.returncode == 0
    assert "M3 + M2*T1 + M2*T2 + M2*T3" in res.stdout


def test_decompose_rejects_zero():
    res = run_cli("decompose", "0")
    assert res.returncode == 2
    assert "dimension" in res.stderr


def test_decompose_json():
    res = run_cli("decompose", "6", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["terms"] == [{"n": 2, "j": j} for j in range(4)]
    assert payload["expansion"] == [2]
    assert payload["residual"] == 0


def test_cohomology_rost_mod4():
    res = run_cli("cohomology", "--rost", "2", "--coeff", "mod2s:2", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert records_by_degree(payload) == {0: [4], 2: [2], 4: [2], 6: [4]}


def test_cohomology_rost_2adic():
    res = run_cli("cohomology", "--rost", "3", "--coeff", "2adic", "--format", "json")
    payload = json.loads(res.stdout)
    free = sorted(r["degree"] for r in payload["records"] if r["order"] == 0)
    torsion = sorted(r["degree"] for r in payload["records"] if r["order"] == 2)
    assert free == [0, 14]
    assert torsion == [4, 8, 12]


def test_cohomology_quadric_2adic_table():
    res = run_cli("cohomology", "7", "--coeff", "2adic", "--format", "json")
    payload = json.loads(res.stdout)
    by_degree = records_by_degree(payload)
    assert by_degree[8] == [2, 0, 2]  # sorted by Rost index desc, twist asc
    assert sorted(by_degree) == [0, 2, 4, 6, 8, 10, 12, 14]
    degree4 = [r for r in payload["records"] if r["degree"] == 4]
    assert [r["algebraic"] for r in degree4] == [False, True]


def test_cohomology_mod2():
    res = run_cli("cohomology", "--rost", "2", "--coeff", "mod2", "--format", "json")
    payload = json.loads(res.stdout)
    assert [r["degree"] for r in payload["records"]] == list(range(7))
    assert all(r["order"] == 2 for r in payload["records"])
    algebraic = [r["degree"] for r in payload["records"] if r["algebraic"]]
    assert algebraic == [0, 4, 6]


def test_cohomology_quadric_mod2_records():
    res = run_cli("cohomology", "7", "--coeff", "mod2", "--format", "json")
    assert res.returncode == 0
    records = json.loads(res.stdout)["records"]
    assert len(records) == 15 + 3 * 7  # M3 + M2*T1 + M2*T2 + M2*T3
    assert all(r["order"] == 2 for r in records)
    assert all((r["twist"] is None) == (r["degree"] % 2 == 1) for r in records)
    degree4 = [(r["generator"], r["source"], r["algebraic"]) for r in records if r["degree"] == 4]
    assert degree4 == [
        ("rho^4", {"n": 3, "j": 0}, False),
        ("rho^2", {"n": 2, "j": 1}, False),
        ("1", {"n": 2, "j": 2}, True),
    ]
    top = [r["degree"] for r in records if r["source"] == {"n": 3, "j": 0} and r["algebraic"]]
    assert top == [0, 8, 12, 14]


def test_cohomology_quadric_mod2s_records():
    res = run_cli("cohomology", "7", "--coeff", "mod2s:3", "--format", "json")
    assert res.returncode == 0
    records = json.loads(res.stdout)["records"]
    assert records_by_degree({"records": records}) == {
        0: [8], 2: [2, 8], 4: [2, 2, 8], 6: [2, 2, 2, 8],
        8: [2, 8, 2, 2], 10: [2, 8, 2], 12: [2, 8], 14: [8],
    }
    ghosts = [(r["degree"], r["source"]["n"]) for r in records if r["generator"].startswith("ghost(")]
    assert ghosts == [(2, 3), (4, 2), (6, 3), (6, 2), (8, 2), (10, 3)]
    assert all(r["algebraic"] is None for r in records)
    assert all(r["twist"] == (r["degree"] // 2) % 2 for r in records)


# stdout digests pinning the truncated-coefficient quadric tables byte for byte
TABLE_DIGESTS = {
    ("7", "--coeff", "mod2s:3"):
        "6c1d096613025683362d7e50f322cd13bfd65581908524b690e1725df2dfe1fe",
    ("7", "--coeff", "mod2s:3", "--format", "json"):
        "2cce8d752fdc5889c5ecd22ab0749d6bede9e8fd51cbed811a8e77bb867f2541",
    ("7", "--coeff", "mod2", "--format", "json"):
        "d80638e0faea943acb1f822da9df9c92100e6b976d96dd2f0551bf56ff1efeac",
    ("31", "--coeff", "mod2", "--format", "csv"):
        "e254f3413cbe36b8507f9597a62cb3b9c739bfa27b9c24a060b8d1955bc866e7",
    ("31", "--coeff", "mod2s:2", "--format", "json"):
        "f686a32a2c2e3d1105af3511640de6ee9d79e225ce93ce5841cdd2447c7c830a",
}


@pytest.mark.parametrize("argv", sorted(TABLE_DIGESTS))
def test_truncated_table_digests(argv):
    res = run_cli("cohomology", *argv)
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == TABLE_DIGESTS[argv]


# stdout digests of full quadric tables, pinned before the tables were
# streamed: every coefficient kind in every format, up to d = 255
QUADRIC_DIGESTS = {
    (1, "2adic", "text"): "08a7fa9867b0a1482678a144328706987be4a2d6cc07e5ac9df2e98cf251988e",
    (1, "2adic", "json"): "f779547ee700b1db658c43dabbe3197ad094be261bc0c9175574c38b94d9fd1f",
    (1, "2adic", "csv"): "1e5802656f6466b7f4229dcc4c2bcfb5d8b7c836146254bc52533a79ec9bbda1",
    (1, "mod2", "text"): "a1c7a98c1af38cb07e975aa970c0353ef260b950091ba43de1f6ef145280fd04",
    (1, "mod2", "json"): "d253025ff79c0aae192f7c162b04566e78f6170bb520a06ad5f124c6c39ecb31",
    (1, "mod2", "csv"): "1e730cc13ec3677d6944b83da65f7e38047dfc2449bf1c3d97c904c4d763696b",
    (1, "mod2s:3", "text"): "3db1db3aac70ae22a232b408e2d69aa143fb588984e3d7295447558d71e96cbd",
    (1, "mod2s:3", "json"): "e50f54ea88fa7d27e68bd9aec1603a362edbd4a1b2b7424515e14ccbfd6dcc16",
    (1, "mod2s:3", "csv"): "e9a84c6765aa1456db2ddcc49840c0704d7d82d2dcd877fe1fbda3c16d3a1be5",
    (2, "2adic", "text"): "adbdce1644d9bb74a0eab8d5ac72b2c1b007e5a202d8fd825589d43a4e4eb069",
    (2, "2adic", "json"): "ee4b7e71f1af30ace9f64866634bf6147032117ec3a2f10e79b1df1796a3ce41",
    (2, "2adic", "csv"): "db1e5355a694f17ed9b7105a877482cd60461c53fd8e690c7cff1d02800f57bb",
    (2, "mod2", "text"): "055a407563a9c74f68970428e040baba22fefcdee38a6a4a86344c68acd349ff",
    (2, "mod2", "json"): "0646bac5dd1e13a504f45acc20200bc2ed4f50a10c64ba19f395b6f949d13503",
    (2, "mod2", "csv"): "466a27dee1ad4b787b722a223b13c1c8c0e6281e207568829684603c5e988fd6",
    (2, "mod2s:3", "text"): "fe88b1d03225746c4207e12b74063f0f77a191043b9ecfcb6b95660e51aebaf7",
    (2, "mod2s:3", "json"): "acaac8b870d0a0c0616224b2812ca3867a60d2376e0caef4da5c16aa632cb0e7",
    (2, "mod2s:3", "csv"): "f4389ef9e022e7de89b159ebd6d337e93a1ce3cbe4ead92564b87cf794f242d4",
    (7, "2adic", "text"): "caeeaee12583056a55de5ad3c13198ff4c09d782cfaedaf209f3d5eed23afe2b",
    (7, "2adic", "json"): "a89d5fc2cb7da73c84565be82f1d744b5f7c95f89ab0ec473c1236f00106da81",
    (7, "2adic", "csv"): "89130ca2c4aaa6922d87e9a66004295ebb849eb5f4275225d3fe89561de00c4f",
    (7, "mod2", "text"): "4f8d147724748fbc0fbf99c12c81247e6b2a4cb64a5e2932013a8cc1e736dcb5",
    (7, "mod2", "json"): "d80638e0faea943acb1f822da9df9c92100e6b976d96dd2f0551bf56ff1efeac",
    (7, "mod2", "csv"): "bfa222dde60359df1e4764b6b64545e5522956ac21464106fd5e35cfbbdca355",
    (7, "mod2s:3", "text"): "6c1d096613025683362d7e50f322cd13bfd65581908524b690e1725df2dfe1fe",
    (7, "mod2s:3", "json"): "2cce8d752fdc5889c5ecd22ab0749d6bede9e8fd51cbed811a8e77bb867f2541",
    (7, "mod2s:3", "csv"): "171d41540c2d5e46ee42e5f3522266ceb3bae44a644f8153980695a69e23c5a7",
    (63, "2adic", "text"): "130c56850746dbcb85a0fb550ef3ad51876244947f7b41a6242751bbe1e25f82",
    (63, "2adic", "json"): "8159b31c7c0aa58c0342e669197950825c9c8520fafe362c3ad8bd304fa5b6a2",
    (63, "2adic", "csv"): "454ae610ed095a901bb44917e15e39841342e7e520a4380f7cec4161d94d95c2",
    (63, "mod2", "text"): "b4ab7019f8a52c29c5b246a6c098408caff74b53867c1c8a8f6e8597123112d6",
    (63, "mod2", "json"): "04d55b811cba1d4887115d980faa6fad15dc8159d9de6c1bf142f8954bbb4b02",
    (63, "mod2", "csv"): "4bd16b3c5e19d69c261620defd3533d53baccdd3763ae5835563b1d91045b1c7",
    (63, "mod2s:3", "text"): "a26656a95e5ff6fb436cad149741e8a186bc65948ee68c8b57b193a66353eb7e",
    (63, "mod2s:3", "json"): "5005726fb203a22e83320f843731ebc127e0d61e1aa46ed62ee135d64da3b31c",
    (63, "mod2s:3", "csv"): "cbe8ea8b516da6849307aef4caf754d33fb2fc170e3789d712fce8623c164320",
    (255, "2adic", "text"): "61597f0ceb0884b9704d7761a6b6e791342073816742faab5f6313a038613aff",
    (255, "2adic", "json"): "164153c5672a36c9c6f81bcae57e90dab3c265f4ff5d84956d702d136bb106b3",
    (255, "2adic", "csv"): "4fada1e9626fe76ebca15bd38a05e36bc616a82948ddf6ed20446d4f1699f34e",
    (255, "mod2", "text"): "6399c7f7df3177ec1aef3305bb493be0579316e0293acf53bcb37e5b8129d3c8",
    (255, "mod2", "json"): "9d045de6f5e3797263502a8f5c769ec356dcf2942a353af6899d0d10684b4245",
    (255, "mod2", "csv"): "4e11c3eefed97677b02da11e4b2db945bb837db02a7837d87fd64e2d627339d3",
    (255, "mod2s:3", "text"): "cc3ff0340c3d1d55dc4745acea23f41e618592855860ff9db6a097e2b496bc75",
    (255, "mod2s:3", "json"): "27f0f4c161e8dfd49a1bcde27ab72218f2918b1fc3dea1ba2ada8e59cba47679",
    (255, "mod2s:3", "csv"): "9ea2afb60bc161312bf207c8607f13f128374cda5da24f52608b8b6a83ed04c5",
    # six blocks with M_0 (every kind) and seven blocks (2adic), pinned before
    # the rows were grouped by degree: narrow block windows and their edges
    (300, "2adic", "text"): "3b8c1f1da3f74659f941b6e275dc845feb30fd407819c4e916b72af725be01f9",
    (300, "2adic", "json"): "be39d07036b7bad2e22f48d5ae63633a11f3763f3df60d02da634dc4c3ce6568",
    (300, "2adic", "csv"): "58f2224346aeb37813f60ee6e870ef1dec9cdac1be2ecce6d4654d60488c7397",
    (300, "mod2", "text"): "48bcfe5666879845405495249c86561c602874abd47c0f25085bb3664bbe883d",
    (300, "mod2", "json"): "e9f9404d49e802c61cef2752589d87ce4ec8a052584fabe0c1bbc51660b210a5",
    (300, "mod2", "csv"): "7f3759c97dd90c5fae9300a37ccccdb6c6e5c0eeceb82a870ba933b954140967",
    (300, "mod2s:3", "text"): "85dcd76728cf69a20c798ca731d1c50f4e748a8e56c3bc1b702f941737f204bc",
    (300, "mod2s:3", "json"): "acd14e2c1efdf95410e74496d63c04e0638b7df10b16565e8c4d368b2a78e0ea",
    (300, "mod2s:3", "csv"): "db7effe761f4497985030b2f91f84061442be54d3519273c1dfd215cec4a78a6",
    (936, "2adic", "text"): "76c917e61598ff54ff25aadd626ee55378a3840718b4985611f12c8130f17fb5",
    (936, "2adic", "json"): "1bb0358e853d17087721db229af3e050e76c79c3d50f885eb3369637aac8eaf3",
    (936, "2adic", "csv"): "1159b79c87a42ee922c9aae1053fc125ece93d692f93195049da53d4a14d9f2f",
}


# stdout digests pinning `decompose d` byte for byte in every format, up to
# the table bound: the term lists, the expansion and the rendered sum
DECOMPOSE_DIGESTS = {
    (1, "text"): "51b36fe7bd44ecf43f9d7295cf5ccb3c10f675932ab4f6cd1e0ca5cdc0fecbf2",
    (1, "json"): "ea64dede994426364feaf9a1f9c4365143f8c76161aface663078ffd3d75edb9",
    (1, "csv"): "02cb26f1adf14461808abe8540e6da961a943650ae748bcf7b5813347a1dffd1",
    (2, "text"): "bb3deb50eef29bf0e3f75be45b14c6c50b2d5ab4b5d0b8aff8a30258a159a1e6",
    (2, "json"): "306e392b39a808b08a45126a3902d49748636aba38ed90eded1768b824bebeec",
    (2, "csv"): "41567917ff69488982372ef73f9b25a5baf1b4a90f165903f27ae0bccce31775",
    (3, "text"): "7381cf297d406958ecd74c7536216158659b0b259e96d361741f07daf7fa1e46",
    (3, "json"): "feea63d5e2acffaf9548d19c0b8c8dd67b039f2c5beb4812891e8ec89653baf5",
    (3, "csv"): "829f5fbdb6035b5c7bcb494b402d443d569f0207d468e948b7e5ef5cdee2c4be",
    (4, "text"): "557abdeba77573609d4159695c65ca60c98d14a0ad89da18213be987370c05b7",
    (4, "json"): "ff98db9587c6ab2d2c51a0f8d5984204a1261e17f2981f71e133967f90a1f3f5",
    (4, "csv"): "bc477cfaa8aa66a4ec615730b6a3d0c735bc4a185c5573e8b1fdb67159cedf90",
    (7, "text"): "bd39c05ff4d905a9c690361b17e5b393fec17220d9d0367c9d4d1f1e2c346468",
    (7, "json"): "bc229efa13ac9c1f6b1e960b9b8ebdc162d8ca94526bc5d2f410e771479144e0",
    (7, "csv"): "9f7bc03ec4b1b56bafccb524210df34f13ebe85731f15c0e56d3f9e4809fcb00",
    (511, "text"): "e62432b4dddcf24fb32be6a441934007d50bc8e66a353d02e0a115074085ed0f",
    (511, "json"): "a898fc1f9c69c4baae3bae59090080eeb087d2027f01737b8856a944c7b5d267",
    (511, "csv"): "be44420e90e0b3ec1a857cf30266abfe30e6eb74183c7ce90bffa6d2c1848b57",
    (1022, "text"): "65413511d4bec14f8ed5c6e8f4b7aa4456069f39c8e1f0887638fdde7cb467b1",
    (1022, "json"): "4d32c69f0c4caab6c3bb5cf7a9f536cbbe05b733a2ebc597173d7c1885d4b61d",
    (1022, "csv"): "d4518c34ba0f9483de3fe5cd0384c0d87f1bbd05cff347606e6881ceb6c65cf6",
    (2045, "text"): "4711338ea7cfd322f6ae02bc4c86435fa368fcad4cf3eb566bd251fd3b753a28",
    (2045, "json"): "38525d489b912f71c6ee03434bc54bf50a30ce768fbb594138f33b3be754a8ee",
    (2045, "csv"): "2cffa2d1b8f7bca8aaa76e08fc6dd006b7914dd05f3d1733ad26c7df3b5e09cc",
    (2046, "text"): "4908b6a9c7af6d0befab4b6eb2457eb995e596ecb534e7add87bbc57980a82c3",
    (2046, "json"): "d26862dcfeea467b76a48746f0f301bc94b773cc6f0f624363b24c0c18e1e0be",
    (2046, "csv"): "fc25ea1e83abad90f1fe9ca7ce0f84a3af6cbca44b04e675cd8c9d2bd65992d7",
}


@pytest.mark.parametrize("d, fmt", sorted(DECOMPOSE_DIGESTS), ids=lambda v: str(v))
def test_decompose_digests(capsys, d, fmt):
    from etale_quadrics import cli

    assert cli.main(["decompose", str(d), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE_DIGESTS[d, fmt]


# stdout digests pinning `nonalgebraic d` byte for byte in every format, up to
# the table bound: an empty report (d = 1, 5, 6), the first non-algebraic
# class (d = 7) and the rows near each power of two
NONALGEBRAIC_DIGESTS = {
    (1, "text"): "c30cb051afdfe802f65890ea674d73c891c8f4857f733c56b531dea3fa27099b",
    (1, "json"): "481121f1f1b9b2f1be1986535dcee81b241ff126ce293d7fd73f06c22dcb6b24",
    (1, "csv"): "1201ea860cef68ae3060c71768a0ded3885bfd1666af067995bf9b6560dcc551",
    (5, "text"): "ec684671b54ea9c29a4865e8b185192cb6b9e02673b0c6e13d616ee483dbabf8",
    (5, "json"): "2f80338268191774a88b9ab660c7fbb31a0c448a6a2f76baa7329471814ef906",
    (5, "csv"): "1201ea860cef68ae3060c71768a0ded3885bfd1666af067995bf9b6560dcc551",
    (6, "text"): "739417acee0fb4586bee45eed6e30fa7c93a86a018d0f2bc5b65b8916c3409f2",
    (6, "json"): "bfe2334ad265a083508ddbe2f79c97559c3a7099355ba1c303415d4a954c83e0",
    (6, "csv"): "1201ea860cef68ae3060c71768a0ded3885bfd1666af067995bf9b6560dcc551",
    (7, "text"): "6d4978d28032bea9455c1464acea50307baf8da2ca655a63ea7401d739a66b27",
    (7, "json"): "82f4cdc029cf2bcebdffbd30d81a572966657cd9ebdc78b0093970785ae97d53",
    (7, "csv"): "06212c7165b41073d43d1b8649c065822aad663e6f62443c7ae059d3e850da6f",
    (8, "text"): "31431600f482b08ac6a1fef653deeac1ad8aef4d5abf1c63faec83a2a0f4267f",
    (8, "json"): "4f423a8c1425c26ab2feb9be82687e95a97a9549ade4575c4b2140076205cdf0",
    (8, "csv"): "90f2f273f2ba08e9684fe9666b99c3a6ca6510e919d716cd482b1540d27c0ce4",
    (15, "text"): "c438b997cf99ee77cb73c929e6ee69a8e6fba89ad4a95ce0c2f5c16c43798713",
    (15, "json"): "ec4a01631e92d2062011e3c72e7bca89635fb1520d09eb96631f9e077b31cbc2",
    (15, "csv"): "34d75345e12aabec9a3c8e85a961f8600f9ef36bc80d0562e981277495def4aa",
    (505, "text"): "e801aa08f1964ac7ab15c90ac0f7dc33376a171d8e6decb31038ddf0d00a4db8",
    (505, "json"): "06cd5c3d2d7dc43e8ff923fa9a38c3e9568fca4ebd193c65211395cc6749fe91",
    (505, "csv"): "1ff5c8841fead8b20573e3b89627d8fa6a4417ed7d37b3c5181ad16929104365",
    (1021, "text"): "80e30ea7acbee0e8534d81466cf4b0543ea4673a2903a2df7e07b12c567fdbed",
    (1021, "json"): "746bbfacd966a3e16050212641d529a1d6146fe422f306d238a701cb211ed931",
    (1021, "csv"): "737b469d23c5c926b79b04d08049c2282d7f29dadb32ef7e408c1bd517ff96f7",
    (2041, "text"): "3c38a3cb597ee9d18ea85368fd2ba582385747c1436d67bcdd94e81b86a54403",
    (2041, "json"): "dfc9407ac2f449f2fa5ad35c759b44109fccd9757a75c6f34c8a7c2bb69e7648",
    (2041, "csv"): "ab273048017d46fe8f366665b55ca2f4a607993dc1ff8edbd3bd0f3deeadd689",
    (2046, "text"): "95108e089c30f0f37fe54302e8af17177293a30eb6c8caf1554e0827f81a0f57",
    (2046, "json"): "e2dc17b7b85903637c55b9fae27e7252b1a6aa68e01e338e7b77cafd39c19d12",
    (2046, "csv"): "957de2e51539fe8bea6ac301d92fa850774766c41391e0dc27b1b839f9a9330b",
}


@pytest.mark.parametrize("d, fmt", sorted(NONALGEBRAIC_DIGESTS), ids=lambda v: str(v))
def test_nonalgebraic_digests(capsys, d, fmt):
    from etale_quadrics import cli

    assert cli.main(["nonalgebraic", str(d), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == NONALGEBRAIC_DIGESTS[d, fmt]


@pytest.mark.parametrize("d, coeff, fmt", sorted(QUADRIC_DIGESTS), ids=lambda v: str(v))
def test_quadric_table_digests(capsys, d, coeff, fmt):
    from etale_quadrics import cli

    assert cli.main(["cohomology", str(d), "--coeff", coeff, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == QUADRIC_DIGESTS[d, coeff, fmt]


# stdout digests pinning the single-motive tables of every coefficient kind
# and the full verify report byte for byte
REPORT_DIGESTS = {
    ("cohomology", "--rost", "4", "--coeff", "2adic"):
        "3ca385dfcf5d3a12f9fe90d808447966c837c09ffe695965509a44e7927be119",
    ("cohomology", "--rost", "4", "--coeff", "2adic", "--format", "json"):
        "c57fe1c0d520800fa1689d7b5497df60d602f2c84b7a8b1f276cd359b56dc63f",
    ("cohomology", "--rost", "4", "--coeff", "mod2"):
        "744f089411146b34582ab5d69adf8ee6d4c0cce2522e7ca0baa3fbd65abbf6f0",
    ("cohomology", "--rost", "4", "--coeff", "mod2", "--format", "json"):
        "db75d1258d113fca337160f180d79a94184345943ce0da28d6bd469a8b746d0a",
    ("cohomology", "--rost", "4", "--coeff", "mod2s:3"):
        "1942e585b05f25896ba9e7c392d0f1861132421681ae50ed6d61d748e0966007",
    ("cohomology", "--rost", "4", "--coeff", "mod2s:3", "--format", "json"):
        "78cba092fcf7cf9a9256ef021975619f460c1c788a01449166851fa6ef17d7d8",
    ("cohomology", "--rost", "10", "--coeff", "2adic", "--format", "csv"):
        "4134a8e6109bbe2b860a850d536a61510d84b6b8349adbe2b070370b9ba66d18",
    ("cohomology", "--rost", "10", "--coeff", "mod2", "--format", "csv"):
        "3acee339cecc36363942ae4aff432b42e67790f613ea4ef0c2f7eccca33f5e46",
    ("cohomology", "--rost", "10", "--coeff", "mod2s:3", "--format", "csv"):
        "d274c93737335093bcc60b8171c7cd0c210761a52a7c76a351edabdbb10e7ea5",
    ("verify", "--scope", "all", "--format", "json"):
        "f3315fd32a8849f4314309dedd55cd367d5bc949f6fe8cb097427585d0a83eb4",
}


@pytest.mark.parametrize("argv", sorted(REPORT_DIGESTS), ids=" ".join)
def test_report_digests(argv):
    res = run_cli(*argv)
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == REPORT_DIGESTS[argv]


def test_warm_memos_give_cold_bytes(capsys):
    """verify at the largest --nmax, then over one scope, then at small
    bounds, then at the defaults, in one process: each report has the bytes
    a fresh process prints, so no memoised parts list or lattice answer
    leaks from one run into the next."""
    from etale_quadrics import cli

    runs = (
        (("--scope", "all", "--nmax", "10", "--dmax", "64"), "47a12dba0efa427558e2b4a244338c6671f28fe24df73829701acff080a2f4dd"),
        (("--scope", "s5"), "9ae84f0be11e466d75f344c18ff05f5c195f99199d35e650edd2d9739bfd6648"),
        (("--scope", "all", "--nmax", "2", "--dmax", "8"), "273774d5af4fe834207240da017816ab6823ecc6ebc8738862ca41eeec6e133c"),
        (("--scope", "all"), REPORT_DIGESTS[("verify", "--scope", "all", "--format", "json")]),
    )
    for argv, digest in runs:
        assert cli.main(["verify", *argv, "--format", "json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, argv


COEFFS = ("2adic", "mod2", "mod2s:3")

# argv and the two strings stderr must name: the user's quantity and its range
OUT_OF_BOUND = [
    *((("cohomology", "2047", "--coeff", c), "quadric dimension 2047", "1..2046") for c in COEFFS),
    *((("cohomology", "--rost", "11", "--coeff", c), "--rost 11", "1..10") for c in COEFFS),
    *((("cohomology", "--rost", n, "--coeff", "mod2s:1"), f"--rost {n}", "1..10") for n in ("-1", "-2")),
    (("nonalgebraic", "2047"), "quadric dimension 2047", "1..2046"),
    (("decompose", "2047"), "quadric dimension 2047", "1..2046"),
    # a level whose order 2^s would not print under the 4300-digit limit
    (("cohomology", "7", "--coeff", "mod2s:15000"), "coefficient level 15000", "1..14284"),
    (("cohomology", "7", "--coeff", "mod2s:0"), "coefficient level 0 ", "1..14284"),
    # more digits than int() converts: bounded before it reads them
    (("cohomology", "7", "--coeff", "mod2s:" + "9" * 4301), "coefficient level 999", "1..14284"),
    # levels are ASCII decimals, not any spelling int() accepts
    *((("cohomology", "7", "--coeff", c), repr(c), "mod2 | mod2s:<s> | 2adic") for c in ("mod2s:abc", "mod2s:+2")),
    (("verify", "--nmax", "11"), "--nmax 11", "1..10"),
    (("verify", "--nmax", "0"), "--nmax 0", "1..10"),
    (("verify", "--dmax", "2047"), "--dmax 2047", "1..2046"),
]


@pytest.mark.parametrize(
    "argv, quantity, bound", OUT_OF_BOUND, ids=[" ".join(case[0])[:60] for case in OUT_OF_BOUND]
)
def test_table_bound_rejects(argv, quantity, bound):
    res = run_cli(*argv)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1  # no traceback
    assert quantity in res.stderr and bound in res.stderr
    assert "max_index" not in res.stderr and "int()" not in res.stderr
    assert "int_max_str_digits" not in res.stderr


@pytest.mark.parametrize(
    "argv",
    [
        *(("cohomology", "--rost", "10", "--coeff", c) for c in COEFFS),
        ("cohomology", "--rost", "1", "--coeff", "mod2s:14284"),
        ("cohomology", "--rost", "1", "--coeff", "mod2s:" + "0" * 4300 + "3"),
        ("nonalgebraic", "2046"),
        ("decompose", "2046"),
    ],
    ids=lambda argv: " ".join(argv)[:60],
)
def test_table_bound_accepts(argv):
    assert run_cli(*argv).returncode == 0


def test_verify_has_no_window_flag():
    res = run_cli("verify", "--window", "4")
    assert res.returncode == 2 and res.stdout == ""
    assert "unrecognized arguments: --window 4" in res.stderr


def test_verify_has_no_level_flag():
    """verify sweeps the fixed verify.LEVELS: a level bound is a usage error."""
    res = run_cli("verify", "--smax", "8")
    assert res.returncode == 2 and res.stdout == ""
    assert "unrecognized arguments: --smax 8" in res.stderr


def test_cohomology_requires_one_target():
    assert run_cli("cohomology", "7", "--rost", "2").returncode == 2
    assert run_cli("cohomology").returncode == 2
    assert run_cli("cohomology", "7", "--coeff", "mod3").returncode == 2


def test_record_sort_order():
    res = run_cli("cohomology", "7", "--coeff", "2adic", "--format", "json")
    payload = json.loads(res.stdout)
    keys = [
        (r["degree"], -r["source"]["n"], r["source"]["j"], r["generator"])
        for r in payload["records"]
    ]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "argv",
    [
        *(("decompose", str(d)) for d in (1, 2, 4, 8, 2046)),
        *(("nonalgebraic", str(d)) for d in (1, 5, 7, 2046)),
        *(("cohomology", "4", "--coeff", c) for c in ("2adic", "mod2", "mod2s:3", "mod2s:0003")),
        ("cohomology", "--rost", "2", "--coeff", "2adic"),
        ("cohomology", "--rost", "3", "--coeff", "mod2s:3"),
    ],
    ids=" ".join,
)
def test_json_round_trip(capsys, argv):
    """Every JSON but verify's is written as text, not by json: it must be
    what json.dumps(payload, indent=2) prints of what it parses to."""
    from etale_quadrics import cli

    assert cli.main([*argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_csv_output():
    res = run_cli("cohomology", "--rost", "2", "--coeff", "2adic", "--format", "csv")
    lines = res.stdout.splitlines()
    assert lines[0] == "degree,twist,order,generator,n,j,algebraic"
    assert "4,0,2,rho_bar_4,2,0,true" in lines


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("flag", [True, False, None], ids=repr)
def test_rows_with_one_flag_share_one_tail(fmt, flag):
    """A row's tail is its algebraicity flag alone, so two entries with the
    same flag get the same string object, not two equal copies."""
    from etale_quadrics.cli import _row_parts
    from etale_quadrics.graded import GradedSummand

    one = _row_parts(fmt, GradedSummand(4, 2, "rho^4", flag, (3, 0)))
    other = _row_parts(fmt, GradedSummand(14, 0, "pi", flag, (5, 0)))
    assert one[0] != other[0] and one[1] is other[1]


def test_every_table_label_needs_no_csv_quoting_or_json_escaping():
    """A CSV row writes its generator label bare and a JSON row between
    quotes, so every label a table can print keeps to an alphabet with no
    comma, quote, backslash, space or line break: those of the Rost tables
    n = 1..MAX_INDEX of all three kinds, and the M_0 unit, the one block
    (0, 0, 1).  So do the targets and the coefficient specs a JSON header
    writes between quotes."""
    from etale_quadrics.cli import MAX_INDEX
    from etale_quadrics.quadrics import iter_cohomology

    labels = {
        label
        for coeff in ("mod2", "mod2s:3", "2adic")
        for n in range(MAX_INDEX + 1)
        for _, segments in iter_cohomology(((n, 0, 1),), coeff, view=lambda e: (e.label,))
        for _, labels in segments
        for label in labels
    }
    assert len(labels) == 3070
    assert [label for label in labels if not re.fullmatch(r"[A-Za-z0-9_^()]+", label)] == []
    texts = [*labels, "Q^2046", "M10", "mod2", "2adic", "mod2s:1", "mod2s:0003", "mod2s:14284"]
    assert [text for text in texts if json.dumps(text) != f'"{text}"'] == []


def test_nonalgebraic_fixtures():
    res = run_cli("nonalgebraic", "7", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["has_nonalgebraic"] is True
    assert payload["records"] == [{"degree": 4, "dim": 1, "mod4": 0}]
    res = run_cli("nonalgebraic", "5", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["has_nonalgebraic"] is False
    assert payload["records"] == []
    res = run_cli("nonalgebraic", "15", "--format", "json")
    payload = json.loads(res.stdout)
    mod4 = [r["degree"] for r in payload["records"] if r["mod4"] == 0]
    assert mod4 == [4, 8, 12, 16, 20]


def test_verify_scope_pass():
    res = run_cli("verify", "--scope", "s2")
    assert res.returncode == 0
    assert "PASS C1" in res.stdout


def test_verify_deterministic():
    args = ("verify", "--scope", "s7", "--dmax", "96")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_out_writes_identical_bytes(tmp_path):
    target = tmp_path / "table.json"
    res = run_cli("cohomology", "--rost", "2", "--coeff", "2adic", "--format", "json")
    res2 = run_cli(
        "cohomology", "--rost", "2", "--coeff", "2adic", "--format", "json",
        "--out", str(target),
    )
    assert res2.returncode == 0 and res2.stdout == ""
    assert target.read_text() == res.stdout


@pytest.mark.parametrize(
    "argv",
    [("decompose", "7"), ("cohomology", "7"), ("nonalgebraic", "7"), ("verify", "--scope", "s2")],
    ids=lambda argv: argv[0],
)
def test_out_to_an_unwritable_path(tmp_path, argv):
    # an empty path names no file: it is rejected, not read as stdout
    for target in (str(tmp_path / "missing" / "x.txt"), ""):
        res = run_cli(*argv, "--out", target)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"error: cannot write {target}: No such file or directory\n"
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("target", [["2046", "--coeff", "mod2"], ["--rost", "10"]], ids=" ".join)
def test_out_is_opened_before_the_table_is_computed(monkeypatch, capsys, tmp_path, target):
    from etale_quadrics import cli, quadrics

    def unreachable(*args):
        raise AssertionError("a table was computed before --out was opened")

    monkeypatch.setattr(quadrics, "rost_table", unreachable)
    path = tmp_path / "missing" / "x.txt"
    assert cli.main(["cohomology", *target, "--out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"


def spawn_env(unbuffered):
    """The environment of a spawned CLI: stdout block-buffered (no
    PYTHONUNBUFFERED), or unbuffered, and 80 columns for --help."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    return dict(env, COLUMNS="80")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, read",
    [
        (("cohomology", "2045"), 10),
        (("cohomology", "2045", "--format", "json"), 10),
        (("cohomology", "1022", "--coeff", "mod2", "--format", "csv"), 10),
        (("verify", "--scope", "s2"), 10),
        (("decompose", "7"), 0),
        (("nonalgebraic", "7", "--format", "json"), 0),
        (("--help",), None),
        (("--version",), None),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else "closed first" if v is None else f"read {v}",
)
def test_closed_stdout_ends_quietly(argv, read, unbuffered):
    """A reader that stops early (`| head -c 10`, before reading at all, or
    gone before the CLI starts) ends the CLI with exit 0 and nothing on
    stderr: no BrokenPipeError traceback, and no failed flush at exit."""
    if read is None:  # the reader is gone before the spawn: argparse prints --help and --version itself
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "etale_quadrics", *argv],
                stdout=w, stderr=subprocess.PIPE, env=spawn_env(unbuffered), timeout=300,
            )
        finally:
            os.close(w)
        assert (proc.returncode, proc.stderr) == (0, b"")
        return
    with subprocess.Popen(
        [sys.executable, "-m", "etale_quadrics", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=spawn_env(unbuffered),
    ) as proc:
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 0
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [("decompose", "7"), ("cohomology", "7"), ("nonalgebraic", "7"), ("verify", "--scope", "s2")],
    ids=lambda argv: argv[0],
)
def test_a_closed_stdout_is_invalid_output(argv):
    """With fd 1 closed before the spawn, sys.stdout is None: the CLI
    refuses it as it refuses an --out path it cannot write, with one error
    line and exit 2, and computes nothing."""
    res = subprocess.run(
        [sys.executable, "-m", "etale_quadrics", *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), timeout=300,
    )
    assert (res.returncode, res.stderr) == (2, b"error: cannot write stdout: it is closed\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "0"),
        ("cohomology", "7", "--coeff", "bad"),
        ("decompose", "7", "--out", "/nonexistent/x"),
        ("verify", "--scope", "s2", "--dmax", "0"),
    ],
    ids=" ".join,
)
def test_a_closed_stderr_keeps_the_exit_code(argv):
    """With fd 2 closed before the spawn, invalid input still exits 2: its
    message is lost, and nothing reaches stdout in its place."""
    res = subprocess.run(
        [sys.executable, "-m", "etale_quadrics", *argv],
        stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2), timeout=300,
    )
    assert (res.returncode, res.stdout) == (2, b"")


def written(folder):
    """The digest of each file in folder, which is then emptied."""
    digests = {}
    for path in folder.iterdir():
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        path.unlink()
    return digests


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (("--version",), 0),
        (("--help",), 0),
        (("cohomology", "--bogus"), 2),
        (("cohomology", "0"), 2),
        (("cohomology", "7", "--out", "{tmp}/missing/x.txt"), 2),
        (("verify", "--scope", "s2"), 0),
        (("cohomology", "300", "--format", "json"), 0),
        (("cohomology", "300", "--format", "json", "--out", "{tmp}/t.json"), 0),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else f"exit {v}",
)
def test_the_process_entry_ends_as_main_returns(monkeypatch, capsys, tmp_path, argv, code, unbuffered):
    """A spawned CLI ends through cli.run's os._exit, after its last flush:
    it writes what cli.main writes in-process, to stdout, stderr and
    --out, and exits with main's code, or argparse's, so a flush missed
    before the exit shows as a short table."""
    from etale_quadrics import cli

    argv = [arg.format(tmp=tmp_path) for arg in argv]
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = cli.main(argv)
    except SystemExit as exc:  # --version, --help, usage errors
        got = exc.code
    out, err = capsys.readouterr()
    want = (code, hashlib.sha256(out.encode()).hexdigest(), err, written(tmp_path))
    res = subprocess.run(
        [sys.executable, "-m", "etale_quadrics", *argv], capture_output=True, env=spawn_env(unbuffered), timeout=300,
    )
    assert got == code
    assert (res.returncode, hashlib.sha256(res.stdout).hexdigest(), res.stderr.decode(), written(tmp_path)) == want


# A process entry whose main has a bug: run() lets the exception through
CRASHING_ENTRY = """
from etale_quadrics import cli


def main(argv=None):
    raise RuntimeError("a bug")


cli.main = main
cli.run()
"""


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_the_process_entry_swallows_no_bug(unbuffered):
    res = subprocess.run(
        [sys.executable, "-c", CRASHING_ENTRY], capture_output=True, text=True, env=spawn_env(unbuffered), timeout=300,
    )
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("Traceback (most recent call last):\n")
    assert res.stderr.endswith("RuntimeError: a bug\n")


def pipe_size_calls():
    """fcntl, where it can read a pipe's size; the test is skipped elsewhere."""
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_GETPIPE_SZ"):
        pytest.skip("fcntl cannot read a pipe's size here")
    return fcntl


def test_a_stdout_pipe_is_grown():
    """A table written into a pipe grows it to PIPE_BYTES, or to the most
    the host lets a process ask for."""
    from etale_quadrics import cli

    fcntl = pipe_size_calls()
    with open("/proc/sys/fs/pipe-max-size") as fh:
        max_size = int(fh.read())
    with subprocess.Popen([sys.executable, "-m", "etale_quadrics", "cohomology", "7"], stdout=subprocess.PIPE) as proc:
        assert proc.stdout.read().startswith(b"# Q^7  coefficients=2adic\n")
        size = fcntl.fcntl(proc.stdout.fileno(), fcntl.F_GETPIPE_SZ)
        assert proc.wait(timeout=300) == 0
    assert size >= min(cli.PIPE_BYTES, max_size)


def test_a_stdout_pipe_is_never_shrunk(monkeypatch):
    from etale_quadrics import cli

    fcntl = pipe_size_calls()
    r, w = os.pipe()
    try:
        assert fcntl.fcntl(w, fcntl.F_GETPIPE_SZ) == 65536
        monkeypatch.setattr(cli, "PIPE_BYTES", 4096)
        with open(w, "w", closefd=False) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert cli.main(["decompose", "7"]) == 0
        assert fcntl.fcntl(r, fcntl.F_GETPIPE_SZ) == 65536
        assert os.read(r, 1 << 16) == b"Q^7: M3 + M2*T1 + M2*T2 + M2*T3\nexpansion: [3, 2] residual: 1\n"
    finally:
        os.close(r)
        os.close(w)


def test_table_memory_is_flat_in_d(tmp_path):
    """Rows are written as they are computed: Q^1022 is the 512 terms
    M_9 tensor T^j, so its mod2 JSON table (523,776 rows) holds the
    same Rost table as that of M_9 alone (1,023 rows), and its traced peak
    exceeds the Rost motive's only by one write, one degree's rows and the
    512 cells: within 1.5 times, where a table held whole grows it like
    d^2 and a write of 4096 JSON rows (780 KB) about fourfold.  An untraced
    run first loads and warms every code path, so neither traced run pays
    for that."""
    import tracemalloc

    from etale_quadrics import cli

    def argv(*target):
        return ["cohomology", *target, "--coeff", "mod2", "--format", "json", "--out", str(tmp_path / "t.json")]

    assert cli.main(argv("--rost", "9")) == 0
    peaks = {}
    for target in (("1022",), ("--rost", "9")):
        tracemalloc.start()
        try:
            assert cli.main(argv(*target)) == 0
            peaks[" ".join(target)] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["1022"] <= 1.5 * peaks["--rost 9"], peaks


@pytest.mark.parametrize(
    "target, fmt",  # each table takes more than two writes (the M_10 CSV fits in one)
    [(["300"], "text"), (["300"], "json"), (["300"], "csv"), (["--rost", "10"], "text"), (["--rost", "10"], "json")],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_table_writes_are_pipe_sized(monkeypatch, target, fmt):
    """Each write of a table holds at least CHUNK_BYTES of text, the last
    one excepted, and less than CHUNK_BYTES plus the text of the table's
    largest degree, so no write is much larger than a pipe holds."""
    import re

    from etale_quadrics import cli

    class Recorder:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)
            return len(text)

        def flush(self):
            pass

    stdout = Recorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(["cohomology", *target, "--coeff", "mod2", "--format", fmt]) == 0
    text = "".join(stdout.writes)
    # where a row of degree c starts (group 1: c)
    row_start = {"text": r"(?m)^ *(\d+)  ", "csv": r"(?m)^(\d+),", "json": r'\n    \{\n      "degree": (\d+),'}
    rows = list(re.finditer(row_start[fmt], text))
    starts = {}  # offset of the first row of each degree
    for m in rows:
        starts.setdefault(int(m.group(1)), m.start())
    offsets = sorted(starts.values()) + [len(text)]
    largest = max(b - a for a, b in zip(offsets, offsets[1:]))
    sizes = [len(w) for w in stdout.writes]
    assert len(sizes) > 2, sizes
    assert all(cli.CHUNK_BYTES <= n < cli.CHUNK_BYTES + largest for n in sizes[:-1]), (sizes, largest)
    if fmt == "json":
        assert len(json.loads(text)["records"]) == len(rows)


@pytest.mark.parametrize(
    "nmax, empty",
    [("1", {"s3.ladder", "s3.remark", "C6", "C8", "C9"}), ("2", {"C8", "C9"})],
)
def test_verify_names_an_empty_index_range(capsys, nmax, empty):
    """A check whose index range n=lo..hi is empty passes over nothing, and
    its detail says so instead of printing the range as if it were checked."""
    import re

    from etale_quadrics import cli

    assert cli.main(["verify", "--scope", "all", "--nmax", nmax, "--dmax", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()[:-1]
    vacuous = {line.split(":")[0].split()[1] for line in lines if "nothing checked" in line}
    assert vacuous == empty
    for line in lines:
        for lo, hi in re.findall(r"n=(\d+)\.\.(\d+)", line):
            assert int(lo) <= int(hi) or f"the range n={lo}..{hi} is empty" in line, line


@pytest.mark.parametrize("field", ["dmax", "nmax"])
def test_verify_options_refuse_an_empty_sweep(field):
    """A bound below 1 sweeps nothing, so the checks would pass having
    compared nothing: the options refuse it and name the field."""
    from etale_quadrics import verify

    with pytest.raises(ValueError, match=f"VerifyOptions.{field} must be an integer >= 1, got 0"):
        verify.VerifyOptions(**{field: 0})


def test_verify_json_format():
    res = run_cli("verify", "--scope", "s9", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_verify_rejects_unknown_scope():
    assert run_cli("verify", "--scope", "s99").returncode == 2


def test_verify_exit_code_on_mismatch(monkeypatch, capsys):
    from etale_quadrics import cli
    from etale_quadrics.verify import CheckResult

    fabricated = [CheckResult("X0", "s2", False, "fabricated mismatch", {"got": 1})]
    # _cmd_verify imports verify when it runs and reads verify.run_checks
    monkeypatch.setattr("etale_quadrics.verify.run_checks", lambda scope, opts: fabricated)
    assert cli.main(["verify", "--scope", "s2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL X0" in out and '"got": 1' in out


def test_verify_sweeps_the_levels_a_limit_reads_and_the_printed_top(monkeypatch):
    """The per-level checks sweep levels 1..MIN_DEPTH and the largest level
    the CLI prints: a free part that is Z/2^s only up to s = 64 fails C3
    and s7.coeff, at s = MAX_LEVEL alone."""
    from etale_quadrics import quadrics, tower, verify

    assert verify.LEVELS == (*range(1, tower.MIN_DEPTH + 1), quadrics.MAX_LEVEL)
    free = tower._KINDS["free"]
    monkeypatch.setitem(tower._KINDS, "free", free._replace(order=lambda s: 2 ** (s if s <= 64 else s - 1)))
    results = {r.check_id: r for r in verify.run_checks("all")}
    for check_id in ("C3", "s7.coeff"):
        assert not results[check_id].passed, check_id
        assert {f["s"] for f in results[check_id].diff} == {quadrics.MAX_LEVEL}, check_id


def test_a_failed_check_gives_each_group_by_orders_and_labels(monkeypatch):
    """Every group in a failure diff is given by its orders and labels, as
    JSON: s3.ladder's torsion and free classes and C4's three limits."""
    from etale_quadrics import tower, verify
    from etale_quadrics.abelian import CyclicSummand, FinAb2Group

    wrong = FinAb2Group((CyclicSummand(8, "x"),))
    monkeypatch.setattr(tower, "integral_cohomology", lambda n, p, q: wrong)
    monkeypatch.setattr(tower.CoefficientTower, "limit", lambda self, p, q: wrong)
    opts = verify.VerifyOptions()
    ladder, limits = verify.check_torsion_ladder(opts), verify.check_limits(opts)
    assert not ladder.passed and not limits.passed
    ladder_diff = json.loads(json.dumps(ladder.diff))
    # transition_maps reads integral_cohomology too, so C4's ghost maps fail first
    limits_diff = [f for f in json.loads(json.dumps(limits.diff)) if "r_on_ghost" not in f]
    assert [f["limit"] for f in limits_diff] == [[2, 3], [4, 4], [6, 7]]
    assert sum("bidegrees" in f for f in ladder_diff) == 3  # the free classes of n = 2, 3, 4
    for f in ladder_diff + limits_diff:
        if "bidegrees" in f:
            assert (f["orders"], f["labels"]) == ([[8], [8]], [["x"], ["x"]])
        else:
            assert (f["orders"], f["labels"]) == ([8], ["x"])


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_verify_reports_a_mismatch_at_the_top_level(monkeypatch, capsys, fmt):
    """mod-2^s tables read at level s + 1 fail s7.coeff up to s = MAX_LEVEL,
    where the order 2^(s+1) has more digits than str() converts: the whole
    report still prints, with exit 1, and no input error."""
    from etale_quadrics import cli, quadrics

    parse = quadrics.parse_coefficients

    def one_level_up(spec):
        kind, s = parse(spec)
        return kind, s if s is None else s + 1

    monkeypatch.setattr(quadrics, "parse_coefficients", one_level_up)
    assert cli.main(["verify", "--scope", "s7", "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert err == "" and f'"2^{quadrics.MAX_LEVEL + 1}"' in out
    if fmt == "json":
        payload = json.loads(out)
        assert [c["check"] for c in payload["checks"] if not c["passed"]] == ["s7.coeff"]
    else:
        assert [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")] == ["s7.coeff:"]
        assert out.endswith("MISMATCH (5/6 checks)\n")


def test_verify_parser_states_the_verify_scopes_and_defaults():
    """The parser writes out verify.SCOPES and the VerifyOptions defaults
    so that a table never imports verify; they must not drift apart."""
    from etale_quadrics import cli, verify

    assert cli.SCOPES == verify.SCOPES
    args = cli.build_parser().parse_args(["verify"])
    assert args.scope == "all"
    assert verify.VerifyOptions(dmax=args.dmax, nmax=args.nmax) == verify.VerifyOptions()


# Runs cli.main on argv[2:] in a fresh interpreter, writes to the file
# argv[1] the modules it loaded that the interpreter had not loaded before,
# so whatever the host's site setup imports at start-up is not counted, and
# exits with main's code.
LOADED_BY_MAIN = """
import sys
before = set(sys.modules)
from etale_quadrics.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exc:  # --version
    code = exc.code
with open(sys.argv[1], "w") as fh:
    fh.write("\\n".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""

OFF_THE_TABLE_PATH = {
    "etale_quadrics.verify",
    "etale_quadrics.presentations",
    "etale_quadrics.tower",
    "etale_quadrics.abelian",
    "dataclasses",
}

# what every table subcommand loads and --version needs none of
TABLE_STACK = {f"etale_quadrics.{m}" for m in ("quadrics", "graded", "rost", "mod2", "errors")}


@pytest.mark.parametrize(
    "argv, loaded, not_loaded, code",
    [
        *(
            pytest.param(argv, set(), OFF_THE_TABLE_PATH, 0, id=" ".join(argv))
            for argv in (
                ("--version",),
                ("decompose", "7"),
                ("nonalgebraic", "7"),
                ("cohomology", "7"),
                ("cohomology", "7", "--coeff", "mod2"),
                ("cohomology", "7", "--coeff", "mod2s:3"),
                ("cohomology", "--rost", "3", "--coeff", "mod2s:3"),
            )
        ),
        pytest.param(("verify", "--scope", "s2"), {"etale_quadrics.verify"}, set(), 0, id="verify --scope s2"),
        # a bound is checked before verify's stack is loaded
        pytest.param(("verify", "--nmax", "11"), set(), OFF_THE_TABLE_PATH, 2, id="verify --nmax 11"),
        pytest.param(("--version",), set(), TABLE_STACK | {"json", "csv"}, 0, id="--version loads no table stack"),
        pytest.param(("--version",), set(), {"fcntl"}, 0, id="--version loads no fcntl"),
        pytest.param(("cohomology", "7"), TABLE_STACK, {"json", "csv"}, 0, id="cohomology 7 loads neither json nor csv"),
        pytest.param(("cohomology", "7", "--format", "csv"), set(), {"csv"}, 0, id="cohomology 7 --format csv"),
        # only verify loads json: every other JSON is written as text
        *(
            pytest.param((*argv, "--format", "json"), set(), {"json"}, 0, id=" ".join(argv) + " --format json")
            for argv in (
                ("decompose", "7"),
                ("nonalgebraic", "7"),
                ("cohomology", "7"),
                ("cohomology", "--rost", "3", "--coeff", "mod2s:3"),
            )
        ),
        pytest.param(
            ("verify", "--scope", "s2", "--format", "json"), {"json"}, set(), 0, id="verify --scope s2 --format json"
        ),
    ],
)
def test_subcommands_load_only_the_modules_they_run(tmp_path, argv, loaded, not_loaded, code):
    report = tmp_path / "modules.txt"
    res = subprocess.run(
        [sys.executable, "-c", LOADED_BY_MAIN, str(report), *argv],
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == code, res.stderr
    modules = set(report.read_text().split())
    assert "etale_quadrics.cli" in modules
    assert loaded <= modules
    assert not (not_loaded & modules)
