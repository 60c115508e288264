"""Golden outputs: annotating the ``conftest.golden_songs`` corpus gives fixed bytes.

Every file ``otpiano annotate`` writes (goals, annotation, rewards CSV, PIG
and episode containers) is compared by SHA-256 against digests recorded
before the dense goal/press representation replaced the per-step sets, for
ten-finger strict and four-finger best-effort runs.  The read side is pinned
the same way: ``eval --episodes`` and ``stats`` over each run's outputs, and
``eval --pig-ours/--pig-human`` between the two runs, file bytes and
standard output alike, recorded before the container reader and the goal
text parser were rewritten for speed.  A change that moves an output must
say why and re-record these digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from conftest import golden_songs
from otpiano.cli import main

RUNS = {
    "ten-strict": ["--pig-out"],
    "four-best-effort": ["--embodiment", "four-finger", "--best-effort", "--pig-out"],
}

GOLDEN = {
    "ten-strict": {
        "chords.annotation.txt": "383e1a9863082d3dd818369afb2bcf541574d214be9fcc36e4dee07b0f2d1fcc",
        "chords.ep000.rp1t": "18c9a537ca389a2ca7b86e8ff92f9dead0a67034a775189273a35ca13273b201",
        "chords.ep001.rp1t": "b584e3f868dbd378575f0db0cc439538e592690b5bd5ca249922ed3b57b97bf6",
        "chords.ep002.rp1t": "62b3d96d279d6ddb20714dc50b21a9d16ca5a5ce5574a38fc788a92c38a15fdb",
        "chords.ep003.rp1t": "de2c2b34fe45cba84e0700aae5188a26b0cbc4e58f15cb34178325afb8385caa",
        "chords.ep004.rp1t": "cfe8d0fbd2f609eab50e58c0fac95a6dedc228877dc4f1e6835e77806b5ab8fa",
        "chords.goals.txt": "767af72909e5fd567098230cdff28764331899a8b45e8546c3158ffb9e317d17",
        "chords.pig.txt": "f916a8a13076a371695f1cc616b2714faec6b8d22f7e410089906fcb56bfc47c",
        "chords.rewards.csv": "11dc176f72d9a6dbd49ddfeff95bf8fa6550a2e255c6d24bfb4901d8dffa4f87",
        "legato.annotation.txt": "df567f6a8d1afbc8283b0e4090a7fa9690d8e87693f21c01f0d44cea74fde221",
        "legato.ep000.rp1t": "db8fa24323f257050cb4a97f63d4b8ae8ba85d5fd6ce439237b3ea84d6dad0d9",
        "legato.ep001.rp1t": "9d822e43ea3fa9befc46e6667b3bc0a6530cdb79950482e9f8e8755e492988d0",
        "legato.ep002.rp1t": "76e0d440b3b4c31120090e21f60d3e3c99b3c6a50f875d1b7f0d7a5f0009be3c",
        "legato.ep003.rp1t": "0af2c95340420fffc750f9c7a1d157359dfd7cd110e9c4c05f4ad2ff385dae8a",
        "legato.ep004.rp1t": "57b7ffbda9ebe0754e94adf65d4329c8b2baab52d28283b0d30838396bfe8a0f",
        "legato.ep005.rp1t": "aea1b0c2d6a14070adc4cda81c84492ebdc8918f9e81c1b757b21601124aec8d",
        "legato.goals.txt": "8abc20dc9036c890ba1a60f1010b4aea4dde3d03a917903e10c3d63c675ae18f",
        "legato.pig.txt": "8475cbeb4fcf1724dfecd58ebd9b3b79c3bfaffd3f6965b52a0db8963437a44d",
        "legato.rewards.csv": "7d92155ffadac36f4bd836e6460c67431d2d846316d71be09129c42072083abf",
        "melody.annotation.txt": "b81641daa13169ad8b33b0e6e7984cea60f96f1be985c10439ec1a6545d5872b",
        "melody.ep000.rp1t": "14f05e4e7c6eb68182ded12dccb15192ffd28a8709f07664013673397aea80ee",
        "melody.ep001.rp1t": "67734f5cc63f037e44c439a7796fb9bd16a43ebf77138d91f3a9ca71c7c9ace0",
        "melody.ep002.rp1t": "0d7a8fbcb7c736163111a1391d46744aa901df6baccaf44129793b6c57f92e8d",
        "melody.ep003.rp1t": "fb28d3ac2c8ddf3854deb7204c08a736965fffeb6a8cb5a41d9ae6c94bab8498",
        "melody.ep004.rp1t": "423464a0e4514f50eb92b5d9fe620f707dfdf65007b9c5fa0b9ae481082be3f3",
        "melody.goals.txt": "f55529fa84e1910ccb7610a4bf745121d336ef5eeffc8e4ed2c73c0c3c189faa",
        "melody.pig.txt": "9cbcddcbf3bba39d3d516917eafa1eca0db9682492318864b0c70576b290d1ea",
        "melody.rewards.csv": "69fd03eefd3ed1edb65c860e13a397408e37c607c96ddef57337a93dae339cfb",
    },
    "four-best-effort": {
        "chords.annotation.txt": "bed503ae9b21e64e2e5ad3e8242543fc4046ba9d034e269e292640399c381496",
        "chords.ep000.rp1t": "443954ba5949ef9cd3c6c9f68d28726ca7da6e9671615d58f3fe7c8d678c7309",
        "chords.ep001.rp1t": "2b03bec53135c8b0caa234c6ec548e12ca20a56a60fb4d79b86df6dd7b412ac4",
        "chords.ep002.rp1t": "858d2fede582a9c685e24c563929b3ef12cd91496b84725740c071c6e811bd69",
        "chords.ep003.rp1t": "cb104436aba6ba3fe5496470b09eadd149e91f26090b863fd97ce334ed0fe21c",
        "chords.ep004.rp1t": "0812d9c9e0c8abb1269db06d2cd08b3eb75737fa49d6a1c9129d123b6d20ad75",
        "chords.goals.txt": "476dad0620a271fb26a64c6532470d42aa969c04e04a56da7dce716ceb41f160",
        "chords.pig.txt": "a21e97862dd82390190966d5ea1c06dc510ac788dc6e8ccc28cac35c99cddd84",
        "chords.rewards.csv": "a99ced5c963399b2ba99a98219b6681fd430e23773c85e684ce8a1fc8b0ea4b0",
        "legato.annotation.txt": "b3b0f7284351e8279fd61d41496ca82ee036442521eaba15fb3a8ab712df6500",
        "legato.ep000.rp1t": "5ab9fd3ece45f9a794e2ef984d539eae0278bd8693fd25469c632fb6c20914f4",
        "legato.ep001.rp1t": "ebc6b6e9bd24dc492665f067816460c7e5aab462b1af43b8dcf43505e081c1bb",
        "legato.ep002.rp1t": "985c87f705d80ca17cfc7319a1b8112d03c3cbc05030655e32f70ccb83e011eb",
        "legato.ep003.rp1t": "6e39355128616f966acc167f1d68053520111f0d6da1ccdc999e2f5e41c66d85",
        "legato.ep004.rp1t": "d56061d787c6c434ab963cbf80bb503c7b9b3908c958bf7f5cc5531badb0032e",
        "legato.ep005.rp1t": "6ab870132717c81ac78d31a660b05cbfd351a161af06ed282330980df3df564f",
        "legato.goals.txt": "3200dc19e4c6fb4e6d35794a3687c2284bf011ed80a33be77a7e6457f7c39db2",
        "legato.pig.txt": "66182b672740ec675568578e387352dccb7ba966e643e6f26b772f8edc4a216d",
        "legato.rewards.csv": "0065fc81fa9f0b9592eaf2fd87de66ab74f2db07c722b77847c0085ec1cd2783",
        "melody.annotation.txt": "824488271a87a930cecbb1cd982eb5685f0fe469db0b77dbf7866662cdc63f8d",
        "melody.ep000.rp1t": "236e399112e59c3953555533edff392cfcf462a3b1b58e5940374e2f16a6a1cf",
        "melody.ep001.rp1t": "d4b9b6d0a3e4bae0d1fefccf597c855c6f96045687e5dbce3a578185e75e822d",
        "melody.ep002.rp1t": "309aa9c6c79e1dcb01973f1923698a15096f1fce721aa608e0f9ed1ab9e49561",
        "melody.ep003.rp1t": "138fbcd5605a0363c63923f0433810ee7d1a5a680743f9180e955106face830b",
        "melody.ep004.rp1t": "c33a2ea12b125c1451fec81ff259f722089921bcd236998a185b0719454ee59a",
        "melody.goals.txt": "f62e1848b89f4467cc4767c38f02a01e828b61052ca45163954769ac8a0d721a",
        "melody.pig.txt": "396c9df9d363b7a39e0d80dbd623df7cd6c0316cc84fb57b5e784a441677f6a0",
        "melody.rewards.csv": "e1d28a2f9e534f6641845d649f651c0051293a6ddb574285965de7ac6aaf4a03",
    },
}


READ_GOLDEN = {
    "agree-chords.stdout": "c1fbe70e66123e5be4ef00e3d9a9abecd03d262a6cfbe06dd610481154580a61",
    "agree-legato.stdout": "bcd4257233f74f7ddec75522864dd82de7af640f6ff8d2ec1e99635ede836221",
    "agree-melody.stdout": "d3462d948cf825b9c36c5199594811da7d2046cb89615ac0b08c248b284eea05",
    "eval-four-best-effort.csv": "08203db25e666755dc66edb6d6442cac8577f220a07270757b206640a88a0485",
    "eval-four-best-effort.stdout": "e7d2aa59bdebccee66da46103a6facb31d437650dcdffb6073ee08233c7a30b3",
    "eval-ten-strict.csv": "becdccb1d59489f064eb7b941e956113804590b4f02b46d97b68c98e025803d4",
    "eval-ten-strict.stdout": "1f5c57c4e2fb763b76af1002b6490a3bc507271f26f4ce919c276a9d2bb464c6",
    "rewards-four-best-effort.csv": "1cc14ac2bc6e6b122bd6b6daf13301733ce6a7e3d20a8cd230e5b0bfc4d6cf4b",
    "rewards-ten-strict.csv": "a055f9c965c4f054dc5215fcbacecbcc9f13772d2dab0f4a48d33354148670a6",
    "stats-four-best-effort.csv": "ebbacb09c72c9886b0f6f069a9664d2fac72a3d182d7b279b9cd728f751c6d45",
    "stats-four-best-effort.stdout": "23153332721c6e8533fd3a0a15224dcff3d4c272be95f1baa04aa22dfa151930",
    "stats-ten-strict.csv": "ebbacb09c72c9886b0f6f069a9664d2fac72a3d182d7b279b9cd728f751c6d45",
    "stats-ten-strict.stdout": "23153332721c6e8533fd3a0a15224dcff3d4c272be95f1baa04aa22dfa151930",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv) -> str:
    """Standard output of one successful CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([str(arg) for arg in argv]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def annotated(tmp_path_factory):
    """Run name -> output directory of ``annotate`` on the golden songs."""
    base = tmp_path_factory.mktemp("golden")
    midi = base / "midi"
    midi.mkdir()
    for name, data in golden_songs().items():
        (midi / f"{name}.mid").write_bytes(data)
    dirs = {}
    for run, flags in RUNS.items():
        dirs[run] = base / run
        _run(["annotate", "--midi", midi, "--out", dirs[run], "--episode-len", "64", *flags])
    return dirs


@pytest.mark.parametrize("run", sorted(RUNS))
def test_annotate_outputs_match_golden_digests(run, annotated):
    digests = {path.name: _sha256(path.read_bytes()) for path in sorted(annotated[run].iterdir())}
    assert digests == GOLDEN[run]


def test_read_outputs_match_golden_digests(annotated, tmp_path):
    digests = {}
    for run, directory in annotated.items():
        csv, rewards, hist = (tmp_path / f"{kind}-{run}.csv" for kind in ("eval", "rewards", "stats"))
        stdout = _run(["eval", "--episodes", directory, "--csv", csv, "--rewards-csv", rewards])
        digests[f"eval-{run}.stdout"] = _sha256(stdout.encode())
        stdout = _run(["stats", "--in", directory, "--f1-meta", "--csv", hist])
        digests[f"stats-{run}.stdout"] = _sha256(stdout.encode())
        for path in (csv, rewards, hist):
            digests[path.name] = _sha256(path.read_bytes())
    for song in sorted(golden_songs()):
        pigs = [annotated[run] / f"{song}.pig.txt" for run in ("ten-strict", "four-best-effort")]
        stdout = _run(["eval", "--pig-ours", pigs[0], "--pig-human", pigs[1]])
        digests[f"agree-{song}.stdout"] = _sha256(stdout.encode())
    assert digests == READ_GOLDEN
