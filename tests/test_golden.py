"""Byte-identity gate: `wtminer analyze` output on fixed logs never drifts.

Each log below is generated deterministically and analyzed in-process
through the CLI. The sha256 of `transitions.csv` and `report.json` must
match the recorded digests, so a refactor or speed-up that changes any
output byte fails here. Two of the logs are also analyzed by every other
CPython 3.10 or later found on the machine, so the bytes cannot drift
between supported versions unseen. The calendar paths are pinned the same
way on the loopy log: `analyze --calendar-overrides ... --emit-calendars`,
and the `wtminer calendars` dump. Regenerate a digest only for a deliberate change
of the output, and say so where the change is recorded.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from wtminer.cli import main
from wtminer.ingest import format_timestamp

GRID_CASES = 60
GRID_SEED = 3
ALL_CAUSES = "batching,contention,prioritization,unavailability,extraneous"

# log name -> (sha256 of transitions.csv, sha256 of report.json)
GOLDEN: dict[str, tuple[str, str]] = {
    "grid_00000": (
        "7499bd03ff566b9f9522f3e18d46890f22870afdd62551035acd4a80e8d337b2",
        "dec7fcbaf3b1365ee743a53bd01a9b7e97504702aff74a6e8f926c836c3fa41a",
    ),
    "grid_00001": (
        "c574fbd4a47a49d514114e950718f6d5de3d8a898d644a7e865fbd71233fccea",
        "0183f7218fe08608c0a696c842e573ae4dcb66f260dbe2314e810f0443c6e06d",
    ),
    "grid_00010": (
        "3e47af3f43b439944d4fb91be0af2a32af344986b0b87a4005c8852a3eac0db9",
        "15e3cc35741492b57ade40eaf714376dd537d4fdd45403f5c240b99c00e696e5",
    ),
    "grid_00011": (
        "4fceb0f9872e9a90d72243d7be61df41ea8a11822c6d44c064d01e87a223e399",
        "87a6ddb0a782a39ca9018962ad1eca1cc3c2abf5c6e30e42f0df97df29baf598",
    ),
    "grid_00100": (
        "dcc4997fd38720028e04db9c6f0da196665a53119a800be81ab45aa1699e02ac",
        "e69707d66a34f73f6e725a70e3e55cddbf361d78cc38277e2aa373886bd13c66",
    ),
    "grid_00101": (
        "6cd82e8bf6254fd6e0d87518c7113b3ea8fc0a61803d36e941155c9e461c41b9",
        "7bf8bda4232a56ab0c39b95af14ca99b5c7c6bc9de79d0bb9ba416b96c296dd4",
    ),
    "grid_00110": (
        "3b92221995f5fb0aeadfc32bb86c5357c0e9eaf4c475e694fa913ecbf39d02cd",
        "0d251bcc37bcd37650dc9932d4c4c742861fba43da0a0b03743dca0572dd4b87",
    ),
    "grid_00111": (
        "2fa9cd3a66db29088d667525dfc7510fa7c54f657a53d53638ab4776c41abbd5",
        "a6fa2268fb2e5b0c5a7c8ff8b57cd187657b4997a9c6cbcef9112eccc3c70060",
    ),
    "grid_01000": (
        "863e679c7c9a5635b18e2298b614df0331befd188927ebf3df9f5e2f9afa4181",
        "fe8d327b4bff24e612479d62ed48f23687ff30028cd8f6abd278f47ed3fd5512",
    ),
    "grid_01001": (
        "3fccad895ac68e4c42bbf53ce60c9b8e08c51dcf157e26bd5f862a5dc6f0b26f",
        "936e74c6205ff4adc704288d129d6dd3c670d4797f413aba5b7a76d202872ce7",
    ),
    "grid_01010": (
        "33a6fe34e4fc9796921bdd18b86995719ac5bb7c579a87d946639c0bd3b7b1b6",
        "3a3e6cbb47d4413bb349c84d535cbefb8c2ad5db02b17b639f2ac63518e5a1a7",
    ),
    "grid_01011": (
        "b340b01f7a62fa44da6c9a359857bbe54038e1c4b7b0286304c11afb929301a2",
        "3572cc54fe3845a5bd19bb069ff2a6c9131487bb48a3797f29d19d899f98b852",
    ),
    "grid_01100": (
        "6154dd326f63b14c7ea9f2d41e64f139770e81d842ed18e7391f81f6449c0931",
        "37aae9f0d2a24085217347c9618f6e1894526bc429529aeca7b594c67bc99705",
    ),
    "grid_01101": (
        "15381f68fb27a5a24c312965ad49ab29f831928ae18d12162855b42a9a8ff8bd",
        "d48f2e48cd1c9c26a97a4247645bc3a6a01e692eeac2b28089a978b984bb3904",
    ),
    "grid_01110": (
        "cbed6dd6dfae214ec34e8f97104372bbffedfa6b7c57c219eab5b27d8468ee40",
        "fc007682f3547f5482e9f211ae7a00b53fbb8b88045dc7d34aa227c84c3825a1",
    ),
    "grid_01111": (
        "07a74676e0b4ee832f41ec382ea541f4434f693977b93a68a6cfd34172dfaf47",
        "e4113cb319703330cbf96b861a6c01d18fcec73cef70563d248df8b182ba66c3",
    ),
    "grid_10000": (
        "fab136d4d067665b9e8617b1c18af8d8b078c0b9660ff67bca66054f068d353b",
        "2e4120675ce0c6d39d4d84a74ce9c714bc8ba189ef6257f75b73764468bbcaca",
    ),
    "grid_10001": (
        "3fb519f0af9daed0b967754ddbef489bfd02aa146e1ed5dcec12dcfd9921ab33",
        "d895ca8734be3270586428ba08ad29d8c0c09464f3e9e53dac7d53ea51c9be7e",
    ),
    "grid_10010": (
        "5c0490ead53e5420e8461f6cbbc5152ec6ff8db95dd279d33ea275dd7ea61fc5",
        "0f76d585a8b9905e2acfc87f91728ef18986b06cdb2390ed565bc30b34eb2363",
    ),
    "grid_10011": (
        "edc6d402f186ebb6cc88b1742a44bed1f16f1ccefb3a927acafa9fd99ee538f8",
        "bf666679c366ae54a6a3ebec2f1ab8d4f40614979f8d8ad80f3a62352b2897b2",
    ),
    "grid_10100": (
        "14ee86bc4c311afbc5ad6822524deacfb7c4db8ccca6e8d68602b3d9b3a73be7",
        "99bc7fc8d29a87f37f0bc85b5a230b72a4d3366b9365f01cf0d5b124f8798ec9",
    ),
    "grid_10101": (
        "ffa74a621afc5d550790e9b851c55147da83012bf95d0295fef77dd65b610ace",
        "96cd1563576df29a07fda71e350fcb084776bea1e6cb315125f30a883650d74f",
    ),
    "grid_10110": (
        "be16686cdfc8c9432a3362f0189c3c74778a23c4efe0b41ae2ba9c233457762d",
        "7b7748c0735d5a51a2cd8aea9bc323f2341926609c812d1226a382645fb33e49",
    ),
    "grid_10111": (
        "3571a7c807ebd3631ef3cb34200130b9d8e2e0e7ab7a09e6fde50af748b82c7c",
        "ee0894c15fb3ec35358f99c0ed8eb269b643ae478f2f7a19b6c9740deb5771fa",
    ),
    "grid_11000": (
        "2f33a480ee461d379f96baa0f57ea55cef8dd105b179cdb9dd6a0df99f10fd34",
        "73ca65631af7179b45aeacfe05031dbcdb83bbc0abb83eed74ce3ead82bbc3bb",
    ),
    "grid_11001": (
        "051cea82a02c957afb2893f03700e8655fbb7871b4fcc529b7b8d5de13c89b3b",
        "c925e5aa45c4ded8f1509255a1ba3f5de826b31d5068e83ff966d96ac5bd1360",
    ),
    "grid_11010": (
        "252f99f06ea1304fb47c823213fd672514c98362ce7c37bca524b7ac14b579e0",
        "9be58eaff734e8503f8ef58a790bfa4aa3657b3beb4d9de99ccd64a369a9123f",
    ),
    "grid_11011": (
        "c282babbbca0c65180534aef99d03ff8264a84bbed5f0359c10cade80396dfc1",
        "1959e60dfcf238c306bdcc14ad3d5f9cdd315a6f6711036db9c0d28ca7dffd70",
    ),
    "grid_11100": (
        "c849a263574508a129ee828a046c4e964f0608b48da6a4309d2933ef1d239178",
        "f249b7dc386bb04ce09f348a08886670a82cd0fefe953a15bb0abb438c047138",
    ),
    "grid_11101": (
        "b203d18509e56212272bd2247a060e427ba9d8ea803162b25ae6f3a0896bab77",
        "f8bb5f6cd906008c2bf91a5ab2465a003dbbfff8683f97fb359d2b4f5bb08a07",
    ),
    "grid_11110": (
        "56a897dc21cf7b25c456e3240f382de9197d42c92ba81f3d09668e883fca7d5a",
        "3a8a4c05f14d46d0ef930801ba385e2a2f058366722dd99523353c7acfb9060a",
    ),
    "grid_11111": (
        "ea0bf9c6846f8d7211eaa395abb5a0061019a2c72210891c120079d61bbbc252",
        "69f26777bd20fc943b90769572b7e1198a72dc72cce3ecc1a4c1a40f87f45a13",
    ),
    "all_causes": (
        "cf5e78992e7768b31658881cf0e9cd208d4c8fb46bc4df26abcc0f2be7d419fd",
        "e047d20e2eda17f3cb949f02194a1541c3173bb4941f30aa9eed3768bac0ee3a",
    ),
    "all_causes_noisy": (
        "75fc8881ec0738c84afec4d356af0dee0059a64f5d27c2c650747170d9884e25",
        "b27e1873bf0c2dac8aa5b9febb806e814095a66ddd5307b3064a54c341f468e6",
    ),
    "loopy": (
        "5627d99bd03c6d89a2884995615942ccd820362eaa8ef226e2d36bdb48a2ac69",
        "5328a4ce8e3083e810a602928a6b4ea852ea5266c2deb3e834ec94f24e6c2e7c",
    ),
    # The benchmark's `wide` log, seed 1: 8000 instances, 699 transitions
    # with self-loops, so every part of a transition entry is rendered
    # hundreds of times.
    "wide": (
        "faf94eb746ff5442d4c6038b6be5d81f6e0ec440fcc8dd10c7bf58feedfdc346",
        "d6942736db320ed438300580644ec562819289112470dcfb27b965ddb52aefe4",
    ),
}


def _write_loopy_log(path: Path, seed: int = 11, n_cases: int = 40) -> None:
    """Cases with a parallel pair, self-loops, rework and shifted resources.

    Covers what the synthetic grid does not: discovered concurrency,
    repeated activities within a case, completion ties and resources with
    different working hours, spread over several weeks.
    """
    rng = random.Random(seed)
    monday = 1672617600
    shifts = {f"r{i}": (7 + i % 4, 15 + i % 4) for i in range(8)}
    free = dict.fromkeys(shifts, 0)

    def schedule(resource: str, ready: int, duration: int) -> tuple[int, int]:
        start = max(ready, free[resource]) + rng.choice((0, 0, 60, 900, 3600))
        begin, end = shifts[resource]
        day, second = divmod(start - monday, 86400)
        if day % 7 >= 5 or second >= end * 3600:
            day += 7 - day % 7 if day % 7 >= 4 else 1
            second = begin * 3600
        elif second < begin * 3600:
            second = begin * 3600
        start = monday + day * 86400 + second
        free[resource] = start + duration
        return start, start + duration

    rows = ["case_id,activity,resource,start_time,end_time"]
    for case in range(n_cases):
        arrival = monday + rng.randrange(0, 4 * 7 * 86400, 600)
        events = []

        def run(activity: str, ready: int) -> int:
            resource = rng.choice(sorted(shifts))
            duration = rng.choice((0, 300, 1200, 2400, 5400))
            start, end = schedule(resource, ready, duration)
            events.append((start, end, activity, resource))
            return end

        done = run("intake", arrival)
        done = max(run("check_x", done), run("check_y", done))
        for _ in range(rng.randint(1, 6)):
            done = run("review", done)
            if rng.random() < 0.3:
                done = run("rework", done)
        run("close", done)
        for start, end, activity, resource in events:
            rows.append(
                f"c{case},{activity},{resource},"
                f"{format_timestamp(start)},{format_timestamp(end)}"
            )
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def load_wide_module():
    """`perfbench/wide.py`, the generator of the benchmark's `wide` log."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "wide.py"
    spec = importlib.util.spec_from_file_location("perfbench_wide", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _logs(root: Path) -> dict[str, Path]:
    grid = root / "grid"
    assert main(
        ["generate", "--grid", "--cases", str(GRID_CASES), "--seed", str(GRID_SEED),
         "--out", str(grid)]
    ) == 0
    logs = {path.stem: path for path in sorted(grid.glob("grid_*.csv"))}
    for name, extra in (("all_causes", []), ("all_causes_noisy", ["--noisy"])):
        path = root / f"{name}.csv"
        assert main(
            ["generate", "--causes", ALL_CAUSES, "--cases", "300", "--seed", "7",
             "-o", str(path)] + extra
        ) == 0
        logs[name] = path
    logs["loopy"] = root / "loopy.csv"
    _write_loopy_log(logs["loopy"])
    logs["wide"] = root / "wide.csv"
    logs["wide"].write_text(
        load_wide_module().generate(1).csv_text, encoding="utf-8", newline=""
    )
    return logs


def _output_digests(dest: Path) -> tuple[str, str]:
    return tuple(
        hashlib.sha256((dest / file).read_bytes()).hexdigest()
        for file in ("transitions.csv", "report.json")
    )


@pytest.fixture(scope="module")
def golden_logs(tmp_path_factory) -> dict[str, Path]:
    return _logs(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def digests(golden_logs, tmp_path_factory) -> dict[str, tuple[str, str]]:
    out_root = tmp_path_factory.mktemp("golden_out")
    out: dict[str, tuple[str, str]] = {}
    for name, log in golden_logs.items():
        dest = out_root / name
        assert main(["analyze", "--log", str(log), "--out", str(dest)]) == 0
        out[name] = _output_digests(dest)
    return out


def test_every_golden_log_is_analyzed(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_recorded_digests(digests, name):
    assert digests[name] == GOLDEN[name]


SRC = Path(__file__).resolve().parents[1] / "src"
# Analyzed by every other interpreter: a generated log with all five causes
# and noise, and the loopy log.
CROSS_VERSION_LOGS = ("all_causes_noisy", "loopy")
# What `import wtminer.cli; build_parser()` must not load: annotations need
# no `typing`, the types are written out, `analyze` reads and writes
# through the C modules, and report files are created with `os.open`. Only
# modules absent at start count, so a site hook that preloads one changes
# nothing. `tempfile` is checked here and not in `test_cli`, because a
# `.pth` hook can preload it in the interpreter that runs the tests.
FOOTPRINT = """
import sys
before = set(sys.modules)
import wtminer.cli
wtminer.cli.build_parser()
heavy = {"typing", "dataclasses", "inspect", "json", "csv", "datetime", "tempfile"}
print(*sorted(heavy & (set(sys.modules) - before)))
"""


def _other_interpreters() -> dict[tuple[int, ...], str]:
    """One CPython 3.10 or later per version other than the running one,
    from `python3.10` ... `python3.13` on PATH and the pyenv versions."""
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 14)]
    candidates += sorted(map(str, Path.home().glob(".pyenv/versions/3.1*/bin/python3")))
    found: dict[tuple[int, ...], str] = {}
    probe = "import platform, sys; print(platform.python_implementation(), *sys.version_info[:3])"
    for exe in filter(None, candidates):
        try:
            proc = subprocess.run(
                [exe, "-c", probe], capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 4 or fields[0] != "CPython":
            continue
        version = tuple(int(field) for field in fields[1:])
        if version >= (3, 10) and version != tuple(sys.version_info[:3]):
            found.setdefault(version, exe)
    return found


def test_other_interpreters_write_the_same_bytes_and_import_no_more(golden_logs, tmp_path):
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no CPython 3.10+ other than the running one found")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    failures = []
    for version, exe in sorted(interpreters.items()):
        label = ".".join(map(str, version))
        proc = subprocess.run(
            [exe, "-c", FOOTPRINT], capture_output=True, text=True, env=env, timeout=60
        )
        if proc.returncode != 0 or proc.stdout.strip():
            failures.append((label, "imports", proc.stdout.strip() or proc.stderr))
        for name in CROSS_VERSION_LOGS:
            dest = tmp_path / label / name
            proc = subprocess.run(
                [exe, "-m", "wtminer.cli", "analyze", "--log", str(golden_logs[name]),
                 "--out", str(dest)],
                capture_output=True, text=True, env=env, timeout=60,
            )
            if proc.returncode != 0:
                failures.append((label, name, proc.stderr))
            elif _output_digests(dest) != GOLDEN[name]:
                failures.append((label, name, "output bytes differ"))
    assert not failures


# Calendar output paths on the loopy log. The overrides cover overlapping
# entries on one day, two touching entries, odd minutes, and a Sunday range
# ending "24:00" that wraps onto Monday 00:00.
LOOPY_OVERRIDES = {
    "r0": [
        {"day": "MON", "from": "09:00", "to": "12:00"},
        {"day": "MON", "from": "11:00", "to": "15:30"},
    ],
    "r1": [
        {"day": "TUE", "from": "08:00", "to": "10:00"},
        {"day": "TUE", "from": "10:00", "to": "12:15"},
        {"day": "THU", "from": "07:07", "to": "19:53"},
    ],
    "r2": [
        {"day": "SUN", "from": "22:00", "to": "24:00"},
        {"day": "MON", "from": "00:00", "to": "01:30"},
        {"day": "WED", "from": "00:00", "to": "24:00"},
    ],
}

# sha256 of (transitions.csv, report.json) for `analyze --calendar-overrides
# LOOPY_OVERRIDES --emit-calendars` on the loopy log.
GOLDEN_OVERRIDES = (
    "d29a7c7a86ee47cb4b523c835ad0f76a377925e900009b7658856d03ccf57188",
    "3426b2c5346b5dc116b574850db2184ed12483f9b4cddb5af23ff3ae21f7d30f",
)
# sha256 of the `wtminer calendars` JSON for the loopy log.
GOLDEN_DISCOVERED_CALENDARS = (
    "552542e241ec25e9669ffe2f64f725455ff8ad8b9035fb418652594d43286aa4"
)


@pytest.fixture(scope="module")
def loopy_log(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("loopy") / "loopy.csv"
    _write_loopy_log(path)
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_overrides_and_emitted_calendars_match_recorded_digests(loopy_log):
    overrides = loopy_log.with_name("overrides.json")
    overrides.write_text(json.dumps(LOOPY_OVERRIDES), encoding="utf-8")
    dest = loopy_log.with_name("out_overrides")
    assert main(
        ["analyze", "--log", str(loopy_log), "--out", str(dest),
         "--calendar-overrides", str(overrides), "--emit-calendars"]
    ) == 0
    report = json.loads((dest / "report.json").read_text(encoding="utf-8"))
    assert report["overridden_resources"] == sorted(LOOPY_OVERRIDES)
    digests = tuple(
        _sha256(dest / file) for file in ("transitions.csv", "report.json")
    )
    assert digests == GOLDEN_OVERRIDES


def test_discovered_calendars_match_recorded_digest(loopy_log):
    dest = loopy_log.with_name("calendars.json")
    assert main(["calendars", "--log", str(loopy_log), "--out", str(dest)]) == 0
    assert _sha256(dest) == GOLDEN_DISCOVERED_CALENDARS
