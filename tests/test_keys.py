"""Result-cache keys: pinned digests, and what the key memo may share.

``cell_key`` and ``timing_key`` name every entry of the result cache, so
the way they are built is a storage format: a change to it refills every
cached cell and cycle count.  The digests below were captured from the
unmemoised keys, over every built-in predictor kind's spec examples and
every preset, on one classic and one ``@if_tree`` trace, under two
machines.  The three source fingerprints a key mixes in are replaced by
fixed strings, so the pins survive source edits (which refill the cache
on purpose) and fail only when the key's construction changes.

The memo behind the keys must also keep reading the fingerprints: a new
fingerprint value changes a key the memo already holds.  Equal configs
may share one memo entry, because equal configs build identical
predictors and time identically.
"""

import collections
import importlib

import pytest

from repro.experiments.common import ExperimentContext, run_experiment
from repro.experiments.configs import PRESETS, preset
from repro.pipeline import LATENCIES, MachineConfig
from repro.predictors import EngineConfig, registration
from repro.runner import keys

BENCHMARKS = ("perl", "gcc@if_tree")
LENGTH = 20_000
SEED = 1997
MACHINES = (MachineConfig(), MachineConfig(window=64))
BUILTIN_KINDS = ("btb2", "cascaded", "ittage", "last_target", "oracle",
                 "tagged", "tagless")

#: (config label, benchmark) -> (cell key, timing key under
#: ``MachineConfig()``, timing key under ``MachineConfig(window=64)``),
#: with the fingerprints of :func:`fixed_fingerprints`.
PINNED_KEYS = {
    ("btb2[0]", "perl"): (
        "a454f0ecb1eec54bc7187033e57714ab80beb48ba5f34c3d4a602834dffc289e",
        "3fb955932c3a44bb46c2dc002a708c9b45fa57bdd83b6d3f6fd4aef367386fe0",
        "dd3fb2fccfefc2d6ec8fb14739c75bc0fb316139a697990affbf851abc31ae25"),
    ("btb2[0]", "gcc@if_tree"): (
        "1554c1b3ce021cb72100b12420e0a3de7d086aaab7393eed6a103066dd08574a",
        "d2cdfb78b8a72fa7194834b5a1295ec87807bccde57799aa1409846f2c8386c9",
        "a563b580f2e8c35c977998d66715d8c438b618c44a6576d93639a2a5d7db036a"),
    ("btb2[1]", "perl"): (
        "9d02afbbea235801e1d56be437560b02bd6b2a884a9ce00cf0b9906b8fa60be0",
        "5ea4b6ccd0c0a5eabe0cc3b3d8c61914922f7fe80f1f8e35e9e3c9d9a92106ed",
        "b66cee231fe13e102e843ebf3c44dd0a0272c02f76b6320b6419b57212fc4a23"),
    ("btb2[1]", "gcc@if_tree"): (
        "16ca2249df8eb02327b5e213bb90a557feae21781773b444829ba2c9d0865fea",
        "00a0ef587da31d5559e95eaeeb663225cddd6d8ce486a0108f96d19c3c50a563",
        "48f6afbd7a233ffd66c77eb86e4b3f0126366576d0a49ae62efe7275e4770caf"),
    ("btb2[2]", "perl"): (
        "d0e07303db9e56bbb4d7564a65ec29b50f91a5fc315e644b22a59483c31c2bce",
        "fa8ad48f1504fe780d9e150f0901da3a86e5ba1216d8b8737961c377ea4557d5",
        "d9ab64df379de19cedb2b32f51495479bece46e5396d158b31bed00fe874151b"),
    ("btb2[2]", "gcc@if_tree"): (
        "dedfe895d9f7e9c99b7bb4c3c4ccf5141c60780e95fba21f8057595141886aa3",
        "7b8884cba7ec60a5e458a8961bd47ecf691f936224c5cbf34a6defff8c496203",
        "fb63e26b55cba767c828cea811ad34dc0cbeb463dc039402d57240ce07901257"),
    ("cascaded[0]", "perl"): (
        "956e53d6bb48b73be36ed852d7148c919ad3742452887e12aa61902eb0407533",
        "fbc1f5b36f71615224b7baa1adf43793f63cb928ce49a0ff04a2f13c8db1056c",
        "10e7f5952cd430d12e89ef1d611c9001aec3ade4c9eae18c2d0cd5c940161331"),
    ("cascaded[0]", "gcc@if_tree"): (
        "f654c10c213a5b4dc1179b8737f6c1716888298f8c282810a068fd5ee81fa030",
        "e02d252e2bd73ec3ee9271207b39e6979999aaf8f2c8bd9c7754a15f533bf94e",
        "657a6cb5e4090a1150d6ef4c62c80b532527083e7684e695658226fd5974c3dc"),
    ("cascaded[1]", "perl"): (
        "075233ffe2bacd231e7c3a1c66e45c50f199849778105bdef68875e282c46f14",
        "1f06a7416ddb97f15186db1d03fb764d529d7f1dc9e3c46e4dee1e97498d0144",
        "7549ccbf5d1f79e82f78b7fc8bff941980d6e347baa5cffcef01bead87a9feb8"),
    ("cascaded[1]", "gcc@if_tree"): (
        "68ce11c4c7178e6d953a3d3da88689bf9b6f4367dcdbd803b766fe697ee2c275",
        "b7d88da82dfa055e07c1f0ce53c12812ff323f39e4f3bd3f982850f841a044f7",
        "17dbefccfe7b9d90445d1247c596eb2cb86ceb9056e263a63a5f0fcb2fb28cd7"),
    ("ittage[0]", "perl"): (
        "49934495752971c8918effe0db5d91019689e5c3e7375297b4a6f3c3951df1ec",
        "15d734b6bf4862779458677e482c8353c60aab265117c717b7e98a9e9528d6d6",
        "a3d31af0091fdf3119a28d1c70e6c7f8680a7769d609c164e9c1f71efb7e8e46"),
    ("ittage[0]", "gcc@if_tree"): (
        "d237f8b7a13b1c39c69b352fd65bd74fb0b16f0ccaeaed307dd09350deab9923",
        "ae04d0cb4fe1281185bcfb31539fcd6374cb0de1c9fa1b0db14539966a445ae0",
        "39fa6c490c1f0f0798f73bd11d4c5931192965457d87127de36f4ec5cc92f725"),
    ("ittage[1]", "perl"): (
        "361711bae54f248603febe901515791e0cf57447b8a035885aae56c3fb0a8759",
        "eab0997203e123d40f377e2e687ed8f3f450e3a3f96ee1b8b8eb768350f5c15a",
        "086ff6437579b01b101ada73e4c722e0c247b4c9ff63f0f36c6fcdfd5589c974"),
    ("ittage[1]", "gcc@if_tree"): (
        "feae89694dd852f4db57532eb145da607d7bdc79493f042ef25843fdb00563d8",
        "371eb71f8766998b524363e9af7d3077b63ca5fac0de49227b92947753109b03",
        "bf624f79ace2379ef1e469b08464a74455e15baad1499585ef2a7ffb5827af07"),
    ("last_target[0]", "perl"): (
        "25b424bd61469aae9db59cd2bf11895cb9c17004ca3db322058de08ee6180845",
        "436e1807dbd64a8225819db60d3eba4c7bb34630415c2576a3f507814f1db73a",
        "86c5af941a13db82e3cadb30e55e26695329c6521eebcfebc46c44e09cd91eb0"),
    ("last_target[0]", "gcc@if_tree"): (
        "998629b26a5444b579056d134c7f42e6815723cc57c9e4644ab89561f33c9b68",
        "eb7433887e91f771f6c038c5e439d2f333e2bb0ce484239de91fc96340e7c792",
        "2418351bb8dd16ca0e0dac950281166a54d6c09f0c6febdd61187448665ab4f7"),
    ("oracle[0]", "perl"): (
        "3c1179a634141ae8b20ed06c2faab63e32314602493a96336bf714e65d7b63ac",
        "302e0c8ae1c2e368e77c416b1e2c6ffb4f5ba8c314b496bf72a697804c328ab7",
        "f9f9da6b9e86096ae97dc3562565f9a35d1cae8e12b8f2639934991c98cca294"),
    ("oracle[0]", "gcc@if_tree"): (
        "b305620656f0ac9e7f6e90947b5c89905ea7bfd2303ea6d04fad46d5c3c8eb99",
        "ae2e4d6590f88ef1889da1fb6072d117acb298ad5798e81142377df574cd7eb0",
        "9fe6f32ef6535718167b1b3d8cd79f1c7082ab8f2253d29cb6588da2838e3634"),
    ("tagged[0]", "perl"): (
        "77ea88f8ed5f605339976005cf2e4e71aa45d04866498c981893411924a0fd99",
        "db2839c4df957b35467407a1e86a349016214540d10b9bec845487b44e6d34d6",
        "97d3b26f50524795b5f64c603561f2b03ea6581cbf5ca77edf5f6fae0321b6d4"),
    ("tagged[0]", "gcc@if_tree"): (
        "4bbfce0d951d5bbdd7c70bf59af5f2a19c7109e628f83b757098f70b8377de64",
        "d5702a706a150786211931f16cfd2b17953a44f67ddedd826428b4f88392ae27",
        "a8d3c13c987517402b42824fd88d385ab038f88997141a02993cea5e4da70496"),
    ("tagged[1]", "perl"): (
        "0f471ff9e8703b38a4ab82561856441ea668d88428fd688806fe9657259e17b9",
        "7b91ed64d45bfe6be970ccacc5b4170dd5de7b9f46d821a2ee0c7f65ada8a497",
        "01a7eed4dcce0c9083de8195517f303a251d524c75f00c8d0e15161ddc9d8c6c"),
    ("tagged[1]", "gcc@if_tree"): (
        "3579488762211186bcdb88ba502a82bbadfed609e27dd06ba167cee1256d1ed2",
        "05a07c67454247b47e956472777897b38b6a585c406ebca0d44736d463424fcf",
        "c8464bb9c8435ae120946bf762bf73f012d0738084b645ebbe8da8030a62ef43"),
    ("tagless[0]", "perl"): (
        "545331fc6861dc996ee79c918d191457909aa5aaa6a310c227f0bc90d0ef10f8",
        "be92d47e21db35b40852c3d616c9c572bccc5b2427f5fec0d3922bce4e291fb8",
        "1f0b16137701d9095dfba4af185d6c56b1599564e4da28f27083bf42dfe6f7f3"),
    ("tagless[0]", "gcc@if_tree"): (
        "2492ec0198bd89362a003e8b6ac7571d4db6502251ee77d714634641b6674dba",
        "14096c94d625cdf068ba636df68bf99bb73f88a7a3ceb3b936aa4046a9866fa6",
        "07cd4342c337b9a69f58cf6d1477c37a354f525c133fe2ee02fc57e546dc272a"),
    ("tagless[1]", "perl"): (
        "590bbef2705be45e93f37a5afe2ae865ddc0b52a6754a433be8330826c121751",
        "a2de4cf6dd988f23a64332e5568c18fb3b5bede9b2eebf13b49d741b493590b4",
        "3b5376f7c6c8f225ab3a0b7118d05b1496b998a669a916386aa0f0b022cc525f"),
    ("tagless[1]", "gcc@if_tree"): (
        "7784f3c9b7db6a9cd0c334443a051681d4dafb1f80df198710b2b852b78c8b58",
        "5874eb35c44ad4f89331962e58d2d2bcf1a9dd73089f5e5e3adfd27ab11327e6",
        "6456302a72c4dea241b44cb90e2bbe9ae32ef97e794070c7f7fd2fedf1fc29c6"),
    ("tagless[2]", "perl"): (
        "543e59742d32b1930755e341fdbc72064b2c422f1db5b1dd679e92304711729b",
        "b5da5ab1298f6f8321d515615912ef06560958aba09532d51d99493a5fa527a8",
        "3ce9544b72aa05b5e3f4a67fac1188b93bd2160bf2359622c0f23929622b80f1"),
    ("tagless[2]", "gcc@if_tree"): (
        "6ffdd3dc10aa0379e34ad3fa6164bd9739f6e9273a22f2157c370ed24d91fdcb",
        "9c5ef365f35b3985cdca059456554b87982916d28d357c5ffb78033ce81bac2e",
        "93fe2d462755f6e9c0b163cb839128fc813824bb481d323eabbca57e91ab767e"),
    ("preset:btb-only", "perl"): (
        "ab9ce5a0396eb493905425e40dfc58ba5f423ee645547de97610399d9eaa4641",
        "8469841e6ce08833404109ab06b0d50594326834acf2359eac01dca895d429bd",
        "c145c7a7dd446048d825f2d9abeb94b6feeafad6a484089582cf90a455272123"),
    ("preset:btb-only", "gcc@if_tree"): (
        "de37226b73b66b352d64f0769834fb50f59f714b178efabad8a1964679f332db",
        "11c4108bc56f21bbbb2ea921866c5a8e279ca4ba071b2053dc778b0d504ae4d1",
        "487941e3d243668b2aa22a70c87100d0bd0080495293a56b20e1bb3c62f30a77"),
    ("preset:tagless-gshare9", "perl"): (
        "545331fc6861dc996ee79c918d191457909aa5aaa6a310c227f0bc90d0ef10f8",
        "be92d47e21db35b40852c3d616c9c572bccc5b2427f5fec0d3922bce4e291fb8",
        "1f0b16137701d9095dfba4af185d6c56b1599564e4da28f27083bf42dfe6f7f3"),
    ("preset:tagless-gshare9", "gcc@if_tree"): (
        "2492ec0198bd89362a003e8b6ac7571d4db6502251ee77d714634641b6674dba",
        "14096c94d625cdf068ba636df68bf99bb73f88a7a3ceb3b936aa4046a9866fa6",
        "07cd4342c337b9a69f58cf6d1477c37a354f525c133fe2ee02fc57e546dc272a"),
    ("preset:tagged-4way", "perl"): (
        "77ea88f8ed5f605339976005cf2e4e71aa45d04866498c981893411924a0fd99",
        "db2839c4df957b35467407a1e86a349016214540d10b9bec845487b44e6d34d6",
        "97d3b26f50524795b5f64c603561f2b03ea6581cbf5ca77edf5f6fae0321b6d4"),
    ("preset:tagged-4way", "gcc@if_tree"): (
        "4bbfce0d951d5bbdd7c70bf59af5f2a19c7109e628f83b757098f70b8377de64",
        "d5702a706a150786211931f16cfd2b17953a44f67ddedd826428b4f88392ae27",
        "a8d3c13c987517402b42824fd88d385ab038f88997141a02993cea5e4da70496"),
    ("preset:cascaded-256", "perl"): (
        "956e53d6bb48b73be36ed852d7148c919ad3742452887e12aa61902eb0407533",
        "fbc1f5b36f71615224b7baa1adf43793f63cb928ce49a0ff04a2f13c8db1056c",
        "10e7f5952cd430d12e89ef1d611c9001aec3ade4c9eae18c2d0cd5c940161331"),
    ("preset:cascaded-256", "gcc@if_tree"): (
        "f654c10c213a5b4dc1179b8737f6c1716888298f8c282810a068fd5ee81fa030",
        "e02d252e2bd73ec3ee9271207b39e6979999aaf8f2c8bd9c7754a15f533bf94e",
        "657a6cb5e4090a1150d6ef4c62c80b532527083e7684e695658226fd5974c3dc"),
    ("preset:ittage-lite", "perl"): (
        "a4400544ec7d9e65e9467b81cb93d1cb40d8a0d97cbd358dbe604f950847e2e5",
        "0935b537a273276a812d8c1e7ee1f61121558526043e7f80ff6c7f431714df79",
        "6b3508155268b06634f916884fb66b9deec22baae70b87fcfe3d17863a55eefb"),
    ("preset:ittage-lite", "gcc@if_tree"): (
        "9d8c5e7a34599d2ee96ad794399c4593e0aff07a63d055c17e995e366d6b4cb0",
        "397ca9846f11c35b21b3b6f0b3fd22836a5dc42999078ad5dea91a26243636a8",
        "f6ab0ec495f6a9c85e89546fbd3530e5f29e9858a787a4f7b9d19addc6ad2cec"),
    ("preset:btb2-micro", "perl"): (
        "a454f0ecb1eec54bc7187033e57714ab80beb48ba5f34c3d4a602834dffc289e",
        "3fb955932c3a44bb46c2dc002a708c9b45fa57bdd83b6d3f6fd4aef367386fe0",
        "dd3fb2fccfefc2d6ec8fb14739c75bc0fb316139a697990affbf851abc31ae25"),
    ("preset:btb2-micro", "gcc@if_tree"): (
        "1554c1b3ce021cb72100b12420e0a3de7d086aaab7393eed6a103066dd08574a",
        "d2cdfb78b8a72fa7194834b5a1295ec87807bccde57799aa1409846f2c8386c9",
        "a563b580f2e8c35c977998d66715d8c438b618c44a6576d93639a2a5d7db036a"),
    ("preset:oracle", "perl"): (
        "3c1179a634141ae8b20ed06c2faab63e32314602493a96336bf714e65d7b63ac",
        "302e0c8ae1c2e368e77c416b1e2c6ffb4f5ba8c314b496bf72a697804c328ab7",
        "f9f9da6b9e86096ae97dc3562565f9a35d1cae8e12b8f2639934991c98cca294"),
    ("preset:oracle", "gcc@if_tree"): (
        "b305620656f0ac9e7f6e90947b5c89905ea7bfd2303ea6d04fad46d5c3c8eb99",
        "ae2e4d6590f88ef1889da1fb6072d117acb298ad5798e81142377df574cd7eb0",
        "9fe6f32ef6535718167b1b3d8cd79f1c7082ab8f2253d29cb6588da2838e3634"),
    ("preset:last-target", "perl"): (
        "25b424bd61469aae9db59cd2bf11895cb9c17004ca3db322058de08ee6180845",
        "436e1807dbd64a8225819db60d3eba4c7bb34630415c2576a3f507814f1db73a",
        "86c5af941a13db82e3cadb30e55e26695329c6521eebcfebc46c44e09cd91eb0"),
    ("preset:last-target", "gcc@if_tree"): (
        "998629b26a5444b579056d134c7f42e6815723cc57c9e4644ab89561f33c9b68",
        "eb7433887e91f771f6c038c5e439d2f333e2bb0ce484239de91fc96340e7c792",
        "2418351bb8dd16ca0e0dac950281166a54d6c09f0c6febdd61187448665ab4f7"),
}


def pinned_configs():
    """Every built-in kind's spec examples and every preset, by label."""
    configs = {}
    for kind in BUILTIN_KINDS:
        for index, example in enumerate(registration(kind).spec_examples):
            configs[f"{kind}[{index}]"] = EngineConfig(target_cache=example)
    for name in PRESETS:
        configs[f"preset:{name}"] = preset(name)
    return configs


def fix_fingerprints(monkeypatch, tag):
    """Replace the engine, timing and trace-generator fingerprints."""
    monkeypatch.setattr(keys, "engine_code_fingerprint",
                        lambda: f"engine-{tag}")
    monkeypatch.setattr(keys, "timing_code_fingerprint",
                        lambda: f"timing-{tag}")
    monkeypatch.setattr(importlib.import_module("repro.workloads.registry"),
                        "_code_fingerprint", lambda module: f"trace-{tag}")


@pytest.fixture
def fixed_fingerprints(monkeypatch):
    fix_fingerprints(monkeypatch, "pin")


def test_pins_cover_every_example_and_preset():
    assert set(PINNED_KEYS) == {
        (label, benchmark)
        for label in pinned_configs() for benchmark in BENCHMARKS
    }


def test_keys_match_their_pins(fixed_fingerprints):
    configs = pinned_configs()
    for (label, benchmark), pinned in PINNED_KEYS.items():
        config = configs[label]
        got = (keys.cell_key(benchmark, config, LENGTH, SEED),) + tuple(
            keys.timing_key(benchmark, config, LENGTH, SEED, machine)
            for machine in MACHINES
        )
        assert got == pinned, (label, benchmark)


@pytest.mark.parametrize("fingerprint", [
    "engine_code_fingerprint", "timing_code_fingerprint", "trace",
])
def test_a_new_fingerprint_changes_a_key_already_computed(monkeypatch,
                                                          fingerprint):
    """A source edit (or a fingerprint ``cache_clear()``) must reach the key
    even when the same cell's key was computed under the old sources."""
    fix_fingerprints(monkeypatch, "before")
    config = preset("tagless-gshare9")

    def both():
        return (keys.cell_key("perl", config, LENGTH, SEED),
                keys.timing_key("perl", config, LENGTH, SEED, MACHINES[0]))

    before = both()
    assert both() == before
    if fingerprint == "trace":
        monkeypatch.setattr(
            importlib.import_module("repro.workloads.registry"),
            "_code_fingerprint", lambda module: "trace-after")
    else:
        monkeypatch.setattr(keys, fingerprint, lambda: "after")
    after = both()
    assert after[1] != before[1]
    if fingerprint != "timing_code_fingerprint":
        assert after[0] != before[0]
    else:
        assert after[0] == before[0]


def test_equal_configs_get_one_key_in_either_order(monkeypatch):
    """Equal but distinct configs and machines share one key, whichever is
    keyed first: a spec round trip, ``1`` spelled for ``True``, and
    ``latencies`` keyed by ints (equal and hash-equal, rendered
    differently)."""
    base = preset("tagged-4way")
    config_pairs = [
        (base, EngineConfig.from_spec(base.to_spec())),
        (EngineConfig(target_cache_handles_returns=True),
         EngineConfig(target_cache_handles_returns=1)),
    ]
    machines = (MachineConfig(), MachineConfig(latencies={
        int(cls): latency for cls, latency in LATENCIES.items()}))
    assert machines[0] == machines[1]
    for index, (a, b) in enumerate(config_pairs):
        assert a == b and a is not b
        for order, (first, second) in enumerate(((a, b), (b, a))):
            # a fingerprint no call has used yet: no memo entry holds it
            fix_fingerprints(monkeypatch, f"equal-{index}-{order}")
            assert (keys.cell_key("perl", first, LENGTH, SEED)
                    == keys.cell_key("perl", second, LENGTH, SEED))
            assert (keys.timing_key("perl", first, LENGTH, SEED,
                                    machines[order])
                    == keys.timing_key("perl", second, LENGTH, SEED,
                                       machines[1 - order]))


def test_a_third_replay_renders_no_spec_and_no_token(monkeypatch):
    """The warm path costs its cache reads: once a cold and a warm replay
    of Tables 4 and 5 have built their keys, a third replay through a fresh
    context renders no config to a spec and tokenises no machine."""
    def replay():
        ctx = ExperimentContext(trace_length=5_000, jobs=1)
        return [run_experiment(name, ctx).format()
                for name in ("table4", "table5")]

    cold = replay()
    assert replay() == cold
    spec_codec = importlib.import_module("repro.predictors.spec")
    calls = []
    for module, name in ((spec_codec, "to_spec"), (keys, "config_token")):
        real = getattr(module, name)

        def counting(*args, __real=real, __name=name, **kwargs):
            calls.append(__name)
            return __real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    assert replay() == cold
    assert not calls, collections.Counter(calls)
