"""Golden values: one small fixed configuration pinned to recorded numbers.

Acceptance criterion 10 compares a run with a rerun in the same
environment, so it cannot see a change that moves every run alike. The
numbers below were recorded from the package as it stood before the
subharmonic sum became a separable product (numpy 2.4.6, scipy 1.17.1,
x86-64). Any refactor that keeps the science must reproduce them:

- screen samples to 1e-12 of the screen's largest |phase|;
- the 2x2 effective channel to 1e-12 (absolute);
- reconstructed and ensemble-averaged densities to 1e-10;
- witnesses to 1e-8 (discord and classical correlation come from an
  optimiser);
- wrapping numbers to 1e-9;
- Poisson counts exactly.

The configuration is a 256 grid, master seed 2026, states 0_1 and
0_m1_phase: one exact-probability static realisation per state at
omega = 0.75, and one two-member counts ensemble per state at
omega = 0.5 with the default CountModel. Both states are sent through
the same screens, whose pinned samples are those recorded for 0_1; the
other 0_m1_phase values were recorded again when the states of a sweep
began to share their screens (same versions and tolerances).
"""

import json

import numpy as np
import pytest

from skysim.channel import CountModel, effective_channel
from skysim.experiments import RunConfig, derive_seed, run_ensemble, run_static
from skysim.states import catalog
from skysim.turbulence import TurbulenceSpec, generate_screen, omega_to_fried

STATES = ("0_1", "0_m1_phase")
STATIC_CONFIG = RunConfig(
    states=STATES, omegas=(0.75,), realisations=1, grid_n=256, master_seed=2026
)
ENSEMBLE_CONFIG = RunConfig(
    states=STATES,
    omegas=(0.5,),
    realisations=2,
    grid_n=256,
    master_seed=2026,
    mode="ensemble",
    count_model=CountModel(),
)
# Pixels (row, column) whose phases are pinned.
PIXELS = ((0, 0), (17, 203), (128, 128), (64, 191), (255, 1), (200, 40))
WITNESSES = (
    "concurrence",
    "fidelity",
    "purity",
    "mutual_information",
    "classical_correlation",
    "discord",
)

STATIC = {
    "0_1": {
        "screen": [
            -5.854155208631951, -3.407130172691403, -0.6602218070669394,
            -0.5587839110586188, 2.679208473160152, 3.6693005619476295,
        ],
        "max_abs_phase": 7.277674901209991,
        "channel": [
            [
                (0.49253595045911636-0.5497793097240363j),
                (0.4198608868705957-0.08779605827544387j),
            ],
            [
                (0.044132865478492+0.37664386561088475j),
                (0.3185862431920093-0.5019547718075182j),
            ],
        ],
        "density": [
            [
                (0.44437404227624755+0j), (-0.15115677526647978-0.1710898248450574j),
                (0.2080288147198956-0.15299522558178988j),
                (0.3530527573572051+0.05878671338601091j),
            ],
            [
                (-0.15115677526647978+0.1710898248450574j), (0.11728880158592325+0j),
                (-0.01185721475012147+0.1321361574192954j),
                (-0.1427268894299078+0.11593324427653748j),
            ],
            [
                (0.2080288147198956+0.15299522558178988j),
                (-0.01185721475012147-0.1321361574192954j), (0.15006170581659062+0j),
                (0.14503786008913452+0.14907422634719766j),
            ],
            [
                (0.3530527573572051-0.05878671338601091j),
                (-0.1427268894299078-0.11593324427653748j),
                (0.14503786008913452-0.14907422634719766j), (0.2882754503212386+0j),
            ],
        ],
        "witnesses": {
            "concurrence": 0.9809378380022542,
            "fidelity": 0.7193775036559477,
            "purity": 1.0000000000000004,
            "mutual_information": 1.945174320703814,
            "classical_correlation": 0.972587160351908,
            "discord": 0.972587160351906,
        },
        "skyrmion": 1.0,
    },
    "0_m1_phase": {
        "screen": [
            -5.854155208631951, -3.407130172691403, -0.6602218070669394,
            -0.5587839110586188, 2.679208473160152, 3.6693005619476295,
        ],
        "max_abs_phase": 7.277674901209991,
        "channel": [
            [
                (0.4925359504591177-0.5497793097240291j),
                (0.04413286547849124+0.37664386561088636j),
            ],
            [
                (0.41986088687059797-0.08779605827544232j),
                (0.3185862431920094-0.5019547718075146j),
            ],
        ],
        "density": [
            [
                (0.4443740422762449+0j), (0.2080288147198972-0.15299522558178982j),
                (0.171089824845059-0.15115677526647947j),
                (-0.058786713386012164+0.3530527573572029j),
            ],
            [
                (0.2080288147198972+0.15299522558178982j), (0.1500617058165928+0j),
                (0.13213615741929724-0.011857214750121164j),
                (-0.14907422634719872+0.14503786008913516j),
            ],
            [
                (0.171089824845059+0.15115677526647947j),
                (0.13213615741929724+0.011857214750121164j), (0.11728880158592489+0j),
                (-0.14272688942990858+0.11593324427653807j),
            ],
            [
                (-0.058786713386012164-0.3530527573572029j),
                (-0.14907422634719872-0.14503786008913516j),
                (-0.14272688942990858-0.11593324427653807j), (0.28827545032123736+0j),
            ],
        ],
        "witnesses": {
            "concurrence": 0.9809378406035307,
            "fidelity": 0.7193775036559437,
            "purity": 1.0000000000000004,
            "mutual_information": 1.9451743207038144,
            "classical_correlation": 0.9725871603519072,
            "discord": 0.9725871603519072,
        },
        "skyrmion": -1.0,
    },
}

ENSEMBLE = {
    "0_1": {
        "members": [
            {
                "screen": [
                    -4.175625264700546, -2.43022235014136, -0.4709200148690975,
                    -0.39856685266630265, 1.9110136631552983, 2.6172220558239765,
                ],
                "max_abs_phase": 5.190986931976315,
                "channel": [
                    [
                        (0.7044585528687266-0.49135450881025783j),
                        (0.33721123358239435+0.022164866201894794j),
                    ],
                    [
                        (-0.047250607749729334+0.30676917695327355j),
                        (0.5884589030816489-0.5101455517260951j),
                    ],
                ],
                "counts": [
                    1525, 208, 448, 1183, 1204, 474, 237, 1169, 1143, 336, 338, 1159,
                    1232, 338, 1561, 868, 150, 809, 1183, 372, 567, 156, 995, 1439, 393,
                    1084, 99, 701, 1417, 785, 495, 1005, 922, 1497, 574, 77,
                ],
            },
            {
                "screen": [
                    11.600690548567158, 8.858924419136045, -1.3432186990277772,
                    5.56008307013514, -2.24501095995893, -2.5471388557056693,
                ],
                "max_abs_phase": 11.600690548567158,
                "channel": [
                    [
                        (0.29992025400728306-0.6978479456062727j),
                        (-0.18750195368849057+0.33821050123143886j),
                    ],
                    [
                        (0.17998996713706894-0.34343603333691064j),
                        (0.30227929319671204-0.49014225960912916j),
                    ],
                ],
                "counts": [
                    1133, 313, 1314, 841, 157, 658, 278, 667, 44, 504, 952, 526, 116,
                    917, 863, 605, 195, 431, 679, 541, 726, 31, 449, 1149, 1324, 43,
                    454, 569, 903, 765, 783, 433, 583, 1210, 560, 28,
                ],
            },
        ],
        "density": [
            [
                (0.47226638952325567+0j), (0.06191104658976274-0.07303518108725117j),
                (-0.049404998825099314-0.04407707322781539j),
                (0.39116430506239874-0.009353544023832892j),
            ],
            [
                (0.06191104658976274+0.07303518108725117j), (0.0931126372156002+0j),
                (-0.06537601781350863+0.03497245416238136j),
                (0.03222003302301972+0.04185938498206239j),
            ],
            [
                (-0.049404998825099314+0.04407707322781539j),
                (-0.06537601781350863-0.03497245416238136j), (0.10025606254011782+0j),
                (-0.03329281139405049+0.06660573450193183j),
            ],
            [
                (0.39116430506239874+0.009353544023832892j),
                (0.03222003302301972-0.04185938498206239j),
                (-0.03329281139405049-0.06660573450193183j), (0.33436491072102636+0j),
            ],
        ],
        "witnesses": {
            "concurrence": 0.6455774728391256,
            "fidelity": 0.7944799551845387,
            "purity": 0.7145165375875342,
            "mutual_information": 1.3009015535533348,
            "classical_correlation": 0.9536158639017565,
            "discord": 0.34728568965157836,
        },
        "skyrmion": 1.0,
    },
    "0_m1_phase": {
        "members": [
            {
                "screen": [
                    -4.175625264700546, -2.43022235014136, -0.4709200148690975,
                    -0.39856685266630265, 1.9110136631552983, 2.6172220558239765,
                ],
                "max_abs_phase": 5.190986931976315,
                "channel": [
                    [
                        (0.704458552868729-0.4913545088102542j),
                        (-0.04725060774973158+0.30676917695327655j),
                    ],
                    [
                        (0.33721123358239713+0.0221648662018962j),
                        (0.5884589030816524-0.5101455517260935j),
                    ],
                ],
                "counts": [
                    1549, 244, 1349, 1208, 398, 489, 180, 1152, 323, 393, 1051, 1078,
                    1174, 332, 885, 158, 738, 1356, 1187, 338, 149, 964, 1350, 589, 446,
                    1116, 879, 1407, 752, 62, 458, 1073, 1521, 594, 69, 889,
                ],
            },
            {
                "screen": [
                    11.600690548567158, 8.858924419136045, -1.3432186990277772,
                    5.56008307013514, -2.24501095995893, -2.5471388557056693,
                ],
                "max_abs_phase": 11.600690548567158,
                "channel": [
                    [
                        (0.2999202540072823-0.6978479456062738j),
                        (0.1799899671370679-0.34343603333691075j),
                    ],
                    [
                        (-0.18750195368849024+0.3382105012314399j),
                        (0.302279293196713-0.49014225960913027j),
                    ],
                ],
                "counts": [
                    1103, 302, 135, 678, 1347, 813, 293, 658, 930, 511, 30, 450, 744,
                    432, 615, 32, 655, 1219, 141, 957, 187, 449, 877, 627, 677, 483,
                    467, 1216, 731, 28, 1345, 31, 898, 738, 507, 644,
                ],
            },
        ],
        "density": [
            [
                (0.47548731225066726+0j), (-0.04903115567228525-0.048999726691813295j),
                (0.07219394544479937+0.06743465869178294j),
                (-0.0006859562563418624+0.38839601467527823j),
            ],
            [
                (-0.04903115567228525+0.048999726691813295j), (0.10412270245453911+0j),
                (0.03496487830111706-0.06695400765949323j),
                (-0.06643640413424727-0.034051000284396796j),
            ],
            [
                (0.07219394544479937-0.06743465869178294j),
                (0.03496487830111706+0.06695400765949323j), (0.09514961225422672+0j),
                (0.03667157926077721+0.043372578411445345j),
            ],
            [
                (-0.0006859562563418624-0.38839601467527823j),
                (-0.06643640413424727+0.034051000284396796j),
                (0.03667157926077721-0.043372578411445345j), (0.32524037304056685+0j),
            ],
        ],
        "witnesses": {
            "concurrence": 0.638151834345345,
            "fidelity": 0.7887598573208962,
            "purity": 0.711606459646084,
            "mutual_information": 1.2921850061348208,
            "classical_correlation": 0.9632749536062709,
            "discord": 0.3289100525285499,
        },
        "skyrmion": -1.0,
    },
}


def _screen(config, state_idx, k):
    spec = TurbulenceSpec(
        r0=omega_to_fried(config.omegas[0], 0, config.w0),
        grid=config.grid(),
        seed=derive_seed(config.master_seed, state_idx, 0, k),
        n_subharmonics=config.n_subharmonics,
    )
    return generate_screen(spec)


def _omega_dir(run_dir, config, state_id):
    return run_dir / state_id / f"omega-{config.omegas[0]:.2f}"


def _read(path):
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def static_dir(tmp_path_factory):
    return run_static(STATIC_CONFIG, tmp_path_factory.mktemp("static"))


@pytest.fixture(scope="module")
def ensemble_dir(tmp_path_factory):
    return run_ensemble(ENSEMBLE_CONFIG, tmp_path_factory.mktemp("ensemble"))


@pytest.mark.parametrize(
    "config, members",
    [
        (STATIC_CONFIG, {s: [STATIC[s]] for s in STATES}),
        (ENSEMBLE_CONFIG, {s: ENSEMBLE[s]["members"] for s in STATES}),
    ],
    ids=["static", "ensemble"],
)
def test_screens_and_channels(config, members):
    cat = catalog()
    for state_id in STATES:
        for k, golden in enumerate(members[state_id]):
            screen = _screen(config, 0, k)
            scale = np.abs(screen.phase).max()
            assert scale == pytest.approx(golden["max_abs_phase"], rel=1e-12)
            samples = [screen.phase[i, j] for i, j in PIXELS]
            np.testing.assert_allclose(
                samples, golden["screen"], rtol=0, atol=1e-12 * scale
            )
            channel = effective_channel(cat[state_id], screen, config.w0)
            np.testing.assert_allclose(
                channel, np.array(golden["channel"]), rtol=0, atol=1e-12
            )


def _check_evaluation(doc, golden):
    """Density, witnesses and wrapping number of one evaluated state."""
    matrix = np.array(
        [[complex(re, im) for re, im in row] for row in doc["density"]["matrix"]]
    )
    np.testing.assert_allclose(matrix, np.array(golden["density"]), rtol=0, atol=1e-10)
    for name in WITNESSES:
        assert doc["witnesses"][name] == pytest.approx(
            golden["witnesses"][name], abs=1e-8
        ), name
    assert doc["skyrmion"]["number"] == pytest.approx(golden["skyrmion"], abs=1e-9)


def test_static_realisations(static_dir):
    for state_id in STATES:
        omega_dir = _omega_dir(static_dir, STATIC_CONFIG, state_id)
        doc = _read(omega_dir / "realisation-0.json")
        assert doc["record"]["kind"] == "probability"
        assert doc["record"]["provenance"]["seed"] == derive_seed(
            STATIC_CONFIG.master_seed, 0, 0, 0
        )
        _check_evaluation(doc, STATIC[state_id])


def test_ensemble_counts_and_average(ensemble_dir):
    for state_id in STATES:
        golden = ENSEMBLE[state_id]
        omega_dir = _omega_dir(ensemble_dir, ENSEMBLE_CONFIG, state_id)
        for k, member in enumerate(golden["members"]):
            record = _read(omega_dir / f"realisation-{k}.json")["record"]
            assert record["kind"] == "counts"
            assert [int(v) for _, _, v in record["entries"]] == member["counts"]
        doc = _read(omega_dir / "ensemble.json")
        assert doc["n"] == len(golden["members"])
        _check_evaluation(doc, golden)
