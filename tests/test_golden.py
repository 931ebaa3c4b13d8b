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
omega = 0.5 with the default CountModel.
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
            3.937180090034019, 7.894710007734773, 0.3562374159957926, 6.4104204168774,
            -7.282377756086419, -5.660197896056843,
        ],
        "max_abs_phase": 10.43353290152345,
        "channel": [
            [
                (0.7504931298452167+0.24073330756437517j),
                (-0.0615348987179349+0.350441808994808j),
            ],
            [
                (0.015210496998683503+0.32315253219100104j),
                (0.588035596517514+0.1305828733839182j),
            ],
        ],
        "density": [
            [
                (0.5111495604521372+0j), (0.07340577840230045-0.19654818024746512j),
                (0.22860286975431432+0.03141772733800758j),
                (-0.03584196289336685+0.3890052697396832j),
            ],
            [
                (0.07340577840230045+0.19654818024746512j), (0.08611881701023114+0j),
                (0.020748671786272203+0.0924146755377277j),
                (-0.15472826581266097+0.0420827165059531j),
            ],
            [
                (0.22860286975431432-0.03141772733800758j),
                (0.020748671786272203-0.0924146755377277j), (0.10416979641710764+0j),
                (0.007880444852804029+0.17617895230082659j),
            ],
            [
                (-0.03584196289336685-0.3890052697396832j),
                (-0.15472826581266097-0.0420827165059531j),
                (0.007880444852804029-0.17617895230082659j), (0.29856182612052407+0j),
            ],
        ],
        "witnesses": {
            "concurrence": 0.9584969219377877,
            "fidelity": 0.7938609630260143,
            "purity": 1.0000000000000007,
            "mutual_information": 1.8810898207400288,
            "classical_correlation": 0.9405449103700152,
            "discord": 0.9405449103700136,
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
                    2.80829395014689, 5.631102933037056, 0.2540954076978039,
                    4.5723955884525935, -5.194341362963911, -4.037280272844498,
                ],
                "max_abs_phase": 7.441983007120626,
                "channel": [
                    [
                        (0.8644213387331363+0.17789555448893218j),
                        (-0.03987221869306613+0.28550376068569455j),
                    ],
                    [
                        (0.022620651000769355+0.2695294819311069j),
                        (0.7669369406331563+0.08702711410400449j),
                    ],
                ],
                "counts": [
                    1633, 160, 1026, 1303, 714, 395, 155, 1131, 650, 237, 675, 1189,
                    1320, 244, 878, 233, 843, 1450, 771, 578, 17, 762, 1388, 599, 367,
                    1072, 845, 1456, 573, 107, 855, 739, 1611, 782, 6, 843,
                ],
            },
            {
                "screen": [
                    8.151053880044529, 5.4764946296321, -1.2017159798924553,
                    0.28601235498958033, -0.5639162724116744, -1.8815886045274937,
                ],
                "max_abs_phase": 8.151053880044529,
                "channel": [
                    [
                        (0.5063889772101344-0.8033805156836591j),
                        (-0.02048893920133582-0.1580160809906682j),
                    ],
                    [
                        (-0.1696847517172353+0.0051502175998045475j),
                        (0.5924769282859156-0.7111513898358934j),
                    ],
                ],
                "counts": [
                    1738, 62, 728, 674, 1144, 1232, 50, 1702, 1085, 1093, 640, 663, 707,
                    1074, 1079, 46, 780, 1812, 722, 1103, 31, 772, 1789, 1001, 1089,
                    664, 798, 1729, 1022, 52, 1109, 686, 1825, 1045, 42, 864,
                ],
            },
        ],
        "density": [
            [
                (0.5054554028617797+0j), (-0.003223635192539657-0.039279098255094805j),
                (0.053080392640691365+0.03853400255807294j),
                (0.012461082449050326+0.4625877579711415j),
            ],
            [
                (-0.003223635192539657+0.039279098255094805j), (0.03166625079709696+0j),
                (0.012350751447624202+0.024264878448774847j),
                (-0.03508894400270869-0.015500548247737951j),
            ],
            [
                (0.053080392640691365-0.03853400255807294j),
                (0.012350751447624202-0.024264878448774847j), (0.032229385694723146+0j),
                (0.027378978041324414+0.039434739800106616j),
            ],
            [
                (0.012461082449050326-0.4625877579711415j),
                (-0.03508894400270869+0.015500548247737951j),
                (0.027378978041324414-0.039434739800106616j), (0.43064896064640035+0j),
            ],
        ],
        "witnesses": {
            "concurrence": 0.8821214906251748,
            "fidelity": 0.9306399397252314,
            "purity": 0.8920169418028785,
            "mutual_information": 1.6661248828304065,
            "classical_correlation": 0.981310539258871,
            "discord": 0.6848143435715355,
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
    for state_idx, state_id in enumerate(STATES):
        for k, golden in enumerate(members[state_id]):
            screen = _screen(config, state_idx, k)
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
    for state_idx, state_id in enumerate(STATES):
        omega_dir = _omega_dir(static_dir, STATIC_CONFIG, state_id)
        doc = _read(omega_dir / "realisation-0.json")
        assert doc["record"]["kind"] == "probability"
        assert doc["record"]["provenance"]["seed"] == derive_seed(
            STATIC_CONFIG.master_seed, state_idx, 0, 0
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
