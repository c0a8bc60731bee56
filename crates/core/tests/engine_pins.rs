//! Pins what the fast engine reports on the instances the benchmark
//! serves.
//!
//! The golden corpora stop at n ≤ 14, and `results/experiments.csv`
//! pins only ASM round counts at n = 1024, so an engine change that moved
//! a proposal, an acceptance, a rejection or a partner at these sizes
//! would pass both. Each run here records an FNV-1a fingerprint of every
//! [`AsmReport`] field: the matching, every round and message counter,
//! the good, bad and removed men, and every [`QmSnapshot`].
//!
//! The small mix (n ∈ {16, 32, 64}) and the four `market-churn` families
//! at n = 256 run every algorithm and backend in the debug suite. The
//! six `large-closed` combinations at n = 1024 (three families × `asm`
//! and `rand-asm`, two instance seeds each) are `#[ignore]`d; run them
//! with `cargo test --release -p asm-core --test engine_pins -- --ignored`.
//! A changed engine must reproduce every constant below.

use asm_core::{
    almost_regular_asm, asm, rand_asm, AlmostRegularParams, AsmConfig, AsmReport, QmSnapshot,
    RandAsmParams,
};
use asm_instance::generators::GeneratorConfig;
use asm_instance::Instance;
use asm_maximal::MatcherBackend;

/// ε of every run, as the benchmark serves it.
const EPS: f64 = 0.5;
/// δ of the randomized runs.
const DELTA: f64 = 0.1;
/// Seed of every run's own randomness.
const SEED: u64 = 7;

/// FNV-1a over little-endian `u64`s.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_all(&mut self, xs: impl ExactSizeIterator<Item = u64>) {
        self.eat(xs.len() as u64);
        xs.for_each(|x| self.eat(x));
    }
}

/// Fingerprint of every field of `report`. The destructuring is
/// exhaustive, so a field added to the report fails to compile here
/// until it is hashed too.
fn fingerprint(inst: &Instance, report: &AsmReport) -> u64 {
    let AsmReport {
        matching,
        rounds,
        nominal_rounds,
        mm_rounds,
        mm_invocations,
        mm_nonmaximal,
        scheduled_proposal_rounds,
        executed_proposal_rounds,
        scheduled_quantile_matches,
        proposals,
        acceptances,
        rejections,
        good_men,
        bad_men,
        removed_men,
        snapshots,
    } = report;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.eat(matching.num_nodes() as u64);
    for v in inst.ids().players() {
        h.eat(matching.partner(v).map_or(u64::MAX, |u| u64::from(u.raw())));
    }
    for &x in [
        rounds,
        nominal_rounds,
        mm_rounds,
        mm_invocations,
        mm_nonmaximal,
        scheduled_proposal_rounds,
        executed_proposal_rounds,
        scheduled_quantile_matches,
        proposals,
        acceptances,
        rejections,
    ] {
        h.eat(x);
    }
    h.eat(*good_men as u64);
    h.eat_all(bad_men.iter().map(|m| u64::from(m.raw())));
    h.eat_all(removed_men.iter().map(|m| u64::from(m.raw())));
    h.eat(snapshots.len() as u64);
    for snapshot in snapshots {
        let QmSnapshot {
            outer,
            inner,
            matched_men,
            exhausted_men,
            bad_men,
            rounds_so_far,
        } = *snapshot;
        for x in [
            outer,
            inner,
            matched_men as u64,
            exhausted_men as u64,
            bad_men as u64,
            rounds_so_far,
        ] {
            h.eat(x);
        }
    }
    h.0
}

/// The runs pinned for every instance, in the column order of the pin
/// tables.
#[derive(Clone, Copy, Debug)]
enum Run {
    Asm(MatcherBackend),
    RandAsm,
    AlmostRegular,
}

const GREEDY: Run = Run::Asm(MatcherBackend::DetGreedy);
const PROPOSAL: Run = Run::Asm(MatcherBackend::BipartiteProposal);
const PR: Run = Run::Asm(MatcherBackend::PanconesiRizzi);
const HKP: Run = Run::Asm(MatcherBackend::HkpOracle);
/// The wire's `ii` backend.
const II: Run = Run::Asm(MatcherBackend::IsraeliItai { max_iterations: 64 });
/// Israeli–Itai truncated to one `MatchingRound`, so that some calls
/// return a non-maximal matching and leave men with a nonempty active
/// set after their `QuantileMatch`.
const II_TRUNCATED: Run = Run::Asm(MatcherBackend::IsraeliItai { max_iterations: 1 });

/// Every algorithm and backend, as the small tables' columns.
const EVERY_RUN: [Run; 8] = [
    GREEDY,
    PROPOSAL,
    PR,
    HKP,
    II,
    II_TRUNCATED,
    Run::RandAsm,
    Run::AlmostRegular,
];

impl Run {
    fn report(self, inst: &Instance) -> AsmReport {
        match self {
            Run::Asm(backend) => asm(
                inst,
                &AsmConfig::new(EPS).with_backend(backend).with_seed(SEED),
            ),
            Run::RandAsm => rand_asm(inst, &RandAsmParams::new(EPS, DELTA).with_seed(SEED)),
            Run::AlmostRegular => {
                almost_regular_asm(inst, &AlmostRegularParams::new(EPS, DELTA).with_seed(SEED))
            }
        }
        .expect("every pinned configuration is valid")
    }
}

/// Builds every instance, runs each of `runs` on it, and fails listing
/// every run whose fingerprint differs from its pin, with the report's
/// headline numbers and a row to paste.
fn check<const R: usize>(runs: [Run; R], pins: &[(GeneratorConfig, [u64; R])]) {
    let mut diverged = Vec::new();
    for (config, prints) in pins {
        let inst = config.build();
        let got: Vec<(Run, AsmReport, u64)> = runs
            .iter()
            .map(|&run| {
                let report = run.report(&inst);
                let print = fingerprint(&inst, &report);
                (run, report, print)
            })
            .collect();
        if got
            .iter()
            .zip(prints)
            .all(|((_, _, print), pin)| print == pin)
        {
            continue;
        }
        let row: Vec<String> = got.iter().map(|(_, _, p)| format!("{p:#018x}")).collect();
        diverged.push(format!("{config}: [{}]", row.join(", ")));
        for ((run, report, print), pin) in got.iter().zip(prints) {
            if print != pin {
                diverged.push(format!(
                    "  {run:?}: |M| = {}, {} rounds, {} PRs ({} not maximal), {} proposals, \
                     {} acceptances, {} rejections",
                    report.matching.len(),
                    report.rounds,
                    report.executed_proposal_rounds,
                    report.mm_nonmaximal,
                    report.proposals,
                    report.acceptances,
                    report.rejections,
                ));
            }
        }
    }
    assert!(diverged.is_empty(), "diverged:\n{}", diverged.join("\n"));
}

const fn regular(n: usize, seed: u64) -> GeneratorConfig {
    GeneratorConfig::Regular { n, d: n / 4, seed }
}

const fn complete(n: usize, seed: u64) -> GeneratorConfig {
    GeneratorConfig::Complete { n, seed }
}

const fn erdos_renyi(n: usize, seed: u64) -> GeneratorConfig {
    GeneratorConfig::ErdosRenyi {
        num_women: n,
        num_men: n,
        p: 0.5,
        seed,
    }
}

const fn zipf(n: usize, seed: u64) -> GeneratorConfig {
    GeneratorConfig::Zipf {
        n,
        d: n / 4,
        s: 1.1,
        seed,
    }
}

#[test]
fn small_mix_at_n_16_32_64() {
    check(
        EVERY_RUN,
        &[
            (
                regular(16, 4),
                [
                    0x14e9_631c_4666_a983,
                    0x14e9_631c_4666_a983,
                    0xcdff_3515_671f_b017,
                    0x1132_1b7c_971f_e6ce,
                    0x5a2e_b9b4_a209_63cb,
                    0x04d3_4446_4a58_0732,
                    0x7b9f_1d5b_62a3_65c2,
                    0xe727_34bc_229a_cafa,
                ],
            ),
            (
                complete(16, 4),
                [
                    0x6821_bc41_0663_ae67,
                    0x6821_bc41_0663_ae67,
                    0x903f_faeb_a978_b93f,
                    0x68d1_e10f_525e_289a,
                    0x15ce_1fe0_09cd_669b,
                    0x122c_31df_0b04_4bca,
                    0xc3e6_f8a2_b3f1_0e7a,
                    0xa475_de14_299d_a81a,
                ],
            ),
            (
                erdos_renyi(16, 4),
                [
                    0x719c_b783_6818_5d83,
                    0x719c_b783_6818_5d83,
                    0xa12e_eb63_2f0b_6e09,
                    0xe202_f5bd_b9b9_37f7,
                    0x7f6e_cdab_71f3_0fd1,
                    0x1d20_c4ff_552b_a8e0,
                    0x2d08_bc6f_7f05_0eb0,
                    0x535e_0de6_8ed6_e912,
                ],
            ),
            (
                zipf(16, 4),
                [
                    0x8b29_2c5a_fe1e_ebe2,
                    0x8b29_2c5a_fe1e_ebe2,
                    0xd2c2_07ac_2952_1b38,
                    0xd0a1_f7f8_07c5_251a,
                    0x50b7_44aa_3a56_f100,
                    0x6d37_80f9_dcee_5351,
                    0x3f20_45c9_6738_91a1,
                    0xc930_52c5_a0d4_8355,
                ],
            ),
            (
                regular(32, 5),
                [
                    0x3755_c71a_4b81_89e0,
                    0x3755_c71a_4b81_89e0,
                    0x7424_9dc4_2a07_d6e4,
                    0x7810_75c0_d835_1cf5,
                    0x3870_0784_0ed8_cdc3,
                    0x4977_f31f_a9b2_92ac,
                    0x1fb3_a834_feb2_4b3c,
                    0x274e_da2d_5889_cf5f,
                ],
            ),
            (
                complete(32, 5),
                [
                    0xa692_74f6_23e3_0c5c,
                    0xa692_74f6_23e3_0c5c,
                    0x1524_459e_989c_4aec,
                    0xb978_035c_e8e5_001b,
                    0xdfaf_029d_ce8d_6409,
                    0xb13e_0f29_2024_bb3a,
                    0x76b4_d0a0_d185_214a,
                    0x64b1_724e_d265_2bc1,
                ],
            ),
            (
                erdos_renyi(32, 5),
                [
                    0xdd3b_61be_9ea2_8aba,
                    0xdd3b_61be_9ea2_8aba,
                    0x91e2_7e92_478f_4bca,
                    0x728c_e9e7_3368_1e1b,
                    0x564c_393f_dec0_5bcd,
                    0x61c4_ef71_ce99_e5b2,
                    0xe460_ec37_2902_7ea2,
                    0x3bf8_2cca_b8dd_9b10,
                ],
            ),
            (
                zipf(32, 5),
                [
                    0x03ca_aa9f_01cb_2841,
                    0x03ca_aa9f_01cb_2841,
                    0x1601_9d0e_19b8_4371,
                    0x4b47_e5c8_3eb7_ca78,
                    0x844f_7b4d_b123_46d6,
                    0x07c2_c530_db24_6379,
                    0x4b2b_a03f_78ba_0be9,
                    0x81f8_5152_a706_66ea,
                ],
            ),
            (
                regular(64, 6),
                [
                    0x7a85_72a3_b09e_5ffb,
                    0x7a85_72a3_b09e_5ffb,
                    0x4b46_6eef_f142_d1ff,
                    0xea95_a3f9_6e92_b469,
                    0xe5bd_4164_fe12_7d23,
                    0x66bd_ed9f_6887_272f,
                    0x3f2b_1108_d02a_a9e4,
                    0xaafa_6bf6_03de_b2d9,
                ],
            ),
            (
                complete(64, 6),
                [
                    0xef52_4175_e949_ea17,
                    0xef52_4175_e949_ea17,
                    0x294a_eddc_6e31_c6c7,
                    0xb0cb_3aa3_f57e_f318,
                    0x6fc0_f842_69cb_1d10,
                    0xae2f_b9cd_04c9_65d4,
                    0x616c_154d_f315_4ed3,
                    0x7860_1d4e_b25c_acc6,
                ],
            ),
            (
                erdos_renyi(64, 6),
                [
                    0x3131_fd15_f08f_260d,
                    0x3131_fd15_f08f_260d,
                    0x683d_556d_22db_20ab,
                    0xf7ad_d72f_4068_6d64,
                    0xa543_2af3_bf52_5661,
                    0x1192_95c0_b972_bfcd,
                    0x0336_2710_9f3c_ef22,
                    0x1634_6e44_1a91_4e29,
                ],
            ),
            (
                zipf(64, 6),
                [
                    0xe631_c3d3_d61e_10d1,
                    0xe631_c3d3_d61e_10d1,
                    0xda7b_3b72_09d9_3f48,
                    0xcf84_689e_2c1b_8643,
                    0xf990_875c_9172_879d,
                    0xfc49_206a_9c27_5a29,
                    0x6ed1_1d4f_762f_997a,
                    0xd5e7_29e1_d762_b553,
                ],
            ),
        ],
    );
}

#[test]
fn market_churn_families_at_n_256() {
    check(
        EVERY_RUN,
        &[
            (
                regular(256, 3),
                [
                    0x46fd_7068_1883_8a07,
                    0x46fd_7068_1883_8a07,
                    0xe37d_6161_d3fc_553b,
                    0x5cf9_6ca7_c511_8566,
                    0x180f_b0f2_0705_f877,
                    0x3724_c185_1e30_9fa4,
                    0x43fb_2e1d_ad8f_2fec,
                    0x9cdd_b91e_e866_fe12,
                ],
            ),
            (
                complete(256, 3),
                [
                    0x2313_e7fc_2b7e_8726,
                    0x368c_e9cb_645e_df7c,
                    0xa55a_0536_3325_8bdb,
                    0x0f89_f9d3_a639_674b,
                    0x795f_dee9_f474_07d3,
                    0x7515_27d3_a1db_a45d,
                    0x8726_bb92_4d92_4300,
                    0xdde5_b98c_33e1_ffb2,
                ],
            ),
            (
                erdos_renyi(256, 3),
                [
                    0xe127_b484_0ecc_31ce,
                    0xe127_b484_0ecc_31ce,
                    0x981a_1bb1_7afd_4949,
                    0xb113_44a3_08fb_6dfb,
                    0x615c_26dd_5caa_0b1d,
                    0x4c25_176a_3fdd_5446,
                    0x6dac_835a_123f_c4a6,
                    0xe7ce_5d3d_2460_061b,
                ],
            ),
            (
                zipf(256, 3),
                [
                    0x6805_285a_0010_d58d,
                    0xba66_15ed_c9ef_06c4,
                    0x5e88_0a52_b926_019f,
                    0xf7be_78ed_9f8c_7f21,
                    0x575a_44ad_ee20_09d7,
                    0x3738_41fd_1a65_09a6,
                    0x527c_15cb_a4bd_c494,
                    0x4b00_4173_0424_0dba,
                ],
            ),
        ],
    );
}

#[test]
#[ignore = "n = 1024: run in release with --ignored"]
fn large_closed_combos_at_n_1024() {
    check(
        [GREEDY, Run::RandAsm],
        &[
            (
                regular(1024, 1),
                [0x4e56_44c4_8856_4ba4, 0x5c05_ba23_80c0_d291],
            ),
            (
                regular(1024, 2),
                [0xaef0_e819_97ba_5452, 0x7793_b64e_fcbb_be13],
            ),
            (
                erdos_renyi(1024, 1),
                [0x9f64_38a0_bec7_15f5, 0x42e0_b86b_4449_de30],
            ),
            (
                erdos_renyi(1024, 2),
                [0xdf3d_f964_b2d8_9379, 0x5465_c603_c40b_c14e],
            ),
            (
                zipf(1024, 1),
                [0x9b3d_c6e9_bc7a_d0db, 0x521a_742a_5b14_242d],
            ),
            (
                zipf(1024, 2),
                [0xb856_6a25_5bd4_ae9e, 0xae71_5294_96f5_a86a],
            ),
        ],
    );
}
