//! Pins what the generators emit at the sizes the benchmark serves.
//!
//! The conformance cases and the golden corpora pin generator output only
//! for recipes with n ≤ 14, so a sampler that diverged at n = 1024 would
//! pass them. Each recipe here records |E| and an FNV-1a fingerprint of
//! every player's ranked list: the three `large-closed` recipes, the four
//! `market-churn` families, the small mix, Zipf's fallback fill, a Zipf
//! exponent whose weights underflow to 0, and Erdős–Rényi at p ∈ {0, 1}.
//! A changed sampler must reproduce every constant below.

use asm_instance::generators::GeneratorConfig;
use asm_instance::Instance;

/// FNV-1a over every player's ranked list in node-id order, each list
/// prefixed by its length, as little-endian `u32`s.
fn fingerprint(inst: &Instance) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in inst.ids().players() {
        let ranked = inst.prefs(v).ranked();
        eat(ranked.len() as u32);
        for &u in ranked {
            eat(u.raw());
        }
    }
    h
}

/// Builds every recipe and fails listing each one whose |E| or
/// fingerprint differs from its pin.
fn check(pins: &[(GeneratorConfig, usize, u64)]) {
    let diverged: Vec<String> = pins
        .iter()
        .filter_map(|(config, edges, print)| {
            let inst = config.build();
            let got = (inst.num_edges(), fingerprint(&inst));
            (got != (*edges, *print))
                .then(|| format!("{config}: |E| = {}, fingerprint {:#018x}", got.0, got.1))
        })
        .collect();
    assert!(diverged.is_empty(), "diverged:\n{}", diverged.join("\n"));
}

const fn regular(n: usize, seed: u64) -> GeneratorConfig {
    GeneratorConfig::Regular { n, d: n / 4, seed }
}

const fn complete(n: usize, seed: u64) -> GeneratorConfig {
    GeneratorConfig::Complete { n, seed }
}

const fn erdos_renyi(n: usize, p: f64, seed: u64) -> GeneratorConfig {
    GeneratorConfig::ErdosRenyi {
        num_women: n,
        num_men: n,
        p,
        seed,
    }
}

const fn zipf(n: usize, d: usize, s: f64, seed: u64) -> GeneratorConfig {
    GeneratorConfig::Zipf { n, d, s, seed }
}

#[test]
fn large_closed_recipes_at_n_1024() {
    check(&[
        (regular(1024, 1), 262_144, 0xebbc_742f_578c_9431),
        (regular(1024, 2), 262_144, 0x07bd_db49_fc60_0379),
        (erdos_renyi(1024, 0.5, 1), 523_373, 0xede8_de78_3022_13c6),
        (erdos_renyi(1024, 0.5, 2), 524_725, 0xb32a_3f09_fbb7_569e),
        (zipf(1024, 256, 1.1, 1), 262_144, 0xc5b7_2ad8_17a2_92ed),
        (zipf(1024, 256, 1.1, 2), 262_144, 0x38ce_6f45_19f6_81b9),
    ]);
}

#[test]
fn market_churn_families_at_n_256() {
    check(&[
        (regular(256, 3), 16_384, 0x90f1_5128_01f7_5d51),
        (complete(256, 3), 65_536, 0xb263_cb34_9ddf_85b9),
        (erdos_renyi(256, 0.5, 3), 32_724, 0xd602_ec9b_ef42_e42f),
        (zipf(256, 64, 1.1, 3), 16_384, 0xe1fa_f59b_a2dc_b677),
    ]);
}

#[test]
fn small_mix_at_n_16_32_64() {
    check(&[
        (regular(16, 4), 64, 0xf277_0a98_928d_70b5),
        (complete(16, 4), 256, 0xea3b_dea8_b9ac_e475),
        (erdos_renyi(16, 0.5, 4), 125, 0xfd80_9dc4_4431_4902),
        (zipf(16, 4, 1.1, 4), 64, 0x0642_1972_e2a1_836d),
        (regular(32, 5), 256, 0x800c_8a73_5655_4375),
        (complete(32, 5), 1_024, 0xce25_92db_109c_d715),
        (erdos_renyi(32, 0.5, 5), 521, 0x999c_8cd7_c830_0528),
        (zipf(32, 8, 1.1, 5), 256, 0xc550_ed98_53af_2ab1),
        (regular(64, 6), 1_024, 0xf83f_4b09_2dd9_7c05),
        (complete(64, 6), 4_096, 0xf03a_9868_8c5c_d205),
        (erdos_renyi(64, 0.5, 6), 2_033, 0x015e_8393_008c_9150),
        (zipf(64, 16, 1.1, 6), 1_024, 0xd834_657e_9797_c286),
    ]);
}

#[test]
fn sampler_edge_cases() {
    check(&[
        // d = n: s = 3 exhausts the attempt budget and takes the
        // fallback fill; s = 0 samples uniformly until every woman is in.
        (zipf(64, 64, 0.0, 7), 4_096, 0x745f_fd63_981c_7985),
        (zipf(64, 64, 3.0, 7), 4_096, 0x3dd5_8d21_10cd_f0b5),
        // Every weight past the first is lost in the rounding of the
        // sum (most underflow to 0), so the cumulative weights are flat
        // after the first: the search's tie rule picks every index, and
        // the fallback fill completes each list.
        (zipf(64, 8, 400.0, 7), 512, 0xc6c9_4ae6_f7ee_d755),
        (erdos_renyi(64, 0.0, 7), 0, 0x7da1_44b9_7d05_4b25),
        (erdos_renyi(64, 1.0, 7), 4_096, 0x5f07_0025_62f2_4ee5),
        (
            GeneratorConfig::ErdosRenyi {
                num_women: 40,
                num_men: 70,
                p: 0.3,
                seed: 7,
            },
            880,
            0xfe45_e589_1ad1_692e,
        ),
    ]);
}
