//! Reference numbers from the paper, printed next to measured values so
//! every run is a self-contained paper-vs-reproduction comparison.

/// A table row: method name plus nine MRR cells
/// (utgeo text/loc/time, tweet …, 4sq …); `None` marks "/" cells.
pub type MrrRow = (&'static str, [Option<f64>; 9]);

/// Table 2 as printed in the paper.
pub const TABLE2: &[MrrRow] = &[
    (
        "LGTA",
        [
            Some(0.3571),
            Some(0.3440),
            None,
            Some(0.4615),
            Some(0.4439),
            None,
            Some(0.5739),
            Some(0.5409),
            None,
        ],
    ),
    (
        "MGTM",
        [
            Some(0.2993),
            Some(0.3022),
            None,
            Some(0.3615),
            Some(0.3619),
            None,
            Some(0.4538),
            Some(0.4191),
            None,
        ],
    ),
    (
        "metapath2vec",
        [
            Some(0.5062),
            Some(0.5267),
            Some(0.3169),
            Some(0.5083),
            Some(0.5369),
            Some(0.2986),
            Some(0.8475),
            Some(0.8673),
            Some(0.3262),
        ],
    ),
    (
        "LINE",
        [
            Some(0.5433),
            Some(0.5442),
            Some(0.3427),
            Some(0.6246),
            Some(0.5997),
            Some(0.3235),
            Some(0.9076),
            Some(0.8954),
            Some(0.3637),
        ],
    ),
    (
        "LINE(U)",
        [
            Some(0.5830),
            Some(0.5798),
            Some(0.3578),
            Some(0.6315),
            Some(0.6066),
            Some(0.3297),
            Some(0.9078),
            Some(0.8972),
            Some(0.3719),
        ],
    ),
    (
        "CrossMap",
        [
            Some(0.5778),
            Some(0.6015),
            Some(0.3852),
            Some(0.6701),
            Some(0.6561),
            Some(0.3439),
            Some(0.9393),
            Some(0.9138),
            Some(0.3690),
        ],
    ),
    (
        "CrossMap(U)",
        [
            Some(0.5808),
            Some(0.6070),
            Some(0.3712),
            Some(0.6894),
            Some(0.6632),
            Some(0.3469),
            Some(0.9441),
            Some(0.9137),
            Some(0.3735),
        ],
    ),
    (
        "ACTOR",
        [
            Some(0.6207),
            Some(0.6275),
            Some(0.3885),
            Some(0.6991),
            Some(0.6805),
            Some(0.3509),
            Some(0.9519),
            Some(0.9211),
            Some(0.3758),
        ],
    ),
];

/// Table 4 (ablation) rows, same column layout as [`TABLE2`].
pub const TABLE4: &[MrrRow] = &[
    (
        "ACTOR w/o inter",
        [
            Some(0.6040),
            Some(0.6025),
            Some(0.3723),
            Some(0.6930),
            Some(0.6742),
            Some(0.3498),
            Some(0.9492),
            Some(0.9148),
            Some(0.3754),
        ],
    ),
    (
        "ACTOR w/o intra",
        [
            Some(0.6072),
            Some(0.6104),
            Some(0.3628),
            Some(0.6904),
            Some(0.6635),
            Some(0.3481),
            Some(0.9443),
            Some(0.9137),
            Some(0.3765),
        ],
    ),
    (
        "ACTOR-complete",
        [
            Some(0.6207),
            Some(0.6275),
            Some(0.3885),
            Some(0.6991),
            Some(0.6805),
            Some(0.3509),
            Some(0.9519),
            Some(0.9211),
            Some(0.3758),
        ],
    ),
];

/// A Table 1 row: (dataset, #tweets, |V|, |E|, #spatial, #temporal,
/// #word, #user) as reported in the paper.
pub type ScaleRow = (&'static str, u64, u64, u64, u64, u64, u64, u64);

/// Table 1 rows for scale comparison.
pub const TABLE1: &[ScaleRow] = &[
    (
        "UTGEO2011",
        671_978,
        148_287,
        16_081_265,
        8_946,
        34,
        20_000,
        119_307,
    ),
    (
        "TWEET", 1_188_405, 174_578, 28_521_412, 10_420, 27, 20_000, 144_131,
    ),
    ("4SQ", 479_298, 73_048, 4_920_504, 11_456, 29, 3_973, 57_590),
];

/// Formats an optional MRR cell (the "/" convention of Table 2).
pub fn cell(v: Option<f64>) -> String {
    v.map_or_else(|| "/".to_string(), |x| format!("{x:.4}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_wins_every_populated_column_in_table2() {
        let actor = &TABLE2.last().unwrap().1;
        for (name, row) in &TABLE2[..TABLE2.len() - 1] {
            for (i, v) in row.iter().enumerate() {
                if let (Some(v), Some(a)) = (v, actor[i]) {
                    assert!(a > *v, "{name} beats ACTOR in column {i}");
                }
            }
        }
    }

    #[test]
    fn ablation_complete_row_matches_table2_actor() {
        assert_eq!(TABLE4[2].1, TABLE2[7].1);
    }

    #[test]
    fn cell_formatting() {
        assert_eq!(cell(None), "/");
        assert_eq!(cell(Some(0.62066)), "0.6207");
    }
}
