//! Ablation variants of §6.3.

use crate::config::ActorConfig;

/// The three models compared in Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// ACTOR-complete.
    Complete,
    /// ACTOR w/o inter: no user-layer pre-training, no `M_inter` training.
    WithoutInter,
    /// ACTOR w/o intra: words treated as individual textual units (no
    /// bag-of-words sum).
    WithoutIntra,
}

impl Variant {
    /// All variants in Table 4 row order.
    pub const ALL: [Variant; 3] = [
        Variant::WithoutInter,
        Variant::WithoutIntra,
        Variant::Complete,
    ];

    /// Applies the variant's switches to a base configuration.
    pub fn apply(self, mut config: ActorConfig) -> ActorConfig {
        match self {
            Variant::Complete => {}
            Variant::WithoutInter => {
                config.use_inter = false;
            }
            Variant::WithoutIntra => {
                config.use_intra_bag = false;
            }
        }
        config
    }

    /// Row label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Complete => "ACTOR-complete",
            Variant::WithoutInter => "ACTOR w/o inter",
            Variant::WithoutIntra => "ACTOR w/o intra",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_changes_nothing() {
        let base = ActorConfig::default();
        let c = Variant::Complete.apply(base.clone());
        assert!(c.use_inter && c.use_intra_bag);
        assert_eq!(c.dim, base.dim);
    }

    #[test]
    fn without_inter_disables_inter_only() {
        let c = Variant::WithoutInter.apply(ActorConfig::default());
        assert!(!c.use_inter);
        assert!(c.use_intra_bag);
    }

    #[test]
    fn without_intra_disables_bag_only() {
        let c = Variant::WithoutIntra.apply(ActorConfig::default());
        assert!(c.use_inter);
        assert!(!c.use_intra_bag);
    }

    #[test]
    fn labels_are_distinct() {
        let set: std::collections::HashSet<_> = Variant::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(set.len(), 3);
    }
}
