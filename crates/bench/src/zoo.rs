//! The model zoo: trains every Table 2 method on one dataset.

use actor_core::ActorConfig;
use baselines::{
    train_crossmap, train_lgta, train_line, train_metapath2vec, train_mgtm, BaselineParams,
    CrossMapVariant, LgtaParams, LineVariant, MetapathParams, MgtmParams, Substrate,
};
use evalkit::CrossModalModel;
use mobility::{Corpus, RecordId};

/// Budgets for one zoo training run.
#[derive(Debug, Clone)]
pub struct ZooConfig {
    /// ACTOR (and ablation) configuration; baselines are budget-matched.
    pub actor: ActorConfig,
}

impl ZooConfig {
    /// Standard budgets for the full-size presets.
    pub fn standard(threads: usize, seed: u64) -> Self {
        let actor = ActorConfig {
            dim: 128,
            threads,
            seed,
            max_epochs: 100,
            // 256-edge batches × 120 × 100 epochs ≈ 3.1M samples per edge
            // type — a few passes over each type's edges at preset scale.
            batches_per_type: 120,
            pretrain_samples: 2_000_000,
            ..ActorConfig::default()
        };
        Self { actor }
    }

    /// Reduced budgets for `--fast` runs.
    pub fn fast(threads: usize, seed: u64) -> Self {
        let actor = ActorConfig {
            threads,
            seed,
            ..ActorConfig::fast()
        };
        Self { actor }
    }
}

/// A trained zoo entry.
pub struct ZooModel {
    /// Report name (Table 2 row label).
    pub name: String,
    /// The model behind the evaluation trait.
    pub model: Box<dyn CrossModalModel>,
    /// Training wall-clock seconds.
    pub train_seconds: f64,
}

/// Trains every Table 2 method (paper row order) on one dataset.
pub fn train_zoo(corpus: &Corpus, train_ids: &[RecordId], config: &ZooConfig) -> Vec<ZooModel> {
    let actor_cfg = &config.actor;
    let base = BaselineParams::matched_to(actor_cfg);
    let substrate = Substrate::build(corpus, train_ids, actor_cfg);

    let mut zoo: Vec<ZooModel> = Vec::new();
    let mut push = |name: &str, seconds: f64, model: Box<dyn CrossModalModel>| {
        zoo.push(ZooModel {
            name: name.to_string(),
            model,
            train_seconds: seconds,
        });
    };

    let timed = |f: &mut dyn FnMut() -> Box<dyn CrossModalModel>| -> (f64, Box<dyn CrossModalModel>) {
        let t = std::time::Instant::now();
        let m = f();
        (t.elapsed().as_secs_f64(), m)
    };

    let (s, m) = timed(&mut || {
        Box::new(train_lgta(
            corpus,
            train_ids,
            actor_cfg,
            &LgtaParams::default(),
        ))
    });
    push("LGTA", s, m);

    let (s, m) = timed(&mut || {
        Box::new(train_mgtm(
            corpus,
            train_ids,
            actor_cfg,
            &MgtmParams::default(),
        ))
    });
    push("MGTM", s, m);

    let (s, m) = timed(&mut || {
        Box::new(train_metapath2vec(
            corpus,
            &substrate,
            &MetapathParams::default(),
            &base,
        ))
    });
    push("metapath2vec", s, m);

    let (s, m) = timed(&mut || {
        Box::new(train_line(corpus, &substrate, LineVariant::Plain, &base))
    });
    push("LINE", s, m);

    let (s, m) = timed(&mut || {
        Box::new(train_line(corpus, &substrate, LineVariant::WithUsers, &base))
    });
    push("LINE(U)", s, m);

    let (s, m) = timed(&mut || {
        Box::new(train_crossmap(
            corpus,
            &substrate,
            CrossMapVariant::Plain,
            &base,
        ))
    });
    push("CrossMap", s, m);

    let (s, m) = timed(&mut || {
        Box::new(train_crossmap(
            corpus,
            &substrate,
            CrossMapVariant::WithUsers,
            &base,
        ))
    });
    push("CrossMap(U)", s, m);

    let (s, m) = timed(&mut || {
        let (model, _) = actor_core::fit(corpus, train_ids, actor_cfg).expect("ACTOR fit");
        Box::new(model)
    });
    push("ACTOR", s, m);

    zoo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::dataset;
    use mobility::synth::DatasetPreset;

    #[test]
    fn zoo_trains_all_eight_methods() {
        let d = dataset(DatasetPreset::Foursquare, 3, true);
        let mut cfg = ZooConfig::fast(2, 3);
        cfg.actor.max_epochs = 5;
        cfg.actor.batches_per_type = 4;
        cfg.actor.pretrain_samples = 20_000;
        let zoo = train_zoo(&d.corpus, &d.split.train, &cfg);
        let names: Vec<&str> = zoo.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "LGTA",
                "MGTM",
                "metapath2vec",
                "LINE",
                "LINE(U)",
                "CrossMap",
                "CrossMap(U)",
                "ACTOR"
            ]
        );
        // Topic models must report no time support; embeddings must.
        assert!(!zoo[0].model.supports_time());
        assert!(zoo[3].model.supports_time());
    }
}
