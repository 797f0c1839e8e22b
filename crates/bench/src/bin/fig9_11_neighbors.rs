//! Regenerates the **neighbor-search studies of §6.4** (Figs. 9-11):
//! a spatial query (the paper queries the port of Los Angeles), a
//! temporal query (10:00 pm), and a textual query (a venue keyword),
//! comparing ACTOR's neighbors against CrossMap's.
//!
//! Run: `cargo run -p actor-bench --bin fig9_11_neighbors --release [-- --fast]`

use baselines::{train_crossmap, BaselineParams, CrossMapVariant, Substrate};
use benchkit::{dataset, Flags, ZooConfig};
use evalkit::neighbor::{NeighborReport, NeighborSearcher};
use evalkit::report::Table;
use mobility::GeoPoint;

fn print_side_by_side(title: &str, a: &NeighborReport, b: &NeighborReport) {
    println!("--- {title} ---");
    println!("query: {}\n", a.query);
    let mut table = Table::new(["ACTOR word", "score", "CrossMap word", "score"]);
    for i in 0..a.words.len().max(b.words.len()) {
        let (aw, asc) = a
            .words
            .get(i)
            .map(|(w, s)| (w.clone(), format!("{s:.3}")))
            .unwrap_or_default();
        let (bw, bsc) = b
            .words
            .get(i)
            .map(|(w, s)| (w.clone(), format!("{s:.3}")))
            .unwrap_or_default();
        table.row([aw, asc, bw, bsc]);
    }
    println!("{}", table.render());

    let mut ttable = Table::new(["ACTOR time", "score", "CrossMap time", "score"]);
    for i in 0..a.times.len().max(b.times.len()).min(5) {
        let (at, asc) = a
            .times
            .get(i)
            .map(|(t, s)| (t.clone(), format!("{s:.3}")))
            .unwrap_or_default();
        let (bt, bsc) = b
            .times
            .get(i)
            .map(|(t, s)| (t.clone(), format!("{s:.3}")))
            .unwrap_or_default();
        ttable.row([at, asc, bt, bsc]);
    }
    println!("{}", ttable.render());

    let mut ptable = Table::new(["ACTOR place", "score", "CrossMap place", "score"]);
    for i in 0..a.places.len().max(b.places.len()).min(5) {
        let fmt = |p: &(GeoPoint, f64)| {
            (
                format!("({:.4},{:.4})", p.0.lat, p.0.lon),
                format!("{:.3}", p.1),
            )
        };
        let (ap, asc) = a.places.get(i).map(fmt).unwrap_or_default();
        let (bp, bsc) = b.places.get(i).map(fmt).unwrap_or_default();
        ptable.row([ap, asc, bp, bsc]);
    }
    println!("{}", ptable.render());
}

fn main() {
    let flags = Flags::from_env();
    println!("== Neighbor search (Figs. 9-11): ACTOR vs CrossMap on synth-tweet ==\n");

    let d = dataset(
        mobility::synth::DatasetPreset::Tweet,
        flags.seed,
        flags.fast,
    );
    let zoo_cfg = if flags.fast {
        ZooConfig::fast(flags.threads, flags.seed)
    } else {
        ZooConfig::standard(flags.threads, flags.seed)
    };
    eprintln!("fitting ACTOR ...");
    let (actor, _) = actor_core::fit(&d.corpus, &d.split.train, &zoo_cfg.actor).expect("fit");
    eprintln!("fitting CrossMap ...");
    let substrate = Substrate::build(&d.corpus, &d.split.train, &zoo_cfg.actor);
    let crossmap = train_crossmap(
        &d.corpus,
        &substrate,
        CrossMapVariant::Plain,
        &BaselineParams::matched_to(&zoo_cfg.actor),
    );
    let cm = crossmap.model();
    let k = 10;
    // One searcher per model: the snapshot, scratch buffers, and cache are
    // built once and reused across all three figures' queries.
    let actor_search = NeighborSearcher::new(&actor);
    let cm_search = NeighborSearcher::new(cm);

    // Fig. 9 analogue: the "port" activity's anchor inside the LA bbox.
    // (The paper queries the port of LA at (33.7395, -118.2599).)
    let port = GeoPoint::new(33.7175, -118.2470);
    print_side_by_side(
        "Fig. 9: spatial query at the port anchor",
        &actor_search.spatial(port, k),
        &cm_search.spatial(port, k),
    );
    println!("expected: ACTOR's words are port-specific (dock/ship/berth...),\nCrossMap drifts to generic chatter.\n");

    // Fig. 10 analogue: 10:00 pm.
    let ten_pm = 22.0 * 3600.0;
    print_side_by_side(
        "Fig. 10: temporal query at 22:00",
        &actor_search.temporal(ten_pm, k),
        &cm_search.temporal(ten_pm, k),
    );
    println!("expected: both return late-evening hotspots; ACTOR's words name\nspecific nighttime activities.\n");

    // Fig. 11 analogue: a venue keyword (the paper queries a sports pub).
    let venue = "stadium_venue_0_00";
    match (actor_search.textual(venue, k), cm_search.textual(venue, k)) {
        (Some(a), Some(b)) => {
            print_side_by_side(&format!("Fig. 11: textual query \"{venue}\""), &a, &b);
            println!("expected: neighbors name the venue's activity (game/score/team...)\nand nearby hotspots.\n");
        }
        _ => println!("venue token {venue} not in vocabulary — regenerate dataset"),
    }
}
