//! Hand-curated activity themes.
//!
//! Each theme is a named urban activity with a characteristic word list, a
//! time-of-day peak, and a rough venue anchor inside the Los Angeles
//! bounding box used by the TWEET dataset (the presets translate anchors
//! into other cities by shifting the bounding box). Themes make the
//! qualitative case studies (Figs. 4–11) legible: querying the "port"
//! hotspot really does return dock/ship/berth vocabulary.

/// A named activity template.
#[derive(Debug, Clone, Copy)]
pub struct Theme {
    /// Short name, also used to derive venue token names.
    pub name: &'static str,
    /// Characteristic keywords.
    pub words: &'static [&'static str],
    /// Peak hour of day (0.0–24.0).
    pub peak_hour: f64,
    /// Std-dev of the time-of-day distribution, in hours.
    pub hour_sd: f64,
    /// Venue anchor offset inside the unit city square `[0,1]²`
    /// (mapped to the preset's bounding box at world-build time).
    pub anchor: (f64, f64),
}

/// The theme catalogue. Presets draw the first `n_activities` entries.
pub const THEMES: &[Theme] = &[
    Theme {
        name: "beach",
        words: &[
            "beach",
            "surf",
            "sand",
            "waves",
            "sunset",
            "boardwalk",
            "swim",
            "tan",
            "volleyball",
            "pier",
        ],
        peak_hour: 15.0,
        hour_sd: 3.0,
        anchor: (0.15, 0.10),
    },
    Theme {
        name: "nightlife",
        words: &[
            "bar", "drinks", "cocktail", "dj", "dance", "club", "neon", "karaoke", "shots",
            "bouncer",
        ],
        peak_hour: 23.0,
        hour_sd: 1.8,
        anchor: (0.55, 0.45),
    },
    Theme {
        name: "concert",
        words: &[
            "concert", "band", "encore", "stage", "guitar", "crowd", "tour", "setlist", "amp",
            "vinyl",
        ],
        peak_hour: 21.0,
        hour_sd: 1.5,
        anchor: (0.50, 0.52),
    },
    Theme {
        name: "stadium",
        words: &[
            "game",
            "stadium",
            "score",
            "team",
            "fans",
            "playoffs",
            "homerun",
            "touchdown",
            "jersey",
            "season",
        ],
        peak_hour: 19.5,
        hour_sd: 2.0,
        anchor: (0.60, 0.40),
    },
    Theme {
        name: "museum",
        words: &[
            "museum",
            "exhibit",
            "gallery",
            "art",
            "sculpture",
            "curator",
            "painting",
            "installation",
            "modern",
            "wing",
        ],
        peak_hour: 13.0,
        hour_sd: 2.5,
        anchor: (0.48, 0.60),
    },
    Theme {
        name: "airport",
        words: &[
            "flight", "airport", "gate", "boarding", "layover", "terminal", "takeoff", "luggage",
            "delayed", "runway",
        ],
        peak_hour: 9.0,
        hour_sd: 4.5,
        anchor: (0.30, 0.25),
    },
    Theme {
        name: "port",
        words: &[
            "port",
            "dock",
            "ship",
            "berth",
            "departure",
            "passport",
            "cruise",
            "harbor",
            "cargo",
            "ferry",
        ],
        peak_hour: 11.0,
        hour_sd: 3.5,
        anchor: (0.58, 0.05),
    },
    Theme {
        name: "campus",
        words: &[
            "campus",
            "lecture",
            "library",
            "exam",
            "professor",
            "quad",
            "semester",
            "thesis",
            "dorm",
            "study",
        ],
        peak_hour: 11.5,
        hour_sd: 3.0,
        anchor: (0.42, 0.68),
    },
    Theme {
        name: "foodie",
        words: &[
            "brunch",
            "tacos",
            "ramen",
            "foodtruck",
            "dessert",
            "chef",
            "menu",
            "reservation",
            "spicy",
            "delicious",
        ],
        peak_hour: 12.5,
        hour_sd: 2.2,
        anchor: (0.52, 0.48),
    },
    Theme {
        name: "hiking",
        words: &[
            "trail",
            "hike",
            "summit",
            "canyon",
            "wildflowers",
            "switchback",
            "vista",
            "creek",
            "ridge",
            "sunrise",
        ],
        peak_hour: 8.0,
        hour_sd: 2.0,
        anchor: (0.70, 0.80),
    },
    Theme {
        name: "shopping",
        words: &[
            "mall", "sale", "boutique", "outlet", "fitting", "receipt", "designer", "discount",
            "haul", "window",
        ],
        peak_hour: 15.5,
        hour_sd: 2.5,
        anchor: (0.62, 0.55),
    },
    Theme {
        name: "cinema",
        words: &[
            "movie",
            "screening",
            "premiere",
            "trailer",
            "popcorn",
            "matinee",
            "sequel",
            "director",
            "theatre",
            "imax",
        ],
        peak_hour: 20.0,
        hour_sd: 2.0,
        anchor: (0.45, 0.50),
    },
    Theme {
        name: "coffee",
        words: &[
            "coffee", "espresso", "latte", "roast", "barista", "pastry", "brew", "mug", "caffeine",
            "beans",
        ],
        peak_hour: 8.5,
        hour_sd: 1.5,
        anchor: (0.50, 0.57),
    },
    Theme {
        name: "gym",
        words: &[
            "gym",
            "workout",
            "reps",
            "cardio",
            "deadlift",
            "trainer",
            "sweat",
            "protein",
            "treadmill",
            "gains",
        ],
        peak_hour: 18.0,
        hour_sd: 2.5,
        anchor: (0.57, 0.50),
    },
    Theme {
        name: "techmeetup",
        words: &[
            "startup",
            "demo",
            "hackathon",
            "keynote",
            "founders",
            "pitchdeck",
            "api",
            "beta",
            "venture",
            "whiteboard",
        ],
        peak_hour: 18.5,
        hour_sd: 1.5,
        anchor: (0.35, 0.42),
    },
    Theme {
        name: "market",
        words: &[
            "farmers", "market", "organic", "produce", "stall", "honey", "vendors", "samples",
            "flowers", "heirloom",
        ],
        peak_hour: 10.0,
        hour_sd: 1.5,
        anchor: (0.47, 0.63),
    },
    Theme {
        name: "themepark",
        words: &[
            "rollercoaster",
            "rides",
            "parade",
            "ticket",
            "mascot",
            "fireworks",
            "queue",
            "funnel",
            "carousel",
            "fastpass",
        ],
        peak_hour: 14.0,
        hour_sd: 3.0,
        anchor: (0.85, 0.35),
    },
    Theme {
        name: "marina",
        words: &[
            "sail", "marina", "yacht", "regatta", "anchor", "tide", "knots", "deckhand", "mast",
            "buoy",
        ],
        peak_hour: 13.5,
        hour_sd: 2.5,
        anchor: (0.25, 0.15),
    },
    Theme {
        name: "downtown",
        words: &[
            "skyline",
            "rooftop",
            "loft",
            "gallerywalk",
            "foodhall",
            "metro",
            "plaza",
            "mural",
            "highrise",
            "happyhour",
        ],
        peak_hour: 17.5,
        hour_sd: 3.0,
        anchor: (0.55, 0.47),
    },
    Theme {
        name: "zoo",
        words: &[
            "zoo", "giraffe", "penguins", "habitat", "keeper", "feeding", "safari", "otters",
            "aviary", "cubs",
        ],
        peak_hour: 12.0,
        hour_sd: 2.0,
        anchor: (0.58, 0.65),
    },
    Theme {
        name: "spa",
        words: &[
            "spa",
            "massage",
            "sauna",
            "facial",
            "relax",
            "aromatherapy",
            "wellness",
            "robe",
            "steam",
            "retreat",
        ],
        peak_hour: 14.5,
        hour_sd: 2.5,
        anchor: (0.40, 0.55),
    },
    Theme {
        name: "bookstore",
        words: &[
            "bookstore",
            "novel",
            "author",
            "signing",
            "paperback",
            "shelves",
            "poetry",
            "chapter",
            "indie",
            "bookmark",
        ],
        peak_hour: 16.0,
        hour_sd: 2.5,
        anchor: (0.49, 0.59),
    },
    Theme {
        name: "racetrack",
        words: &[
            "derby",
            "horses",
            "racetrack",
            "jockey",
            "furlong",
            "paddock",
            "odds",
            "photofinish",
            "stables",
            "turf",
        ],
        peak_hour: 15.0,
        hour_sd: 1.5,
        anchor: (0.75, 0.55),
    },
    Theme {
        name: "observatory",
        words: &[
            "telescope",
            "stars",
            "planetarium",
            "nebula",
            "astronomy",
            "eclipse",
            "orbit",
            "dome",
            "stargazing",
            "comet",
        ],
        peak_hour: 21.5,
        hour_sd: 1.5,
        anchor: (0.60, 0.70),
    },
    Theme {
        name: "skatepark",
        words: &[
            "skate",
            "ollie",
            "halfpipe",
            "grind",
            "kickflip",
            "ramp",
            "longboard",
            "bowl",
            "trucks",
            "griptape",
        ],
        peak_hour: 16.5,
        hour_sd: 2.0,
        anchor: (0.33, 0.30),
    },
    Theme {
        name: "courthouse",
        words: &[
            "jury",
            "verdict",
            "hearing",
            "courtroom",
            "attorney",
            "docket",
            "testimony",
            "gavel",
            "appeal",
            "bailiff",
        ],
        peak_hour: 10.5,
        hour_sd: 2.0,
        anchor: (0.53, 0.49),
    },
    Theme {
        name: "aquarium",
        words: &[
            "aquarium",
            "jellyfish",
            "sharks",
            "tanks",
            "seahorse",
            "stingray",
            "kelp",
            "touchpool",
            "octopus",
            "eel",
        ],
        peak_hour: 13.5,
        hour_sd: 2.0,
        anchor: (0.20, 0.12),
    },
    Theme {
        name: "vineyard",
        words: &[
            "vineyard",
            "tasting",
            "sommelier",
            "merlot",
            "harvest",
            "barrel",
            "vintage",
            "cellar",
            "grapes",
            "pairing",
        ],
        peak_hour: 15.0,
        hour_sd: 2.0,
        anchor: (0.80, 0.75),
    },
    Theme {
        name: "arcade",
        words: &[
            "arcade",
            "pinball",
            "joystick",
            "highscore",
            "tokens",
            "cabinet",
            "retro",
            "skeeball",
            "claw",
            "multiplayer",
        ],
        peak_hour: 19.0,
        hour_sd: 2.5,
        anchor: (0.44, 0.41),
    },
    Theme {
        name: "karting",
        words: &[
            "karting", "laps", "helmet", "chicane", "apex", "pitlane", "overtake", "grid", "pole",
            "throttle",
        ],
        peak_hour: 17.0,
        hour_sd: 2.0,
        anchor: (0.70, 0.28),
    },
    Theme {
        name: "botanical",
        words: &[
            "garden",
            "orchid",
            "succulent",
            "greenhouse",
            "bonsai",
            "fern",
            "arboretum",
            "bloom",
            "pollinator",
            "topiary",
        ],
        peak_hour: 11.0,
        hour_sd: 2.5,
        anchor: (0.46, 0.72),
    },
    Theme {
        name: "poetryslam",
        words: &[
            "poets",
            "slam",
            "openmic",
            "verse",
            "stanza",
            "spokenword",
            "snaps",
            "headliner",
            "freestyle",
            "lyric",
        ],
        peak_hour: 20.5,
        hour_sd: 1.2,
        anchor: (0.51, 0.44),
    },
];

/// Polysemous words appearing in the distributions of *several* activities.
///
/// Each entry lists the word and the theme names it attaches to. These
/// reproduce the word-sense-disambiguation challenge of §1 ("ape" as
/// imitate vs. the movie): the word alone is ambiguous; its record context
/// resolves it, which is what the intra-record bag-of-words structure is
/// for.
pub const POLYSEMOUS: &[(&str, &[&str])] = &[
    ("rock", &["concert", "hiking"]),
    ("wave", &["beach", "concert"]),
    ("pitch", &["stadium", "techmeetup"]),
    ("screen", &["cinema", "techmeetup"]),
    ("java", &["coffee", "techmeetup"]),
    ("deck", &["port", "marina", "techmeetup"]),
    ("court", &["stadium", "shopping"]),
    ("track", &["gym", "racetrack", "concert"]),
    ("shot", &["nightlife", "cinema", "stadium"]),
    ("bean", &["coffee", "market"]),
    ("lift", &["gym", "hiking"]),
    ("star", &["cinema", "observatory"]),
    ("board", &["beach", "airport", "techmeetup"]),
    ("pool", &["spa", "nightlife"]),
    ("spring", &["hiking", "spa"]),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn theme_names_are_unique() {
        let names: HashSet<_> = THEMES.iter().map(|t| t.name).collect();
        assert_eq!(names.len(), THEMES.len());
    }

    #[test]
    fn theme_words_do_not_repeat_across_themes() {
        let mut seen = HashSet::new();
        for t in THEMES {
            for w in t.words {
                assert!(seen.insert(*w), "{w} appears in two themes");
            }
        }
    }

    #[test]
    fn theme_parameters_are_sane() {
        for t in THEMES {
            assert!((0.0..24.0).contains(&t.peak_hour), "{}", t.name);
            assert!(t.hour_sd > 0.0);
            assert!((0.0..=1.0).contains(&t.anchor.0));
            assert!((0.0..=1.0).contains(&t.anchor.1));
            assert!(t.words.len() >= 8, "{} too few words", t.name);
        }
    }

    #[test]
    fn polysemous_words_reference_real_themes() {
        let names: HashSet<_> = THEMES.iter().map(|t| t.name).collect();
        for (w, themes) in POLYSEMOUS {
            assert!(themes.len() >= 2, "{w} must span at least two themes");
            for th in *themes {
                assert!(names.contains(th), "{w} references unknown theme {th}");
            }
        }
    }

    #[test]
    fn polysemous_words_are_not_theme_words() {
        for (w, _) in POLYSEMOUS {
            for t in THEMES {
                assert!(!t.words.contains(w), "{w} duplicates a theme word");
            }
        }
    }

    #[test]
    fn catalogue_is_large_enough_for_presets() {
        assert!(THEMES.len() >= 24);
    }
}
