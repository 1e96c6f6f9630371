//! Seeded inputs: application catalogs, Sec 10.1 sequences, and the
//! JSONL request lines the program receives.

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_core::events::json_escape;
use sdfrs_gen::{AppGenerator, GeneratorConfig};
use sdfrs_platform::ProcessorType;

/// Derives an independent sub-seed for stream `tag` of `seed`
/// (splitmix64 finaliser), so that e.g. the catalog and the request mix
/// of one seed do not share a random stream.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The small-application profile of the churn catalogs: the Sec 10.1
/// "mixed" requirement ranges on 2–4-actor graphs.
pub fn small_app_config() -> GeneratorConfig {
    GeneratorConfig {
        actors: 2..=4,
        extra_channels: 0..=1,
        ..GeneratorConfig::mixed()
    }
}

/// `count` applications drawn with `config`, named `{prefix}{i}`, for
/// `types`.
pub fn catalog(
    config: GeneratorConfig,
    types: Vec<ProcessorType>,
    seed: u64,
    count: usize,
    prefix: &str,
) -> Vec<ApplicationGraph> {
    let mut generator = AppGenerator::new(config, types, seed);
    (0..count)
        .map(|i| generator.generate(&format!("{prefix}{i}")))
        .collect()
}

/// The wire line admitting `app` with its text inline — what a client
/// sends to `serve`.
pub fn admit_line(app: &ApplicationGraph) -> String {
    let text = sdfrs_appmodel::textio::write_application(app);
    format!("{{\"op\":\"admit\",\"app\":\"{}\"}}", json_escape(&text))
}

/// The wire line departing `session`.
pub fn depart_line(session: u64) -> String {
    format!("{{\"op\":\"depart\",\"session\":{session}}}")
}

/// The wire line rebinding `session`.
pub fn rebind_line(session: u64) -> String {
    format!("{{\"op\":\"rebind\",\"session\":{session}}}")
}

/// The wire line of a status probe.
pub const STATUS_LINE: &str = "{\"op\":\"status\"}";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_lines_parse_back_to_the_catalog_app() {
        let types = vec![ProcessorType::new("risc"), ProcessorType::new("dsp")];
        let apps = catalog(small_app_config(), types, 7, 3, "c");
        for app in &apps {
            let actors = app.graph().actor_count();
            assert!((2..=4).contains(&actors));
            let parsed = sdfrs_core::service::parse_request_line(&admit_line(app)).unwrap();
            match parsed {
                sdfrs_core::service::ServiceRequest::Admit { app: back } => {
                    assert_eq!(back.graph().name(), app.graph().name());
                }
                other => panic!("not an admit: {other:?}"),
            }
        }
    }

    #[test]
    fn derived_seeds_differ() {
        assert_ne!(derive(1, 0), derive(1, 1));
        assert_ne!(derive(1, 0), derive(2, 0));
    }
}
