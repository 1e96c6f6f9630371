//! Greedy scenario shrinking.
//!
//! When an oracle fires on a generated scenario, the raw reproduction is
//! noisy: six actors, a dozen channels, four tiles. [`shrink`] reduces it
//! to a minimal failing case by repeatedly trying structural
//! simplifications — drop an actor, drop a tile, drop a channel, set all
//! rates to one, halve execution times — and keeping any mutation on
//! which the caller's predicate still fails — for the panel,
//! [`still_fails`]: an oracle that failed on the original fails on the
//! candidate too. The result is what gets committed to the regression
//! corpus.

use sdfrs_appmodel::requirements::ActorRequirements;
use sdfrs_appmodel::ApplicationGraph;
use sdfrs_gen::Scenario;
use sdfrs_platform::{ArchitectureGraph, TileId};
use sdfrs_sdf::{ActorId, ChannelId, SdfGraph};

use crate::{check_scenario, HarnessConfig, OracleId, ScenarioReport};

/// The panel's shrink predicate: a candidate still fails when one of the
/// oracles that failed in `original` fails on it under `config`. A
/// candidate that fails only other oracles is a different defect, and
/// the shrink must not drift onto it.
pub fn still_fails<'a>(
    original: &ScenarioReport,
    config: &'a HarnessConfig,
) -> impl FnMut(&Scenario) -> bool + 'a {
    let failed: Vec<OracleId> = original.failures.iter().map(|f| f.oracle).collect();
    move |candidate| {
        check_scenario(candidate, config)
            .failures
            .iter()
            .any(|f| failed.contains(&f.oracle))
    }
}

/// Greedily shrinks `scenario` while `still_fails` keeps returning `true`
/// on the candidate, evaluating the predicate at most `max_evals` times.
///
/// Each pass tries every candidate mutation in a fixed order and restarts
/// from the first one that still fails; the loop ends at a fixpoint (no
/// candidate fails any more) or when the evaluation budget runs out.
/// The input scenario is assumed to fail — callers check that first.
pub fn shrink(
    scenario: &Scenario,
    mut still_fails: impl FnMut(&Scenario) -> bool,
    max_evals: usize,
) -> Scenario {
    let mut current = scenario.clone();
    let mut evals = 0;
    'outer: loop {
        for candidate in candidates(&current) {
            if evals >= max_evals {
                break 'outer;
            }
            evals += 1;
            if still_fails(&candidate) {
                current = candidate;
                continue 'outer;
            }
        }
        break;
    }
    current.name = format!("{}_min", scenario.name);
    current
}

/// Candidate one-step simplifications of a scenario, most aggressive
/// first (dropping an actor removes its channels too).
fn candidates(scenario: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    let app = &scenario.app;
    let graph = app.graph();

    for victim in graph.actor_ids() {
        if let Some(smaller) = drop_actor(app, victim) {
            out.push(with_app(scenario, smaller));
        }
    }
    for victim in scenario.arch.tile_ids() {
        if let Some(smaller) = drop_tile(&scenario.arch, victim) {
            out.push(Scenario::new(scenario.name.clone(), app.clone(), smaller));
        }
    }
    for (victim, ch) in graph.channels() {
        // Self-edges bound auto-concurrency; dropping one changes the
        // semantics the oracles rely on, so only plain channels go.
        if !ch.is_self_edge() {
            if let Some(smaller) = drop_channel(app, victim) {
                out.push(with_app(scenario, smaller));
            }
        }
    }
    if graph
        .channels()
        .any(|(_, c)| !c.is_self_edge() && (c.production_rate() > 1 || c.consumption_rate() > 1))
    {
        if let Some(simpler) = rebuild_app(app, |_| true, |_| true, &|_| 1, &|t| t) {
            out.push(with_app(scenario, simpler));
        }
    }
    if has_large_execution_times(app) {
        let halve = |t: u64| (t / 2).max(1);
        if let Some(simpler) = rebuild_app(app, |_| true, |_| true, &|r| r, &halve) {
            out.push(with_app(scenario, simpler));
        }
    }
    out
}

fn with_app(scenario: &Scenario, app: ApplicationGraph) -> Scenario {
    Scenario::new(scenario.name.clone(), app, scenario.arch.clone())
}

fn has_large_execution_times(app: &ApplicationGraph) -> bool {
    app.graph().actors().any(|(a, actor)| {
        actor.execution_time() > 1
            || app
                .actor_requirements(a)
                .supported_types()
                .any(|pt| app.execution_time(a, pt).unwrap_or(0) > 1)
    })
}

fn drop_actor(app: &ApplicationGraph, victim: ActorId) -> Option<ApplicationGraph> {
    if app.graph().actor_count() <= 1 {
        return None;
    }
    rebuild_app(app, |a| a != victim, |_| true, &|r| r, &|t| t)
}

fn drop_channel(app: &ApplicationGraph, victim: ChannelId) -> Option<ApplicationGraph> {
    rebuild_app(app, |_| true, |d| d != victim, &|r| r, &|t| t)
}

/// Clones the application, keeping only the selected actors/channels and
/// mapping every port rate / execution time through the given functions.
/// Returns `None` when the result is empty or fails application-model
/// validation (e.g. the mutation disconnected a required structure).
fn rebuild_app(
    app: &ApplicationGraph,
    keep_actor: impl Fn(ActorId) -> bool,
    keep_channel: impl Fn(ChannelId) -> bool,
    map_rate: &dyn Fn(u64) -> u64,
    map_time: &dyn Fn(u64) -> u64,
) -> Option<ApplicationGraph> {
    let src = app.graph();
    let mut g = SdfGraph::new(src.name());
    let mut map: Vec<Option<ActorId>> = vec![None; src.actor_count()];
    for (a, actor) in src.actors() {
        if keep_actor(a) {
            map[a.index()] = Some(g.add_actor(actor.name(), map_time(actor.execution_time())));
        }
    }
    if g.actor_count() == 0 {
        return None;
    }

    let mut kept_channels = Vec::new();
    for (d, ch) in src.channels() {
        if !keep_channel(d) {
            continue;
        }
        let (Some(s), Some(t)) = (map[ch.src().index()], map[ch.dst().index()]) else {
            continue;
        };
        // A rewritten self-edge must stay rate-balanced or the graph
        // turns inconsistent; rates on self-edges are untouched.
        let (p, q) = if ch.is_self_edge() {
            (ch.production_rate(), ch.consumption_rate())
        } else {
            (
                map_rate(ch.production_rate()),
                map_rate(ch.consumption_rate()),
            )
        };
        let nd = g.add_channel(ch.name(), s, p, t, q, ch.initial_tokens());
        kept_channels.push((nd, d));
    }

    let mut builder = ApplicationGraph::builder(g, app.throughput_constraint());
    for (a, _) in src.actors() {
        if let Some(na) = map[a.index()] {
            builder = builder.actor(na, map_requirements(app.actor_requirements(a), map_time));
        }
    }
    for (nd, d) in kept_channels {
        builder = builder.channel(nd, *app.channel_requirements(d));
    }
    // Keep the output actor; if it was the victim, fall back to the
    // last surviving actor (mirroring the generator's convention).
    let output = map[app.output_actor().index()].or_else(|| map.iter().rev().find_map(|&m| m))?;
    builder.output_actor(output).build().ok()
}

fn map_requirements(reqs: &ActorRequirements, map_time: &dyn Fn(u64) -> u64) -> ActorRequirements {
    let mut out = ActorRequirements::new();
    for pt in reqs.supported_types() {
        let tau = reqs.execution_time(pt).expect("supported type has a time");
        let mu = reqs.memory(pt).expect("supported type has a memory need");
        out = out.on(pt.clone(), map_time(tau).max(1), mu);
    }
    out
}

fn drop_tile(arch: &ArchitectureGraph, victim: TileId) -> Option<ArchitectureGraph> {
    if arch.tile_count() <= 1 {
        return None;
    }
    let mut out = ArchitectureGraph::new(arch.name());
    let mut map: Vec<Option<TileId>> = vec![None; arch.tile_count()];
    for (t, tile) in arch.tiles() {
        if t != victim {
            map[t.index()] = Some(out.add_tile(tile.clone()));
        }
    }
    for (_, c) in arch.connections() {
        if let (Some(s), Some(d)) = (map[c.src().index()], map[c.dst().index()]) {
            out.add_connection(s, d, c.latency());
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(seed: u64) -> Scenario {
        Scenario::sample(seed)
    }

    #[test]
    fn shrinking_an_always_failing_scenario_reaches_one_actor() {
        let s = scenario(0);
        let min = shrink(&s, |_| true, 500);
        assert_eq!(min.app.graph().actor_count(), 1);
        assert_eq!(min.arch.tile_count(), 1);
        assert!(min.name.ends_with("_min"));
    }

    #[test]
    fn shrunk_scenarios_stay_well_formed() {
        for seed in 0..8 {
            let s = scenario(seed);
            let min = shrink(&s, |_| true, 500);
            assert!(min.app.graph().validate().is_ok());
            assert!(min.app.graph().repetition_vector().is_ok());
        }
    }

    #[test]
    fn predicate_failures_keep_the_original() {
        let s = scenario(1);
        let min = shrink(&s, |_| false, 500);
        assert_eq!(min.app, s.app);
        assert_eq!(min.arch, s.arch);
    }

    #[test]
    fn the_eval_budget_is_respected() {
        let s = scenario(2);
        let mut evals = 0;
        let _ = shrink(
            &s,
            |_| {
                evals += 1;
                true
            },
            7,
        );
        assert!(evals <= 7);
    }
}
