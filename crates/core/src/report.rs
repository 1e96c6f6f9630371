//! Human-readable allocation reports — the summary the CLI prints,
//! available as a library API so tools and tests share one format.

use std::fmt::Write as _;

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_platform::ArchitectureGraph;

use crate::flow::{Allocation, FlowStats};

/// Renders a complete allocation summary: binding, schedules, slices,
/// guarantee, statistics.
///
/// # Examples
///
/// ```
/// use sdfrs_appmodel::apps::{example_platform, paper_example};
/// use sdfrs_core::report::render_allocation;
/// use sdfrs_core::Allocator;
/// use sdfrs_platform::PlatformState;
///
/// # fn main() -> Result<(), sdfrs_core::MapError> {
/// let app = paper_example();
/// let arch = example_platform();
/// let state = PlatformState::new(&arch);
/// let (alloc, stats) = Allocator::new().allocate(&app, &arch, &state)?;
/// let report = render_allocation(&app, &arch, &alloc, Some(&stats));
/// assert!(report.contains("guaranteed throughput"));
/// # Ok(())
/// # }
/// ```
pub fn render_allocation(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    allocation: &Allocation,
    stats: Option<&FlowStats>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "allocation for {} on {}",
        app.graph().name(),
        arch.name()
    );
    let _ = writeln!(out, "  binding:");
    for (a, actor) in app.graph().actors() {
        match allocation.binding.tile_of(a) {
            Some(tile) => {
                let _ = writeln!(
                    out,
                    "    {:<12} -> {} ({})",
                    actor.name(),
                    arch.tile(tile).name(),
                    arch.tile(tile).processor_type()
                );
            }
            None => {
                let _ = writeln!(out, "    {:<12} -> (unbound)", actor.name());
            }
        }
    }
    let _ = writeln!(out, "  schedules and slices:");
    for tile in allocation.binding.used_tiles() {
        let schedule = allocation
            .schedules
            .get(tile)
            .map(|s| s.display(app.graph()).to_string())
            .unwrap_or_else(|| "(missing)".to_string());
        let _ = writeln!(
            out,
            "    {:<6} {}  ω = {}/{}",
            arch.tile(tile).name(),
            schedule,
            allocation.slices.at(tile),
            arch.tile(tile).wheel_size()
        );
    }
    let thr = allocation.guaranteed_throughput();
    let _ = writeln!(
        out,
        "  guaranteed throughput: {} iterations/time-unit (period {}), constraint λ = {}",
        thr,
        thr.recip(),
        app.throughput_constraint()
    );
    let _ = writeln!(out, "  resource usage per tile:");
    for tile in allocation.binding.used_tiles() {
        let u = allocation.usage.at(tile);
        let t = arch.tile(tile);
        let _ = writeln!(
            out,
            "    {:<6} wheel {}/{}  memory {}/{}  connections {}/{}  bw in {}/{} out {}/{}",
            t.name(),
            u.wheel,
            t.wheel_size(),
            u.memory,
            t.memory(),
            u.connections,
            t.max_connections(),
            u.bandwidth_in,
            t.bandwidth_in(),
            u.bandwidth_out,
            t.bandwidth_out()
        );
    }
    if let Some(s) = stats {
        let _ = writeln!(
            out,
            "  flow: {} throughput checks; bind {:?}, schedule {:?}, slices {:?}",
            s.throughput_checks, s.binding_time, s.scheduling_time, s.slice_time
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::Allocator;
    use sdfrs_appmodel::apps::{example_platform, paper_example};
    use sdfrs_platform::PlatformState;

    #[test]
    fn report_contains_every_section() {
        let app = paper_example();
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let (alloc, stats) = Allocator::new().allocate(&app, &arch, &state).unwrap();
        let report = render_allocation(&app, &arch, &alloc, Some(&stats));
        for needle in [
            "allocation for paper_example",
            "binding:",
            "a1",
            "a2",
            "a3",
            "schedules and slices:",
            "(a1 a2)*",
            "guaranteed throughput: 1/30",
            "resource usage per tile:",
            "throughput checks",
        ] {
            assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
        }
    }

    #[test]
    fn unbound_actors_are_visible() {
        let app = paper_example();
        let arch = example_platform();
        let state = PlatformState::new(&arch);
        let (mut alloc, _) = Allocator::new().allocate(&app, &arch, &state).unwrap();
        alloc
            .binding
            .unbind(app.graph().actor_by_name("a2").unwrap());
        let report = render_allocation(&app, &arch, &alloc, None);
        assert!(report.contains("(unbound)"));
        assert!(!report.contains("throughput checks"), "no stats requested");
    }
}
