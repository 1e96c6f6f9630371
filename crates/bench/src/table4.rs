//! E5: Table 4 — average number of application graphs bound per tile-cost
//! function and benchmark set, and the raw per-run data Table 5 reuses.
//!
//! Protocol of Sec 10.1/10.2: for each tile-cost function, architecture
//! graph (3 platforms) and sequence of application graphs (3 per set),
//! applications are allocated until the first failure; the reported number
//! is the count of successfully bound graphs, averaged over the 9 runs.

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_core::cost::CostWeights;
use sdfrs_core::flow::FlowConfig;
use sdfrs_core::multi_app::allocate_until_failure;
use sdfrs_gen::{AppGenerator, GeneratorConfig};
use sdfrs_platform::mesh::experiment_platforms;
use sdfrs_platform::{ArchitectureGraph, ProcessorType, TileUsage};

/// Configuration of the Table 4/5 experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Sequences per set (paper: 3).
    pub sequences: usize,
    /// Applications generated per sequence (must exceed the number any
    /// run can bind; the paper's best cell averages ~30).
    pub apps_per_sequence: usize,
    /// Base RNG seed; every (set, sequence) pair derives its own stream.
    pub seed: u64,
    /// State budget per throughput evaluation, bounding worst-case
    /// exploration on unlucky graphs.
    pub state_budget: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            sequences: 3,
            apps_per_sequence: 40,
            seed: 2007,
            state_budget: 200_000,
        }
    }
}

impl ExperimentConfig {
    /// A reduced configuration for quick runs and CI tests.
    pub fn quick() -> Self {
        ExperimentConfig {
            sequences: 1,
            apps_per_sequence: 10,
            ..ExperimentConfig::default()
        }
    }
}

/// One allocation run: a (set, weights, platform, sequence) combination.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark set name.
    pub set: &'static str,
    /// Tile-cost weights used.
    pub weights: CostWeights,
    /// Platform index (0..3) and sequence index.
    pub platform: usize,
    /// Sequence index within the set.
    pub sequence: usize,
    /// Applications successfully bound before the first failure.
    pub bound: usize,
    /// Throughput checks across the successful allocations.
    pub throughput_checks: usize,
    /// Total resources in use at the end of the run.
    pub usage: TileUsage,
    /// Total platform capacity (for efficiency ratios).
    pub capacity: TileUsage,
}

/// The full experiment output.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// All individual runs.
    pub runs: Vec<RunResult>,
    /// The weight settings, in Table 4 row order.
    pub weights: Vec<CostWeights>,
    /// The set names, in Table 4 column order.
    pub sets: Vec<&'static str>,
}

impl Experiment {
    /// Table 4: average bound count per (weight row, set column).
    pub fn table4(&self) -> Vec<Vec<f64>> {
        self.weights
            .iter()
            .map(|w| {
                self.sets
                    .iter()
                    .map(|s| {
                        let runs: Vec<&RunResult> = self
                            .runs
                            .iter()
                            .filter(|r| r.set == *s && r.weights == *w)
                            .collect();
                        runs.iter().map(|r| r.bound as f64).sum::<f64>() / runs.len().max(1) as f64
                    })
                    .collect()
            })
            .collect()
    }

    /// Average throughput checks per successful allocation across all
    /// runs (the paper reports 16.1).
    pub fn avg_throughput_checks(&self) -> f64 {
        let (checks, bound): (usize, usize) = self
            .runs
            .iter()
            .fold((0, 0), |(c, b), r| (c + r.throughput_checks, b + r.bound));
        checks as f64 / bound.max(1) as f64
    }
}

/// Table 4 as `repro table4` prints it: one row per weight setting, one
/// column per set, then a blank line.
pub fn render(exp: &Experiment) -> String {
    let mut out = String::from(
        "== Table 4: average number of application graphs bound ==\n\
         c1,c2,c3     set1(proc)  set2(mem)  set3(comm)  set4(mixed)\n",
    );
    for (w, row) in exp.weights.iter().zip(exp.table4()) {
        out += &format!(
            "{:<12} {:>9.2}  {:>9.2}  {:>9.2}  {:>10.2}\n",
            w.to_string(),
            row[0],
            row[1],
            row[2],
            row[3]
        );
    }
    out += "(paper: rows ranked per set — see EXPERIMENTS.md)\n\n";
    out
}

/// The Sec 10.2 run-time statistics as `repro runtime` prints them: the
/// allocations performed and the throughput checks per allocation.
pub fn render_runtime(exp: &Experiment) -> String {
    let total_bound: usize = exp.runs.iter().map(|r| r.bound).sum();
    format!(
        "== Sec 10.2: run-time statistics ==\n\
         allocations performed: {total_bound}; avg throughput checks per allocation: {:.1} (paper: 16.1)\n\n",
        exp.avg_throughput_checks()
    )
}

/// Total capacity of a platform, summed over tiles.
fn platform_capacity(arch: &ArchitectureGraph) -> TileUsage {
    let mut cap = TileUsage::default();
    for (_, t) in arch.tiles() {
        cap.wheel += t.wheel_size();
        cap.memory += t.memory();
        cap.connections += t.max_connections();
        cap.bandwidth_in += t.bandwidth_in();
        cap.bandwidth_out += t.bandwidth_out();
    }
    cap
}

/// Generates the shared application sequences: `sequences` per set,
/// deterministic in `seed`. The same sequences are reused for every
/// weight setting and platform, as in the paper.
pub fn benchmark_sequences(
    config: &ExperimentConfig,
) -> Vec<(&'static str, Vec<Vec<ApplicationGraph>>)> {
    let types = vec![
        ProcessorType::new("risc"),
        ProcessorType::new("dsp"),
        ProcessorType::new("acc"),
    ];
    GeneratorConfig::benchmark_sets()
        .into_iter()
        .enumerate()
        .map(|(set_idx, (name, gen_cfg))| {
            let seqs = (0..config.sequences)
                .map(|seq| {
                    let seed = config
                        .seed
                        .wrapping_mul(1_000_003)
                        .wrapping_add((set_idx * 97 + seq) as u64);
                    let mut gen = AppGenerator::new(gen_cfg.clone(), types.clone(), seed);
                    gen.generate_sequence(&format!("{name}{seq}"), config.apps_per_sequence)
                })
                .collect();
            (name, seqs)
        })
        .collect()
}

/// Runs the full Table 4/5 experiment.
pub fn run_experiment(config: &ExperimentConfig) -> Experiment {
    run_experiment_with_weights(config, CostWeights::table4().to_vec())
}

/// Runs the experiment with custom weight rows (used by the weight-sweep
/// ablation).
pub fn run_experiment_with_weights(
    config: &ExperimentConfig,
    weights: Vec<CostWeights>,
) -> Experiment {
    let platforms = experiment_platforms();
    let sequences = benchmark_sequences(config);

    // Every (weights, set, platform, sequence) run is independent: fan the
    // cells out over the available cores. `par_map` hands the results back
    // indexed by job, so the table is byte-identical to a sequential run.
    let mut jobs: Vec<(
        CostWeights,
        &'static str,
        usize,
        usize,
        &Vec<ApplicationGraph>,
    )> = Vec::new();
    for &w in &weights {
        for (set, seqs) in &sequences {
            for p_idx in 0..platforms.len() {
                for (s_idx, apps) in seqs.iter().enumerate() {
                    jobs.push((w, set, p_idx, s_idx, apps));
                }
            }
        }
    }
    let runs = sdfrs_fastutil::par_map(&jobs, |&(w, set, p_idx, s_idx, apps)| {
        let mut flow = FlowConfig::with_weights(w);
        flow.slice.state_budget = config.state_budget;
        flow.schedule_state_budget = config.state_budget;
        let arch = &platforms[p_idx];
        let result = allocate_until_failure(apps, arch, &flow);
        RunResult {
            set,
            weights: w,
            platform: p_idx,
            sequence: s_idx,
            bound: result.bound_count(),
            throughput_checks: result.total_throughput_checks(),
            usage: result.total_usage(),
            capacity: platform_capacity(arch),
        }
    });

    Experiment {
        runs,
        weights,
        sets: sequences.iter().map(|(n, _)| *n).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiment_binds_applications() {
        let cfg = ExperimentConfig {
            sequences: 1,
            apps_per_sequence: 6,
            ..ExperimentConfig::default()
        };
        // Two weight rows keep the test fast.
        let exp =
            run_experiment_with_weights(&cfg, vec![CostWeights::COMMUNICATION, CostWeights::TUNED]);
        assert_eq!(exp.runs.len(), (2 * 4 * 3));
        let table = exp.table4();
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].len(), 4);
        // Something binds somewhere.
        assert!(
            table.iter().flatten().any(|&v| v > 0.0),
            "no application bound at all: {table:?}"
        );
        assert!(exp.avg_throughput_checks() >= 1.0);
    }

    #[test]
    fn sequences_are_deterministic() {
        let cfg = ExperimentConfig {
            sequences: 1,
            apps_per_sequence: 3,
            ..ExperimentConfig::default()
        };
        let a = benchmark_sequences(&cfg);
        let b = benchmark_sequences(&cfg);
        for ((n1, s1), (n2, s2)) in a.iter().zip(b.iter()) {
            assert_eq!(n1, n2);
            for (x, y) in s1.iter().flatten().zip(s2.iter().flatten()) {
                assert_eq!(x.graph(), y.graph());
            }
        }
    }
}
