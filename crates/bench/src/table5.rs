//! E6: Table 5 — resource efficiency for the mixed set, normalized per
//! resource against the largest usage across the five tile-cost
//! functions.

use crate::table4::Experiment;

/// One row of Table 5: normalized usage of the five tile resources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table5Row {
    /// Normalized time-wheel usage.
    pub timewheel: f64,
    /// Normalized memory usage.
    pub memory: f64,
    /// Normalized NI-connection usage.
    pub connections: f64,
    /// Normalized incoming-bandwidth usage.
    pub input_bw: f64,
    /// Normalized outgoing-bandwidth usage.
    pub output_bw: f64,
}

/// Computes Table 5 from the experiment runs, for the given set (the
/// paper uses set 4, `"mixed"`).
pub fn compute(experiment: &Experiment, set: &str) -> Vec<Table5Row> {
    // Sum raw usage per weight setting over that set's runs.
    let totals: Vec<[f64; 5]> = experiment
        .weights
        .iter()
        .map(|w| {
            let mut t = [0.0f64; 5];
            for r in experiment
                .runs
                .iter()
                .filter(|r| r.set == set && r.weights == *w)
            {
                t[0] += r.usage.wheel as f64;
                t[1] += r.usage.memory as f64;
                t[2] += r.usage.connections as f64;
                t[3] += r.usage.bandwidth_in as f64;
                t[4] += r.usage.bandwidth_out as f64;
            }
            t
        })
        .collect();
    let max: [f64; 5] = {
        let mut m = [0.0f64; 5];
        for t in &totals {
            for i in 0..5 {
                m[i] = m[i].max(t[i]);
            }
        }
        m
    };
    totals
        .iter()
        .map(|t| {
            let norm = |i: usize| if max[i] == 0.0 { 0.0 } else { t[i] / max[i] };
            Table5Row {
                timewheel: norm(0),
                memory: norm(1),
                connections: norm(2),
                input_bw: norm(3),
                output_bw: norm(4),
            }
        })
        .collect()
}

/// Average fraction of the total platform resources in use for one weight
/// setting and set (the paper reports 73% for the tuned weights on the
/// mixed set).
pub fn utilization(experiment: &Experiment, set: &str, weight_row: usize) -> f64 {
    let w = experiment.weights[weight_row];
    let mut used = 0.0f64;
    let mut capacity = 0.0f64;
    for r in experiment
        .runs
        .iter()
        .filter(|r| r.set == set && r.weights == w)
    {
        used += r.usage.wheel as f64
            + r.usage.memory as f64
            + r.usage.connections as f64
            + r.usage.bandwidth_in as f64
            + r.usage.bandwidth_out as f64;
        capacity += r.capacity.wheel as f64
            + r.capacity.memory as f64
            + r.capacity.connections as f64
            + r.capacity.bandwidth_in as f64
            + r.capacity.bandwidth_out as f64;
    }
    if capacity == 0.0 {
        0.0
    } else {
        used / capacity
    }
}

/// Table 5 as `repro table5` prints it: the normalized usage per weight
/// setting on the mixed set, the utilization under the last setting,
/// then a blank line.
pub fn render(exp: &Experiment) -> String {
    let mut out = String::from(
        "== Table 5: resource efficiency, mixed set (normalized) ==\n\
         c1,c2,c3     timewheel  memory  connections  input bw  output bw\n",
    );
    for (w, row) in exp.weights.iter().zip(compute(exp, "mixed")) {
        out += &format!(
            "{:<12} {:>8.2}  {:>6.2}  {:>11.2}  {:>8.2}  {:>9.2}\n",
            w.to_string(),
            row.timewheel,
            row.memory,
            row.connections,
            row.input_bw,
            row.output_bw
        );
    }
    let last = exp.weights.len() - 1;
    out += &format!(
        "average platform utilization with weights {}: {:.0}% (paper: 73%)\n\n",
        exp.weights[last],
        utilization(exp, "mixed", last) * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table4::{run_experiment_with_weights, ExperimentConfig};
    use sdfrs_core::cost::CostWeights;

    #[test]
    fn normalization_caps_at_one() {
        let cfg = ExperimentConfig {
            sequences: 1,
            apps_per_sequence: 5,
            ..ExperimentConfig::default()
        };
        let exp = run_experiment_with_weights(&cfg, vec![CostWeights::MEMORY, CostWeights::TUNED]);
        let rows = compute(&exp, "mixed");
        assert_eq!(rows.len(), 2);
        for row in &rows {
            for v in [
                row.timewheel,
                row.memory,
                row.connections,
                row.input_bw,
                row.output_bw,
            ] {
                assert!(
                    (0.0..=1.0).contains(&v),
                    "normalized value out of range: {v}"
                );
            }
        }
        // Per column, some row achieves the maximum (value 1), unless the
        // column is all-zero.
        let col_max = |f: fn(&Table5Row) -> f64| rows.iter().map(f).fold(0.0f64, f64::max);
        for max in [col_max(|r| r.timewheel), col_max(|r| r.memory)] {
            assert!(max == 0.0 || (max - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn utilization_is_a_fraction() {
        let cfg = ExperimentConfig {
            sequences: 1,
            apps_per_sequence: 5,
            ..ExperimentConfig::default()
        };
        let exp = run_experiment_with_weights(&cfg, vec![CostWeights::TUNED]);
        let u = utilization(&exp, "mixed", 0);
        assert!((0.0..=1.0).contains(&u));
    }
}
