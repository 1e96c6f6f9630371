//! End-to-end tests driving the actual `sdfrs` binary.

use std::process::Command;

fn sdfrs(args: &[&str]) -> (String, String, bool) {
    let output = Command::new(env!("CARGO_BIN_EXE_sdfrs"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.success(),
    )
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("sdfrs_test_{}_{name}", std::process::id()));
    std::fs::write(&path, content).expect("temp file writes");
    path
}

#[test]
fn example_analyze_flow_roundtrip() {
    // Dump the paper example and platform, then run the whole pipeline.
    let (app_text, _, ok) = sdfrs(&["example", "paper"]);
    assert!(ok);
    let (platform_text, _, ok) = sdfrs(&["example", "platform"]);
    assert!(ok);
    let app = write_temp("app.sdfa", &app_text);
    let platform = write_temp("platform.sdfp", &platform_text);

    let (out, _, ok) = sdfrs(&["analyze", app.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("a1=2 a2=2 a3=1"), "{out}");
    assert!(out.contains("HSDF equivalent:   5 actors"), "{out}");
    assert!(out.contains("deadlock-free"), "{out}");

    let (out, _, ok) = sdfrs(&[
        "flow",
        app.to_str().unwrap(),
        platform.to_str().unwrap(),
        "--weights=1,0,0",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("guaranteed throughput: 1/30"), "{out}");
    assert!(out.contains("(a1 a2)*"), "{out}");

    let (out, _, ok) = sdfrs(&[
        "trace",
        app.to_str().unwrap(),
        platform.to_str().unwrap(),
        "62",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("a1"), "{out}");
    assert!(out.contains('#'), "{out}");

    let _ = std::fs::remove_file(app);
    let _ = std::fs::remove_file(platform);
}

#[test]
fn trace_option_writes_a_parseable_jsonl_flow_trace() {
    let (app_text, _, _) = sdfrs(&["example", "paper"]);
    let (platform_text, _, _) = sdfrs(&["example", "platform"]);
    let app = write_temp("t_app.sdfa", &app_text);
    let platform = write_temp("t_platform.sdfp", &platform_text);
    let trace = std::env::temp_dir().join(format!("sdfrs_test_{}_run.jsonl", std::process::id()));

    let (out, err, ok) = sdfrs(&[
        "--trace",
        trace.to_str().unwrap(),
        "flow",
        app.to_str().unwrap(),
        platform.to_str().unwrap(),
    ]);
    assert!(ok, "stdout: {out}\nstderr: {err}");
    assert!(out.contains("guaranteed throughput: 1/30"), "{out}");

    let text = std::fs::read_to_string(&trace).expect("trace file exists");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 10, "trace has one line per event: {text}");
    let mut kinds = Vec::new();
    let mut last_t = -1i64;
    for line in &lines {
        // Every line is a flat JSON object with t_us and event fields.
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        let t = line
            .split("\"t_us\":")
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|n| n.trim().parse::<i64>().ok())
            .unwrap_or_else(|| panic!("line has a numeric t_us: {line}"));
        assert!(t >= last_t, "timestamps are monotonic: {line}");
        last_t = t;
        let kind = line
            .split("\"event\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("line names its event: {line}"));
        kinds.push(kind.to_string());
    }
    assert_eq!(kinds.first().map(String::as_str), Some("flow_started"));
    assert_eq!(kinds.last().map(String::as_str), Some("flow_finished"));
    // The acceptance bar: binding, scheduling, and every slice-search
    // iteration show up in the trace.
    for required in ["bind_attempt", "schedule_recurrence", "slice_probe"] {
        assert!(kinds.iter().any(|k| k == required), "missing {required}");
    }
    let global_probes = lines
        .iter()
        .filter(|l| l.contains("\"scope\":\"global\""))
        .count();
    assert!(global_probes >= 2, "binary search iterations traced");

    let _ = std::fs::remove_file(app);
    let _ = std::fs::remove_file(platform);
    let _ = std::fs::remove_file(trace);
}

/// Pulls the value of an unlabelled Prometheus sample out of an
/// exposition text.
fn prom_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} missing from exposition:\n{text}"))
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("{name} has an integer value"))
}

#[test]
fn metrics_out_prometheus_reconciles_with_the_event_trace() {
    let (app_text, _, _) = sdfrs(&["example", "paper"]);
    let (platform_text, _, _) = sdfrs(&["example", "platform"]);
    let app = write_temp("p_app.sdfa", &app_text);
    let platform = write_temp("p_platform.sdfp", &platform_text);
    let prom = std::env::temp_dir().join(format!("sdfrs_test_{}_m.prom", std::process::id()));
    let trace = std::env::temp_dir().join(format!("sdfrs_test_{}_m.jsonl", std::process::id()));

    let (out, err, ok) = sdfrs(&[
        "--metrics-out",
        prom.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        "flow",
        app.to_str().unwrap(),
        platform.to_str().unwrap(),
    ]);
    assert!(ok, "stdout: {out}\nstderr: {err}");
    assert!(out.contains("guaranteed throughput: 1/30"), "{out}");

    let text = std::fs::read_to_string(&prom).expect("metrics file exists");
    let events = std::fs::read_to_string(&trace).expect("trace file exists");

    // Counters reconcile exactly with the independent event trace.
    let hits = prom_value(&text, "sdfrs_cache_hits_total");
    let misses = prom_value(&text, "sdfrs_cache_misses_total");
    let bounds = prom_value(&text, "sdfrs_bound_answers_total");
    let monotone = prom_value(&text, "sdfrs_monotone_answers_total");
    let probes = events
        .lines()
        .filter(|l| l.contains("\"event\":\"slice_probe\""))
        .count() as u64;
    let flagged = |flag: &str| {
        events
            .lines()
            .filter(|l| l.contains("\"event\":\"slice_probe\"") && l.contains(flag))
            .count() as u64
    };
    assert_eq!(hits + misses + bounds + monotone, probes, "{text}");
    assert_eq!(hits, flagged("\"cache_hit\":true"), "{text}");
    assert_eq!(bounds, flagged("\"bound\":true"), "{text}");
    assert_eq!(monotone, flagged("\"monotone\":true"), "{text}");
    assert_eq!(prom_value(&text, "sdfrs_throughput_checks_total"), probes);
    assert_eq!(
        prom_value(&text, "sdfrs_global_slice_iterations_total")
            + prom_value(&text, "sdfrs_refine_slice_iterations_total"),
        probes,
        "every probe belongs to the global search or a refinement pass"
    );

    let attempts = prom_value(&text, "sdfrs_bind_attempts_total");
    let attempt_events = events
        .lines()
        .filter(|l| l.contains("\"event\":\"bind_attempt\""))
        .count() as u64;
    assert_eq!(attempts, attempt_events);

    // Phase spans: one flow run, each phase entered at least once, and
    // the parented phases never outlive the flow.
    assert_eq!(
        prom_value(&text, "sdfrs_phase_calls_total{phase=\"flow\"}"),
        1
    );
    for phase in ["bind", "schedule", "slice"] {
        assert!(
            prom_value(
                &text,
                &format!("sdfrs_phase_calls_total{{phase=\"{phase}\"}}")
            ) >= 1,
            "{phase} phase recorded"
        );
    }
    assert_eq!(prom_value(&text, "sdfrs_flows_started_total"), 1);
    assert_eq!(prom_value(&text, "sdfrs_flows_succeeded_total"), 1);
    // Histogram plumbing: probe-length buckets are cumulative and end at +Inf.
    assert!(
        text.contains("sdfrs_probe_states_bucket{le=\"+Inf\"}"),
        "{text}"
    );

    let _ = std::fs::remove_file(app);
    let _ = std::fs::remove_file(platform);
    let _ = std::fs::remove_file(prom);
    let _ = std::fs::remove_file(trace);
}

#[test]
fn metrics_format_json_writes_deterministic_json() {
    let (app_text, _, _) = sdfrs(&["example", "paper"]);
    let (platform_text, _, _) = sdfrs(&["example", "platform"]);
    let app = write_temp("j_app.sdfa", &app_text);
    let platform = write_temp("j_platform.sdfp", &platform_text);
    let json = std::env::temp_dir().join(format!("sdfrs_test_{}_m.json", std::process::id()));

    let (out, err, ok) = sdfrs(&[
        "--metrics-out",
        json.to_str().unwrap(),
        "--metrics-format",
        "json",
        "flow",
        app.to_str().unwrap(),
        platform.to_str().unwrap(),
    ]);
    assert!(ok, "stdout: {out}\nstderr: {err}");

    let text = std::fs::read_to_string(&json).expect("metrics file exists");
    let trimmed = text.trim();
    assert!(trimmed.starts_with('{') && trimmed.ends_with('}'), "{text}");
    for key in [
        "\"counters\"",
        "\"cache_hits\"",
        "\"histograms\"",
        "\"phases\"",
    ] {
        assert!(trimmed.contains(key), "missing {key}: {text}");
    }
    assert!(
        !trimmed.contains("\"flows_started\":0"),
        "the flow run is visible in the counters: {text}"
    );

    let _ = std::fs::remove_file(app);
    let _ = std::fs::remove_file(platform);
    let _ = std::fs::remove_file(json);
}

#[test]
fn verbose_option_logs_events_to_stderr_not_stdout() {
    let (app_text, _, _) = sdfrs(&["example", "paper"]);
    let (platform_text, _, _) = sdfrs(&["example", "platform"]);
    let app = write_temp("v_app.sdfa", &app_text);
    let platform = write_temp("v_platform.sdfp", &platform_text);
    let (out, err, ok) = sdfrs(&[
        "--verbose",
        "flow",
        app.to_str().unwrap(),
        platform.to_str().unwrap(),
    ]);
    assert!(ok, "stdout: {out}\nstderr: {err}");
    assert!(out.contains("guaranteed throughput"), "{out}");
    assert!(err.contains("flow: start"), "{err}");
    assert!(err.contains("bind"), "{err}");
    assert!(!out.contains("flow: start"), "log lines stay off stdout");
    let _ = std::fs::remove_file(app);
    let _ = std::fs::remove_file(platform);
}

#[test]
fn bad_input_fails_with_line_number() {
    let bad = write_temp("bad.sdfa", "app x lambda 1/4\nactor a pt p tau NOPE mu 1\n");
    let (_, err, ok) = sdfrs(&["analyze", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(err.contains("line 2"), "{err}");
    let _ = std::fs::remove_file(bad);
}

#[test]
fn unknown_command_is_reported() {
    let (_, err, ok) = sdfrs(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"), "{err}");
}

#[test]
fn generate_emits_parseable_applications() {
    let (out, _, ok) = sdfrs(&["generate", "mixed", "7", "2"]);
    assert!(ok);
    // Each generated app must round-trip through analyze.
    let first = out
        .split("app ")
        .nth(1)
        .map(|chunk| format!("app {chunk}"))
        .expect("at least one app emitted");
    let first = first.split("\napp ").next().unwrap().to_string();
    let path = write_temp("gen.sdfa", &first);
    let (out, err, ok) = sdfrs(&["analyze", path.to_str().unwrap()]);
    assert!(ok, "stdout: {out}\nstderr: {err}");
    assert!(out.contains("deadlock-free"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn multiapp_allocates_two_copies() {
    let (app_text, _, _) = sdfrs(&["example", "paper"]);
    let (platform_text, _, _) = sdfrs(&["example", "platform"]);
    let app = write_temp("m_app.sdfa", &app_text);
    let platform = write_temp("m_platform.sdfp", &platform_text);
    let (out, _, ok) = sdfrs(&[
        "multiapp",
        platform.to_str().unwrap(),
        app.to_str().unwrap(),
        app.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("all 2 applications allocated"), "{out}");
    let _ = std::fs::remove_file(app);
    let _ = std::fs::remove_file(platform);
}

/// The `serve` subcommand replayed against the committed golden
/// transcript: admissions claim, departures reclaim, a rebind moves the
/// surviving session, a dead ticket fails — and the whole exchange is
/// byte-identical whether requests are answered one at a time or
/// drained in batches of six.
#[test]
fn serve_matches_golden_transcript_online_and_batched() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let requests = fixtures.join("serve_requests.jsonl");
    let golden = std::fs::read_to_string(fixtures.join("serve_golden.jsonl")).unwrap();

    let (platform_text, _, ok) = sdfrs(&["example", "platform"]);
    assert!(ok);
    let platform = write_temp("s_platform.sdfp", &platform_text);

    let (online, err, ok) = sdfrs(&[
        "serve",
        platform.to_str().unwrap(),
        "--input",
        requests.to_str().unwrap(),
    ]);
    assert!(ok, "stdout: {online}\nstderr: {err}");
    assert_eq!(online, golden, "online serve output diverged from golden");

    let (batched, err, ok) = sdfrs(&[
        "serve",
        platform.to_str().unwrap(),
        "--input",
        requests.to_str().unwrap(),
        "--batch",
        "6",
    ]);
    assert!(ok, "stderr: {err}");
    assert_eq!(batched, golden, "batched serve output diverged from golden");

    let _ = std::fs::remove_file(platform);
}

/// Every policy goes through one solve dispatch, so the solver-backed
/// transcripts are byte-exact too: `serve` under `exact` and `portfolio`,
/// and `flow --policy exact` with its certificate. Best fit admits one
/// application at a time like greedy and reproduces the greedy golden;
/// regional admission stays greedy-only, so `exact --regions 2` runs
/// globally and reproduces the exact golden.
#[test]
fn solver_policies_match_golden_transcripts() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let requests = fixtures.join("serve_requests.jsonl");
    let golden = |name: &str| std::fs::read_to_string(fixtures.join(name)).unwrap();
    let (platform_text, _, _) = sdfrs(&["example", "platform"]);
    let (app_text, _, _) = sdfrs(&["example", "paper"]);
    let platform = write_temp("sg_platform.sdfp", &platform_text);
    let app = write_temp("sg_app.sdfa", &app_text);
    let serve = |extra: &[&str]| {
        let mut args = vec![
            "serve",
            platform.to_str().unwrap(),
            "--input",
            requests.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let (out, err, ok) = sdfrs(&args);
        assert!(ok, "serve {extra:?}: {err}");
        out
    };

    let exact = golden("serve_exact_golden.jsonl");
    assert_eq!(serve(&["--policy", "exact"]), exact);
    assert_eq!(serve(&["--policy", "exact", "--regions", "2"]), exact);
    assert_eq!(
        serve(&["--policy", "portfolio"]),
        golden("serve_portfolio_golden.jsonl")
    );
    assert_eq!(
        serve(&["--policy", "best-fit"]),
        golden("serve_golden.jsonl")
    );

    let (out, err, ok) = sdfrs(&[
        "flow",
        app.to_str().unwrap(),
        platform.to_str().unwrap(),
        "--policy",
        "exact",
    ]);
    assert!(ok, "{err}");
    assert_eq!(out, golden("flow_exact_golden.txt"));

    let _ = std::fs::remove_file(platform);
    let _ = std::fs::remove_file(app);
}

/// Replaces every `"nanos":N` (wall-clock phase time) with `"nanos":0`.
fn zero_nanos(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find("\"nanos\":") {
        let (head, tail) = rest.split_at(at + "\"nanos\":".len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// The metrics registry a `serve` run exports is exact: every counter,
/// gauge, histogram, per-tile and per-region family and phase call
/// count equals the committed golden (phase times zeroed). The regional
/// run rejects `h263` in three failing flows, so its golden also pins
/// that failed binding phases keep their calls.
#[test]
fn serve_metrics_json_matches_golden() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let (platform_text, _, ok) = sdfrs(&["example", "platform"]);
    assert!(ok);
    let platform = write_temp("sm_platform.sdfp", &platform_text);
    let cases = [
        (
            "serve_requests.jsonl",
            "--batch",
            "6",
            "serve_metrics_batch_golden.json",
        ),
        (
            "serve_regional_requests.jsonl",
            "--regions",
            "2",
            "serve_metrics_regional_golden.json",
        ),
    ];
    for (requests, flag, value, golden) in cases {
        let metrics =
            std::env::temp_dir().join(format!("sdfrs_test_{}_{golden}", std::process::id()));
        let (out, err, ok) = sdfrs(&[
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--metrics-format",
            "json",
            "serve",
            platform.to_str().unwrap(),
            "--input",
            fixtures.join(requests).to_str().unwrap(),
            flag,
            value,
        ]);
        assert!(ok, "stdout: {out}\nstderr: {err}");
        let text = std::fs::read_to_string(&metrics).expect("metrics file exists");
        let want = std::fs::read_to_string(fixtures.join(golden)).unwrap();
        assert_eq!(zero_nanos(&text), want, "{requests} {flag} {value}");
        let _ = std::fs::remove_file(metrics);
    }
    let _ = std::fs::remove_file(platform);
}

/// `trace` on the paper example renders the constrained execution's
/// firings exactly as the committed golden Gantt charts: any change to
/// the executor's start order or completion instants shows here.
#[test]
fn trace_matches_golden_gantt() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let golden = std::fs::read_to_string(fixtures.join("trace_golden.txt")).unwrap();
    let (app_text, _, ok) = sdfrs(&["example", "paper"]);
    assert!(ok);
    let (platform_text, _, ok) = sdfrs(&["example", "platform"]);
    assert!(ok);
    let app = write_temp("g_paper.sdfa", &app_text);
    let platform = write_temp("g_platform.sdfp", &platform_text);
    let (out, err, ok) = sdfrs(&[
        "trace",
        app.to_str().unwrap(),
        platform.to_str().unwrap(),
        "120",
    ]);
    assert!(ok, "stderr: {err}");
    assert_eq!(out, golden, "trace output diverged from golden");
    let _ = std::fs::remove_file(app);
    let _ = std::fs::remove_file(platform);
}

#[test]
fn serve_rejects_malformed_requests_with_line_numbers() {
    let (platform_text, _, _) = sdfrs(&["example", "platform"]);
    let platform = write_temp("sb_platform.sdfp", &platform_text);
    let bad = write_temp(
        "sb_reqs.jsonl",
        "{\"op\":\"admit\",\"example\":\"paper\"}\n{\"op\":\"evict\",\"session\":1}\n",
    );
    let (_, err, ok) = sdfrs(&[
        "serve",
        platform.to_str().unwrap(),
        "--input",
        bad.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(err.contains("request line 2"), "{err}");
    assert!(err.contains("evict"), "{err}");
    let _ = std::fs::remove_file(platform);
    let _ = std::fs::remove_file(bad);
}

/// A commit log that cannot be written fails the run (after every
/// response was answered) instead of exiting 0 with an empty log.
#[cfg(target_os = "linux")]
#[test]
fn serve_reports_commit_log_write_failures() {
    let (platform_text, _, _) = sdfrs(&["example", "platform"]);
    let platform = write_temp("sf_platform.sdfp", &platform_text);
    let requests = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/serve_requests.jsonl");
    let (out, err, ok) = sdfrs(&[
        "serve",
        platform.to_str().unwrap(),
        "--input",
        requests.to_str().unwrap(),
        "--commit-log",
        "/dev/full",
    ]);
    assert!(!ok, "a full disk must fail the run");
    assert_eq!(out.lines().count(), 6, "every request is still answered");
    assert!(err.contains("4 of 4 records failed to write"), "{err}");
    let _ = std::fs::remove_file(platform);
}

#[test]
fn help_pins_the_unified_policy_flag() {
    let (out, _, ok) = sdfrs(&["help"]);
    assert!(ok);
    assert!(
        out.contains("--policy greedy|best-fit|exact|portfolio"),
        "help names the one policy vocabulary: {out}"
    );
    assert!(out.contains("--node-budget"), "{out}");
}

#[test]
fn flow_policy_exact_prints_a_certificate() {
    let (app_text, _, _) = sdfrs(&["example", "paper"]);
    let (platform_text, _, _) = sdfrs(&["example", "platform"]);
    let app = write_temp("e_app.sdfa", &app_text);
    let platform = write_temp("e_platform.sdfp", &platform_text);

    let (out, err, ok) = sdfrs(&[
        "flow",
        app.to_str().unwrap(),
        platform.to_str().unwrap(),
        "--policy",
        "exact",
    ]);
    assert!(ok, "stdout: {out}\nstderr: {err}");
    assert!(out.contains("solver exact certificate:"), "{out}");
    assert!(out.contains("throughput bounds ["), "{out}");
    assert!(out.contains("proven optimal:"), "{out}");

    // The searching policies are the only ones that accept a node budget.
    let (_, err, ok) = sdfrs(&[
        "flow",
        app.to_str().unwrap(),
        platform.to_str().unwrap(),
        "--policy=greedy",
        "--node-budget=5",
    ]);
    assert!(!ok);
    assert!(err.contains("--node-budget needs --policy exact"), "{err}");

    let _ = std::fs::remove_file(app);
    let _ = std::fs::remove_file(platform);
}

/// `serve --policy exact` certifies every admitted response with the
/// solver's bound pair; the default greedy transcript stays free of the
/// solver fields (golden-transcript compatibility).
#[test]
fn serve_policy_exact_reports_solver_fields_in_jsonl() {
    let (platform_text, _, _) = sdfrs(&["example", "platform"]);
    let platform = write_temp("sp_platform.sdfp", &platform_text);
    let reqs = write_temp(
        "sp_reqs.jsonl",
        "{\"op\":\"admit\",\"example\":\"paper\"}\n{\"op\":\"status\"}\n",
    );

    let (out, err, ok) = sdfrs(&[
        "serve",
        platform.to_str().unwrap(),
        "--input",
        reqs.to_str().unwrap(),
        "--policy",
        "exact",
    ]);
    assert!(ok, "stdout: {out}\nstderr: {err}");
    let admitted = out
        .lines()
        .find(|l| l.contains("\"op\":\"admit\"") && l.contains("\"ok\":true"))
        .expect("an admitted response");
    assert!(admitted.contains("\"solver\":\"exact\""), "{admitted}");
    for field in [
        "\"lower\":",
        "\"upper\":",
        "\"gap\":",
        "\"proven_optimal\":",
        "\"nodes\":",
    ] {
        assert!(admitted.contains(field), "missing {field}: {admitted}");
    }

    let (out, _, ok) = sdfrs(&[
        "serve",
        platform.to_str().unwrap(),
        "--input",
        reqs.to_str().unwrap(),
    ]);
    assert!(ok);
    assert!(
        !out.contains("\"solver\""),
        "greedy transcripts carry no solver fields: {out}"
    );

    let _ = std::fs::remove_file(platform);
    let _ = std::fs::remove_file(reqs);
}

#[test]
fn multiapp_policy_portfolio_admits_and_certifies() {
    let (app_text, _, _) = sdfrs(&["example", "paper"]);
    let (platform_text, _, _) = sdfrs(&["example", "platform"]);
    let app = write_temp("mp_app.sdfa", &app_text);
    let platform = write_temp("mp_platform.sdfp", &platform_text);
    let (out, err, ok) = sdfrs(&[
        "multiapp",
        platform.to_str().unwrap(),
        "--policy",
        "portfolio",
        app.to_str().unwrap(),
        app.to_str().unwrap(),
    ]);
    assert!(ok, "stdout: {out}\nstderr: {err}");
    assert!(out.contains("policy portfolio:"), "{out}");
    assert!(out.contains("solver portfolio: bounds ["), "{out}");
    let _ = std::fs::remove_file(app);
    let _ = std::fs::remove_file(platform);
}

#[test]
fn preset_platforms_parse_back() {
    for name in ["daytona", "eclipse", "hijdra", "stepnp"] {
        let (text, _, ok) = sdfrs(&["example", name]);
        assert!(ok, "{name}");
        let path = write_temp(&format!("{name}.sdfp"), &text);
        // A platform file is not an application: analyze must fail cleanly.
        let (_, err, ok) = sdfrs(&["analyze", path.to_str().unwrap()]);
        assert!(!ok, "{name}");
        assert!(!err.is_empty());
        let _ = std::fs::remove_file(path);
    }
}
