//! Workspace-level interchange checks: every tracked `BENCH_*.json`
//! artifact is a valid, canonically-rendered `bfw/bench-report`
//! document, the heal scenario regenerates its committed report
//! fixture, and the `bfw/graph` format round-trips byte-identically at
//! scale.
//!
//! The tracked bench artifacts are committed from release runs; these
//! tests only *read* them (regeneration stays a release-binary affair — see
//! the CI smoke steps). Every row names its graph in the workload
//! grammar, so the small ones are rebuilt here.

use bfw_graph::io::{export_json, import_json, GraphDoc, Provenance};
use bfw_graph::{algo, generators, io, GraphSpec};
use bfw_stats::JsonValue;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::Path;

/// The committed bench artifacts at the workspace root.
const TRACKED_REPORTS: &[&str] = &[
    "BENCH_churn.json",
    "BENCH_complexity.json",
    "BENCH_parallel.json",
    "BENCH_tick.json",
];

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn tracked_bench_reports_validate_and_are_canonical() {
    for name in TRACKED_REPORTS {
        let path = workspace_root().join(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name} must be tracked at the workspace root: {e}"));

        // Schema-valid with a non-empty row set.
        let summary = bfw_bench::report::validate_bench_report(&text)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!summary.experiment.is_empty(), "{name}");
        assert!(summary.rows > 0, "{name}: no rows");

        // Parse → render → parse fixpoint, and the committed bytes ARE
        // the canonical rendering (so regenerating diffs cleanly).
        let value = JsonValue::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let rendered = value.render_pretty();
        assert_eq!(
            JsonValue::parse(&rendered).unwrap(),
            value,
            "{name}: parse–render–parse is not a fixpoint"
        );
        assert_eq!(rendered, text, "{name}: committed bytes are not canonical");
    }
}

#[test]
fn tracked_bench_rows_name_graphs_that_rebuild() {
    for name in TRACKED_REPORTS {
        let text = std::fs::read_to_string(workspace_root().join(name)).unwrap();
        let value = JsonValue::parse(&text).unwrap();
        let rows = value.get("rows").and_then(JsonValue::as_array).unwrap();
        for row in rows {
            let label = row.get("graph").and_then(JsonValue::as_str).unwrap();
            let spec: GraphSpec = label
                .parse()
                .unwrap_or_else(|e| panic!("{name}: row graph {label}: {e}"));
            assert_eq!(spec.to_string(), label, "{name}: {label} is not canonical");
            let n = row.get("n").and_then(JsonValue::as_number);
            if let Some(n) = n.filter(|&n| n <= 1e4) {
                assert_eq!(spec.build().node_count() as f64, n, "{name}: {label}");
            }
            if let Some(d) = row.get("diameter").and_then(JsonValue::as_number) {
                let g = spec.build();
                assert_eq!(
                    algo::diameter(&g).map(f64::from),
                    Some(d),
                    "{name}: {label}"
                );
            }
        }
    }
}

#[test]
fn new_families_rebuild_the_experiments_graphs() {
    // The seeds E16 (0x5CA1E), E18 (0xE18) and E20/E21 (0x71C) build
    // their random regular graphs from: the spec must draw exactly what
    // the generator draws.
    for (n, seed) in [
        (1_024, 379_422u64),
        (12, 3_608),
        (24, 3_608),
        (1_000, 1_820),
    ] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let expected = generators::random_regular(n, 4, 10_000, &mut rng).unwrap();
        let spec: GraphSpec = format!("rr:{n}:4:{seed}").parse().unwrap();
        assert_eq!(spec.build(), expected, "{spec}");
    }
    // Edge-list digests of the graphs the tracked E16, E18, E20 and E21
    // rows were measured on.
    for (label, digest) in [
        ("rr:1000:4:1820", 0x4ef9_7d79_0005_b911u64),
        ("rr:10000:4:379422", 0xaf8a_c5cc_63e8_d88d),
        ("rr:12:4:3608", 0xbda5_5d7f_d67d_3fb5),
        ("scrambled-cycle:1000:97", 0xbad5_e36c_0368_a14d),
    ] {
        let g = label.parse::<GraphSpec>().unwrap().build();
        assert_eq!(io::edge_digest(&g), digest, "{label}");
    }
}

#[test]
fn tracked_heal_report_validates_and_is_canonical() {
    // The committed scenario artifact: `bfw scenario run
    // examples/scenarios/heal_wipeout.toml --seed 2 --trace FILE` must
    // reproduce it byte for byte. The run writes into a temp dir, so the
    // test reads no file a clean checkout lacks.
    let name = "tests/fixtures/heal_report.json";
    let dir = std::env::temp_dir().join(format!("bfw_heal_report_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = dir.join("heal_report.json");
    let scenario = workspace_root().join("examples/scenarios/heal_wipeout.toml");
    let argv: Vec<String> = [
        "scenario",
        "run",
        scenario.to_str().expect("UTF-8 path"),
        "--seed",
        "2",
        "--trace",
        out.to_str().expect("UTF-8 path"),
    ]
    .map(str::to_owned)
    .into();
    bfw_cli::run(&argv).unwrap_or_else(|e| panic!("the heal scenario runs: {e}"));
    let text = std::fs::read_to_string(&out).expect("the run writes its report");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        text == include_str!("fixtures/heal_report.json"),
        "{name}: the regenerated report differs from the committed bytes"
    );

    let summary =
        bfw_scenario::validate_run_report(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(summary.scenario, "heal wipeout, survived", "{name}");
    assert!(
        summary.traced,
        "{name}: the [trace] section must be present"
    );

    let value = JsonValue::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    let rendered = value.render_pretty();
    assert_eq!(
        JsonValue::parse(&rendered).unwrap(),
        value,
        "{name}: parse–render–parse is not a fixpoint"
    );
    assert_eq!(rendered, text, "{name}: committed bytes are not canonical");
}

#[test]
fn async_storm_fixtures_regenerate_byte_for_byte() {
    // The asynchronous runtime's pinned outputs, each regenerated
    // through the CLI entry point from `examples/scenarios/async_storm.toml`
    // at seed 42: the text report `scenario run` prints (the binary adds
    // one newline), the `--trace` bfw/scenario-report, and the
    // bfw/engine-snapshot of `scenario step --rounds 30000`, taken inside
    // the noise burst (activations 24000–32000), so it carries noise
    // channels and the scheduler half.
    let dir = std::env::temp_dir().join(format!("bfw_async_storm_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (trace, snapshot) = (dir.join("report.json"), dir.join("snapshot.json"));
    let scenario = workspace_root().join("examples/scenarios/async_storm.toml");
    let path = |p: &Path| p.to_str().expect("UTF-8 path").to_owned();
    let bfw = |args: &[&str]| {
        let argv: Vec<String> = args.iter().map(|&a| a.to_owned()).collect();
        bfw_cli::run(&argv).unwrap_or_else(|e| panic!("{args:?}: {e}"))
    };
    let scenario = path(&scenario);
    let report = bfw(&["scenario", "run", &scenario, "--seed", "42"]);
    let traced = bfw(&[
        "scenario",
        "run",
        &scenario,
        "--seed",
        "42",
        "--trace",
        &path(&trace),
    ]);
    bfw(&[
        "scenario",
        "step",
        &scenario,
        "--seed",
        "42",
        "--rounds",
        "30000",
        "--out",
        &path(&snapshot),
    ]);
    let trace = std::fs::read_to_string(&trace).expect("the traced run writes its report");
    let snapshot = std::fs::read_to_string(&snapshot).expect("the step writes its snapshot");
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        format!("{report}\n") == include_str!("fixtures/async_storm_report.txt"),
        "tests/fixtures/async_storm_report.txt: the text report differs:\n{report}"
    );
    assert!(traced.starts_with(&report), "tracing changed the report");
    assert!(
        trace == include_str!("fixtures/async_storm_report.json"),
        "tests/fixtures/async_storm_report.json: the trace report differs"
    );
    assert!(
        snapshot == include_str!("fixtures/async_storm_round30000.snapshot.json"),
        "tests/fixtures/async_storm_round30000.snapshot.json: the snapshot differs"
    );
    let summary = bfw_scenario::validate_run_report(&trace).expect("the trace report validates");
    assert!(summary.traced);
    let summary =
        bfw_scenario::validate_engine_snapshot(&snapshot).expect("the snapshot validates");
    assert_eq!(summary.round, 30_000);
}

#[test]
fn hundred_thousand_node_graph_round_trips_byte_identically() {
    let n = 100_000;
    let doc = GraphDoc {
        graph: generators::cycle(n),
        provenance: Some(Provenance::new("cycle", [("n", n as u64)], None)),
        delta: None,
    };
    let exported = export_json(&doc);
    let imported = import_json(&exported).expect("canonical export imports");
    assert_eq!(imported, doc);
    assert_eq!(
        export_json(&imported),
        exported,
        "re-export must be a byte fixpoint"
    );
}

#[test]
fn generator_family_documents_round_trip_with_provenance() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let doc = GraphDoc {
        graph: generators::preferential_attachment(5_000, 3, &mut rng),
        provenance: Some(Provenance::new("ba", [("n", 5_000), ("m", 3)], Some(7))),
        delta: None,
    };
    let exported = export_json(&doc);
    let imported = import_json(&exported).expect("ba export imports");
    assert_eq!(imported, doc);
    assert_eq!(export_json(&imported), exported);
    // The document validates and reports its family.
    let summary = bfw_graph::io::validate_json(&exported).unwrap();
    assert_eq!(summary.nodes, 5_000);
    assert_eq!(summary.family.as_deref(), Some("ba"));
}
