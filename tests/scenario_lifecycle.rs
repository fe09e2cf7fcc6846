//! Workspace tests for the scenario lifecycle verbs: step/resume
//! snapshots must be byte-identical across kernels and thread counts,
//! a stepped-then-resumed run must equal a straight run, the committed
//! snapshot fixture must stay byte-stable, a snapshot's topology must
//! survive its encoding as edits from the spec's graph (and every edit
//! that does not fit that graph must be refused at its pointer), and
//! the wipeout shrinker must minimize the shipped corpus classes (E15
//! crash-leader no-rejoin, E17 phantom wave).

use bfw_graph::{Graph, NodeId};
use bfw_scenario::{
    resume_run_bfw_scenario, resume_step_bfw_scenario, run_bfw_scenario, shrink_wipeout,
    spec_to_json, step_bfw_scenario, validate_engine_snapshot, validate_scenario,
    validate_scenario_spec, EngineSnapshot, KernelKind, ScenarioSpec,
};
use bfw_stats::JsonValue;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const RING_CHURN: &str = include_str!("../examples/scenarios/ring_churn.toml");
const ASYNC_STORM: &str = include_str!("../examples/scenarios/async_storm.toml");
const WIPEOUT_E17: &str = include_str!("../examples/scenarios/wipeout_e17.toml");
/// Committed snapshot of `wipeout_e17.toml` stepped to round 600.
/// Regenerate with:
/// `bfw scenario step examples/scenarios/wipeout_e17.toml --rounds 600 \
///    --out tests/fixtures/wipeout_e17_round600.snapshot.json`
const SNAPSHOT_FIXTURE: &str = include_str!("fixtures/wipeout_e17_round600.snapshot.json");
/// A spec whose partition backlog holds one edge twice.
const PARTITION_BACKLOG: &str = include_str!("fixtures/partition_backlog.toml");
/// Committed snapshot of `partition_backlog.toml` stepped to round 150.
/// Regenerate with:
/// `bfw scenario step tests/fixtures/partition_backlog.toml --rounds 150 \
///    --out tests/fixtures/partition_backlog.snapshot.json`
const BACKLOG_FIXTURE: &str = include_str!("fixtures/partition_backlog.snapshot.json");

fn load(toml: &str) -> (ScenarioSpec, Graph) {
    let spec = ScenarioSpec::parse(toml).expect("shipped scenario must parse");
    let graph = spec.build_graph().unwrap();
    (spec, graph)
}

fn wipes(outcome: &bfw_scenario::ScenarioOutcome) -> bool {
    outcome.final_leaders.is_empty() && outcome.final_alive > 0
}

/// The execution stacks a plain synchronous BFW scenario can run on.
/// `None` inherits the file's own kernel/threads.
const STACKS: [(Option<KernelKind>, Option<usize>); 4] = [
    (None, None),
    (Some(KernelKind::Generic), None),
    (Some(KernelKind::Bit), Some(1)),
    (Some(KernelKind::Bit), Some(4)),
];

#[test]
fn step_twice_equals_straight_run_on_every_stack() {
    let (spec, graph) = load(RING_CHURN);
    for seed in [42u64, 1007] {
        let reference = run_bfw_scenario(&spec, &graph, seed).unwrap();
        let mut final_snapshots = Vec::new();
        for (kernel, threads) in STACKS {
            let half = spec.rounds / 2;
            let a = step_bfw_scenario(&spec, &graph, seed, half, kernel, threads).unwrap();
            assert_eq!(a.round, half);
            let b = resume_step_bfw_scenario(&a, spec.rounds - half, kernel, threads).unwrap();
            assert_eq!(b.round, spec.rounds);
            let outcome = resume_run_bfw_scenario(&b, kernel, threads).unwrap();
            assert_eq!(
                outcome, reference,
                "stepped run diverged on kernel {kernel:?} threads {threads:?} seed {seed}"
            );
            final_snapshots.push(b.to_json_value().render_pretty());
        }
        // The snapshot document embeds the FILE's stack, never the
        // execution override: every stack writes the same bytes.
        for (i, snap) in final_snapshots.iter().enumerate().skip(1) {
            assert_eq!(
                snap, &final_snapshots[0],
                "snapshot bytes differ between stack 0 and stack {i} at seed {seed}"
            );
        }
    }
}

#[test]
fn mid_run_snapshots_resume_across_kernels() {
    let (spec, graph) = load(RING_CHURN);
    let seed = 42;
    let reference = run_bfw_scenario(&spec, &graph, seed).unwrap();
    // Snapshot on the bit kernel, resume on the generic one — and the
    // other way around — through a JSON round-trip, as `bfw scenario
    // step --out` + `run --resume-from` would.
    for (snap_stack, resume_stack) in [
        (
            (Some(KernelKind::Bit), Some(4)),
            (Some(KernelKind::Generic), None),
        ),
        (
            (Some(KernelKind::Generic), None),
            (Some(KernelKind::Bit), Some(4)),
        ),
    ] {
        let snap =
            step_bfw_scenario(&spec, &graph, seed, 20_000, snap_stack.0, snap_stack.1).unwrap();
        let text = snap.to_json_value().render_pretty();
        let decoded = EngineSnapshot::from_json(&text).unwrap();
        let outcome = resume_run_bfw_scenario(&decoded, resume_stack.0, resume_stack.1).unwrap();
        assert_eq!(
            outcome, reference,
            "cross-kernel resume diverged: snap {snap_stack:?} -> resume {resume_stack:?}"
        );
    }
}

#[test]
fn async_scenarios_step_and_resume_with_their_scheduler() {
    let (spec, graph) = load(ASYNC_STORM);
    for seed in [42u64, 9] {
        let reference = run_bfw_scenario(&spec, &graph, seed).unwrap();
        let a = step_bfw_scenario(&spec, &graph, seed, 70_000, None, None).unwrap();
        // The scheduler half must survive the JSON round-trip, or the
        // resumed activation order silently drifts.
        let decoded = EngineSnapshot::from_json(&a.to_json_value().render_pretty()).unwrap();
        let b = resume_step_bfw_scenario(&decoded, spec.rounds - 70_000, None, None).unwrap();
        assert_eq!(b.round, spec.rounds);
        let outcome = resume_run_bfw_scenario(&b, None, None).unwrap();
        assert_eq!(
            outcome, reference,
            "async stepped run diverged at seed {seed}"
        );
    }
}

#[test]
fn pinned_snapshot_fixture_stays_byte_stable() {
    let (spec, graph) = load(WIPEOUT_E17);
    let snap = step_bfw_scenario(&spec, &graph, spec.seed, 600, None, None).unwrap();
    assert_eq!(
        snap.to_json_value().render_pretty(),
        SNAPSHOT_FIXTURE,
        "the engine-snapshot encoding changed; bump the format version or regenerate \
         tests/fixtures/wipeout_e17_round600.snapshot.json (see the constant's doc comment)"
    );

    // The committed bytes validate, decode, and resume to the wipeout
    // the scenario was written to exhibit.
    let summary = validate_engine_snapshot(SNAPSHOT_FIXTURE).unwrap();
    assert_eq!(summary.round, 600);
    assert_eq!(summary.rounds, 1500);
    assert_eq!(summary.nodes, 12);
    let decoded = EngineSnapshot::from_json(SNAPSHOT_FIXTURE).unwrap();
    let outcome = resume_run_bfw_scenario(&decoded, None, None).unwrap();
    assert!(wipes(&outcome), "{}", outcome.to_text());
    assert_eq!(outcome, run_bfw_scenario(&spec, &graph, spec.seed).unwrap());
}

#[test]
fn pinned_partition_backlog_stays_byte_stable() {
    let (spec, graph) = load(PARTITION_BACKLOG);
    let snap = step_bfw_scenario(&spec, &graph, spec.seed, 150, None, None).unwrap();
    assert_eq!(
        snap.to_json_value().render_pretty(),
        BACKLOG_FIXTURE,
        "the partition backlog or its encoding changed; regenerate \
         tests/fixtures/partition_backlog.snapshot.json only for a deliberate change \
         (see the constant's doc comment)"
    );
    // Both cuts in cut order, (1, 5) in each.
    let (one, five) = (NodeId::new(1), NodeId::new(5));
    let backlog = &snap.cursor.partition_backlog;
    assert_eq!(backlog.len(), 11);
    assert_eq!(backlog.iter().filter(|&&e| e == (one, five)).count(), 2);

    // The heal restores each missing edge once, and the resumed run,
    // on every stack, is the straight run.
    let straight = run_bfw_scenario(&spec, &graph, spec.seed).unwrap();
    assert_eq!(straight.event_log[3], "@200 heal -> restored 10 edge(s)");
    assert_eq!(straight.final_edges, graph.edge_count());
    let decoded = EngineSnapshot::from_json(BACKLOG_FIXTURE).unwrap();
    for (kernel, threads) in STACKS {
        let resumed = resume_run_bfw_scenario(&decoded, kernel, threads).unwrap();
        assert_eq!(resumed, straight, "kernel {kernel:?} threads {threads:?}");
    }
}

/// The snapshot fixture with the value at `pointer` replaced.
fn tampered(pointer: &str, value: JsonValue) -> String {
    edited(SNAPSHOT_FIXTURE, &[(pointer.to_owned(), value)])
}

/// `text` with the value at each pointer replaced.
fn edited(text: &str, edits: &[(String, JsonValue)]) -> String {
    let mut doc = JsonValue::parse(text).unwrap();
    for (pointer, value) in edits {
        let mut node = &mut doc;
        for token in pointer.split('/').skip(1) {
            node = match node {
                JsonValue::Object(map) => map.get_mut(token).unwrap(),
                JsonValue::Array(items) => &mut items[token.parse::<usize>().unwrap()],
                _ => panic!("{pointer}: nothing to descend into at {token}"),
            };
        }
        *node = value.clone();
    }
    doc.render_pretty()
}

/// Runs one `bfw` command line through the CLI library.
fn cli(args: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = args.iter().map(|&a| a.to_owned()).collect();
    bfw_cli::run(&argv)
}

#[test]
fn snapshots_a_resume_would_panic_on_are_refused_at_their_pointer() {
    let pair = |counter: u64, cursor: u64| {
        JsonValue::array([JsonValue::from(counter), JsonValue::from(cursor)])
    };
    let dir = std::env::temp_dir().join(format!("bfw_tampered_snapshots_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        // A cursor inside a block needs a generated block: counter > 0.
        ("/engine/rng/0", pair(0, 5), "/engine/rng/0"),
        ("/cursor/rng", pair(0, 3), "/cursor/rng"),
        // A ChaCha8 block holds 16 words.
        ("/engine/rng/3", pair(28, 17), "/engine/rng/3/1"),
        // Noise channels are probabilities in [0, 1).
        ("/engine/noise/fn", JsonValue::from(1.5), "/engine/noise/fn"),
        ("/engine/noise/fp", JsonValue::from(1.0), "/engine/noise/fp"),
    ];
    for (i, (pointer, value, at)) in cases.into_iter().enumerate() {
        let text = tampered(pointer, value);
        let err = validate_engine_snapshot(&text).unwrap_err();
        assert_eq!(err.pointer(), at, "{err}");
        // `scenario run --resume-from` returns the same error instead of
        // panicking inside the engine.
        let path = dir.join(format!("tampered_{i}.json"));
        std::fs::write(&path, &text).unwrap();
        let err = cli(&["scenario", "run", "--resume-from", path.to_str().unwrap()]).unwrap_err();
        assert!(err.contains(&format!("schema error at {at}: ")), "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    // A fresh stream (counter 0, block used up) stays legal.
    validate_engine_snapshot(&tampered("/engine/rng/0", pair(0, 16))).unwrap();
}

#[test]
fn decoded_specs_refuse_what_the_toml_parser_refuses() {
    let noise_burst = |fn_rate: f64| {
        JsonValue::object([
            ("at", JsonValue::from(200u64)),
            ("kind", JsonValue::from("noise-burst")),
            ("fn", JsonValue::from(fn_rate)),
            ("fp", JsonValue::from(0.0)),
            ("rounds", JsonValue::from(10u64)),
        ])
    };
    let dir = std::env::temp_dir().join(format!("bfw_tampered_specs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        (
            "/spec/config/p",
            JsonValue::from(1.5),
            "schema error at /spec/config/p: p must be in (0, 1), got 1.5",
        ),
        (
            "/spec/config/threads",
            JsonValue::from(0u64),
            "schema error at /spec/config/threads: threads must be at least 1",
        ),
        (
            "/spec/events/0",
            noise_burst(1.5),
            "schema error at /spec/events/0/fn: fn must be in [0, 1), got 1.5",
        ),
    ];
    for (i, (pointer, value, message)) in cases.into_iter().enumerate() {
        let text = tampered(pointer, value);
        let err = validate_engine_snapshot(&text).unwrap_err();
        assert_eq!(err.to_string(), message);
        let path = dir.join(format!("tampered_spec_{i}.json"));
        std::fs::write(&path, &text).unwrap();
        let err = cli(&["scenario", "run", "--resume-from", path.to_str().unwrap()]).unwrap_err();
        assert!(err.contains(message), "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    // In-range values still decode.
    validate_engine_snapshot(&tampered("/spec/events/0", noise_burst(0.5))).unwrap();
    validate_engine_snapshot(&tampered("/spec/config/threads", JsonValue::from(2u64))).unwrap();
}

#[test]
fn decoded_specs_obey_the_stack_rules() {
    // The five stacks a decoded spec used to smuggle past the parser's
    // rules: each set of `config` edits and what the refusal says.
    let text = |s: &str| JsonValue::from(s);
    let stacks: [(Vec<(&str, JsonValue)>, &str); 5] = [
        (
            vec![("kernel", text("bit")), ("protocol", text("bfw+recovery"))],
            "kernel = \"bit\" cannot execute protocol = \"bfw+recovery\"",
        ),
        (
            vec![
                ("runtime", text("async")),
                ("protocol", text("bfw+recovery")),
            ],
            "runtime = \"async\" cannot execute protocol = \"bfw+recovery\"",
        ),
        (
            vec![("scheduler", text("weighted"))],
            "scheduler requires runtime = \"async\"",
        ),
        (
            vec![
                ("kernel", text("generic")),
                ("threads", JsonValue::from(2u64)),
            ],
            "threads requires the bit kernel",
        ),
        (
            vec![("heartbeat", JsonValue::from(40u64))],
            "heartbeat requires protocol = \"bfw+recovery\"",
        ),
    ];
    let (spec, _) = load(WIPEOUT_E17);
    let exported = spec_to_json(&spec, spec.seed).render_pretty();
    let dir = std::env::temp_dir().join(format!("bfw_stack_rules_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (edits, message)) in stacks.iter().enumerate() {
        let at = |prefix: &str| -> Vec<(String, JsonValue)> {
            edits
                .iter()
                .map(|(key, value)| (format!("{prefix}/{key}"), value.clone()))
                .collect()
        };
        let snapshot = edited(SNAPSHOT_FIXTURE, &at("/spec/config"));
        let err = validate_engine_snapshot(&snapshot).unwrap_err();
        assert_eq!(err.pointer(), "/spec/config", "{err}");
        assert!(err.message().contains(message), "{err}");
        let spec_doc = edited(&exported, &at("/config"));
        let err = validate_scenario_spec(&spec_doc).unwrap_err();
        assert_eq!(err.pointer(), "/config", "{err}");
        assert!(err.message().contains(message), "{err}");

        // `report validate` fails on both documents, and a resume of the
        // snapshot is refused (exit 1) naming the config object.
        let snap_path = dir.join(format!("stack_{i}.snapshot.json"));
        let spec_path = dir.join(format!("stack_{i}.spec.json"));
        std::fs::write(&snap_path, &snapshot).unwrap();
        std::fs::write(&spec_path, &spec_doc).unwrap();
        for path in [&snap_path, &spec_path] {
            let err = cli(&["report", "validate", path.to_str().unwrap()]).unwrap_err();
            assert!(err.contains(message), "{err}");
        }
        let err = cli(&[
            "scenario",
            "run",
            "--resume-from",
            snap_path.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("schema error at /spec/config: "), "{err}");
        assert!(err.contains(message), "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_snapshots_are_refused_on_resume() {
    // The recovery layer's epoch-tagged states have no snapshot
    // encoding: a snapshot whose spec names that stack can be neither
    // resumed nor stepped.
    let text = tampered("/spec/config/protocol", JsonValue::from("bfw+recovery"));
    let snap = EngineSnapshot::from_json(&text).unwrap();
    let err = resume_run_bfw_scenario(&snap, None, None).unwrap_err();
    assert!(err.to_string().contains("no snapshot encoding"), "{err}");
    let err = resume_step_bfw_scenario(&snap, 10, None, None).unwrap_err();
    assert!(err.to_string().contains("no snapshot encoding"), "{err}");
}

#[test]
fn a_bad_value_deep_in_a_large_array_is_named_exactly() {
    // A 130 000-edge partition backlog with one string endpoint far down
    // the array: the pointer, worked out only once decoding fails, names
    // that element.
    let edges = (0..130_000u64).map(|i| {
        let v = if i == 123_456 {
            JsonValue::from("x")
        } else {
            JsonValue::from((i + 1) % 12)
        };
        JsonValue::array([JsonValue::from(i % 12), v])
    });
    let text = tampered("/cursor/partition_backlog", JsonValue::array(edges));
    let err = EngineSnapshot::from_json(&text).unwrap_err();
    assert_eq!(
        err.to_string(),
        "schema error at /cursor/partition_backlog/123456/1: expected a number"
    );
}

/// A JSON list of `[u, v]` pairs.
fn pairs(edges: &[(u64, u64)]) -> JsonValue {
    JsonValue::array(
        edges
            .iter()
            .map(|&(u, v)| JsonValue::array([JsonValue::from(u), JsonValue::from(v)])),
    )
}

#[test]
fn topologies_that_do_not_fit_the_spec_are_refused_at_their_pointer() {
    // The fixture's run never rewires its ring, `cycle:12`: no edits.
    assert!(SNAPSHOT_FIXTURE.contains("\"added\": []"));
    assert!(SNAPSHOT_FIXTURE.contains("\"removed\": []"));
    let cases: Vec<(&str, JsonValue, &str, &str)> = vec![
        (
            "/version",
            JsonValue::from(1u64),
            "/version",
            "re-create the snapshot with `bfw scenario step`",
        ),
        (
            "/graph/nodes",
            JsonValue::from(13u64),
            "/graph/nodes",
            "13 nodes, but the spec's graph cycle:12 has 12",
        ),
        // Refused before anything node-sized is allocated.
        (
            "/graph/nodes",
            JsonValue::from(1u64 << 40),
            "/graph/nodes",
            "1099511627776 nodes",
        ),
        (
            "/graph/removed",
            pairs(&[(0, 5)]),
            "/graph/removed/0",
            "removes [0, 5], which the spec's graph lacks",
        ),
        (
            "/graph/added",
            pairs(&[(0, 1)]),
            "/graph/added/0",
            "adds [0, 1], which the spec's graph already has",
        ),
        (
            "/graph/added",
            pairs(&[(0, 5), (0, 5)]),
            "/graph/added/1",
            "is listed twice",
        ),
        (
            "/graph/added",
            pairs(&[(2, 5), (0, 5)]),
            "/graph/added/1",
            "is out of order",
        ),
        (
            "/graph/added",
            pairs(&[(3, 3)]),
            "/graph/added/0",
            "self-loop",
        ),
        (
            "/graph/removed",
            pairs(&[(1, 0)]),
            "/graph/removed/0",
            "write the edge as [0, 1]",
        ),
        (
            "/graph/added",
            pairs(&[(0, 12)]),
            "/graph/added/0/1",
            "node 12 out of range",
        ),
        (
            "/graph/base_edges",
            JsonValue::from(13u64),
            "/graph/base_edges",
            "a base of 13 edges, but the spec's graph cycle:12 has 12",
        ),
        (
            "/graph/base_digest",
            JsonValue::from("0000000000000000"),
            "/graph/base_digest",
            "the snapshot was not taken on this graph",
        ),
    ];
    let dir = std::env::temp_dir().join(format!("bfw_snapshot_edits_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (pointer, value, at, message)) in cases.into_iter().enumerate() {
        let text = tampered(pointer, value);
        let err = validate_engine_snapshot(&text).unwrap_err();
        assert_eq!(err.pointer(), at, "{err}");
        assert!(err.message().contains(message), "{err}");
        // Every reader refuses the document with that error: no resume
        // starts, and none panics.
        let path = dir.join(format!("edits_{i}.json"));
        std::fs::write(&path, &text).unwrap();
        let path = path.to_str().unwrap();
        for args in [
            &["report", "validate", path][..],
            &["scenario", "run", "--resume-from", path],
            &["scenario", "step", "--resume-from", path, "--rounds", "10"],
        ] {
            let err = cli(args).unwrap_err();
            assert!(
                err.contains(&format!("schema error at {at}: ")),
                "{args:?}: {err}"
            );
            assert!(err.contains(message), "{args:?}: {err}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    // Edits that fit the ring decode, and the topology is the ring with
    // them applied.
    let edited = edited(
        SNAPSHOT_FIXTURE,
        &[
            ("/graph/removed".to_owned(), pairs(&[(0, 1), (5, 6)])),
            ("/graph/added".to_owned(), pairs(&[(0, 6), (2, 9)])),
        ],
    );
    let snap = EngineSnapshot::from_json(&edited).unwrap();
    let ring = |u: u32| (u, (u + 1) % 12);
    let expected = Graph::from_edges(
        12,
        (1..12)
            .filter(|&u| u != 5)
            .map(ring)
            .chain([(0, 6), (2, 9)]),
    )
    .unwrap();
    assert_eq!(snap.graph, expected);
    assert_eq!(
        *snap.base,
        Graph::from_edges(12, (0..12).map(ring)).unwrap()
    );
    assert_eq!(snap.to_json_value().render_pretty(), edited);
}

/// The plain synchronous BFW stacks a snapshot is taken on: the generic
/// engine, and the bit kernel at one to three threads.
const EDIT_STACKS: [(Option<KernelKind>, Option<usize>); 4] = [
    (Some(KernelKind::Generic), None),
    (Some(KernelKind::Bit), Some(1)),
    (Some(KernelKind::Bit), Some(2)),
    (Some(KernelKind::Bit), Some(3)),
];

/// A seeded timeline of edge additions and removals, partitions and
/// heals on `graph` (plus a crash and a recovery), over 300 rounds.
fn random_topology_spec(rng: &mut ChaCha8Rng, graph: &str, seed: u64) -> (ScenarioSpec, Graph) {
    let base = graph.parse::<bfw_graph::GraphSpec>().unwrap().build();
    let (n, edges): (usize, Vec<_>) = (base.node_count(), base.edges().collect());
    let mut toml = format!(
        "[scenario]\nname = \"random topology\"\ngraph = \"{graph}\"\nrounds = 300\n\
         stability = 20\nseed = {seed}\n\n[[event]]\nat = 90\nkind = \"crash-random\"\n\n\
         [[event]]\nat = 150\nkind = \"recover-all\"\n"
    );
    for _ in 0..rng.random_range(4..12usize) {
        let at = rng.random_range(1..300u64);
        let event = match rng.random_range(0..4u32) {
            0 => {
                let u = rng.random_range(0..n);
                let v = (u + rng.random_range(1..n)) % n;
                format!("kind = \"add-edge\"\nu = {u}\nv = {v}")
            }
            1 => {
                let (u, v) = edges[rng.random_range(0..edges.len())];
                format!("kind = \"remove-edge\"\nu = {u}\nv = {v}")
            }
            2 => {
                let cut: Vec<String> = (0..rng.random_range(1..n / 2))
                    .map(|_| rng.random_range(0..n).to_string())
                    .collect();
                format!("kind = \"partition\"\ncut = [{}]", cut.join(", "))
            }
            _ => "kind = \"heal\"".to_owned(),
        };
        toml.push_str(&format!("\n[[event]]\nat = {at}\n{event}\n"));
    }
    let spec = ScenarioSpec::parse(&toml).unwrap_or_else(|e| panic!("{e}\n{toml}"));
    (spec, base)
}

/// Encodes a snapshot, decodes it and checks the decode: the topology
/// is the captured one, edge for edge, and re-encoding is the identity.
fn through_json(snap: &EngineSnapshot) -> (String, EngineSnapshot) {
    let text = snap.to_json_value().render_pretty();
    let decoded = EngineSnapshot::from_json(&text).unwrap();
    assert_eq!(decoded.graph, snap.graph, "round {}", snap.round);
    assert_eq!(decoded.base, snap.base, "round {}", snap.round);
    assert_eq!(decoded.to_json_value().render_pretty(), text);
    (text, decoded)
}

#[test]
fn random_topology_timelines_survive_the_edit_encoding_on_every_stack() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5A17);
    // Snapshots whose topology had lost base edges, and had gained some.
    let (mut with_removed, mut with_added) = (0, 0);
    for (case, graph) in [
        "cycle:10",
        "grid:3x4",
        "ba:14:2:7",
        "randtree:12:3",
        "torus:3x4",
        "geo:16:400:2",
    ]
    .iter()
    .cycle()
    .take(24)
    .enumerate()
    {
        let seed = case as u64;
        let (spec, base) = random_topology_spec(&mut rng, graph, seed);
        let straight = run_bfw_scenario(&spec, &base, seed).unwrap();
        let mut rounds: Vec<u64> = (0..3).map(|_| rng.random_range(1..300u64)).collect();
        rounds.push(300);
        rounds.sort_unstable();
        let mut documents: Vec<Vec<String>> = Vec::new();
        for (kernel, threads) in EDIT_STACKS {
            let mut texts = Vec::new();
            // The chain: each leg resumes the previous leg's decoded
            // document, and must write what one straight step writes.
            let mut chained: Option<EngineSnapshot> = None;
            for &round in &rounds {
                let direct = step_bfw_scenario(&spec, &base, seed, round, kernel, threads).unwrap();
                let (text, _) = through_json(&direct);
                let edits = base.edits_to(&direct.graph);
                with_removed += usize::from(!edits.removed().is_empty());
                with_added += usize::from(!edits.added().is_empty());
                let next = match &chained {
                    None => step_bfw_scenario(&spec, &base, seed, round, kernel, threads),
                    Some(prev) => {
                        resume_step_bfw_scenario(prev, round - prev.round, kernel, threads)
                    }
                }
                .unwrap();
                let (chained_text, decoded) = through_json(&next);
                assert_eq!(chained_text, text, "{graph} seed {seed} round {round}");
                chained = Some(decoded);
                texts.push(text);
            }
            let resumed = resume_run_bfw_scenario(&chained.unwrap(), kernel, threads).unwrap();
            assert_eq!(
                resumed, straight,
                "{graph} seed {seed} {kernel:?}@{threads:?}"
            );
            documents.push(texts);
        }
        assert!(
            documents.iter().all(|texts| *texts == documents[0]),
            "{graph} seed {seed}: the stacks wrote different snapshots"
        );
    }
    // Most of the 384 snapshots carry edits (a guard against timelines
    // that never rewire anything).
    assert!(
        with_removed >= 160 && with_added >= 120,
        "{with_removed} with removed edges, {with_added} with added ones"
    );
}

#[test]
fn a_heal_that_restores_the_base_writes_no_edits() {
    let (spec, graph) = load(PARTITION_BACKLOG);
    // Mid-partition, the cut edges are the edits; after the heal at
    // 200 the grid is whole again, and the edit lists are empty.
    let cut = step_bfw_scenario(&spec, &graph, spec.seed, 150, None, None).unwrap();
    let cut = cut.to_json_value();
    let edits = cut.get("graph").unwrap();
    assert_eq!(edits.get("removed").unwrap().as_array().unwrap().len(), 10);
    assert_eq!(edits.get("added").unwrap().as_array().unwrap().len(), 0);
    let healed = step_bfw_scenario(&spec, &graph, spec.seed, 250, None, None).unwrap();
    assert_eq!(healed.graph, graph);
    let healed = healed.to_json_value();
    let edits = healed.get("graph").unwrap();
    assert_eq!(edits.get("removed").unwrap(), &JsonValue::array([]));
    assert_eq!(edits.get("added").unwrap(), &JsonValue::array([]));
    assert_eq!(edits.get("base_edges").unwrap(), &JsonValue::from(24u64));
}

#[test]
fn shrinker_minimizes_the_e17_phantom_corpus() {
    let (spec, graph) = load(WIPEOUT_E17);
    for quick in [false, true] {
        let report = shrink_wipeout(&spec, &graph, spec.seed, quick).unwrap();
        assert_eq!(report.original_events, 3);
        assert_eq!(
            report.events.len(),
            1,
            "decoy churn must be dropped (quick = {quick}):\n{}",
            report.to_text()
        );
        assert!(
            report.events[0].event.to_string().starts_with("inject"),
            "{}",
            report.to_text()
        );
        assert!(
            report.horizon < report.original_horizon,
            "{}",
            report.to_text()
        );

        // The minimized spec still validates, still wipes out, and
        // round-trips through the interchange layer.
        validate_scenario(&report.spec, &graph).unwrap();
        let outcome = run_bfw_scenario(&report.spec, &graph, spec.seed).unwrap();
        assert!(wipes(&outcome), "{}", outcome.to_text());
        let doc = spec_to_json(&report.spec, spec.seed).render_pretty();
        let summary = validate_scenario_spec(&doc).unwrap();
        assert_eq!(summary.events, 1);
    }
}

#[test]
fn shrinker_minimizes_an_e15_crash_leader_corpus() {
    // E15: the elected leader crashes and never rejoins — permanent
    // wipeout under plain BFW — buried in decoy topology churn.
    let toml = r#"
[scenario]
name = "e15 no-rejoin"
graph = "cycle:8"
rounds = 4000
stability = 20
seed = 3

[[event]]
at = 100
kind = "add-edge"
u = 0
v = 4

[[event]]
at = 2500
kind = "crash-leader"

[[event]]
at = 2600
kind = "remove-edge"
u = 0
v = 4
"#;
    let (spec, graph) = load(toml);
    let report = shrink_wipeout(&spec, &graph, spec.seed, false).unwrap();
    assert_eq!(
        report.events.len(),
        1,
        "topology decoys must be dropped:\n{}",
        report.to_text()
    );
    assert_eq!(report.events[0].event.to_string(), "crash-leader");
    assert!(
        report.horizon < report.original_horizon,
        "{}",
        report.to_text()
    );
    let outcome = run_bfw_scenario(&report.spec, &graph, spec.seed).unwrap();
    assert!(wipes(&outcome), "{}", outcome.to_text());
}
