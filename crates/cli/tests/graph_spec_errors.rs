//! Out-of-domain graph specs end in a one-line error and exit code 1 —
//! never a generator assertion (exit code 101) — through every verb
//! that builds a graph from a spec: `scenario run`, `scenario validate`
//! and `graph export`. The scenario verbs name the file and its `graph`
//! key before the grammar's message.

use std::path::PathBuf;
use std::process::Command;

/// Each spec with the words its error must contain.
const BAD_SPECS: &[(&str, &str)] = &[
    ("cycle:2", "a cycle needs n >= 3"),
    ("torus:2x2", "a torus needs rows and cols >= 3"),
    ("grid:0x5", "a grid needs rows and cols >= 1"),
    ("hypercube:0", "dimension must be in 1..=30"),
    ("hypercube:40", "dimension must be in 1..=30"),
    ("ba:5:10:1", "needs m >= 1 and n > m"),
    ("plaw:10:1000:1", "exponent (milli) must exceed 1000"),
    ("tree:0:2", "a tree needs arity >= 1"),
    ("barbell:1:0", "cliques of k >= 2 nodes"),
    ("geo:0:5:1", "needs n >= 1"),
    // Parses, but rejection sampling finds no connected graph.
    ("er:10:0:1", "raise p (milli) above the threshold"),
];

fn spec_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bfw_graph_spec_errors_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_verb_refuses_out_of_domain_specs_with_exit_code_1() {
    let dir = spec_dir();
    for (i, &(spec, rule)) in BAD_SPECS.iter().enumerate() {
        let file = dir.join(format!("bad_{i}.toml"));
        std::fs::write(&file, format!("[scenario]\ngraph = \"{spec}\"\n")).unwrap();
        let file = file.to_string_lossy().into_owned();
        let in_file = format!("error: {file}: scenario spec: graph: invalid graph spec: {spec}: ");
        let bare = format!("error: invalid graph spec: {spec}: ");
        for (verb, prefix) in [
            (vec!["scenario", "run", file.as_str()], &in_file),
            (vec!["scenario", "validate", file.as_str()], &in_file),
            (vec!["graph", "export", spec], &bare),
        ] {
            let out = Command::new(env!("CARGO_BIN_EXE_bfw"))
                .args(&verb)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{spec} via {verb:?}: {stderr}");
            assert!(stderr.starts_with(prefix), "{spec} via {verb:?}: {stderr}");
            assert!(stderr.contains(rule), "{spec} via {verb:?}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{spec} via {verb:?}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs the binary, returning its exit code and stderr.
fn bfw(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bfw"))
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn oversized_specs_exit_1_with_their_estimate() {
    for args in [
        ["graph", "er:1000000:4:7"].as_slice(),
        &["graph", "tree:2:40"],
        &["graph", "hypercube:30"],
        &["graph", "export", "clique:100000"],
    ] {
        let start = std::time::Instant::now();
        let (code, stderr) = bfw(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(": too large to build: ≈"),
            "{args:?}: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(
            start.elapsed().as_secs() < 10,
            "{args:?} took {:?}",
            start.elapsed()
        );
    }
}

#[test]
fn exact_diameters_past_the_bfs_limit_exit_1_at_once() {
    // Both refuse before building: `run --known-d` asks whether the
    // diameter is affordable before it builds the topology. A
    // preferential-attachment graph has no closed-form diameter.
    for (args, spec, work, hint) in [
        (
            ["graph", "ba:10000000:1:1"].as_slice(),
            "ba:10000000:1:1",
            "300000000000000",
            "",
        ),
        (
            &["run", "--graph", "ba:10000000:1:1", "--known-d"],
            "ba:10000000:1:1",
            "300000000000000",
            "; --known-d needs it, pass --p P instead",
        ),
    ] {
        let start = std::time::Instant::now();
        let (code, stderr) = bfw(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert_eq!(
            stderr,
            format!(
                "error: invalid graph spec: {spec}: too large for an exact diameter: all-pairs \
                 BFS takes ≈{work} steps, n·(n + 2m) (limit: 2147483648 steps){hint}\n"
            ),
            "{args:?}"
        );
        assert!(
            start.elapsed().as_secs() < 10,
            "{args:?} took {:?}",
            start.elapsed()
        );
    }
    // A ring that large answers in closed form instead.
    let start = std::time::Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_bfw"))
        .args(["graph", "cycle:100000"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\ndiameter:  50000\n"), "{stdout}");
    assert!(start.elapsed().as_secs() < 10, "took {:?}", start.elapsed());
}

#[test]
fn misspelled_graph_is_refused_wherever_a_spec_enters() {
    let dir = std::env::temp_dir().join(format!("bfw_misspelled_graph_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();

    let (code, stderr) = bfw(&["graph", "cylce:12"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("did you mean 'cycle'?"), "{stderr}");

    std::fs::write(path("typo.toml"), "[scenario]\ngraph = \"cylce:12\"\n").unwrap();
    let (code, stderr) = bfw(&["scenario", "export", &path("typo.toml")]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("scenario spec: graph: "), "{stderr}");

    // A snapshot whose embedded spec names a misspelled graph.
    std::fs::write(
        path("ok.toml"),
        "[scenario]\ngraph = \"cycle:12\"\nrounds = 400\n",
    )
    .unwrap();
    let (code, stderr) = bfw(&[
        "scenario",
        "step",
        &path("ok.toml"),
        "--rounds",
        "100",
        "--out",
        &path("snap.json"),
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let snap = std::fs::read_to_string(path("snap.json")).unwrap();
    let tampered = snap.replace("\"graph\": \"cycle:12\"", "\"graph\": \"cylce:12\"");
    assert_ne!(tampered, snap);
    std::fs::write(path("tampered.json"), tampered).unwrap();
    let tampered = path("tampered.json");
    for args in [
        ["report", "validate", tampered.as_str()].as_slice(),
        &[
            "scenario",
            "step",
            "--resume-from",
            &tampered,
            "--rounds",
            "10",
        ],
        &["scenario", "run", "--resume-from", &tampered],
    ] {
        let (code, stderr) = bfw(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("/spec/config/graph"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
