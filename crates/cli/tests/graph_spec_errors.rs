//! Out-of-domain graph specs end in a one-line error and exit code 1 —
//! never a generator assertion (exit code 101) — through every verb
//! that builds a graph from a spec: `scenario run`, `scenario validate`
//! and `graph export`.

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
        for verb in [
            vec!["scenario", "run", file.as_str()],
            vec!["scenario", "validate", file.as_str()],
            vec!["graph", "export", spec],
        ] {
            let out = Command::new(env!("CARGO_BIN_EXE_bfw"))
                .args(&verb)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{spec} via {verb:?}: {stderr}");
            assert!(
                stderr.starts_with(&format!("error: invalid graph spec: {spec}: ")),
                "{spec} via {verb:?}: {stderr}"
            );
            assert!(stderr.contains(rule), "{spec} via {verb:?}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{spec} via {verb:?}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
