//! The binary's contract with its caller: a malformed command line
//! ends in exit code 1 and exactly one `error:` line on stderr — never
//! a panic (exit code 101) — for every verb and for an argument that
//! is not UTF-8; so does a document whose node count would make the
//! reader allocate past the build limit (never an abort, 134); a
//! reader that closes stdout early ends it quietly; and `graph
//! validate` reads stdin.

use std::io::{Read as _, Write as _};
use std::process::{Command, Stdio};

fn bfw() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bfw"))
}

/// Per verb: a missing flag value, a non-integer value, an unknown
/// flag and a misspelled subcommand (`graph` and `report` have no
/// integer flag), plus `--trials 0`. Every file named does not exist,
/// so each line proves its flags are checked before any file is read.
const MALFORMED: &[&[&str]] = &[
    &["run", "--graph", "cycle:8", "--seed"],
    &["run", "--graph", "cycle:8", "--seed", "x"],
    &["run", "--graph", "cycle:8", "--bogus"],
    &["rnu", "--graph", "cycle:8"],
    &["trace", "--graph", "path:8", "--rounds"],
    &["trace", "--graph", "path:8", "--rounds", "x"],
    &["trace", "--graph", "path:8", "--bogus"],
    &["invariants", "--graph", "cycle:8", "--p"],
    &["invariants", "--graph", "cycle:8", "--rounds", "x"],
    &["invariants", "--graph", "cycle:8", "--bogus"],
    &["graph", "export", "cycle:8", "--out"],
    &["graph", "import", "/nonexistent/g.json", "--bogus"],
    &["graph", "exprot", "cycle:8"],
    &["experiment", "chain", "--trials"],
    &["experiment", "chain", "--trials", "x"],
    &["experiment", "chain", "--bogus"],
    &["experiment", "chian", "--quick"],
    // Zero trials used to panic on an empty sample (or print NaN rows).
    &["experiment", "thm2-n", "--quick", "--trials", "0"],
    &["experiment", "p-sweep", "--quick", "--trials", "0"],
    &["scenario", "run", "/nonexistent/a.toml", "--seed"],
    &["scenario", "run", "/nonexistent/a.toml", "--seed", "x"],
    &["scenario", "step", "/nonexistent/a.toml", "--rounds", "x"],
    &["scenario", "export", "/nonexistent/a.toml", "--bogus"],
    &["scenario", "rnu", "/nonexistent/a.toml"],
    &["report", "history", "/nonexistent/a.json", "--out"],
    &["report", "history", "/nonexistent/a.json", "--bogus"],
    &["report", "vaildate", "/nonexistent/a.json"],
];

#[test]
fn malformed_command_lines_exit_1_with_one_error_line() {
    for args in MALFORMED {
        let out = bfw().args(*args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(!stderr.contains("cannot read"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[cfg(unix)]
#[test]
fn a_non_utf8_argument_exits_1_naming_its_position() {
    use std::ffi::OsStr;
    use std::os::unix::ffi::OsStrExt as _;
    let cases: [(&[&[u8]], &str); 2] = [
        (&[b"\xff"], "argument 1 "),
        (&[b"run", b"--graph", b"cycle:\xff"], "argument 3 "),
    ];
    for (args, position) in cases {
        let out = bfw()
            .args(args.iter().map(|a| OsStr::from_bytes(a)))
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains(position), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn a_closed_stdout_ends_the_binary_quietly() {
    // About 2 MB of output, far past what a pipe buffers.
    let mut child = bfw()
        .args(["graph", "export", "cycle:100000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut head = [0; 10];
    // Dropping the pipe after 10 bytes closes it, like `| head -c 10`.
    child.stdout.take().unwrap().read_exact(&mut head).unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(&head, b"{\n  \"forma");
    assert_eq!(out.status.code(), Some(0));
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn graph_validate_reads_stdin_without_a_file_or_with_a_dash() {
    let doc = bfw().args(["graph", "export", "cycle:8"]).output().unwrap();
    assert_eq!(doc.status.code(), Some(0));
    for args in [&["graph", "validate"][..], &["graph", "validate", "-"]] {
        let mut child = bfw()
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        child.stdin.take().unwrap().write_all(&doc.stdout).unwrap();
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            "<stdin>: ok — bfw/graph, 8 nodes, 8 edges, family cycle\n",
            "{args:?}"
        );
    }
}

/// Runs `bfw` with `stdin` piped in, returning its exit code and stderr.
fn with_stdin(args: &[&str], stdin: &[u8]) -> (Option<i32>, String) {
    let mut child = bfw()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(stdin).unwrap();
    let out = child.wait_with_output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn node_counts_past_the_build_limit_exit_1_at_their_pointer() {
    // A graph document may name at most 2^26 nodes, the build limit.
    for nodes in [67_108_865u64, 4_294_967_295] {
        let doc = format!(
            "{{\"format\":\"bfw/graph\",\"version\":1,\"nodes\":{nodes},\"edges\":[],\
             \"provenance\":null,\"overlay\":null}}"
        );
        let (code, stderr) = with_stdin(&["graph", "validate"], doc.as_bytes());
        assert_eq!(code, Some(1), "{nodes}: {stderr}");
        assert!(
            stderr.starts_with("error: <stdin>: schema error at /nodes: "),
            "{nodes}: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{nodes}: {stderr}");
    }

    // A snapshot's node count must be its spec's, and a version-1
    // snapshot is refused with a hint, by every reader.
    let dir = std::env::temp_dir().join(format!("bfw_exit_snapshot_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("ring.toml");
    std::fs::write(&spec, "[scenario]\ngraph = \"cycle:12\"\nrounds = 100\n").unwrap();
    let snap = dir.join("snap.json");
    let out = bfw()
        .args(["scenario", "step", spec.to_str().unwrap(), "--rounds", "50"])
        .args(["--out", snap.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&snap).unwrap();
    for (from, to, pointer) in [
        (
            "\"nodes\": 12,",
            "\"nodes\": 1099511627776,",
            "/graph/nodes",
        ),
        ("\"version\": 2", "\"version\": 1", "/version"),
    ] {
        let tampered = text.replace(from, to);
        assert_ne!(tampered, text, "{from}");
        std::fs::write(&snap, &tampered).unwrap();
        let path = snap.to_str().unwrap();
        for args in [
            &["report", "validate", path][..],
            &["scenario", "run", "--resume-from", path],
        ] {
            let out = bfw().args(args).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(
                stderr.starts_with(&format!("error: {path}: schema error at {pointer}: ")),
                "{args:?}: {stderr}"
            );
            assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
