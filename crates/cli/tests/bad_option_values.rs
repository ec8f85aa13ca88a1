//! A present-but-unparsable option value is an error that names the flag
//! and the text — never a silent fall-back to the default — in every
//! subcommand family of the real `opa` binary; so is a file of the wrong
//! kind, which names both kinds.

use std::path::PathBuf;
use std::process::{Command, Output};

fn opa(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_opa"))
        .args(args)
        .output()
        .expect("opa binary runs")
}

/// A scratch directory of the test's own holding a small click stream.
fn scratch(test: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("opa-cli-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let clicks = dir.join("clicks.log").display().to_string();
    let gen = opa(&[
        "generate",
        "clickstream",
        "--bytes",
        "64K",
        "--preset",
        "counting",
        "--out",
        &clicks,
    ]);
    assert!(gen.status.success(), "generate failed: {gen:?}");
    (dir, clicks)
}

fn assert_rejected(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "expected exit 1: {out:?}");
    assert!(
        stderr.contains(message),
        "stderr must carry `{message}`, got: {stderr}"
    );
}

#[test]
fn run_rejects_unparsable_values() {
    let (dir, clicks) = scratch("run");
    let run = |extra: &[&str]| opa(&[&["run", "click-count", "--input", &clicks], extra].concat());
    assert!(run(&["--expected-keys", "1000"]).status.success());
    assert_rejected(
        &run(&["--expected-keys", "abc"]),
        "--expected-keys: cannot parse 'abc'",
    );
    assert_rejected(
        &run(&["--drift", "--model-zipf", "abc"]),
        "--model-zipf: cannot parse 'abc'",
    );
    assert_rejected(
        &run(&["--fault-rate", "high"]),
        "--fault-rate: cannot parse 'high'",
    );
    assert_rejected(&run(&["--threads", "-1"]), "--threads: cannot parse '-1'");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_rejects_unparsable_values() {
    let (dir, clicks) = scratch("stream");
    let ckpts = dir.join("ck");
    let out = opa(&[
        "stream",
        "click-count",
        "--input",
        &clicks,
        "--checkpoint-every",
        "2x",
        "--checkpoint-dir",
        &ckpts.display().to_string(),
    ]);
    assert_rejected(&out, "--checkpoint-every: cannot parse '2x'");
    assert!(!ckpts.exists(), "no run, so no checkpoint directory");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_unparsable_values() {
    let (dir, clicks) = scratch("serve");
    let ctl = dir.join("serve.ctl").display().to_string();
    std::fs::write(
        &ctl,
        format!(
            "submit 0 click-count --input {clicks} --batches 2x\n\
             submit 0 click-count --input {clicks} --batches 2\n\
             query 0 --key one\n\
             run\n"
        ),
    )
    .expect("write control file");
    // A bad value on a control line fails that command, not the server:
    // the first submit admits nothing, so the second one is job 0.
    let out = opa(&["serve", "--control", &ctl]);
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(out.status.success(), "{out:?}");
    assert!(
        stderr.contains("error: --batches: cannot parse '2x'"),
        "{stderr}"
    );
    assert!(
        stderr.contains("error: --key: cannot parse 'one'"),
        "{stderr}"
    );
    assert_eq!(stdout.matches(": Started").count(), 1, "{stdout}");
    assert!(
        stdout.contains("job 0 tenant 0 click-count: Started"),
        "{stdout}"
    );
    // On the server's own command line it is fatal.
    assert_rejected(
        &opa(&["serve", "--control", &ctl, "--slots", "many"]),
        "--slots: cannot parse 'many'",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dataflow_rejects_unparsable_values() {
    let (dir, clicks) = scratch("dataflow");
    let flow = |chain: &str, extra: &[&str]| {
        opa(&[&["dataflow", chain, "--input", &clicks], extra].concat())
    };
    assert!(flow("pagerank", &["--rounds", "1"]).status.success());
    assert_rejected(
        &flow("pagerank", &["--rounds", "x"]),
        "--rounds: cannot parse 'x'",
    );
    assert_rejected(
        &flow("top-pages", &["--k", "ten"]),
        "--k: cannot parse 'ten'",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_job_fails_the_same_way_everywhere() {
    // `run`, `stream` and `serve submit` resolve JOB through one catalog,
    // before any input is read — so no input file is needed to see it.
    let dir = std::env::temp_dir().join(format!("opa-cli-nojob-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ctl = dir.join("serve.ctl").display().to_string();
    std::fs::write(&ctl, "submit 0 word-count --input /no/such/file\n").expect("write");
    let want = "error: unknown job 'word-count'\n";
    for cmd in ["run", "stream"] {
        let out = opa(&[cmd, "word-count", "--input", "/no/such/file"]);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), want, "{cmd}");
    }
    // On a control line the command fails and the loop goes on.
    let out = opa(&["serve", "--control", &ctl]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stderr), want, "serve submit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_names_the_kind_of_a_file_that_is_not_a_checkpoint() {
    let (dir, clicks) = scratch("query");
    let dlq = dir.join("dlq");
    let ctl = dir.join("serve.ctl").display().to_string();
    std::fs::write(
        &ctl,
        format!(
            "submit 0 click-count --input {clicks} --batches 2 --poison-rate 0.05 --fault-seed 5\n\
             run\n"
        ),
    )
    .expect("write control file");
    let out = opa(&[
        "serve",
        "--control",
        &ctl,
        "--dlq-dir",
        &dlq.display().to_string(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stages = dir.join("stages");
    let out = opa(&[
        "dataflow",
        "pagerank",
        "--input",
        &clicks,
        "--rounds",
        "1",
        "--checkpoint-dir",
        &stages.display().to_string(),
    ]);
    assert!(out.status.success(), "{out:?}");
    for (file, kind) in [
        (dlq.join("dlq-t0-j0.opaq"), "a quarantine file"),
        (
            stages.join("stage-0.opadf"),
            "a dataflow stage checkpoint file",
        ),
    ] {
        assert_rejected(
            &opa(&["query", "--checkpoint", &file.display().to_string()]),
            &format!("expected a stream checkpoint file, found {kind}"),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
