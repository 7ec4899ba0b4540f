//! Exit-status contract of the `exp` binary: usage errors exit 2, stage
//! failures exit 1 (a clean message, not a panic's 101), success exits 0.

use std::process::Command;

fn exp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_exp"))
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("iotmap-exit-codes-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn usage_errors_exit_2() {
    let out = exp().arg("no-such-experiment").output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    let out = exp()
        .args(["table1", "--faults", "/no/such/faults.conf"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--faults"));

    let out = exp().args(["table1", "--preset", "huge"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    // Mode flags are validated against the experiment they belong to:
    // `--days` is longitudinal-only, and the message must name the flag.
    let out = exp().args(["table1", "--days", "7"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--days"));

    // `--scale` is bench-only, and the factor must be a positive integer.
    let out = exp().args(["table1", "--scale", "4"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--scale"));
    let out = exp().args(["bench", "--scale", "0"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--scale"));
    let out = exp().args(["bench", "--scale", "lots"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("scale"));

    // The retired speedup-gate flag fails like any unknown argument.
    let out = exp()
        .args(["bench", "--baseline", "x.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"));

    // `--file` and `--matrix` are scenario-only.
    let out = exp().args(["table1", "--file", "x.scn"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--file"));
    let out = exp()
        .args(["longitudinal", "--matrix", "scenarios"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--matrix"));

    // The scenario experiment needs a source of scenarios, the file must
    // parse, and a matrix directory must contain at least one *.scn.
    let out = exp().arg("scenario").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--file") && stderr.contains("--matrix"),
        "stderr: {stderr}"
    );

    let dir = scratch("scn");
    let bad = dir.join("bad.scn");
    std::fs::write(
        &bad,
        "[scenario]\nname = x\n[cert_storm]\nprovider = nope\nday = 1\nreissue = 0.5\n",
    )
    .unwrap();
    let out = exp()
        .args(["scenario", "--file", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown provider"));

    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let out = exp()
        .args(["scenario", "--matrix", empty.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no *.scn"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stage_failures_exit_1_with_a_clear_message() {
    // A fault plan whose kill switch fires right after the first stage:
    // the pipeline returns a stage error and exp must exit 1 — not 0, and
    // not a panic's 101.
    let dir = scratch("kill");
    let faults = dir.join("kill.conf");
    std::fs::write(&faults, "crash.kill_after_stage = world\n").unwrap();
    let out = exp()
        .args(["table1", "--preset", "small"])
        .args(["--faults", faults.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("pipeline failed"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn successful_runs_exit_0_and_checkpoint_resume_works_end_to_end() {
    let dir = scratch("ckpt");
    let run_dir = dir.join("run");
    let out = exp()
        .args(["table1", "--preset", "small"])
        .args(["--checkpoints", run_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        std::fs::read_dir(&run_dir).unwrap().count() > 0,
        "checkpoints were written"
    );
    let first = String::from_utf8_lossy(&out.stdout).to_string();

    let out = exp()
        .args(["table1", "--preset", "small"])
        .args(["--resume", run_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        first,
        "a resumed run must print the same tables"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
