//! Golden test for `exp all`: every table and figure of the small preset
//! at seed 42, compared byte for byte with
//! `tests/golden/exp_all_small_42.txt`, serial and on four threads.
//! Only stdout is pinned; stderr carries timings.
//!
//! About 49 s in debug and 6 s in release, so it is `#[ignore]`d here and
//! run by CI's `paper-equivalence` job:
//!
//! ```text
//! cargo test --release -p iotmap-bench --test exp_all_golden -- --ignored
//! ```

use std::process::Command;

#[test]
#[ignore = "runs every experiment twice; CI paper-equivalence runs it in release"]
fn exp_all_stdout_matches_golden_at_threads_1_and_4() {
    let golden = include_str!("golden/exp_all_small_42.txt");
    for threads in ["1", "4"] {
        let out = Command::new(env!("CARGO_BIN_EXE_exp"))
            .args(["all", "--preset", "small", "--seed", "42"])
            .args(["--threads", threads])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(0),
            "threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        if stdout != golden {
            let (line, (got, want)) = stdout
                .lines()
                .zip(golden.lines())
                .enumerate()
                .find(|(_, (a, b))| a != b)
                .unwrap_or((
                    stdout.lines().count().min(golden.lines().count()),
                    ("<end>", "<end>"),
                ));
            panic!(
                "threads {threads}: stdout differs from the golden at line {}:\n  got:  {got}\n  want: {want}",
                line + 1
            );
        }
    }
}
