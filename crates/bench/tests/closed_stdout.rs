//! A bench binary whose reader closes the pipe early (`fig3 | head`)
//! must end quietly with status 0, not panic on `EPIPE`.

use std::process::{Command, Stdio};

#[test]
fn fig3_exits_quietly_when_stdout_is_closed() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_fig3"))
        .env("PG_SCALE", "40")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run fig3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "status {:?}, stderr: {stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
