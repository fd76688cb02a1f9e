//! Process-level measurements and child-process control.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Reads one `kB` field of `/proc/self/status` (e.g. `VmHWM`, `VmRSS`) in
/// MiB. `None` off Linux.
pub fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))?;
    let kb: f64 = line[field.len() + 1..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM").unwrap_or(0.0)
}

/// Current resident memory of this process, in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS").unwrap_or(0.0)
}

/// How a child run ended.
#[derive(Debug)]
pub struct ChildRun {
    /// Everything the child printed to stdout.
    pub stdout: String,
    /// True when the deadline passed and the child was killed.
    pub killed: bool,
    /// Wall time from spawn to exit (or to the kill).
    pub elapsed: Duration,
}

/// Runs this executable again with `args`, killing it if it is still
/// running after `deadline`. Always waits for the child to end, so no
/// process outlives the call.
pub fn run_self(args: &[String], deadline: Duration) -> std::io::Result<ChildRun> {
    let exe = std::env::current_exe()?;
    let t0 = Instant::now();
    let mut child: Child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let mut pipe = child.stdout.take().expect("stdout is piped");
    // Drain stdout on a thread so a chatty child never blocks on a full pipe.
    let drain = thread::spawn(move || {
        let mut s = String::new();
        let _ = pipe.read_to_string(&mut s);
        s
    });
    let mut killed = false;
    loop {
        if child.try_wait()?.is_some() {
            break;
        }
        if t0.elapsed() >= deadline {
            killed = true;
            let _ = child.kill();
            child.wait()?;
            break;
        }
        thread::sleep(Duration::from_millis(20));
    }
    let elapsed = t0.elapsed();
    let stdout = drain.join().unwrap_or_default();
    Ok(ChildRun {
        stdout,
        killed,
        elapsed,
    })
}
