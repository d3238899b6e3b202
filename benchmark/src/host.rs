//! What the numbers were measured on.

use serde_json::{Map, Value};
use std::process::Command;

/// The host block every output carries.
pub struct Host {
    pub available_parallelism: usize,
    pub profile: &'static str,
    pub commit: String,
    pub rustc: String,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

impl Host {
    pub fn probe() -> Host {
        Host {
            available_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            // The driver's checkout is not a git repository: "unknown" there.
            commit: first_line_of("git", &["rev-parse", "--short", "HEAD"]),
            rustc: first_line_of("rustc", &["--version"]),
        }
    }

    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert(
            "available_parallelism".into(),
            Value::U64(self.available_parallelism as u64),
        );
        m.insert("profile".into(), Value::String(self.profile.into()));
        m.insert("commit".into(), Value::String(self.commit.clone()));
        m.insert("rustc".into(), Value::String(self.rustc.clone()));
        Value::Object(m)
    }
}

/// This process's peak resident set (`VmHWM`) in MiB. Each workload runs in
/// a process of its own, so this is the workload's peak.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}
