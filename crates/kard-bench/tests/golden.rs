//! The two golden files at the repository root are exactly what
//! `kard-tables all` and `kard-tables extensions` print. Every number in
//! them is virtual-clock but one: alloctiers' `locks/op` column counts
//! host lock acquisitions, which is deterministic because one OS thread
//! drives that sweep. So the comparison is byte for byte on any host and
//! build profile; an intended change regenerates them with `make tables`
//! and shows up as a reviewable diff.

use std::process::Command;

fn assert_prints(group: &str, golden: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_kard-tables"))
        .arg(group)
        .output()
        .expect("kard-tables runs");
    assert!(out.status.success(), "kard-tables {group} failed: {out:?}");
    let printed = String::from_utf8(out.stdout).expect("utf-8 tables");
    for (n, (got, want)) in printed.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "`kard-tables {group}`, line {}", n + 1);
    }
    assert!(
        printed == golden,
        "`kard-tables {group}` differs from its golden file in length or line endings"
    );
}

#[test]
fn paper_tables_match_their_golden_file() {
    assert_prints("all", include_str!("../../../paper_tables_output.txt"));
}

#[test]
fn extension_tables_match_their_golden_file() {
    assert_prints(
        "extensions",
        include_str!("../../../extension_tables_output.txt"),
    );
}
