//! EXPERIMENTS.md names what `kard-tables` runs, and nothing else: one
//! section headed ``(`kard-tables <name>`…)`` per name the binary accepts
//! (the default group `all` aside), and one row of the extension table per
//! experiment of the `extensions` group. An experiment deleted from the
//! registry but left in the document, or added without a section, fails
//! here.

use kard_bench::registry::REGISTRY;
use std::collections::BTreeSet;
use std::process::Command;

const EXPERIMENTS_MD: &str = include_str!("../../../EXPERIMENTS.md");

/// The names in the usage line `kard-tables` prints for an unknown name.
fn usage_names() -> BTreeSet<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_kard-tables"))
        .arg("no-such-experiment")
        .output()
        .expect("kard-tables runs");
    assert!(!out.status.success(), "an unknown name must be rejected");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 usage");
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix("usage: kard-tables ["))
        .unwrap_or_else(|| panic!("no usage line in {stderr:?}"));
    let (names, _) = line.split_once(']').expect("usage line closes its name list");
    names.split('|').map(str::to_string).collect()
}

/// `<name>` of every heading that reads ``(`kard-tables <name>`…)``.
fn heading_names() -> BTreeSet<String> {
    EXPERIMENTS_MD
        .lines()
        .filter(|l| l.starts_with('#'))
        .filter_map(|l| l.split_once("(`kard-tables ").map(|(_, rest)| rest))
        .map(|rest| {
            rest.split(|c: char| c == '`' || c.is_whitespace())
                .next()
                .unwrap_or_default()
                .to_string()
        })
        .collect()
}

/// The first cell of every row of the table in the section headed
/// ``(`kard-tables extensions`)``.
fn extension_table_rows() -> BTreeSet<String> {
    let section = EXPERIMENTS_MD
        .split("\n## ")
        .find(|s| {
            s.lines()
                .next()
                .is_some_and(|h| h.contains("(`kard-tables extensions`)"))
        })
        .expect("EXPERIMENTS.md has a `kard-tables extensions` section");
    section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .map(|l| l.split('`').next().unwrap_or_default().to_string())
        .collect()
}

#[test]
fn every_experiment_has_one_section_and_no_section_outlives_its_experiment() {
    let mut printed = usage_names();
    assert!(printed.remove("all"), "`all` is in the usage line");
    assert_eq!(
        heading_names(),
        printed,
        "EXPERIMENTS.md `(kard-tables <name>)` headings vs the names kard-tables accepts"
    );
}

#[test]
fn the_extension_table_lists_the_extensions_group() {
    let group: BTreeSet<String> = REGISTRY
        .iter()
        .filter(|e| e.group == "extensions")
        .map(|e| e.name.to_string())
        .collect();
    assert!(!group.is_empty());
    assert_eq!(
        extension_table_rows(),
        group,
        "EXPERIMENTS.md extension table rows vs the `extensions` group"
    );
}
