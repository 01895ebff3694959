//! Every `exp_*` binary claims its experiment number(s) in `//! E<n> —`
//! lines of its header. A number is claimed once across the binaries,
//! EXPERIMENTS.md has a `## E<n>` section for each, `run_all`
//! launches every binary and `tests/golden.rs` pins a run of each.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// The `<n>` of a line that starts with `<prefix>E<n>`, if it does.
fn number_after(line: &str, prefix: &str) -> Option<u32> {
    let digits: String = line
        .strip_prefix(prefix)?
        .strip_prefix('E')?
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[test]
fn experiment_numbers_are_unique_recorded_and_run() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let experiments_md = fs::read_to_string(root.join("../../EXPERIMENTS.md")).unwrap();
    let headings: Vec<u32> = experiments_md
        .lines()
        .filter_map(|l| number_after(l, "## "))
        .collect();
    let run_all = fs::read_to_string(root.join("src/bin/run_all.rs")).unwrap();
    let golden = fs::read_to_string(root.join("tests/golden.rs")).unwrap();

    let mut owner: BTreeMap<u32, String> = BTreeMap::new();
    let mut bins = 0;
    for entry in fs::read_dir(root.join("src/bin")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_stem().unwrap().to_str().unwrap().to_owned();
        if !name.starts_with("exp_") {
            continue;
        }
        bins += 1;
        let source = fs::read_to_string(&path).unwrap();
        assert!(
            number_after(source.lines().next().unwrap(), "//! ").is_some(),
            "{name}: the header opens with `//! E<n> —`"
        );
        for n in source.lines().filter_map(|l| number_after(l, "//! ")) {
            if let Some(other) = owner.insert(n, name.clone()) {
                panic!("E{n} is claimed by both {other} and {name}");
            }
            assert!(
                headings.contains(&n),
                "{name} is E{n}, EXPERIMENTS.md has no `## E{n}` section"
            );
        }
        assert!(
            run_all.contains(&format!("\"{name}\"")),
            "run_all does not launch {name}"
        );
        assert!(
            golden.contains(&format!("golden(\"{name}\")"))
                || golden.contains(&format!("golden(\"{name} ")),
            "tests/golden.rs runs no `{name}` invocation"
        );
    }
    assert!(bins >= 11, "only {bins} exp_* binaries found");
}
