//! The benchmark builds the repository's crates outside the root
//! workspace, so its manifest repeats the root manifest's release profile
//! and offline patches. These tests keep the copies in step: a release
//! profile that differs would time code built differently from what the
//! repository ships.

use std::path::PathBuf;

fn manifest(relative: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The entries of one `[table]`, without comments and blank lines.
fn table(text: &str, header: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

#[test]
fn release_profile_matches_the_root_manifest() {
    let root = table(&manifest("../Cargo.toml"), "[profile.release]");
    assert!(!root.is_empty(), "the root manifest has a release profile");
    assert_eq!(table(&manifest("Cargo.toml"), "[profile.release]"), root);
}

#[test]
fn patches_point_at_the_root_manifests_shims() {
    let root = table(&manifest("../Cargo.toml"), "[patch.crates-io]");
    let own = table(&manifest("Cargo.toml"), "[patch.crates-io]");
    assert!(!own.is_empty());
    for entry in own {
        let as_root = entry.replace("path = \"../", "path = \"");
        assert!(
            root.contains(&as_root),
            "{entry} has no counterpart in {root:?}"
        );
    }
}
