//! Simulated remote content for `wget`.
//!
//! The paper's setup scripts download application inputs (e.g.
//! `https://www.lammps.org/inputs/in.lj.txt`). The reproduction resolves
//! those URLs against an in-memory store pre-seeded with the well-known
//! benchmark inputs, so the verbatim scripts work offline.

use std::collections::HashMap;
use std::sync::Arc;

/// Maps URLs to their content. Clones share the map (every task's
/// interpreter gets one), and a `put` copies it only while it is shared.
#[derive(Debug, Clone, Default)]
pub struct UrlStore {
    entries: Arc<HashMap<String, Arc<str>>>,
}

/// The stock LAMMPS Lennard-Jones input (abridged to the lines the run
/// script's `sed` commands rewrite plus the essentials).
pub const IN_LJ_TXT: &str = "\
# 3d Lennard-Jones melt

variable\tx index 1
variable\ty index 1
variable\tz index 1

variable\txx equal 20*$x
variable\tyy equal 20*$y
variable\tzz equal 20*$z

units\t\tlj
atom_style\tatomic

lattice\t\tfcc 0.8442
region\t\tbox block 0 ${xx} 0 ${yy} 0 ${zz}
create_box\t1 box
create_atoms\t1 box
mass\t\t1 1.0

velocity\tall create 1.44 87287 loop geom

pair_style\tlj/cut 2.5
pair_coeff\t1 1 1.0 1.0 2.5

neighbor\t0.3 bin
neigh_modify\tdelay 0 every 20 check no

fix\t\t1 all nve

run\t\t100
";

impl UrlStore {
    /// An empty store.
    pub fn new() -> Self {
        UrlStore::default()
    }

    /// A store pre-seeded with the benchmark inputs the bundled app scripts
    /// reference.
    pub fn with_known_inputs() -> Self {
        let mut store = UrlStore::new();
        store.put("https://www.lammps.org/inputs/in.lj.txt", IN_LJ_TXT);
        store.put(
            "https://example.com/motorBike.tgz",
            "motorBike geometry + case skeleton (simulated archive)\n",
        );
        store.put(
            "https://example.com/conus12km.tar.gz",
            "WRF CONUS-12km input deck (simulated archive)\n",
        );
        store.put(
            "https://example.com/stmv.tar.gz",
            "STMV benchmark structure files (simulated archive)\n",
        );
        store
    }

    /// Registers (or replaces) content for a URL.
    pub fn put(&mut self, url: &str, content: impl Into<Arc<str>>) {
        Arc::make_mut(&mut self.entries).insert(url.to_string(), content.into());
    }

    /// Fetches content for a URL.
    pub fn get(&self, url: &str) -> Option<&str> {
        self.entries.get(url).map(|s| &**s)
    }

    /// Fetches content for a URL as a shared allocation (what `wget`
    /// stores in the filesystem).
    pub(crate) fn get_shared(&self, url: &str) -> Option<Arc<str>> {
        self.entries.get(url).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_inputs_present() {
        let store = UrlStore::with_known_inputs();
        let lj = store
            .get("https://www.lammps.org/inputs/in.lj.txt")
            .unwrap();
        assert!(lj.contains("variable\tx index 1"));
        assert!(lj.contains("pair_style"));
        assert!(store.get("https://nope.example/x").is_none());
    }

    #[test]
    fn put_replaces() {
        let mut store = UrlStore::new();
        store.put("u", "v1");
        store.put("u", "v2");
        assert_eq!(store.get("u"), Some("v2"));
    }
}
