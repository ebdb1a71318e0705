//! A tiny virtual filesystem for task scripts.
//!
//! Each HPCAdvisor job gets its own directory on the cluster's shared NFS;
//! the setup task downloads inputs into the app's parent directory and run
//! scripts copy them into the per-task directory (`cp ../in.lj.txt .` in the
//! paper's Listing 2). This VFS reproduces those semantics: absolute paths,
//! `.`/`..` resolution against a current directory, and implicit parent
//! directories.
//!
//! File contents and paths are shared (`Arc<str>`): cloning the filesystem,
//! copying a file or merging two filesystems never copies content, and a
//! transaction's undo record shares the path it undoes. A task that must
//! not leave a trace when it fails runs inside a transaction
//! ([`Vfs::begin`]) instead of on a copy: every change records how to undo
//! itself, and [`Vfs::rollback`] restores the state at `begin`.

use crate::error::ShellError;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// In-memory filesystem: path → content.
#[derive(Debug, Clone, Default)]
pub struct Vfs {
    files: BTreeMap<Arc<str>, Arc<str>>,
    dirs: BTreeSet<Arc<str>>,
    /// Undo records of the open transaction, oldest first; `None` outside
    /// a transaction.
    undo: Option<Vec<Undo>>,
}

/// How to undo one change.
#[derive(Debug, Clone)]
enum Undo {
    /// Restore a file's previous content, or remove it if it was new.
    File(Arc<str>, Option<Arc<str>>),
    /// Remove a directory the transaction created.
    Dir(Arc<str>),
}

/// Normalizes `path` relative to `cwd`, resolving `.` and `..`. An
/// absolute path that is already normal comes back borrowed.
pub(crate) fn resolve<'a>(cwd: &str, path: &'a str) -> Cow<'a, str> {
    if path.starts_with('/') {
        return normalize(path);
    }
    let cwd = cwd.trim_end_matches('/');
    let mut joined = String::with_capacity(cwd.len() + 1 + path.len());
    joined.push_str(cwd);
    joined.push('/');
    joined.push_str(path);
    match normalize(&joined) {
        Cow::Borrowed(_) => Cow::Owned(joined),
        Cow::Owned(normal) => Cow::Owned(normal),
    }
}

/// Normalizes an absolute path, borrowing it when it is already normal:
/// no empty, `.` or `..` component and no trailing `/` (other than `/`
/// itself). Lookups of normal paths therefore allocate nothing.
fn normalize(path: &str) -> Cow<'_, str> {
    let normal = path == "/"
        || (path.starts_with('/')
            && path[1..]
                .split('/')
                .all(|part| !matches!(part, "" | "." | "..")));
    if normal {
        return Cow::Borrowed(path);
    }
    let mut parts: Vec<&str> = Vec::new();
    for part in path.split('/') {
        match part {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            p => parts.push(p),
        }
    }
    Cow::Owned(format!("/{}", parts.join("/")))
}

impl Vfs {
    /// Creates an empty filesystem.
    pub fn new() -> Self {
        Vfs::default()
    }

    /// Writes (creates or replaces) a file at an absolute path.
    pub fn write(&mut self, path: &str, content: impl Into<Arc<str>>) {
        let path = normalize(path);
        // Implicit parent directories.
        if let Some(idx) = path.rfind('/') {
            self.mkdir_resolved(&path[..idx]);
        }
        self.put_file(Arc::from(&*path), Some(content.into()));
    }

    /// Reads a file at an absolute path.
    pub fn read(&self, path: &str) -> Result<&str, ShellError> {
        self.read_shared(path).map(|content| &**content)
    }

    /// Reads a file's shared content: writing it elsewhere stores the same
    /// allocation instead of a copy.
    pub(crate) fn read_shared(&self, path: &str) -> Result<&Arc<str>, ShellError> {
        let path = normalize(path);
        self.files
            .get(&*path)
            .ok_or_else(|| ShellError::NoSuchFile(path.into_owned()))
    }

    /// True if a file exists at the absolute path.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(&*normalize(path))
    }

    /// Removes a file.
    pub(crate) fn remove(&mut self, path: &str) -> Result<(), ShellError> {
        let path = normalize(path);
        if !self.files.contains_key(&*path) {
            return Err(ShellError::NoSuchFile(path.into_owned()));
        }
        self.put_file(Arc::from(&*path), None);
        Ok(())
    }

    /// Registers a directory (mkdir -p semantics).
    pub(crate) fn mkdir(&mut self, path: &str) {
        self.mkdir_resolved(&normalize(path));
    }

    /// [`Vfs::mkdir`] of an already-resolved path. A directory's parents
    /// are always registered with it, so the walk up stops at the first
    /// directory that exists.
    fn mkdir_resolved(&mut self, path: &str) {
        if path == "/" || path.is_empty() || self.dirs.contains(path) {
            return;
        }
        if let Some(idx) = path.rfind('/') {
            self.mkdir_resolved(&path[..idx]);
        }
        self.put_dir(Arc::from(path));
    }

    /// True if a directory was created (explicitly or implicitly).
    pub fn dir_exists(&self, path: &str) -> bool {
        let path = normalize(path);
        path == "/" || self.dirs.contains(&*path)
    }

    /// Merges another filesystem into this one: files and directories from
    /// `other` are added, with `other`'s content winning on path conflicts.
    ///
    /// Parallel scenario shards each work on a clone of the shared
    /// filesystem; merging the shard filesystems back reproduces what a
    /// shared NFS mount would hold after all shards finish (shards write
    /// disjoint per-task directories, so "last writer wins" only applies to
    /// identical setup artifacts). Paths move over, and directories this
    /// filesystem has already are skipped.
    pub fn merge_from(&mut self, other: Vfs) {
        for (path, content) in other.files {
            self.put_file(path, Some(content));
        }
        for dir in other.dirs {
            if !self.dirs.contains(&dir) {
                self.put_dir(dir);
            }
        }
    }

    /// Lists file paths under a directory prefix.
    pub fn list(&self, dir: &str) -> Vec<&str> {
        let prefix = format!("{}/", normalize(dir).trim_end_matches('/'));
        self.files
            .keys()
            .filter(|p| p.starts_with(&prefix))
            .map(|p| &**p)
            .collect()
    }

    /// Opens a transaction: changes from here on can be undone with
    /// [`Vfs::rollback`] or kept with [`Vfs::commit`]. Transactions do not
    /// nest; `begin` inside an open one keeps that one's changes and starts
    /// over.
    pub fn begin(&mut self) {
        self.undo = Some(Vec::new());
    }

    /// Closes the open transaction, keeping its changes.
    pub fn commit(&mut self) {
        self.undo = None;
    }

    /// Closes the open transaction, undoing its changes.
    pub fn rollback(&mut self) {
        for undo in self.undo.take().unwrap_or_default().into_iter().rev() {
            match undo {
                Undo::File(path, Some(content)) => {
                    self.files.insert(path, content);
                }
                Undo::File(path, None) => {
                    self.files.remove(&*path);
                }
                Undo::Dir(dir) => {
                    self.dirs.remove(&*dir);
                }
            }
        }
    }

    /// Sets (`Some`) or removes (`None`) a file at a resolved path,
    /// recording the undo inside a transaction.
    fn put_file(&mut self, path: Arc<str>, content: Option<Arc<str>>) {
        let Some(undo) = &mut self.undo else {
            match content {
                Some(content) => self.files.insert(path, content),
                None => self.files.remove(&*path),
            };
            return;
        };
        let previous = match content {
            Some(content) => self.files.insert(Arc::clone(&path), content),
            None => self.files.remove(&*path),
        };
        undo.push(Undo::File(path, previous));
    }

    /// Registers one resolved directory that does not exist yet, recording
    /// the undo inside a transaction.
    fn put_dir(&mut self, dir: Arc<str>) {
        if let Some(undo) = &mut self.undo {
            undo.push(Undo::Dir(Arc::clone(&dir)));
        }
        self.dirs.insert(dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_relative_paths() {
        assert_eq!(resolve("/a/b", "c.txt"), "/a/b/c.txt");
        assert_eq!(resolve("/a/b", "../c.txt"), "/a/c.txt");
        assert_eq!(resolve("/a/b", "./c.txt"), "/a/b/c.txt");
        assert_eq!(resolve("/a/b", "/abs.txt"), "/abs.txt");
        assert_eq!(resolve("/", "../../up.txt"), "/up.txt");
        assert_eq!(resolve("/a", "."), "/a");
    }

    #[test]
    fn normal_paths_are_borrowed_and_the_rest_normalize_as_before() {
        // The component walk every path took before the borrowed fast path.
        fn walk(path: &str) -> String {
            let mut parts: Vec<&str> = Vec::new();
            for part in path.split('/') {
                match part {
                    "" | "." => {}
                    ".." => {
                        parts.pop();
                    }
                    p => parts.push(p),
                }
            }
            format!("/{}", parts.join("/"))
        }
        for path in ["/", "/a", "/a/b.txt", "/share/rg/app/task-7/hostfile"] {
            assert!(
                matches!(normalize(path), Cow::Borrowed(p) if p == path),
                "{path}"
            );
        }
        for path in [
            "",
            ".",
            "a",
            "a/b",
            "//",
            "/a/",
            "/a//b",
            "/./a",
            "/a/.",
            "/a/..",
            "/../a",
            "/a/b/../c",
            "/.hidden/..x",
            "/a/.../b",
        ] {
            assert_eq!(normalize(path), walk(path), "{path:?}");
        }
    }

    #[test]
    fn write_read_cycle() {
        let mut fs = Vfs::new();
        fs.write("/share/app/in.lj.txt", "variable x index 1\n");
        assert_eq!(
            fs.read("/share/app/in.lj.txt").unwrap(),
            "variable x index 1\n"
        );
        assert!(fs.exists("/share/app/in.lj.txt"));
        assert!(!fs.exists("/share/app/other.txt"));
        assert!(fs.read("/nope").is_err());
    }

    #[test]
    fn merge_unions_files_and_dirs() {
        let mut a = Vfs::new();
        a.write("/share/app/in.txt", "original");
        a.mkdir("/share/app/task-1");
        let mut b = Vfs::new();
        b.write("/share/app/in.txt", "updated");
        b.write("/share/app/task-2/out.log", "done");
        a.merge_from(b);
        assert_eq!(a.read("/share/app/in.txt").unwrap(), "updated");
        assert!(a.exists("/share/app/task-2/out.log"));
        assert!(a.dir_exists("/share/app/task-1"), "own dirs kept");
        assert!(a.dir_exists("/share/app/task-2"), "merged dirs present");
    }

    #[test]
    fn implicit_parent_dirs() {
        let mut fs = Vfs::new();
        fs.write("/a/b/c.txt", "x");
        assert!(fs.dir_exists("/a"));
        assert!(fs.dir_exists("/a/b"));
        assert!(!fs.dir_exists("/a/b/c.txt"));
    }

    #[test]
    fn listing_and_removal() {
        let mut fs = Vfs::new();
        fs.write("/d/one", "1");
        fs.write("/d/two", "2");
        fs.write("/e/three", "3");
        assert_eq!(fs.list("/d"), vec!["/d/one", "/d/two"]);
        fs.remove("/d/one").unwrap();
        assert_eq!(fs.list("/d"), vec!["/d/two"]);
        assert!(fs.remove("/d/one").is_err());
    }

    #[test]
    fn mkdir_p() {
        let mut fs = Vfs::new();
        fs.mkdir("/x/y/z");
        assert!(fs.dir_exists("/x"));
        assert!(fs.dir_exists("/x/y/z"));
        assert!(fs.dir_exists("/"));
    }

    /// Every file and directory, for whole-filesystem comparisons.
    fn snapshot(fs: &Vfs) -> (Vec<(String, String)>, Vec<String>) {
        (
            fs.files
                .iter()
                .map(|(p, c)| (p.to_string(), c.to_string()))
                .collect(),
            fs.dirs.iter().map(|d| d.to_string()).collect(),
        )
    }

    #[test]
    fn rollback_restores_the_state_at_begin() {
        let mut fs = Vfs::new();
        fs.write("/app/in.txt", "original");
        fs.write("/app/gone.txt", "keep me");
        let before = snapshot(&fs);
        fs.begin();
        fs.write("/app/in.txt", "first");
        fs.write("/app/in.txt", "second");
        fs.remove("/app/gone.txt").unwrap();
        fs.write("/app/gone.txt", "recreated");
        fs.write("/app/task-1/deep/log", "new");
        fs.mkdir("/work/x");
        fs.rollback();
        assert_eq!(snapshot(&fs), before);
        // Outside a transaction, rollback is a no-op.
        fs.write("/app/in.txt", "kept");
        fs.rollback();
        assert_eq!(fs.read("/app/in.txt").unwrap(), "kept");
    }

    #[test]
    fn commit_keeps_changes_and_ends_recording() {
        let mut fs = Vfs::new();
        fs.begin();
        fs.write("/a/one", "1");
        fs.commit();
        fs.write("/a/two", "2");
        fs.rollback();
        assert_eq!(fs.list("/a"), vec!["/a/one", "/a/two"]);
    }

    #[test]
    fn copies_share_content() {
        let mut fs = Vfs::new();
        fs.write("/src", "payload");
        let shared = fs.read_shared("/src").unwrap().clone();
        fs.write("/dst", shared);
        let clone = fs.clone();
        assert!(Arc::ptr_eq(
            fs.read_shared("/src").unwrap(),
            clone.read_shared("/dst").unwrap()
        ));
    }
}
