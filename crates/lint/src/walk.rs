//! Deterministic workspace walker.
//!
//! Collects the files the rules apply to, in sorted order (a linter about
//! determinism had better report in a deterministic order itself):
//!
//! - Rust sources under `src/` and every `crates/*/src/` tree. Integration
//!   tests, benches, and examples are deliberately out of scope — they are
//!   not protocol paths, and they exercise rejection/fault cases that the
//!   rules would drown in noise. `vendor/` (third-party stand-ins) and
//!   `target/` are never scanned.
//! - Shell scripts under `scripts/`.

use std::fs;
use std::path::{Path, PathBuf};

/// The files one lint run covers, workspace-relative with `/` separators.
#[derive(Debug, Default)]
pub struct Workspace {
    pub rust_files: Vec<String>,
    pub shell_files: Vec<String>,
}

/// Finds the workspace root by walking up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collects the lintable files under `root`.
pub fn collect(root: &Path) -> std::io::Result<Workspace> {
    let mut ws = Workspace::default();

    let top_src = root.join("src");
    if top_src.is_dir() {
        collect_rust_tree(root, &top_src, &mut ws.rust_files)?;
    }

    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for krate in sorted_entries(&crates_dir)? {
            let src = krate.join("src");
            if src.is_dir() {
                collect_rust_tree(root, &src, &mut ws.rust_files)?;
            }
        }
    }

    let scripts = root.join("scripts");
    if scripts.is_dir() {
        for entry in sorted_entries(&scripts)? {
            if entry.extension().is_some_and(|e| e == "sh") {
                ws.shell_files.push(relative(root, &entry));
            }
        }
    }

    ws.rust_files.sort();
    ws.shell_files.sort();
    Ok(ws)
}

fn collect_rust_tree(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in sorted_entries(dir)? {
        if entry.is_dir() {
            collect_rust_tree(root, &entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(relative(root, &entry));
        }
    }
    Ok(())
}

fn sorted_entries(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    Ok(entries)
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_workspace_and_scans_expected_trees() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("this test runs inside the workspace");
        let ws = collect(&root).unwrap();
        assert!(ws
            .rust_files
            .iter()
            .any(|f| f == "crates/distsim/src/wire.rs"));
        assert!(ws.rust_files.iter().any(|f| f == "src/lib.rs"));
        assert!(ws
            .shell_files
            .iter()
            .any(|f| f == "scripts/crash_recovery_smoke.sh"));
        assert!(
            !ws.rust_files.iter().any(|f| f.starts_with("vendor/")),
            "vendored stand-ins must not be scanned"
        );
        assert!(
            !ws.rust_files.iter().any(|f| f.contains("/fixtures/")),
            "lint fixtures must not be scanned as workspace sources"
        );
        let mut sorted = ws.rust_files.clone();
        sorted.sort();
        assert_eq!(ws.rust_files, sorted, "scan order must be deterministic");
    }
}
