//! What a result is read against: host, build and configuration.

use std::path::Path;

/// Available parallelism as the standard library reports it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`), e.g. `ext4` or `tmpfs`.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(mnt), Some(fs)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if path.starts_with(mnt) && best.as_ref().is_none_or(|(len, _)| mnt.len() > *len) {
            best = Some((mnt.len(), fs.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The commit checked out beside the benchmark directory, read from
/// `.git` without running git; `unknown` in an exported tree or when the
/// branch ref is packed.
pub fn commit(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_string(),
    };
    match hash.trim() {
        "" => "unknown".to_string(),
        h => h.to_string(),
    }
}
