//! Peak resident memory of this process (Linux `VmHWM`).

/// Reset the high-water mark to the current resident size. Returns
/// false where the kernel does not allow it; the peak then counts from
/// process start, which the report states.
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` in MiB, if the kernel reports it.
pub fn peak_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
