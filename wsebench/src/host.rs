//! Host facts and process counters: the fingerprint printed with every
//! run, peak RSS, process CPU time, and a fixed probe loop that marks slow
//! phases of the host.

use std::hint::black_box;
use std::time::Instant;

/// `nproc=<n> cpu="<model>" rustc="<version>"`.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\"",
        env!("WSEBENCH_RUSTC")
    )
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds of the whole process, threads that have
/// already exited included (`/proc/self/stat`, at 100 ticks per second).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse().ok())
        .collect();
    f.iter().sum::<u64>() as f64 / 100.0
}

/// Seconds taken by a fixed loop of hashing and strided memory reads over
/// a 4 MiB buffer. It does the same work on every call, so a slow reading
/// marks a slow phase of the host, not of the program.
pub fn probe_s() -> f64 {
    const WORDS: usize = 1 << 19;
    let buf: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let t0 = Instant::now();
    let mut h = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..2 {
        for i in 0..WORDS {
            let j = (i.wrapping_mul(613) ^ (h as usize)) & (WORDS - 1);
            h = (h ^ black_box(buf[j]))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .rotate_left(17);
        }
    }
    black_box(h);
    t0.elapsed().as_secs_f64()
}
