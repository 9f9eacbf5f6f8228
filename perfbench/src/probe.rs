//! Host drift probe: a fixed kernel that does not touch the program.
//!
//! On a shared host the same code can run 10–15% slower for minutes at a
//! time. Timing this kernel before and after each run lets a reader tell
//! a slow host phase from a slow commit; it feeds no end-to-end metric.
//! The kernel runs in a child process, so its ring never counts toward
//! the resident high-water mark of the process that runs the placer.

use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The argument that makes the benchmark run [`host_probe`], print its
/// seconds and exit.
pub const CHILD_FLAG: &str = "--probe";

/// Entries of the pointer-chase ring: 8 MiB of `u32`, larger than the
/// 2 MiB per-core L2 of the reference host, so the chase runs from L3.
const RING: usize = 1 << 21;
/// Dependent loads per probe.
const CHASE_STEPS: usize = 1 << 19;
/// Dependent integer-hash iterations per probe.
const INT_STEPS: u64 = 1 << 23;

/// Seconds one run of the fixed kernel takes: a pointer chase over a
/// single random cycle (Sattolo's shuffle from a fixed seed) plus a
/// dependent integer loop. The ring is built outside the timed part and
/// freed before returning.
pub fn host_probe() -> f64 {
    let mut next: Vec<u32> = (0..RING as u32).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..RING).rev() {
        let j = (xorshift(&mut state) % i as u64) as usize;
        next.swap(i, j);
    }
    let start = Instant::now();
    let mut at = 0u32;
    for _ in 0..CHASE_STEPS {
        at = next[at as usize];
    }
    let mut h = u64::from(black_box(at));
    for _ in 0..INT_STEPS {
        h = xorshift(&mut h);
    }
    black_box(h);
    start.elapsed().as_secs_f64()
}

/// Runs [`host_probe`] in a child process of this executable and returns
/// the seconds it printed.
///
/// # Errors
///
/// Describes a child that could not start, failed or printed no number.
pub fn in_child() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg(CHILD_FLAG)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("host probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("host probe exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|_| format!("host probe printed `{}`", text.trim()))
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_measurable_time() {
        let t = host_probe();
        assert!(t > 0.0 && t < 5.0, "{t}");
    }
}
