//! Process accounting for the programs under test (Linux): per-child CPU
//! and peak RSS via `wait4`, CPU of a live process via `/proc`, and
//! signal delivery. Raw FFI, because the workspace carries no libc crate.

use std::process::Child;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;
const WNOHANG: i32 = 1;

/// How a reaped child ended and what it consumed.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set, MiB (see [`wait_sampled`]; 0 when not sampled).
    pub peak_rss_mb: f64,
}

fn decode(status: i32, ru: &Rusage) -> Exit {
    let code = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Exit {
        code,
        cpu_s: secs(&ru.ru_utime) + secs(&ru.ru_stime),
        peak_rss_mb: 0.0,
    }
}

/// Waits for `child` to exit, sampling its `VmHWM` every 2 ms, and
/// returns its CPU and peak RSS. `ru_maxrss` cannot be used for the peak:
/// a spawned child starts from the spawning process's high-water mark.
/// The last sample before exit is the peak unless the peak falls in the
/// child's final 2 ms.
pub fn wait_sampled(child: &Child) -> Result<Exit, String> {
    let pid = child.id() as i32;
    let mut status = 0;
    let mut ru = Rusage::default();
    let mut peak_mb: f64 = 0.0;
    loop {
        if let Some(mb) = vm_hwm_mb(child.id()) {
            peak_mb = peak_mb.max(mb);
        }
        // SAFETY: plain syscall on valid out-pointers.
        let r = unsafe { wait4(pid, &mut status, WNOHANG, &mut ru) };
        if r == pid {
            return Ok(Exit {
                peak_rss_mb: peak_mb,
                ..decode(status, &ru)
            });
        }
        if r < 0 {
            return Err(format!("wait4({pid}): {}", std::io::Error::last_os_error()));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The peak resident set (`VmHWM`) of a live process, MiB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Sends SIGTERM (the daemon's graceful drain), waits up to `grace`, then
/// kills; always reaps.
pub fn terminate(child: &mut Child, grace: Duration) -> Result<(), String> {
    // SAFETY: signalling our own, not yet reaped child.
    unsafe { kill(child.id() as i32, SIGTERM) };
    let deadline = Instant::now() + grace;
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return Ok(()),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Ok(None) => {
                let _ = child.kill();
                return child
                    .wait()
                    .map(|_| ())
                    .map_err(|e| format!("reaping a child: {e}"));
            }
            Err(e) => return Err(format!("waiting for a child: {e}")),
        }
    }
}

/// User + system CPU seconds a live process has used so far.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line (11 and 12 after the name).
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc stat".to_string())
    };
    // Linux reports these in USER_HZ, which is 100 on every supported arch.
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}
