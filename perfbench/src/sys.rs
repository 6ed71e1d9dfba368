//! Process-level observations (peak memory, CPU clocks), run identity
//! (program hash, commit) and the scratch directory. Everything the
//! benchmark writes lives under `perfbench/out/` inside the checkout.

use std::fs;
use std::io;
use std::os::raw::{c_int, c_long};
use std::path::{Path, PathBuf};

/// Output root, relative to the checkout the benchmark runs from.
pub const OUT_DIR: &str = "perfbench/out";

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn status_kib(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux procfs and the 64-bit Linux `struct timespec`");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn cpu_clock_s(clock: c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through its
    // pointer, and `ts` is a live, writable value with that layout
    // (`#[repr(C)]`, two `long`s on 64-bit Linux, checked above).
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds the calling thread has run so far. The kernel leaves out
/// time the hypervisor took the vCPU away (steal), which wall time on a
/// shared host includes.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds all threads of this process have run so far.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// FNV-1a hash of the running executable: identifies the build, so
/// fingerprints of different programs are never compared.
pub fn program_hash() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(fs::read)
        .unwrap_or_default();
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The checked-out commit when the checkout is a git work tree, else
/// `"unknown"`.
pub fn commit() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next().map(str::to_string))
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// A fresh directory under [`OUT_DIR`], removed with everything in it
/// when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = Path::new(OUT_DIR).join(format!("tmp-{tag}-{}-{nanos}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and harmless.
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Compare `line` with the fingerprint an earlier run of the same
/// program (by [`program_hash`]) and key stored, storing it when there is
/// none. `Err` carries both lines when they differ.
pub fn check_fingerprint(key: &str, program: u64, line: &str) -> Result<(), String> {
    let dir = Path::new(OUT_DIR).join("fingerprints");
    let path = dir.join(format!("{key}-{program:016x}.txt"));
    match fs::read_to_string(&path) {
        Ok(stored) if stored.trim() == line => Ok(()),
        Ok(stored) => Err(format!(
            "nondeterminism: run differs from an earlier run of {key}\n  earlier: {}\n  now:     {line}",
            stored.trim()
        )),
        Err(_) => {
            let _ = fs::create_dir_all(&dir).and_then(|()| fs::write(&path, format!("{line}\n")));
            Ok(())
        }
    }
}
