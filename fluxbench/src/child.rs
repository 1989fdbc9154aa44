//! Child processes: the `fluxquery` runs a user would make, timed from
//! spawn to exit with their resource usage.
//!
//! Linux folds the *parent's* peak RSS into a child's `ru_maxrss` at
//! `exec`, so a child spawned by a harness holding a 64 MiB document
//! would report at least that. The harness therefore starts a copy of
//! itself as a spawner before it allocates anything: the spawner stays
//! below the 3 MB a `fluxquery` needs to start, takes command lines on
//! stdin, and answers with each child's exit code, wall time and `rusage`.

use crate::stats::Digest;
use std::ffi::{c_int, c_long};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Separates the arguments of one command line on the spawner's stdin.
const SEP: char = '\x1f';

/// One finished child.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildRun {
    /// Exit code; 128 + signal number when killed by a signal.
    pub code: i32,
    /// Spawn to exit.
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    /// `ru_maxrss` in MB (10⁶ B).
    pub peak_rss_mb: f64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    rest: [c_long; 13],
}

/// Waits for `pid` and returns its wait status and resource usage.
#[allow(unsafe_code)]
fn wait4(pid: u32) -> io::Result<(c_int, Rusage)> {
    extern "C" {
        // std links libc on every unix target; this is its wait4(2).
        fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    }
    let (mut status, mut usage) = (0, Rusage::default());
    // SAFETY: both pointers are to live, writable locals of the types
    // wait4(2) fills on 64-bit Linux (`int`, `struct rusage`), and `pid`
    // is a child of this process that nothing else waits for.
    let reaped = unsafe { wait4(pid as c_int, &mut status, 0, &mut usage) };
    if reaped < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((status, usage))
}

fn exit_code(wait_status: c_int) -> i32 {
    match wait_status & 0x7f {
        0 => (wait_status >> 8) & 0xff,
        signal => 128 + signal,
    }
}

/// The spawner process: one command line in, one result line out, until
/// stdin closes.
pub fn serve() -> io::Result<()> {
    let mut out = io::stdout().lock();
    for line in io::stdin().lock().lines() {
        let line = line?;
        let mut argv = line.split(SEP);
        let program = argv.next().unwrap_or_default();
        let start = Instant::now();
        // The child's stdout must not be the reply pipe.
        let spawned = Command::new(program)
            .args(argv)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn();
        let reply = match spawned.and_then(|child| wait4(child.id())) {
            Ok((status, usage)) => format!(
                "ok {} {} {} {} {}",
                exit_code(status),
                start.elapsed().as_nanos(),
                usage.utime[0] * 1_000_000 + usage.utime[1],
                usage.stime[0] * 1_000_000 + usage.stime[1],
                usage.maxrss,
            ),
            Err(e) => format!("error {e}"),
        };
        writeln!(out, "{reply}")?;
        out.flush()?;
    }
    Ok(())
}

fn parse_reply(reply: &str) -> Result<ChildRun, String> {
    let fields: Vec<&str> = reply.split_whitespace().collect();
    let num = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (fields.first(), num(1), num(2), num(3), num(4), num(5)) {
        (Some(&"ok"), Some(code), Some(wall_ns), Some(user_us), Some(sys_us), Some(maxrss_kib)) => {
            Ok(ChildRun {
                code: code as i32,
                wall_s: wall_ns / 1e9,
                user_s: user_us / 1e6,
                sys_s: sys_us / 1e6,
                peak_rss_mb: maxrss_kib * 1024.0 / 1e6,
            })
        }
        _ => Err(format!("spawner: {reply}")),
    }
}

/// The harness's handle on its spawner.
pub struct Spawner {
    child: Child,
    to: Option<ChildStdin>,
    from: BufReader<ChildStdout>,
}

impl Spawner {
    /// Must run before the harness allocates: the spawner's children
    /// inherit the peak RSS of the process that spawned *it*.
    pub fn start() -> io::Result<Spawner> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--spawner")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let to = child.stdin.take();
        let from = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Spawner { child, to, from })
    }

    /// Runs `argv` to completion, stdin and stdout on `/dev/null`.
    pub fn run(&mut self, argv: &[&str]) -> Result<ChildRun, String> {
        if argv.iter().any(|a| a.contains([SEP, '\n'])) {
            return Err("argument holds a separator".to_string());
        }
        let line = argv.join(&SEP.to_string());
        let to = self.to.as_mut().expect("open until drop");
        writeln!(to, "{line}")
            .and_then(|()| to.flush())
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        self.from.read_line(&mut reply).map_err(|e| e.to_string())?;
        parse_reply(&reply)
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        // Closing its stdin ends the spawner; wait so no process outlives us.
        self.to = None;
        let _ = self.child.wait();
    }
}

/// One piped run: `stdin_path` on the child's stdin, its stdout read here.
#[derive(Debug)]
pub struct PipedRun {
    pub code: i32,
    /// Spawn to the first byte of output.
    pub first_output_s: f64,
    pub output: Digest,
}

pub fn run_piped(argv: &[&str], stdin_path: &str) -> io::Result<PipedRun> {
    let start = Instant::now();
    let mut child = Command::new(argv[0])
        .args(&argv[1..])
        .stdin(File::open(stdin_path)?)
        .stdout(Stdio::piped())
        .spawn()?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let (mut output, mut first_output_s) = (Digest::default(), None);
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = match stdout.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        first_output_s.get_or_insert_with(|| start.elapsed().as_secs_f64());
        output.update(&buf[..n]);
    }
    let status = child.wait()?;
    Ok(PipedRun {
        code: status.code().unwrap_or(128),
        first_output_s: first_output_s.unwrap_or_else(|| start.elapsed().as_secs_f64()),
        output,
    })
}

/// Runs `argv` with its stdout written to `stdout_path` (for `gzip -c`).
pub fn run_to_file(argv: &[&str], stdout_path: &str) -> io::Result<bool> {
    let status = Command::new(argv[0])
        .args(&argv[1..])
        .stdin(Stdio::null())
        .stdout(File::create(stdout_path)?)
        .status()?;
    Ok(status.success())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_status_decoding() {
        assert_eq!(exit_code(0), 0);
        assert_eq!(exit_code(2 << 8), 2);
        assert_eq!(exit_code(9), 128 + 9); // SIGKILL
    }

    #[test]
    fn reply_parsing() {
        let run = parse_reply("ok 0 1500000000 900000 400000 2048\n").unwrap();
        assert_eq!(
            (run.code, run.wall_s, run.user_s, run.sys_s),
            (0, 1.5, 0.9, 0.4)
        );
        assert_eq!(run.peak_rss_mb, 2048.0 * 1024.0 / 1e6);
        assert!(parse_reply("error No such file or directory").is_err());
        assert!(parse_reply("").is_err());
    }

    #[test]
    #[allow(clippy::zombie_processes)] // reaped by the wait4 under test
    fn wait4_reports_exit_code_and_usage() {
        let child = Command::new("sh").args(["-c", "exit 3"]).spawn().unwrap();
        let (status, usage) = wait4(child.id()).unwrap();
        assert_eq!(exit_code(status), 3);
        assert!(usage.maxrss > 0);
    }
}
