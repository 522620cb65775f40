//! The load generator's side of the wire: a one-request-per-connection
//! HTTP/1.1 client and control of the `pp-server` child process.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Resp {
    pub status: u16,
    pub body: Vec<u8>,
    /// `X-PP-Cache`: `hit`, `miss` or `none`.
    pub cache: Option<String>,
    /// `X-PP-Elapsed-Us`: the server's time in execute + render.
    pub elapsed_us: Option<u64>,
}

pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<Resp> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.set_nodelay(true)?;
    let mut msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    msg.extend_from_slice(body);
    stream.write_all(&msg)?;
    let mut raw = Vec::with_capacity(4096);
    stream.read_to_end(&mut raw)?;
    parse(raw)
}

fn parse(mut raw: Vec<u8>) -> io::Result<Resp> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header end"))?;
    let head = String::from_utf8_lossy(&raw[..end]).into_owned();
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let (mut cache, mut elapsed_us, mut length) = (None, None, None);
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            let v = v.trim();
            match k.trim().to_ascii_lowercase().as_str() {
                "x-pp-cache" => cache = Some(v.to_string()),
                "x-pp-elapsed-us" => elapsed_us = v.parse().ok(),
                "content-length" => length = v.parse::<usize>().ok(),
                _ => {}
            }
        }
    }
    let body = raw.split_off(end + 4);
    if length.is_some_and(|l| l != body.len()) {
        return Err(bad("body shorter than Content-Length"));
    }
    Ok(Resp {
        status,
        body,
        cache,
        elapsed_us,
    })
}

/// A running `pp-server` child. Dropping it kills the process and waits
/// for it to end.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts `bin` on an ephemeral loopback port with two workers and
    /// returns once `/healthz` answers.
    pub fn launch(bin: &Path) -> io::Result<ServerProc> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--threads", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let addr = match (read, line.trim().rsplit(' ').next().map(str::parse)) {
            (Some(Ok(n)), Some(Ok(addr))) if n > 0 => addr,
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "pp-server did not report its address: {line:?}"
                )));
            }
        };
        let server = ServerProc { child, addr };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match request(addr, "GET", "/healthz", b"") {
                Ok(r) if r.status == 200 => return Ok(server),
                _ if Instant::now() > deadline => {
                    return Err(io::Error::other("pp-server never became healthy"))
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    fn proc_file(&self, name: &str) -> io::Result<String> {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id()))
    }

    /// User + system CPU time of every thread so far, in clock ticks.
    pub fn cpu_ticks(&self) -> io::Result<u64> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesised command name: utime and stime
        // are fields 14 and 15 of the line, 12th and 13th after it.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let f: Vec<u64> = rest
            .split_whitespace()
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        match (f.get(11), f.get(12)) {
            (Some(u), Some(s)) => Ok(u + s),
            _ => Err(io::Error::other("short /proc stat line")),
        }
    }

    /// Peak resident set size so far (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        let status = self.proc_file("status")?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Reset `VmHWM` to the current resident set size (`clear_refs` 5
    /// touches only the high-water mark, not the page tables).
    pub fn reset_peak_rss(&self) -> io::Result<()> {
        std::fs::write(format!("/proc/{}/clear_refs", self.child.id()), "5")
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
