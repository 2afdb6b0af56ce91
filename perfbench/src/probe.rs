//! Probes that observe the stack from outside: a counting transport, a
//! timing service wrapper, and readers for the Linux `/proc` figures
//! (thread CPU, peak RSS, host steal) that the program does not export.

use firefly_idl::{InterfaceDef, ResultWriter, ServerArg};
use firefly_rpc::transport::Transport;
use firefly_rpc::Service;
use std::collections::BTreeSet;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Clock ticks per second of the `/proc` CPU times (`USER_HZ`, fixed at
/// 100 by the Linux ABI).
pub const TICKS_PER_SEC: f64 = 100.0;

fn add_stat(counter: &AtomicU64, by: u64) {
    // Statistics only: no other data is published through these.
    counter.fetch_add(by, Ordering::Relaxed);
}

/// A [`Transport`] that delegates every method to a real one and counts
/// and times what passes through it.
pub struct CountingTransport {
    inner: Arc<dyn Transport>,
    /// `send` plus `send_batch` invocations.
    pub send_calls: AtomicU64,
    /// Frames handed to the transport by those invocations.
    pub frames_sent: AtomicU64,
    /// Nanoseconds spent inside `send`/`send_batch`.
    pub send_ns: AtomicU64,
    /// Blocking `recv` calls that returned a datagram.
    pub recv_calls: AtomicU64,
    /// Nanoseconds spent blocked in those `recv` calls.
    pub recv_wait_ns: AtomicU64,
    /// Datagrams received by `recv` or `try_recv`.
    pub datagrams_received: AtomicU64,
    /// Frames found inside those datagrams.
    pub frames_received: AtomicU64,
    /// `try_recv` invocations.
    pub try_recv_attempts: AtomicU64,
    /// `try_recv` invocations that returned a datagram.
    pub try_recv_hits: AtomicU64,
}

impl CountingTransport {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Transport>) -> Arc<CountingTransport> {
        Arc::new(CountingTransport {
            inner,
            send_calls: AtomicU64::new(0),
            frames_sent: AtomicU64::new(0),
            send_ns: AtomicU64::new(0),
            recv_calls: AtomicU64::new(0),
            recv_wait_ns: AtomicU64::new(0),
            datagrams_received: AtomicU64::new(0),
            frames_received: AtomicU64::new(0),
            try_recv_attempts: AtomicU64::new(0),
            try_recv_hits: AtomicU64::new(0),
        })
    }

    /// Every counter by name, for snapshot differencing.
    pub fn counters(&self) -> [(&'static str, u64); 9] {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        [
            ("send_calls", load(&self.send_calls)),
            ("frames_sent", load(&self.frames_sent)),
            ("send_ns", load(&self.send_ns)),
            ("recv_calls", load(&self.recv_calls)),
            ("recv_wait_ns", load(&self.recv_wait_ns)),
            ("datagrams_received", load(&self.datagrams_received)),
            ("frames_received", load(&self.frames_received)),
            ("try_recv_attempts", load(&self.try_recv_attempts)),
            ("try_recv_hits", load(&self.try_recv_hits)),
        ]
    }

    fn received(&self, datagram: &[u8]) {
        add_stat(&self.datagrams_received, 1);
        add_stat(&self.frames_received, frames_in(datagram));
    }
}

/// Number of coalesced frames in one datagram, walked the way the
/// demultiplexer walks it.
pub fn frames_in(datagram: &[u8]) -> u64 {
    let mut off = 0;
    let mut frames = 0;
    while let Some(len) = firefly_wire::coalesced_frame_len(&datagram[off..]) {
        off += len;
        frames += 1;
    }
    frames
}

impl Transport for CountingTransport {
    fn send(&self, frame: &[u8], dst: SocketAddr) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.send(frame, dst);
        add_stat(&self.send_ns, t.elapsed().as_nanos() as u64);
        add_stat(&self.send_calls, 1);
        add_stat(&self.frames_sent, 1);
        r
    }

    fn recv(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        let t = Instant::now();
        let r = self.inner.recv(buf);
        if let Ok((n, _)) = r {
            add_stat(&self.recv_wait_ns, t.elapsed().as_nanos() as u64);
            add_stat(&self.recv_calls, 1);
            self.received(&buf[..n]);
        }
        r
    }

    fn try_recv(&self, buf: &mut [u8]) -> io::Result<Option<(usize, SocketAddr)>> {
        add_stat(&self.try_recv_attempts, 1);
        let r = self.inner.try_recv(buf);
        if let Ok(Some((n, _))) = r {
            add_stat(&self.try_recv_hits, 1);
            self.received(&buf[..n]);
        }
        r
    }

    fn send_batch(&self, frames: &[(&[u8], SocketAddr)]) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.send_batch(frames);
        add_stat(&self.send_ns, t.elapsed().as_nanos() as u64);
        add_stat(&self.send_calls, 1);
        add_stat(&self.frames_sent, frames.len() as u64);
        r
    }

    fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

/// A [`Service`] wrapper that times every `dispatch` (server stub plus
/// procedure body).
pub struct TimedService {
    inner: Arc<dyn Service>,
    /// Dispatches performed.
    pub calls: AtomicU64,
    /// Nanoseconds spent in them.
    pub ns: AtomicU64,
}

impl TimedService {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Service>) -> Arc<TimedService> {
        Arc::new(TimedService {
            inner,
            calls: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        })
    }
}

impl Service for TimedService {
    fn interface(&self) -> &InterfaceDef {
        self.inner.interface()
    }

    fn dispatch(
        &self,
        index: u16,
        args: &[ServerArg<'_>],
        results: &mut ResultWriter<'_>,
    ) -> firefly_rpc::Result<()> {
        let t = Instant::now();
        let r = self.inner.dispatch(index, args, results);
        add_stat(&self.ns, t.elapsed().as_nanos() as u64);
        add_stat(&self.calls, 1);
        r
    }
}

/// Ids of every live thread of this process.
pub fn thread_ids() -> BTreeSet<u32> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return BTreeSet::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// The calling thread's id, from the `/proc/thread-self` link
/// (`<pid>/task/<tid>`).
pub fn current_tid() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// A thread's name (`comm`), empty if it has exited.
pub fn thread_name(tid: u32) -> String {
    std::fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

/// User plus system CPU ticks from a `/proc` `stat` line (fields 14 and
/// 15, counted after the parenthesised command name).
fn stat_cpu_ticks(stat: &str) -> u64 {
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0;
    };
    // `rest` starts at field 3 (state), so utime and stime are its
    // 12th and 13th whitespace-separated fields.
    rest.split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum()
}

/// CPU ticks one thread has used so far (0 once it has exited).
pub fn thread_cpu_ticks(tid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/self/task/{tid}/stat"))
        .map(|s| stat_cpu_ticks(&s))
        .unwrap_or(0)
}

/// CPU ticks the whole process has used so far, exited threads
/// included.
pub fn process_cpu_ticks() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .map(|s| stat_cpu_ticks(&s))
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) of this process, in KiB.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Host-wide CPU time from the first line of `/proc/stat`: the ticks
/// stolen by the hypervisor and the total.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    /// Ticks the hypervisor ran something else while this guest wanted
    /// the CPU.
    pub steal: u64,
    /// All ticks, every state.
    pub total: u64,
}

impl HostCpu {
    /// Reads the current figures (zeros if `/proc/stat` is missing).
    pub fn read() -> HostCpu {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        HostCpu {
            // user nice system idle iowait irq softirq steal guest guest_nice;
            // guest time is already counted in user.
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// The share of host CPU time stolen between `self` and `later`.
    pub fn steal_frac_until(&self, later: &HostCpu) -> f64 {
        crate::stats::ratio(
            later.steal.saturating_sub(self.steal) as f64,
            later.total.saturating_sub(self.total) as f64,
        )
    }
}

/// The host a run was measured on: processor count, CPU model and
/// kernel release.
pub fn host_stamp() -> (usize, String, String) {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, m)| m.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    (nproc, model, kernel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_the_name_parses() {
        let line = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 120 30 0 0 20 0";
        assert_eq!(stat_cpu_ticks(line), 150);
    }

    #[test]
    fn own_thread_is_listed() {
        let tid = current_tid().expect("thread-self link");
        assert!(thread_ids().contains(&tid));
    }

    #[test]
    fn frames_are_counted_in_a_coalesced_datagram() {
        let frame = firefly_wire::FrameBuilder::new(firefly_wire::PacketType::Result)
            .build(&[])
            .expect("frame");
        let mut datagram = frame.bytes().to_vec();
        datagram.extend_from_slice(frame.bytes());
        assert_eq!(frames_in(&datagram), 2);
        assert_eq!(frames_in(&[]), 0);
    }
}
