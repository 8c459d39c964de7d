//! Raw readiness-notification syscalls: the epoll [`Poller`] every
//! reactor shard and the flood rig own.
//!
//! The reactor needs one thing from the OS: "tell me which of these
//! thousands of file descriptors are readable/writable, or wake me at a
//! deadline". That is Linux `epoll` (O(ready) per wait), declared here as
//! raw `extern "C"` bindings — std already links libc, so this costs no
//! new dependency — and wrapped in the safe [`Poller`] type the reactor
//! is written against. The constants are Linux's; Linux is the only
//! supported platform.
//!
//! Also here, because they are the same kind of thin syscall shim the
//! daemon needs at scale: [`raise_nofile_limit`] (a 5k-session soak holds
//! over 10k descriptors in one process) and [`raise_listen_backlog`] (a 5k
//! connection burst overflows the default backlog of 128).
//!
//! This is the only module in the crate allowed to use `unsafe`; every
//! block is a straight FFI call with the invariants stated at the call
//! site, and nothing above this layer touches a raw pointer.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_uint, c_void};
use std::sync::Arc;

// ---------------------------------------------------------------------
// FFI declarations (Linux values).
// ---------------------------------------------------------------------

/// `struct epoll_event`. x86 keeps it packed (kernel ABI); other
/// architectures use natural alignment — mirror glibc's definition.
#[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
#[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
#[derive(Clone, Copy)]
struct EpollEventRaw {
    events: u32,
    data: u64,
}

/// `struct rlimit` (Linux: 64-bit fields).
#[repr(C)]
struct RLimitRaw {
    rlim_cur: u64,
    rlim_max: u64,
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

const RLIMIT_NOFILE: c_int = 7;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEventRaw) -> c_int;
    fn epoll_wait(
        epfd: c_int,
        events: *mut EpollEventRaw,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn listen(sockfd: c_int, backlog: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut RLimitRaw) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimitRaw) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned raw descriptor, closed on drop (epoll instances and
/// eventfds, which std has no owned type for on stable without
/// `OwnedFd` juggling through FFI-returned ints).
#[derive(Debug)]
struct OwnedRawFd(RawFd);

impl Drop for OwnedRawFd {
    fn drop(&mut self) {
        // SAFETY: we exclusively own this descriptor; double-close is
        // impossible because Drop runs once.
        unsafe {
            let _ = close(self.0);
        }
    }
}

// ---------------------------------------------------------------------
// The readiness interface.
// ---------------------------------------------------------------------

/// A readiness event for one registered descriptor.
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Data can be read (or an inbound connection accepted).
    pub readable: bool,
    /// The descriptor can be written.
    pub writable: bool,
    /// The peer closed or the descriptor errored; a final read will
    /// surface the detail.
    pub hangup: bool,
}

/// Token reserved for the poller's own wake channel.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// Wakes a [`Poller`] blocked in [`Poller::wait`] from another thread:
/// the shared write side of the poller's eventfd.
#[derive(Debug, Clone)]
pub struct Waker(Arc<OwnedRawFd>);

impl Waker {
    /// Interrupts the poller's current (or next) wait. Idempotent and
    /// cheap; safe to call from any thread.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writing 8 bytes from a valid, live stack location to an
        // eventfd we own. A full counter (EAGAIN) already means "wake
        // pending", so the result is ignored.
        unsafe {
            let _ = write(self.0 .0, (&one as *const u64).cast(), 8);
        }
    }
}

/// The readiness-notification interface the reactor drives sessions
/// with: one level-triggered epoll instance per reactor shard (and per
/// flood rig), not shared across threads — the [`Waker`] is the
/// cross-thread half.
#[derive(Debug)]
pub struct Poller {
    epfd: OwnedRawFd,
    wake: Arc<OwnedRawFd>,
}

impl Poller {
    /// A fresh epoll instance with its wake eventfd registered.
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscalls; ownership of the returned descriptors
        // is taken immediately by OwnedRawFd.
        let epfd = OwnedRawFd(cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?);
        let wake = OwnedRawFd(cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?);
        let mut ev = EpollEventRaw { events: EPOLLIN, data: WAKE_TOKEN };
        // SAFETY: epfd and wake.0 are live descriptors we own; `ev` is a
        // valid epoll_event for the duration of the call.
        cvt(unsafe { epoll_ctl(epfd.0, EPOLL_CTL_ADD, wake.0, &mut ev) })?;
        Ok(Poller { epfd, wake: Arc::new(wake) })
    }

    fn ctl(&mut self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEventRaw { events, data: token };
        // SAFETY: self.epfd is live; `fd` is a descriptor the caller
        // owns (the reactor registers only sockets it holds open).
        cvt(unsafe { epoll_ctl(self.epfd.0, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Starts watching `fd` under `token`.
    pub fn register(
        &mut self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, epoll_interest(readable, writable), token)
    }

    /// Changes the interest set of an already-registered `fd`.
    pub fn modify(
        &mut self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, epoll_interest(readable, writable), token)
    }

    /// Stops watching `fd`.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until readiness or `timeout_ms` (`-1` = forever), filling
    /// `out`. Wake-channel readiness is surfaced as [`WAKE_TOKEN`] after
    /// draining the channel.
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        let mut events = [EpollEventRaw { events: 0, data: 0 }; 256];
        // SAFETY: the buffer outlives the call and maxevents matches its
        // length; epfd is live.
        let n = match cvt(unsafe {
            epoll_wait(self.epfd.0, events.as_mut_ptr(), events.len() as c_int, timeout_ms)
        }) {
            Ok(n) => n as usize,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in &events[..n] {
            // Copy out of the (possibly packed) struct before use.
            let (bits, token) = (ev.events, ev.data);
            if token == WAKE_TOKEN {
                let mut counter: u64 = 0;
                // SAFETY: reading 8 bytes into a valid stack slot from
                // the nonblocking eventfd we own; EAGAIN just means the
                // counter was already drained.
                unsafe {
                    let _ = read(self.wake.0, (&mut counter as *mut u64).cast(), 8);
                }
            }
            out.push(PollEvent {
                token,
                readable: bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
            });
        }
        Ok(())
    }

    /// A handle that interrupts [`Poller::wait`] from other threads.
    pub fn waker(&self) -> Waker {
        Waker(Arc::clone(&self.wake))
    }
}

fn epoll_interest(readable: bool, writable: bool) -> u32 {
    let mut e = EPOLLRDHUP;
    if readable {
        e |= EPOLLIN;
    }
    if writable {
        e |= EPOLLOUT;
    }
    e
}

// ---------------------------------------------------------------------
// Process-limit shims.
// ---------------------------------------------------------------------

/// Raises the soft `RLIMIT_NOFILE` toward `want` (clamped to the hard
/// limit). Returns the resulting soft limit. A 5k-session daemon plus an
/// in-process 5k-session test rig holds >10k descriptors, well past the
/// common soft default of 1024.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    let mut lim = RLimitRaw { rlim_cur: 0, rlim_max: 0 };
    // SAFETY: `lim` is a valid, exclusively borrowed struct.
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    if lim.rlim_cur >= want {
        return Ok(lim.rlim_cur);
    }
    let target = want.min(lim.rlim_max);
    let new = RLimitRaw { rlim_cur: target, rlim_max: lim.rlim_max };
    // SAFETY: `new` is a valid struct; raising the soft limit within the
    // hard limit needs no privilege.
    cvt(unsafe { setrlimit(RLIMIT_NOFILE, &new) })?;
    Ok(target)
}

/// Re-issues `listen(2)` on an already-listening socket to raise its
/// accept backlog (Linux applies the new value in place). std's
/// `TcpListener::bind` hardcodes a backlog of 128, which a multi-thousand
/// session connection burst overflows.
pub fn raise_listen_backlog(listener: &std::net::TcpListener, backlog: u32) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    // SAFETY: the fd is live for the duration of the call (we borrow the
    // listener); listen on a listening socket only updates the backlog.
    cvt(unsafe { listen(listener.as_raw_fd(), backlog.min(i32::MAX as u32) as c_int) })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn epoll_reports_readiness() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 7, true, false).unwrap();

        // Nothing readable yet: the wait times out empty.
        let mut events = Vec::new();
        poller.wait(&mut events, 10).unwrap();
        assert!(events.iter().all(|e| e.token != 7));

        // Bytes arrive: token 7 becomes readable.
        (&a).write_all(b"hello").unwrap();
        poller.wait(&mut events, 1_000).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable), "{events:?}");

        // Write interest reports writable on an idle socket.
        poller.modify(b.as_raw_fd(), 7, true, true).unwrap();
        poller.wait(&mut events, 1_000).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        poller.deregister(b.as_raw_fd()).unwrap();
        (&a).write_all(b"more").unwrap();
        poller.wait(&mut events, 10).unwrap();
        assert!(events.iter().all(|e| e.token != 7), "deregistered fd still reported");
    }

    #[test]
    fn epoll_waker_interrupts_wait() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            waker.wake();
        });
        let start = std::time::Instant::now();
        let mut events = Vec::new();
        // Without the wake this would block for 5 s.
        poller.wait(&mut events, 5_000).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(2));
        assert!(events.iter().any(|e| e.token == WAKE_TOKEN));
        t.join().unwrap();
        // The wake channel is drained: the next wait times out quietly.
        poller.wait(&mut events, 10).unwrap();
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn nofile_limit_is_queryable_and_monotonic() {
        let current = raise_nofile_limit(64).unwrap();
        assert!(current >= 64);
        let raised = raise_nofile_limit(current).unwrap();
        assert!(raised >= current);
    }

    #[test]
    fn listen_backlog_raise_succeeds_on_listening_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        raise_listen_backlog(&listener, 4096).unwrap();
        // Still accepts connections afterwards.
        let addr = listener.local_addr().unwrap();
        let _c = TcpStream::connect(addr).unwrap();
        let (_s, _) = listener.accept().unwrap();
    }
}
