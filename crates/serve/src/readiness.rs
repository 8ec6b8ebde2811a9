//! Blocking readiness for the node's threads: `poll(2)` over a
//! reusable descriptor set, and a [`Waker`] other threads use to end
//! the leader's wait.
//!
//! This is the only module in the workspace that contains `unsafe`:
//! one foreign call, declared by hand because std already links libc
//! and the build is offline. Everything it exposes is safe.
//!
//! Linux only (like CI, `rust-toolchain.toml` and `perf/`): the
//! `nfds_t` and flag definitions below are Linux's.

use std::ffi::{c_int, c_short, c_ulong};
use std::io::{self, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::Duration;

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// What a wait should report for one descriptor. Errors and hang-ups
/// are reported for every registered descriptor whatever its
/// interest, so there is no empty interest: a source with nothing to
/// wait for must stay out of the set, or a closed peer would end
/// every wait at once.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Interest {
    Read,
    Write,
    ReadWrite,
}

/// A reusable `poll(2)` descriptor set. Entries are addressed by the
/// index [`push`](Self::push) returned.
#[derive(Default)]
pub(crate) struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// Forget every entry, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.fds.clear();
    }

    /// Register `source`; returns the entry's index.
    pub(crate) fn push(&mut self, source: &impl AsRawFd, interest: Interest) -> usize {
        let events = match interest {
            Interest::Read => POLLIN,
            Interest::Write => POLLOUT,
            Interest::ReadWrite => POLLIN | POLLOUT,
        };
        self.fds.push(PollFd {
            fd: source.as_raw_fd(),
            events,
            revents: 0,
        });
        self.fds.len() - 1
    }

    /// Block until at least one entry is ready, failed or hung up, or
    /// — given a timeout, which is rounded up to whole milliseconds —
    /// until it has passed. A wait cut short by a signal is retried.
    ///
    /// # Errors
    /// Whatever `poll(2)` reports other than `EINTR` (`ENOMEM`, or
    /// `EINVAL` for a set larger than `RLIMIT_NOFILE`).
    pub(crate) fn wait(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        let timeout_ms = timeout.map_or(-1, |t| {
            c_int::try_from(t.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX)
        });
        self.poll_with_timeout(timeout_ms).map(|_| ())
    }

    /// `poll(2)` with a timeout in milliseconds (negative = none);
    /// returns how many entries have events.
    fn poll_with_timeout(&mut self, timeout_ms: c_int) -> io::Result<usize> {
        loop {
            // SAFETY: the pointer and the length describe the one live
            // `Vec<PollFd>` this method borrows mutably, `PollFd` is
            // `repr(C)` with `struct pollfd`'s layout, and the kernel
            // writes only the `revents` field of those entries. The
            // descriptors are plain integers the kernel validates
            // itself (a stale one yields `POLLNVAL`, not a memory
            // error); callers borrow them from sockets they own for
            // the duration of the call.
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, timeout_ms) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
            #[cfg(test)]
            tests::EINTR_RETRIES.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    /// Whether the last wait reported any event — readiness, error or
    /// hang-up — for entry `index`.
    pub(crate) fn is_ready(&self, index: usize) -> bool {
        self.fds.get(index).is_some_and(|fd| fd.revents != 0)
    }
}

/// The sending half of a wake-up channel: any thread may ring it to
/// end the [`PollSet::wait`] of the thread that registered the
/// matching [`WakeListener`].
pub(crate) struct Waker {
    tx: UnixStream,
}

/// The receiving half: register it for reading, and
/// [`drain`](Self::drain) it after every wait it ended.
pub(crate) struct WakeListener {
    rx: UnixStream,
}

/// A connected waker pair (a nonblocking `socketpair`).
///
/// # Errors
/// Propagates the socket-creation error (descriptor exhaustion).
pub(crate) fn waker() -> io::Result<(Waker, WakeListener)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, WakeListener { rx }))
}

impl Waker {
    /// Make the listener readable. A full socket buffer means earlier
    /// rings are still unread, so the listener is readable already
    /// and the error is ignored — like any other error here: a waker
    /// whose listener is gone has nobody left to wake.
    pub(crate) fn ring(&self) {
        let _ = (&self.tx).write(&[1]);
    }
}

impl WakeListener {
    /// Consume every pending ring, so the next wait does not return
    /// for a wake-up that was already acted on.
    pub(crate) fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n == sink.len()) {}
    }
}

impl AsRawFd for WakeListener {
    fn as_raw_fd(&self) -> std::os::fd::RawFd {
        self.rx.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    /// How often any wait in this test binary was restarted after
    /// `EINTR`.
    pub(super) static EINTR_RETRIES: AtomicUsize = AtomicUsize::new(0);

    const WATCHDOG: Duration = Duration::from_secs(20);

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connects");
        let (server, _) = listener.accept().expect("accepts");
        (client, server)
    }

    #[test]
    fn many_rings_are_one_wake_up_and_drain_leaves_nothing_behind() {
        let (waker, listener) = waker().expect("pair");
        let mut set = PollSet::default();
        let idx = set.push(&listener, Interest::Read);
        assert_eq!(set.poll_with_timeout(0).expect("polls"), 0);
        assert!(!set.is_ready(idx));

        // Far more rings than the socket buffer holds: ringing a full
        // waker neither blocks nor loses the wake-up.
        for _ in 0..100_000 {
            waker.ring();
        }
        set.wait(None).expect("waits");
        assert!(set.is_ready(idx));
        listener.drain();
        assert_eq!(
            set.poll_with_timeout(0).expect("polls"),
            0,
            "a drained listener must not be readable"
        );
    }

    #[test]
    fn a_timed_wait_ends_when_the_timeout_passes() {
        let (_waker, listener) = waker().expect("pair");
        let mut set = PollSet::default();
        let idx = set.push(&listener, Interest::Read);
        // Rounded up to a whole millisecond, never down to a poll that
        // returns at once.
        let start = std::time::Instant::now();
        set.wait(Some(Duration::from_micros(100))).expect("waits");
        assert!(start.elapsed() >= Duration::from_millis(1));
        assert!(!set.is_ready(idx));
    }

    #[test]
    fn a_ring_from_another_thread_wakes_a_blocked_wait() {
        let (waker, listener) = waker().expect("pair");
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let mut set = PollSet::default();
            let idx = set.push(&listener, Interest::Read);
            set.wait(None).expect("waits");
            let _ = tx.send(set.is_ready(idx));
        });
        waker.ring();
        assert!(rx.recv_timeout(WATCHDOG).expect("the ring ends the wait"));
        waiter.join().expect("joins");
    }

    #[test]
    fn interest_selects_what_is_reported() {
        let (mut client, server) = tcp_pair();
        let mut set = PollSet::default();
        let r = set.push(&server, Interest::Read);
        let w = set.push(&server, Interest::Write);
        // An idle connected socket is writable and not readable.
        assert_eq!(set.poll_with_timeout(0).expect("polls"), 1);
        assert!(!set.is_ready(r) && set.is_ready(w));
        client.write_all(b"x").expect("writes");
        set.wait(None).expect("waits");
        assert!(set.is_ready(r) && set.is_ready(w));
    }

    #[test]
    fn a_closed_peer_is_reported_whatever_the_interest() {
        // Why `Interest` has no empty variant: the hang-up ends a
        // wait that only asked about writability.
        let (client, server) = tcp_pair();
        drop(client);
        let mut set = PollSet::default();
        let idx = set.push(&server, Interest::Write);
        set.wait(None).expect("waits");
        assert!(set.is_ready(idx));
    }

    /// A wait interrupted by a signal is restarted, not surfaced:
    /// signals are sent at the waiting thread until the retry counter
    /// moves, then a ring ends the wait normally.
    #[test]
    fn a_wait_interrupted_by_a_signal_is_retried() {
        const SIGUSR1: c_int = 10;
        extern "C" fn on_signal(_: c_int) {}
        extern "C" {
            fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
            fn pthread_self() -> c_ulong;
            fn pthread_kill(thread: c_ulong, sig: c_int) -> c_int;
        }
        // SAFETY: installs a handler that does nothing (trivially
        // async-signal-safe) for a signal nothing else in this test
        // binary uses.
        unsafe { signal(SIGUSR1, on_signal) };

        let (waker, listener) = waker().expect("pair");
        let (tid_tx, tid_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            // SAFETY: no preconditions.
            let _ = tid_tx.send(unsafe { pthread_self() });
            let mut set = PollSet::default();
            let idx = set.push(&listener, Interest::Read);
            let result = set.wait(None);
            let _ = done_tx.send(result.map(|()| set.is_ready(idx)));
        });
        let tid = tid_rx.recv_timeout(WATCHDOG).expect("thread id");
        let before = EINTR_RETRIES.load(Ordering::SeqCst);
        let deadline = std::time::Instant::now() + WATCHDOG;
        while EINTR_RETRIES.load(Ordering::SeqCst) == before {
            assert!(
                std::time::Instant::now() < deadline,
                "no wait was interrupted"
            );
            // SAFETY: `tid` names the waiter, which cannot exit before
            // the ring below and is joined only after it.
            assert_eq!(unsafe { pthread_kill(tid, SIGUSR1) }, 0);
            std::thread::yield_now();
        }
        // The interrupted wait is still blocked: nothing was reported.
        assert!(done_rx.try_recv().is_err());
        waker.ring();
        let woke = done_rx.recv_timeout(WATCHDOG).expect("the wait ends");
        assert!(woke.expect("EINTR must not surface"));
        waiter.join().expect("joins");
    }
}
