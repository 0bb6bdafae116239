//! The Linux front-end: a single-threaded epoll reactor over raw
//! syscalls, in the repo's no-libc idiom (`mmjoin_util::sys::syscall6`,
//! like `mmjoin_util::perf` and `mmjoin_util::mem`).
//!
//! One thread owns every socket. Sockets are `std::net` handles flipped
//! to non-blocking; epoll (level-triggered) multiplexes them. Runner
//! threads never touch a socket — they push rendered response frames
//! onto [`Shared::completions`] and poke the reactor through a
//! `UnixStream` self-wake pair; the reactor drains completions onto the
//! owning connection's write queue. A connection that dies with joins
//! in flight gets its [`CancelToken`]s cancelled so the runners stop
//! probing for a reader that is gone.

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::conn::ConnState;
use crate::Shared;

mod sys {
    //! `epoll_create1` / `epoll_ctl` / `epoll_pwait` / `close` via raw
    //! syscalls; negative return is `-errno`.

    use mmjoin_util::sys::{nr, syscall6};

    /// `struct epoll_event` — packed on x86_64 (kernel ABI), naturally
    /// aligned everywhere else.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Copy, Clone)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EPOLL_CTL_ADD: usize = 1;
    pub const EPOLL_CTL_DEL: usize = 2;
    pub const EPOLL_CTL_MOD: usize = 3;

    const EPOLL_CLOEXEC: usize = 0x80000;

    fn check(ret: isize) -> std::io::Result<isize> {
        if ret < 0 {
            Err(std::io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    pub fn epoll_create1() -> std::io::Result<i32> {
        // SAFETY: no argument is a pointer; the call only creates a new
        // descriptor.
        let ret = unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) };
        check(ret).map(|fd| fd as i32)
    }

    pub fn epoll_ctl(epfd: i32, op: usize, fd: i32, events: u32, data: u64) -> std::io::Result<()> {
        let ev = EpollEvent { events, data };
        // SAFETY: the kernel reads one `EpollEvent` through the pointer,
        // and `ev` is a live local for the whole call.
        let ret = unsafe {
            syscall6(
                nr::EPOLL_CTL,
                epfd as usize,
                op,
                fd as usize,
                &ev as *const EpollEvent as usize,
                0,
                0,
            )
        };
        check(ret).map(|_| ())
    }

    /// `epoll_pwait(..., sigmask = NULL)` — the only wait variant that
    /// exists on every architecture (aarch64 has no plain `epoll_wait`).
    pub fn epoll_wait(
        epfd: i32,
        events: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> std::io::Result<usize> {
        // SAFETY: the kernel writes at most `events.len()` entries
        // through the pointer into `events`, a live exclusive borrow;
        // the sigmask pointer is null.
        let ret = unsafe {
            syscall6(
                epfd_wait_nr(),
                epfd as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as isize as usize,
                0,
                8,
            )
        };
        match check(ret) {
            Ok(n) => Ok(n as usize),
            // A signal is not an error for a poll loop.
            Err(e) if e.raw_os_error() == Some(4 /* EINTR */) => Ok(0),
            Err(e) => Err(e),
        }
    }

    fn epfd_wait_nr() -> usize {
        nr::EPOLL_PWAIT
    }

    pub fn close(fd: i32) {
        // SAFETY: closing a descriptor touches no memory; the one
        // caller, the reactor's Drop, closes the epoll fd it owns.
        unsafe {
            syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0);
        }
    }
}

/// epoll `data` tags: the listener and the self-wake pipe get reserved
/// ids; connections start above them.
const TAG_LISTENER: u64 = 0;
const TAG_WAKER: u64 = 1;
const FIRST_CONN: u64 = 2;

/// Poll granularity for the stop flag when the loop is otherwise idle.
const IDLE_TIMEOUT_MS: i32 = 100;

struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Registered interest currently installed in the epoll set.
    want_write: bool,
}

pub(crate) struct Reactor {
    epfd: i32,
    listener: TcpListener,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    shared: Arc<Shared>,
}

impl Drop for Reactor {
    fn drop(&mut self) {
        sys::close(self.epfd);
    }
}

impl Reactor {
    /// Register the listener and the wake pipe; `wake_tx` goes into
    /// [`Shared`] for runners to poke.
    pub(crate) fn new(listener: TcpListener, shared: Arc<Shared>) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let epfd = sys::epoll_create1()?;
        sys::epoll_ctl(
            epfd,
            sys::EPOLL_CTL_ADD,
            listener.as_raw_fd(),
            sys::EPOLLIN,
            TAG_LISTENER,
        )?;
        sys::epoll_ctl(
            epfd,
            sys::EPOLL_CTL_ADD,
            wake_rx.as_raw_fd(),
            sys::EPOLLIN,
            TAG_WAKER,
        )?;
        *shared.waker.lock().unwrap() = Some(wake_tx);
        Ok(Reactor {
            epfd,
            listener,
            wake_rx,
            conns: HashMap::new(),
            next_id: FIRST_CONN,
            shared,
        })
    }

    pub(crate) fn run(mut self) {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 128];
        loop {
            if self.shared.stop.load(Ordering::Acquire) {
                break;
            }
            let n = match sys::epoll_wait(self.epfd, &mut events, IDLE_TIMEOUT_MS) {
                Ok(n) => n,
                Err(_) => break,
            };
            for ev in &events[..n] {
                let (tag, bits) = (ev.data, ev.events);
                match tag {
                    TAG_LISTENER => self.accept_ready(),
                    TAG_WAKER => self.drain_waker(),
                    id => self.conn_ready(id, bits),
                }
            }
            // Completions may land while we were handling sockets; the
            // waker byte covers the race, but drain opportunistically.
            self.drain_completions();
        }
        // Teardown: cancel whatever is still in flight.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.close_conn(id);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let id = self.next_id;
                    self.next_id += 1;
                    if sys::epoll_ctl(
                        self.epfd,
                        sys::EPOLL_CTL_ADD,
                        stream.as_raw_fd(),
                        sys::EPOLLIN | sys::EPOLLRDHUP,
                        id,
                    )
                    .is_err()
                    {
                        continue;
                    }
                    self.shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    self.shared.stats.open.fetch_add(1, Ordering::Relaxed);
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            state: ConnState::new(id),
                            want_write: false,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
        self.drain_completions();
    }

    fn drain_completions(&mut self) {
        let done: Vec<(u64, u64, String)> = {
            let mut g = self.shared.completions.lock().unwrap();
            std::mem::take(&mut *g)
        };
        for (id, seq, payload) in done {
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.state.complete(seq, &payload);
                self.flush_conn(id);
            }
            // Unknown id: connection died before its join finished; the
            // response is dropped (its cancel token already fired).
        }
    }

    fn conn_ready(&mut self, id: u64, bits: u32) {
        if bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0 {
            // Peer is gone (or half-closed); any buffered responses
            // have nowhere useful to go.
            self.close_conn(id);
            return;
        }
        if bits & sys::EPOLLIN != 0 && !self.read_conn(id) {
            return; // closed during read
        }
        if bits & sys::EPOLLOUT != 0 {
            self.flush_conn(id);
        }
    }

    /// Returns false if the connection was closed.
    fn read_conn(&mut self, id: u64) -> bool {
        let mut buf = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return false;
            };
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    self.close_conn(id);
                    return false;
                }
                Ok(n) => {
                    let frames = conn.state.ingest(&buf[..n], &self.shared);
                    if frames.overloaded {
                        self.close_conn(id);
                        return false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(id);
                    return false;
                }
            }
        }
        self.flush_conn(id);
        self.conns.contains_key(&id)
    }

    /// Write as much buffered response data as the socket accepts;
    /// toggles `EPOLLOUT` interest to match what is left.
    fn flush_conn(&mut self, id: u64) {
        let mut close = false;
        let mut reinstall = None;
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        loop {
            let pending = conn.state.pending_out();
            if pending.is_empty() {
                break;
            }
            match conn.stream.write(pending) {
                Ok(0) => {
                    close = true;
                    break;
                }
                Ok(n) => {
                    conn.state.consume_out(n);
                    self.shared
                        .stats
                        .bytes_out
                        .fetch_add(n as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    close = true;
                    break;
                }
            }
        }
        if !close {
            let want = !conn.state.pending_out().is_empty();
            if want != conn.want_write {
                conn.want_write = want;
                let events = sys::EPOLLIN | sys::EPOLLRDHUP | if want { sys::EPOLLOUT } else { 0 };
                reinstall = Some((conn.stream.as_raw_fd(), events));
            }
        }
        if close {
            self.close_conn(id);
        } else if let Some((fd, events)) = reinstall {
            let _ = sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, events, id);
        }
    }

    fn close_conn(&mut self, id: u64) {
        if let Some(mut conn) = self.conns.remove(&id) {
            let _ = sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, 0);
            conn.state.cancel_inflight();
            self.shared.stats.open.fetch_sub(1, Ordering::Relaxed);
        }
    }
}
