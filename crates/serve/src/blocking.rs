//! Portable fallback front-end for non-Linux hosts: one blocking reader
//! thread plus one writer thread per connection, speaking the exact
//! same protocol through the same [`ConnState`] machine the epoll
//! reactor uses. Correctness-equivalent, fd-hungrier — the Linux
//! reactor is the production path (DESIGN.md §15). Also compiled for
//! tests on Linux, where `front_ends_agree` drives both.

#![cfg(any(not(target_os = "linux"), test))]

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::conn::ConnState;
use crate::Shared;

pub(crate) fn run(listener: TcpListener, shared: Arc<Shared>) {
    listener
        .set_nonblocking(true)
        .expect("listener nonblocking");
    let mut next_id = 2u64;
    let mut handles = Vec::new();
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let id = next_id;
                next_id += 1;
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                shared.stats.open.fetch_add(1, Ordering::Relaxed);
                let sh = Arc::clone(&shared);
                handles.push(std::thread::spawn(move || conn_loop(id, stream, sh)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => break,
        }
    }
    for h in handles {
        let _ = h.join();
    }
}

fn conn_loop(id: u64, stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    // Reads time out so the reader notices server shutdown.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let state = Arc::new(Mutex::new(ConnState::new(id)));
    let (tx, rx) = mpsc::channel::<(u64, String)>();
    shared.routes.lock().unwrap().insert(id, tx);

    // Writer: joins complete here; inline responses are written by the
    // reader. Both render under the state lock and write through their
    // own handle, serialized by that same lock.
    let wstate = Arc::clone(&state);
    let wstream = stream.try_clone();
    let wshared = Arc::clone(&shared);
    let writer = std::thread::spawn(move || {
        let Ok(stream) = wstream else { return };
        while let Ok((seq, payload)) = rx.recv() {
            let mut g = wstate.lock().unwrap();
            g.complete(seq, &payload);
            if write_pending(&stream, &mut g, &wshared).is_err() {
                break;
            }
        }
    });

    let mut buf = [0u8; 16 * 1024];
    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        match (&stream).read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let mut g = state.lock().unwrap();
                let outcome = g.ingest(&buf[..n], &shared);
                let write_ok = write_pending(&stream, &mut g, &shared).is_ok();
                if outcome.overloaded || !write_ok {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(_) => break,
        }
    }

    // Teardown: unroute first so no new completions enter the channel,
    // then cancel whatever is still running.
    shared.routes.lock().unwrap().remove(&id);
    state.lock().unwrap().cancel_inflight();
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let _ = writer.join();
    shared.stats.open.fetch_sub(1, Ordering::Relaxed);
}

fn write_pending(
    mut stream: &TcpStream,
    state: &mut ConnState,
    shared: &Shared,
) -> std::io::Result<()> {
    while !state.pending_out().is_empty() {
        let n = stream.write(state.pending_out())?;
        state.consume_out(n);
        shared
            .stats
            .bytes_out
            .fetch_add(n as u64, Ordering::Relaxed);
    }
    Ok(())
}
