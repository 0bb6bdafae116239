//! The service's front end, the same on every platform: each listening
//! port has one thread blocked in `accept`, and each connection its own
//! threads — a reader that parses frames and answers the inline ops,
//! and a writer that sends the joins' answers as the runners finish
//! them. Both go through the connection's one [`ConnState`] and write
//! under its lock, so a response frame is never split by another.
//!
//! Writes block: a client that stops reading holds up its own
//! connection and no other. Every live connection is registered in
//! [`Shared::conns`], and [`crate::Server::shutdown`] closes them all
//! there, so no read or write outlives the server.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::conn::ConnState;
use crate::Shared;

/// Serve each connection `listener` accepts on its own thread, through
/// `serve`, until the server stops. The thread blocks in `accept`;
/// `Server::shutdown` sets the stop flag and then connects once to wake
/// it. A finished connection thread is joined at the next accept, and
/// the rest when the loop ends, after shutdown has closed their sockets.
pub(crate) fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    serve: fn(TcpStream, Arc<Shared>),
) {
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        for done in threads.extract_if(.., |t| t.is_finished()) {
            let _ = done.join();
        }
        let sh = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || serve(stream, sh)));
    }
    for t in threads {
        let _ = t.join();
    }
}

/// One protocol connection: this thread reads, a second one writes the
/// joins' answers, and both are gone when the client or the server
/// closes the socket.
pub(crate) fn conn_loop(stream: TcpStream, shared: Arc<Shared>) {
    let stream = Arc::new(stream);
    let (tx, rx) = mpsc::channel::<(u64, String)>();
    let Some(id) = shared.register(&stream, Some(tx)) else {
        return;
    };
    shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
    shared.stats.open.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    let state = Arc::new(Mutex::new(ConnState::new(id)));

    // The channel closes when the connection leaves the registry.
    let wstate = Arc::clone(&state);
    let wstream = Arc::clone(&stream);
    let wshared = Arc::clone(&shared);
    let writer = std::thread::spawn(move || {
        while let Ok((seq, payload)) = rx.recv() {
            let mut g = wstate.lock().expect("connection state poisoned");
            g.complete(seq, &payload);
            if g.flush(&wstream, &wshared).is_err() {
                break;
            }
        }
    });

    let mut buf = [0u8; 16 * 1024];
    loop {
        let n = match (&*stream).read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        let mut g = state.lock().expect("connection state poisoned");
        if !g.ingest(&buf[..n], &shared) || g.flush(&stream, &shared).is_err() {
            break;
        }
    }

    // Unregister first so no new answer enters the channel, and close
    // the socket before taking the state lock: the writer may hold it in
    // a write the client will never read. Then cancel what still runs.
    shared.unregister(id);
    let _ = stream.shutdown(Shutdown::Both);
    state
        .lock()
        .expect("connection state poisoned")
        .cancel_inflight();
    let _ = writer.join();
    shared.stats.open.fetch_sub(1, Ordering::Relaxed);
}

/// One Prometheus scrape: every connection gets the text exposition as
/// an `HTTP/1.0 200`, whatever it asked (the path is not inspected —
/// this serves exactly one document).
pub(crate) fn scrape(sock: TcpStream, shared: Arc<Shared>) {
    let sock = Arc::new(sock);
    let Some(id) = shared.register(&sock, None) else {
        return;
    };
    // Drain the request line + headers (best effort).
    let mut buf = [0u8; 4096];
    let _ = (&*sock).read(&mut buf);
    let body = shared.metrics_text();
    let resp = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = (&*sock).write_all(resp.as_bytes());
    shared.unregister(id);
}
