//! A finished connection leaves nothing behind: the daemon joins each
//! reader thread once its connection closes, so a long-lived daemon does
//! not keep one exited thread's stack mapped per connection it served.
//! Linux only, because it counts the lines of `/proc/self/maps`; one test
//! per binary, so no other test's threads move the count.

#![cfg(target_os = "linux")]

use iwa_serve::{Client, ServeOptions, Server};
use std::time::{Duration, Instant};

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("procfs is readable")
        .lines()
        .count()
}

/// Open one connection, ping, and close it.
fn ping(server: &Server) {
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let resp = client
        .request(&Client::simple_request(0, "ping"), Duration::from_secs(10))
        .expect("pong");
    assert_eq!(resp["status"], "ok");
}

#[test]
fn closed_connections_do_not_grow_the_address_space() {
    let server = Server::start(ServeOptions::default()).unwrap();
    // The first connections map what every later one reuses (allocator
    // arenas, the thread-stack cache).
    for _ in 0..5 {
        ping(&server);
    }
    let before = mappings();
    for _ in 0..200 {
        ping(&server);
    }
    // The last readers may still be winding down, and the listener joins a
    // finished reader only when the next connection arrives.
    let settle = Instant::now() + Duration::from_secs(5);
    let mut grown = mappings().saturating_sub(before);
    while grown >= 50 && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(50));
        grown = mappings().saturating_sub(before);
    }
    server.shutdown();
    server.join();
    assert!(
        grown < 50,
        "200 closed connections left {grown} more mappings than before"
    );
}
