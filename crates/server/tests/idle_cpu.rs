//! An event loop that has just served a pipelined burst stops polling
//! within its spin budget: over half a second of silence on the still
//! open connection, the whole process spends under 50 ms of CPU.
//!
//! This is its own test binary so that no other test's threads run in
//! the process while `/proc/self/stat` is read.

use nws_grid::{GridMonitor, GridMonitorConfig};
use nws_server::{GridState, ReactorConfig, ReactorServer};
use nws_sim::HostProfile;
use nws_wire::{append_request_frame, read_response, Request};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// User plus system CPU time of this process, in clock ticks of
/// 10 ms (Linux reports `/proc` times in `USER_HZ`, which is 100).
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name, from the state on:
    // utime and stime are the 14th and 15th fields of the line.
    let rest = &stat[stat.rfind(')').expect("a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| fields[i].parse::<u64>().expect("a tick count");
    field(11) + field(12)
}

#[test]
fn a_loop_stops_polling_once_a_pipelined_burst_ends() {
    let mut grid = GridMonitor::new(
        &[HostProfile::Thing1, HostProfile::Gremlin],
        21,
        GridMonitorConfig::default(),
    );
    grid.run_steps(50);
    let server =
        ReactorServer::spawn(GridState::new(grid), ReactorConfig::default()).expect("bind");
    let mut batch = Vec::new();
    for _ in 0..32 {
        append_request_frame(&mut batch, &Request::Stats);
    }
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    for _ in 0..500 {
        raw.write_all(&batch).expect("send a batch");
        for _ in 0..32 {
            read_response(&mut raw).expect("a reply");
        }
    }
    let before = cpu_ticks();
    std::thread::sleep(Duration::from_millis(500));
    let spent_ms = (cpu_ticks() - before) * 10;
    assert!(spent_ms < 50, "{spent_ms} ms of CPU over 500 ms of silence");
    // The connection was open throughout, and still serves.
    raw.write_all(&batch[..batch.len() / 32])
        .expect("send one more");
    read_response(&mut raw).expect("a reply after the silence");
}
