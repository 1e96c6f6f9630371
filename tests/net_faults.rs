//! Fault injection against the network front-end: disconnects,
//! slow-loris trickle, malformed frames, a failing commit-log stream.
//! Every fault must resolve to a typed error, a clean drop or a counted
//! failure, leave the residual state untouched by the faulty traffic,
//! and never poison other connections.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use sdfrs_appmodel::apps::{example_platform, paper_example};
use sdfrs_core::service::{
    replay_commit_log, AllocationService, CommitLog, ServiceConfig, ServiceRequest,
};
use sdfrs_net::server::{NetServer, ServerOptions};
use sdfrs_net::wire::{response_kind, response_ok, response_u64, FrameBuffer};

fn spawn_server(options: ServerOptions) -> NetServer {
    NetServer::spawn(
        AllocationService::new(&example_platform()),
        CommitLog::new(),
        options,
        "127.0.0.1:0",
    )
    .expect("bind loopback")
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    stream
}

fn recv_line(stream: &mut TcpStream, frames: &mut FrameBuffer) -> Option<String> {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut buf = [0u8; 4096];
    loop {
        if let Some(line) = frames.next_line().expect("well-framed response") {
            return Some(line);
        }
        if std::time::Instant::now() > deadline {
            return None;
        }
        match stream.read(&mut buf) {
            Ok(0) => return None,
            Ok(n) => frames.push_bytes(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return None,
        }
    }
}

fn round_trip(stream: &mut TcpStream, frames: &mut FrameBuffer, line: &str) -> String {
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send newline");
    recv_line(stream, frames).expect("response before timeout")
}

/// A client that disconnects mid-line (bytes sent, no newline) drops
/// cleanly: nothing executes, nothing commits, and a well-behaved
/// connection opened afterwards works normally.
#[test]
fn mid_request_disconnect_leaves_state_untouched() {
    let server = spawn_server(ServerOptions::default());
    let addr = server.local_addr();

    let mut rude = connect(addr);
    rude.write_all(b"{\"op\":\"admit\",\"exa")
        .expect("partial write");
    rude.shutdown(Shutdown::Both).expect("abort");
    drop(rude);

    let mut polite = connect(addr);
    let mut frames = FrameBuffer::default();
    let response = round_trip(
        &mut polite,
        &mut frames,
        "{\"op\":\"admit\",\"example\":\"paper\"}",
    );
    assert_eq!(response_ok(&response), Some(true));

    let report = server.shutdown();
    assert_eq!(
        report.commit_log.len(),
        1,
        "only the polite admit committed"
    );
    assert_eq!(report.service.live_count(), 1);
    assert_eq!(report.stats.connections_opened, 2);
    assert_eq!(report.stats.connections_closed, 2);
    assert_eq!(
        report.stats.parse_errors, 0,
        "a dropped partial is not an error"
    );
}

/// A client that disconnects after sending a complete request but
/// before reading the response: the mutation still commits (it is in
/// the log), the failed response write is absorbed silently.
#[test]
fn disconnect_before_response_still_commits() {
    let server = spawn_server(ServerOptions::default());
    let addr = server.local_addr();

    let mut fire_and_forget = connect(addr);
    fire_and_forget
        .write_all(b"{\"op\":\"admit\",\"example\":\"paper\"}\n")
        .expect("send");
    drop(fire_and_forget);

    // Wait for the commit to land (the reader may race the drop).
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let committed = server
            .metrics()
            .snapshot()
            .map(|s| {
                s.counters
                    .iter()
                    .any(|&(n, v)| n == "net_commits_logged" && v == 1)
            })
            .unwrap_or(false);
        if committed {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "commit never landed after disconnect"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let report = server.shutdown();
    assert_eq!(report.commit_log.len(), 1);
    assert_eq!(report.service.live_count(), 1);
}

/// A slow-loris client that starts a line and trickles nothing more is
/// expired with a typed deadline response and dropped — while a
/// concurrent well-behaved connection keeps working.
#[test]
fn slow_loris_is_expired_without_poisoning_others() {
    let options = ServerOptions {
        deadline: Duration::from_millis(200),
        ..ServerOptions::default()
    };
    let server = spawn_server(options);
    let addr = server.local_addr();

    let mut loris = connect(addr);
    loris.write_all(b"{\"op\":\"stat").expect("trickle");

    // Meanwhile a polite client is served normally.
    let mut polite = connect(addr);
    let mut polite_frames = FrameBuffer::default();
    let response = round_trip(
        &mut polite,
        &mut polite_frames,
        "{\"op\":\"admit\",\"example\":\"paper\"}",
    );
    assert_eq!(response_ok(&response), Some(true));

    // The loris gets a typed deadline response, then EOF.
    let mut loris_frames = FrameBuffer::default();
    let expiry = recv_line(&mut loris, &mut loris_frames).expect("typed expiry");
    assert_eq!(response_kind(&expiry).as_deref(), Some("deadline"));
    assert_eq!(response_ok(&expiry), Some(false));
    assert_eq!(recv_line(&mut loris, &mut loris_frames), None, "closed");

    let report = server.shutdown();
    assert_eq!(report.stats.deadlines_expired, 1);
    assert_eq!(
        report.commit_log.len(),
        1,
        "only the polite admit committed"
    );
    assert_eq!(report.service.live_count(), 1);
}

/// Malformed JSON on a healthy frame: a typed parse error naming the
/// field, the connection stays open, and the next request succeeds.
#[test]
fn malformed_request_gets_typed_error_and_connection_survives() {
    let server = spawn_server(ServerOptions::default());
    let mut stream = connect(server.local_addr());
    let mut frames = FrameBuffer::default();

    let bad = round_trip(&mut stream, &mut frames, "{\"op\":\"evict\",\"session\":1}");
    assert_eq!(response_kind(&bad).as_deref(), Some("parse"));
    assert_eq!(response_ok(&bad), Some(false));
    assert!(bad.contains("\"field\":\"op\""), "names the field: {bad}");
    assert!(bad.contains("evict"), "echoes the unknown op: {bad}");

    let missing = round_trip(&mut stream, &mut frames, "{\"op\":\"depart\"}");
    assert_eq!(response_kind(&missing).as_deref(), Some("parse"));
    assert!(missing.contains("\"field\":\"session\""), "{missing}");

    let good = round_trip(
        &mut stream,
        &mut frames,
        "{\"op\":\"admit\",\"example\":\"paper\"}",
    );
    assert_eq!(response_ok(&good), Some(true));
    assert_eq!(response_u64(&good, "id"), Some(3), "ids keep counting");

    let report = server.shutdown();
    assert_eq!(report.stats.parse_errors, 2);
    assert_eq!(report.commit_log.len(), 1, "malformed lines never commit");
}

/// A non-UTF-8 frame gets a typed parse response and the connection is
/// dropped; the residual state is untouched.
#[test]
fn invalid_utf8_frame_is_rejected_and_dropped() {
    let server = spawn_server(ServerOptions::default());
    let mut stream = connect(server.local_addr());
    let mut frames = FrameBuffer::default();
    stream.write_all(&[0xFF, 0xFE, 0xFD, b'\n']).expect("send");
    let response = recv_line(&mut stream, &mut frames).expect("typed parse error");
    assert_eq!(response_kind(&response).as_deref(), Some("parse"));
    assert!(response.contains("UTF-8"), "{response}");
    assert_eq!(recv_line(&mut stream, &mut frames), None, "closed");

    let report = server.shutdown();
    assert_eq!(report.stats.parse_errors, 1);
    assert!(report.commit_log.is_empty());
    assert_eq!(
        report.residual_digest(),
        AllocationService::new(&example_platform()).residual_digest()
    );
}

/// A line past the byte ceiling gets a typed parse response and the
/// connection is dropped before the line could balloon server memory.
#[test]
fn oversize_line_is_rejected_and_dropped() {
    let options = ServerOptions {
        max_line_bytes: 128,
        ..ServerOptions::default()
    };
    let server = spawn_server(options);
    let mut stream = connect(server.local_addr());
    let mut frames = FrameBuffer::default();
    let huge = vec![b'x'; 512];
    stream.write_all(&huge).expect("send oversize");
    stream.write_all(b"\n").expect("send newline");
    let response = recv_line(&mut stream, &mut frames).expect("typed parse error");
    assert_eq!(response_kind(&response).as_deref(), Some("parse"));
    assert!(response.contains("exceeds 128 bytes"), "{response}");
    assert_eq!(recv_line(&mut stream, &mut frames), None, "closed");

    let report = server.shutdown();
    assert_eq!(report.stats.parse_errors, 1);
    assert!(report.commit_log.is_empty());
}

/// A commit-log stream that takes its first record, then fails every
/// write, as a full disk would.
#[derive(Default)]
struct FailsAfterFirstRecord {
    records: usize,
}

impl Write for FailsAfterFirstRecord {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.records >= 1 {
            return Err(std::io::Error::other("no space left on device"));
        }
        self.records += buf.iter().filter(|&&b| b == b'\n').count();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A commit-log stream that fails after its first record does not stop
/// the server: it keeps answering, the in-memory log stays complete
/// (its replay reproduces the live residual), and both the `health`
/// answer and the final stats line count the failed writes.
#[test]
fn commit_log_write_failures_are_counted_and_reported() {
    let server = NetServer::spawn(
        AllocationService::new(&example_platform()),
        CommitLog::with_writer(FailsAfterFirstRecord::default()),
        ServerOptions::default(),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let mut stream = connect(server.local_addr());
    let mut frames = FrameBuffer::default();
    for line in [
        "{\"op\":\"admit\",\"example\":\"paper\"}",
        "{\"op\":\"admit\",\"example\":\"paper\"}",
        "{\"op\":\"depart\",\"session\":1}",
    ] {
        let response = round_trip(&mut stream, &mut frames, line);
        assert_eq!(response_ok(&response), Some(true), "{response}");
    }
    let health = round_trip(
        &mut stream,
        &mut frames,
        "{\"kind\":\"introspect\",\"what\":\"health\"}",
    );
    assert_eq!(
        response_u64(&health, "log_write_failures"),
        Some(2),
        "{health}"
    );

    let report = server.shutdown();
    assert_eq!(report.commit_log.lines().len(), 3);
    assert_eq!(report.commit_log.write_failures(), 2);
    assert_eq!(report.stats.log_write_failures, 2);
    let stats_line = report.stats.to_json_line();
    assert!(
        stats_line.contains("\"log_write_failures\":2"),
        "{stats_line}"
    );
    let replay = replay_commit_log(
        &example_platform(),
        ServiceConfig::default(),
        report.commit_log.lines().iter().map(String::as_str),
    )
    .expect("the in-memory log replays");
    assert_eq!(replay.residual_digest(), report.residual_digest());
}

/// Three admissions logged, the last line cut in half as by a crash
/// mid-write, and the service that executed only the first two.
fn log_with_a_torn_line(torn: usize) -> (Vec<String>, AllocationService) {
    let arch = example_platform();
    let admit = || ServiceRequest::Admit {
        app: Box::new(paper_example()),
    };
    let mut log = CommitLog::new();
    let mut prefix = AllocationService::new(&arch);
    for _ in 0..3 {
        log.append(&admit());
    }
    for _ in 0..2 {
        prefix.execute_request(admit());
    }
    let mut lines = log.lines().to_vec();
    let line = &mut lines[torn];
    line.truncate(line.len() / 2);
    (lines, prefix)
}

#[test]
fn a_torn_last_commit_record_replays_to_the_prefix() {
    let (lines, prefix) = log_with_a_torn_line(2);
    let replay = replay_commit_log(
        &example_platform(),
        ServiceConfig::default(),
        lines.iter().map(String::as_str).chain(["", "  "]),
    )
    .expect("a torn last record is skipped");
    assert_eq!(replay.residual_digest(), prefix.residual_digest());
}

#[test]
fn a_torn_middle_commit_record_still_fails_at_its_line() {
    let (lines, _) = log_with_a_torn_line(1);
    let err = replay_commit_log(
        &example_platform(),
        ServiceConfig::default(),
        lines.iter().map(String::as_str),
    )
    .expect_err("only the last record may be torn");
    assert_eq!(err.line, Some(2));
    assert_eq!(err.field, None);
    // A field error is no torn tail, even on the last line.
    let bad_field = r#"{"op":"admit","example":"no_such_app"}"#;
    let err = replay_commit_log(
        &example_platform(),
        ServiceConfig::default(),
        [lines[0].as_str(), bad_field],
    )
    .expect_err("a field error on the last line fails the replay");
    assert_eq!((err.line, err.field), (Some(2), Some("example")));
}
