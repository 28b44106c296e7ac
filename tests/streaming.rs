//! End-to-end tests for the streaming subsystem's serving layer: a real
//! [`Server`] on a loopback port, driven over TCP exactly like the CI
//! smoke client drives the `serve` binary.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use even_cycle_congest::engine::RunProfile;
use even_cycle_congest::serve::{ServeConfig, Server};

/// One blocking request/response exchange on an open connection.
fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, request: &str) -> String {
    stream
        .write_all(format!("{request}\n").as_bytes())
        .expect("request written");
    stream.flush().expect("request flushed");
    let mut line = String::new();
    reader.read_line(&mut line).expect("response read");
    assert!(line.ends_with('\n'), "responses are newline-terminated");
    line.trim_end().to_string()
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

#[test]
fn serve_handles_concurrent_connections_dedups_and_shuts_down_cleanly() {
    let dir = std::env::temp_dir().join(format!("ec-serve-tcp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig::new(RunProfile::FastCi, 2)
        .store(&dir)
        .max_inflight(2);
    let server = Server::bind(("127.0.0.1", 0), &config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = std::thread::spawn(move || server.run());

    // Load a snapshot once, then detect from TWO concurrent
    // connections — identical requests, so whatever interleaving the
    // threads produce, every response must be the same byte-identical
    // verdict line.
    let detect = "{\"op\":\"detect\",\"name\":\"g\",\"detector\":\"global-threshold\",\"seed\":5}";
    {
        let (mut s, mut r) = connect(addr);
        let resp = roundtrip(&mut s, &mut r, "{\"op\":\"ping\"}");
        assert_eq!(resp, "{\"ok\":true,\"op\":\"ping\"}");
        let resp = roundtrip(
            &mut s,
            &mut r,
            "{\"op\":\"load\",\"name\":\"g\",\"family\":\"planted:4\",\"n\":24,\"seed\":3}",
        );
        assert!(resp.starts_with("{\"ok\":true"), "{resp}");
    }
    let lines: Vec<String> = {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(move || {
                    let (mut s, mut r) = connect(addr);
                    let a = roundtrip(&mut s, &mut r, detect);
                    let b = roundtrip(&mut s, &mut r, detect);
                    [a, b]
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker joins"))
            .collect()
    };
    assert_eq!(lines.len(), 4);
    for line in &lines {
        assert!(line.starts_with("{\"ok\":true,\"op\":\"detect\""), "{line}");
        assert_eq!(
            line, &lines[0],
            "identical requests must return byte-identical verdict lines"
        );
    }

    // Of the 4 identical requests, exactly one executed a detector; the
    // rest replayed from the content-addressed store.
    let (mut s, mut r) = connect(addr);
    let stats = roundtrip(&mut s, &mut r, "{\"op\":\"stats\",\"name\":\"g\"}");
    assert!(stats.contains("\"detects\":4"), "{stats}");
    assert!(stats.contains("\"executed\":1"), "{stats}");
    assert!(stats.contains("\"replayed\":3"), "{stats}");

    // Update-then-detect: the edge insert moves the graph's content
    // fingerprint, so the same detect request executes afresh instead
    // of replaying the stale verdict.
    let resp = roundtrip(
        &mut s,
        &mut r,
        "{\"op\":\"update\",\"name\":\"g\",\"action\":\"insert\",\"u\":0,\"v\":11}",
    );
    assert!(resp.starts_with("{\"ok\":true,\"op\":\"update\""), "{resp}");
    let after_update = roundtrip(&mut s, &mut r, detect);
    assert!(after_update.starts_with("{\"ok\":true"), "{after_update}");
    let stats = roundtrip(&mut s, &mut r, "{\"op\":\"stats\",\"name\":\"g\"}");
    assert!(stats.contains("\"executed\":2"), "{stats}");
    assert!(stats.contains("\"updates\":1"), "{stats}");

    // And the updated graph's verdict dedups too.
    let dup = roundtrip(&mut s, &mut r, detect);
    assert_eq!(after_update, dup);

    // Clean shutdown: acknowledged on the wire, the accept loop drains,
    // run() returns Ok.
    let bye = roundtrip(&mut s, &mut r, "{\"op\":\"shutdown\"}");
    assert_eq!(bye, "{\"ok\":true,\"op\":\"shutdown\"}");
    drop((s, r));
    server_thread
        .join()
        .expect("server thread joins")
        .expect("clean shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_reports_errors_inline_and_keeps_the_connection() {
    let config = ServeConfig::new(RunProfile::FastCi, 2);
    let server = Server::bind(("127.0.0.1", 0), &config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = std::thread::spawn(move || server.run());

    let (mut s, mut r) = connect(addr);
    let resp = roundtrip(
        &mut s,
        &mut r,
        "{\"op\":\"detect\",\"name\":\"missing\",\"detector\":\"global-threshold\"}",
    );
    assert!(resp.starts_with("{\"ok\":false"), "{resp}");
    assert!(resp.contains("no snapshot"), "{resp}");
    // The same connection still serves after an error line.
    let resp = roundtrip(&mut s, &mut r, "{\"op\":\"ping\"}");
    assert_eq!(resp, "{\"ok\":true,\"op\":\"ping\"}");
    let bye = roundtrip(&mut s, &mut r, "{\"op\":\"shutdown\"}");
    assert_eq!(bye, "{\"ok\":true,\"op\":\"shutdown\"}");
    drop((s, r));
    server_thread.join().unwrap().unwrap();
}

#[test]
fn serve_cuts_off_a_request_line_that_never_ends() {
    let config = ServeConfig::new(RunProfile::FastCi, 2);
    let server = Server::bind(("127.0.0.1", 0), &config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = std::thread::spawn(move || server.run());

    // 1 MiB without a newline: the server reads past its 64 KiB cap
    // only far enough to tell, answers once, and hangs up. The write
    // may fail part-way once it has, which is the point.
    let (mut s, mut r) = connect(addr);
    // Without the cap the server would wait for the newline forever.
    s.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("timeout set");
    let _ = s.write_all(&vec![b'x'; 1 << 20]);
    let mut line = String::new();
    r.read_line(&mut line).expect("error line read");
    assert_eq!(
        line,
        "{\"ok\":false,\"op\":\"?\",\"error\":\"request line too long\"}\n"
    );
    line.clear();
    assert_eq!(
        r.read_line(&mut line).unwrap_or(0),
        0,
        "then the server closes"
    );
    drop((s, r));

    // The server itself is unharmed: a new connection still answers.
    let (mut s, mut r) = connect(addr);
    let resp = roundtrip(&mut s, &mut r, "{\"op\":\"ping\"}");
    assert_eq!(resp, "{\"ok\":true,\"op\":\"ping\"}");
    let bye = roundtrip(&mut s, &mut r, "{\"op\":\"shutdown\"}");
    assert_eq!(bye, "{\"ok\":true,\"op\":\"shutdown\"}");
    drop((s, r));
    server_thread.join().unwrap().unwrap();
}

#[test]
fn serve_answers_a_request_that_is_not_utf8_and_keeps_the_connection() {
    let config = ServeConfig::new(RunProfile::FastCi, 2);
    let server = Server::bind(("127.0.0.1", 0), &config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = std::thread::spawn(move || server.run());

    let (mut s, mut r) = connect(addr);
    s.write_all(b"{\"op\":\"p\xffng\"}\n")
        .expect("request written");
    let mut line = String::new();
    r.read_line(&mut line).expect("error line read");
    assert_eq!(
        line,
        "{\"ok\":false,\"op\":\"?\",\"error\":\"request is not UTF-8\"}\n"
    );
    let resp = roundtrip(&mut s, &mut r, "{\"op\":\"ping\"}");
    assert_eq!(resp, "{\"ok\":true,\"op\":\"ping\"}");
    let bye = roundtrip(&mut s, &mut r, "{\"op\":\"shutdown\"}");
    assert_eq!(bye, "{\"ok\":true,\"op\":\"shutdown\"}");
    drop((s, r));
    server_thread.join().unwrap().unwrap();
}

/// The `key` field of a detect verdict line.
fn key_of(line: &str) -> &str {
    let start = line
        .find("\"key\":\"")
        .expect("a detect line carries its key")
        + 7;
    &line[start..start + 32]
}

#[test]
fn serve_keys_stay_fresh_while_an_edge_toggles_under_concurrent_detects() {
    let dir = std::env::temp_dir().join(format!("ec-serve-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig::new(RunProfile::FastCi, 2).store(&dir);
    let server = Server::bind(("127.0.0.1", 0), &config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = std::thread::spawn(move || server.run());

    let detect = "{\"op\":\"detect\",\"name\":\"g\",\"detector\":\"global-threshold\",\"seed\":5}";
    let (mut s, mut r) = connect(addr);
    let resp = roundtrip(
        &mut s,
        &mut r,
        "{\"op\":\"load\",\"name\":\"g\",\"family\":\"planted:4\",\"n\":24,\"seed\":3}",
    );
    assert!(resp.starts_with("{\"ok\":true"), "{resp}");
    let first = roundtrip(&mut s, &mut r, detect);
    assert!(
        first.starts_with("{\"ok\":true,\"op\":\"detect\""),
        "{first}"
    );

    // One client toggles (0, 11) 200 times, starting with the insert,
    // while another detects 200 times.
    let toggler = std::thread::spawn(move || {
        let (mut s, mut r) = connect(addr);
        (0..200)
            .map(|i| {
                let action = if i % 2 == 0 { "insert" } else { "delete" };
                roundtrip(
                    &mut s,
                    &mut r,
                    &format!(
                        "{{\"op\":\"update\",\"name\":\"g\",\"action\":\"{action}\",\"u\":0,\"v\":11}}"
                    ),
                )
            })
            .collect::<Vec<_>>()
    });
    let detector = std::thread::spawn(move || {
        let (mut s, mut r) = connect(addr);
        (0..200)
            .map(|_| roundtrip(&mut s, &mut r, detect))
            .collect::<Vec<_>>()
    });
    for line in toggler.join().expect("toggler joins") {
        assert!(
            line.starts_with("{\"ok\":true,\"op\":\"update\"") && line.contains("\"applied\":true"),
            "{line}"
        );
    }
    for line in detector.join().expect("detector joins") {
        assert!(line.starts_with("{\"ok\":true,\"op\":\"detect\""), "{line}");
    }

    // The toggles end on the delete: the graph is the first one again,
    // and so is its key.
    let last = roundtrip(&mut s, &mut r, detect);
    assert_eq!(key_of(&last), key_of(&first));
    assert_eq!(last, first);

    let bye = roundtrip(&mut s, &mut r, "{\"op\":\"shutdown\"}");
    assert_eq!(bye, "{\"ok\":true,\"op\":\"shutdown\"}");
    drop((s, r));
    server_thread.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
