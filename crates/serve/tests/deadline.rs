//! The whole-request deadline: a request must arrive within the server's
//! 10 s read budget counted from its first byte, however steadily its
//! bytes trickle in, and the handler it held serves again afterwards.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use autotype_serve::{serve, DetectorRuntime, ServerConfig};

/// The server's `READ_TIMEOUT` (`src/http.rs`).
const READ_TIMEOUT: Duration = Duration::from_secs(10);

#[test]
fn trickled_headers_get_408_at_the_deadline() {
    // One handler: the `/healthz` below needs the one the trickle held.
    let handle = serve(
        Arc::new(DetectorRuntime::from_packs(vec![], 1, 16)),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    let start = Instant::now();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nX-Slow: ")
        .unwrap();
    // One header byte a second, never ending the line; each one-second
    // read timeout paces the next byte.
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let limit = READ_TIMEOUT + Duration::from_secs(3);
    let mut response = Vec::new();
    let mut chunk = [0u8; 1024];
    while start.elapsed() < limit {
        match stream.read(&mut chunk) {
            Ok(n) if n > 0 => response.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // The server may have closed already; the read reports it.
                let _ = stream.write_all(b"a");
            }
            // End of input, or a reset after the server closed.
            _ => break,
        }
    }
    let elapsed = start.elapsed();
    let response = String::from_utf8_lossy(&response);
    assert!(
        response.starts_with("HTTP/1.1 408 "),
        "after {elapsed:?}: {response:?}"
    );
    assert!(elapsed < limit, "408 after {elapsed:?}");
    assert!(
        elapsed >= READ_TIMEOUT - Duration::from_millis(100),
        "408 before the deadline, after {elapsed:?}"
    );

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read /healthz");
    assert!(raw.starts_with("HTTP/1.1 200 "), "{raw:?}");
    handle.shutdown();
}
