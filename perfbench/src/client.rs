//! A minimal keep-alive HTTP/1.1 client for the load generator.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest wait for a response before the request counts as timed out.
const TIMEOUT: Duration = Duration::from_secs(30);

pub struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A response: status code, body, and whether the server closed the
/// connection after it.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
    pub closed: bool,
}

impl Connection {
    pub fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Connection { stream, reader })
    }

    /// Send one request and read its response, framed by Content-Length.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        close: bool,
    ) -> std::io::Result<Response> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}\r\n",
            body.len(),
            if close { "Connection: close\r\n" } else { "" }
        );
        let mut message = head.into_bytes();
        message.extend_from_slice(body.as_bytes());
        self.stream.write_all(&message)?;

        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a response",
            ));
        }
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let mut content_length = 0usize;
        let mut closed = close;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header)?;
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                } else if name.eq_ignore_ascii_case("connection") {
                    closed |= value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let mut raw = vec![0u8; content_length];
        self.reader.read_exact(&mut raw)?;
        let body = String::from_utf8(raw)
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "body not UTF-8"))?;
        Ok(Response {
            status,
            body,
            closed,
        })
    }
}
