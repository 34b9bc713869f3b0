//! The benchmark's own HTTP/1.1 client: one keep-alive `TcpStream` per
//! load-generator thread, so the front door is measured without any of
//! the product's client code in the way.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

pub struct Connection {
    stream: TcpStream,
    host: String,
    /// Bytes read past the end of the previous response.
    buf: Vec<u8>,
}

fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

impl Connection {
    pub fn open(addr: SocketAddr) -> io::Result<Connection> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Connection {
            stream,
            host: addr.to_string(),
            buf: Vec::new(),
        })
    }

    /// `POST /sparql` with the query as the body, asking for SPARQL JSON.
    pub fn post_query(&mut self, query: &str, client_id: &str) -> io::Result<Response> {
        let head = format!(
            "POST /sparql HTTP/1.1\r\nHost: {}\r\nContent-Type: application/sparql-query\r\n\
             Accept: application/sparql-results+json\r\nX-Client-Id: {client_id}\r\n\
             Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            self.host,
            query.len()
        );
        let mut request = head.into_bytes();
        request.extend_from_slice(query.as_bytes());
        self.stream.write_all(&request)?;
        self.read_response()
    }

    /// `GET <target>` (already percent-encoded).
    pub fn get(&mut self, target: &str) -> io::Result<Response> {
        let request = format!(
            "GET {target} HTTP/1.1\r\nHost: {}\r\nAccept: application/sparql-results+json\r\n\
             Connection: keep-alive\r\n\r\n",
            self.host
        );
        self.stream.write_all(request.as_bytes())?;
        self.read_response()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            )),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }

    /// Remove and return `buf[..n]`, reading more until it is there.
    fn take(&mut self, n: usize) -> io::Result<Vec<u8>> {
        while self.buf.len() < n {
            self.fill()?;
        }
        let rest = self.buf.split_off(n);
        Ok(std::mem::replace(&mut self.buf, rest))
    }

    /// Remove and return everything up to and including `delimiter`.
    fn take_through(&mut self, delimiter: &[u8]) -> io::Result<Vec<u8>> {
        let mut searched = 0;
        loop {
            if let Some(at) = self.buf[searched..]
                .windows(delimiter.len())
                .position(|w| w == delimiter)
            {
                return self.take(searched + at + delimiter.len());
            }
            searched = self.buf.len().saturating_sub(delimiter.len() - 1);
            self.fill()?;
        }
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let head = self.take_through(b"\r\n\r\n")?;
        let head = String::from_utf8(head).map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = None;
        let mut chunked = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad("bad Content-Length"))?,
                );
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            }
        }
        let body = if chunked {
            let mut body = Vec::new();
            loop {
                let line = self.take_through(b"\r\n")?;
                let size = std::str::from_utf8(&line[..line.len() - 2])
                    .ok()
                    .and_then(|s| usize::from_str_radix(s.split(';').next()?.trim(), 16).ok())
                    .ok_or_else(|| bad("bad chunk size"))?;
                if size == 0 {
                    // No trailers are sent; the terminating blank line follows.
                    self.take_through(b"\r\n")?;
                    break body;
                }
                body.extend_from_slice(&self.take(size)?);
                self.take(2)?;
            }
        } else {
            self.take(length.ok_or_else(|| bad("response has neither length nor chunking"))?)?
        };
        Ok(Response { status, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serve `raw` once per request line group on one accepted connection.
    fn canned(responses: Vec<&'static [u8]>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut sink = [0u8; 4096];
            for r in responses {
                let _ = s.read(&mut sink).unwrap();
                // Dribble the response to exercise partial reads.
                for piece in r.chunks(7) {
                    s.write_all(piece).unwrap();
                    s.flush().unwrap();
                }
            }
        });
        addr
    }

    #[test]
    fn reads_sized_and_chunked_bodies_on_one_connection() {
        let addr = canned(vec![
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nwiki\r\n6\r\npedia!\r\n0\r\n\r\n",
            b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n",
        ]);
        let mut c = Connection::open(addr).unwrap();
        let r = c.get("/a").unwrap();
        assert_eq!((r.status, r.body.as_slice()), (200, &b"hello"[..]));
        let r = c.post_query("ASK {}", "t").unwrap();
        assert_eq!((r.status, r.body.as_slice()), (200, &b"wikipedia!"[..]));
        let r = c.get("/b").unwrap();
        assert_eq!((r.status, r.body.len()), (503, 0));
    }
}
