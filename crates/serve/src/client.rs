//! A blocking client for the facepoint service protocol.
//!
//! Written strictly against `docs/PROTOCOL.md`: every method is one
//! request/response exchange (plus the table frames of a batch), and
//! reply bodies are parsed by the field grammar of §4 — nothing here
//! reaches into server internals.

use crate::proto::{self, ProtoError, Status, MAX_BATCH, PROTO_VERSION};
use facepoint_core::wire::Record;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// What the server announced in its `HELLO` reply.
#[derive(Debug, Clone)]
pub struct ServerInfo {
    /// Protocol version the server speaks (equals [`PROTO_VERSION`]
    /// after a successful handshake).
    pub version: u32,
    /// Display form of the engine's signature set.
    pub set: String,
    /// Worker threads behind the engine.
    pub workers: usize,
    /// Whether the census is journaled to disk (so it survives a
    /// server restart).
    pub persistent: bool,
    /// The engine's resolution tier (`"digest"` or `"certified"`);
    /// empty when an older server omits the field.
    pub resolution: String,
}

/// One `SNAPSHOT` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSnapshot {
    /// Functions the server has accepted over all connections.
    pub submitted: u64,
    /// Functions classified so far.
    pub processed: u64,
    /// Candidate classes discovered so far.
    pub classes: u64,
    /// `submitted - processed`: queued or in-flight functions.
    pub backlog: u64,
}

/// One class line of a `TOP` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopClass {
    /// The class's 128-bit signature digest.
    pub key: u128,
    /// Members counted so far (cumulative across server restarts for a
    /// persistent census).
    pub size: u64,
    /// The representative, as the spec's `n:hex` table literal.
    pub representative: String,
}

/// One `CANON` reply: the proved class entry plus the witness
/// transform mapping the queried table onto the representative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonReply {
    /// FNV-128 digest of the proved canonical representative.
    pub key: u128,
    /// Members the server has counted for the class (`0` on a
    /// digest-mode server, or for a class it has not seen).
    pub size: u64,
    /// The proved representative, as the spec's `n:hex` table literal.
    pub representative: String,
    /// The witness permutation: output variable `i` of the transform
    /// reads input variable `perm[i]` of the query.
    pub perm: Vec<u8>,
    /// Input-negation mask of the witness (bit `i` negates variable
    /// `i` of the query).
    pub neg: u16,
    /// Whether the witness negates the output.
    pub out: bool,
}

/// A connected, greeted protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    info: ServerInfo,
}

impl Client {
    /// Connects to `addr` and performs the `HELLO` handshake.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`ProtoError::Remote`] with `EVERSION`
    /// when the server speaks a different protocol version.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ProtoError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = Client {
            reader,
            writer: BufWriter::new(stream),
            info: ServerInfo {
                version: 0,
                set: String::new(),
                workers: 0,
                persistent: false,
                resolution: String::new(),
            },
        };
        let body = client.exchange(&format!("HELLO {PROTO_VERSION}"))?;
        client.info = parse_server_info(&body)?;
        Ok(client)
    }

    /// What the server announced at handshake time.
    pub fn server_info(&self) -> &ServerInfo {
        &self.info
    }

    /// `PING` — liveness check.
    ///
    /// # Errors
    ///
    /// Transport or remote failures.
    pub fn ping(&mut self) -> Result<(), ProtoError> {
        self.exchange("PING").map(|_| ())
    }

    /// `SUBMIT <table>` — one table literal (`hex` or `n:hex`);
    /// returns its submission number.
    ///
    /// # Errors
    ///
    /// `ETABLE` for a malformed literal; transport failures.
    pub fn submit(&mut self, table: &str) -> Result<u64, ProtoError> {
        let body = self.exchange(&format!("SUBMIT {table}"))?;
        parse_field(&body, "seq")
    }

    /// `SUBMIT-BATCH` — streams `tables` as one atomic batch; returns
    /// `(first submission number, count)`.
    ///
    /// At most [`MAX_BATCH`] literals per call (the spec's cap);
    /// larger iterators should be chunked by the caller (the
    /// `facepoint client` subcommand chunks at 4096).
    ///
    /// # Errors
    ///
    /// `EUSAGE`/`ETABLE` from the server; transport failures. A
    /// rejected batch submits nothing.
    pub fn submit_batch<'a>(
        &mut self,
        tables: impl IntoIterator<Item = &'a str>,
    ) -> Result<(u64, u64), ProtoError> {
        let tables: Vec<&str> = tables.into_iter().collect();
        let n = tables.len() as u64;
        if n > MAX_BATCH {
            return Err(ProtoError::Malformed(format!(
                "batch of {n} exceeds the {MAX_BATCH} cap; chunk it"
            )));
        }
        proto::write_request(&mut self.writer, &format!("SUBMIT-BATCH {n}"))?;
        for t in tables {
            proto::write_request(&mut self.writer, t)?;
        }
        self.writer.flush()?;
        let body = self.read_ok()?;
        Ok((parse_field(&body, "first")?, parse_field(&body, "count")?))
    }

    /// `SNAPSHOT` — the census counters, mid-stream.
    ///
    /// # Errors
    ///
    /// Transport or remote failures.
    pub fn snapshot(&mut self) -> Result<ServeSnapshot, ProtoError> {
        let body = self.exchange("SNAPSHOT")?;
        Ok(ServeSnapshot {
            submitted: parse_field(&body, "submitted")?,
            processed: parse_field(&body, "processed")?,
            classes: parse_field(&body, "classes")?,
            backlog: parse_field(&body, "backlog")?,
        })
    }

    /// `TOP <k>` — the `k` largest classes, largest first.
    ///
    /// # Errors
    ///
    /// Transport or remote failures; a reply violating the §4.7 line
    /// grammar is [`ProtoError::Malformed`].
    pub fn top(&mut self, k: usize) -> Result<Vec<TopClass>, ProtoError> {
        let body = self.exchange(&format!("TOP {k}"))?;
        let mut lines = body.lines();
        let count: u64 = parse_field(lines.next().unwrap_or(""), "classes")?;
        // Grown from the lines received, never sized by the announced
        // count: that comes off the wire and may be any u64.
        let mut out = Vec::new();
        for line in lines {
            let mut fields = line.split(' ');
            let (key, size, rep) = match (fields.next(), fields.next(), fields.next()) {
                (Some(k), Some(s), Some(r)) if fields.next().is_none() => (k, s, r),
                _ => {
                    return Err(ProtoError::Malformed(format!(
                        "TOP line {line:?} is not `key size rep`"
                    )))
                }
            };
            out.push(TopClass {
                key: u128::from_str_radix(key, 16)
                    .map_err(|_| ProtoError::Malformed(format!("bad class key {key:?}")))?,
                size: size
                    .parse()
                    .map_err(|_| ProtoError::Malformed(format!("bad class size {size:?}")))?,
                representative: rep.to_string(),
            });
        }
        if out.len() as u64 != count {
            return Err(ProtoError::Malformed(format!(
                "TOP announced {count} classes, sent {}",
                out.len()
            )));
        }
        Ok(out)
    }

    /// `CANON <table>` — the proved canonical representative of the
    /// table's NPN class, with the witness transform and (on a
    /// certified server that has seen the class) its member count.
    ///
    /// # Errors
    ///
    /// `ETABLE` for a malformed literal; transport failures; a reply
    /// violating the §4.8 field grammar is [`ProtoError::Malformed`].
    pub fn canon(&mut self, table: &str) -> Result<CanonReply, ProtoError> {
        let body = self.exchange(&format!("CANON {table}"))?;
        let key: String = parse_field(&body, "key")?;
        let perm_csv: String = parse_field(&body, "perm")?;
        let mut perm = Vec::new();
        for part in perm_csv.split(',').filter(|p| !p.is_empty()) {
            perm.push(part.parse().map_err(|_| {
                ProtoError::Malformed(format!("bad witness permutation {perm_csv:?}"))
            })?);
        }
        Ok(CanonReply {
            key: u128::from_str_radix(&key, 16)
                .map_err(|_| ProtoError::Malformed(format!("bad class key {key:?}")))?,
            size: parse_field(&body, "size")?,
            representative: parse_field(&body, "representative")?,
            perm,
            neg: parse_field(&body, "neg")?,
            out: parse_field::<u8>(&body, "out")? != 0,
        })
    }

    /// `STATS` — the server's one-line engine statistics report.
    ///
    /// # Errors
    ///
    /// Transport or remote failures.
    pub fn stats(&mut self) -> Result<String, ProtoError> {
        self.exchange("STATS")
    }

    /// `FLUSH` — for a persistent census, issues an epoch barrier
    /// (everything classified before the call is crash-durable when it
    /// returns). Returns the server's cumulative barrier count (0 for
    /// an in-memory census).
    ///
    /// # Errors
    ///
    /// Transport or remote failures.
    pub fn flush(&mut self) -> Result<u64, ProtoError> {
        let body = self.exchange("FLUSH")?;
        parse_field(&body, "epochs")
    }

    /// Issues one `FLUSH`, polls `SNAPSHOT` until the backlog is zero
    /// — every submission acknowledged so far is classified — then
    /// issues a second `FLUSH` so that, on a persistent server,
    /// everything just waited for is also inside an epoch barrier:
    /// when this returns, the caller's work is classified *and*
    /// crash-durable.
    ///
    /// # Errors
    ///
    /// `TimedOut` (as [`ProtoError::Io`]) if the backlog stayed
    /// positive; transport or remote failures.
    pub fn wait_drained(&mut self, timeout: Duration) -> Result<ServeSnapshot, ProtoError> {
        self.flush()?;
        let deadline = Instant::now() + timeout;
        loop {
            let snap = self.snapshot()?;
            if snap.backlog == 0 {
                // The first FLUSH's barrier ran *before* these
                // functions finished classifying; a closing barrier
                // makes the drained state itself durable.
                self.flush()?;
                return Ok(snap);
            }
            if Instant::now() >= deadline {
                return Err(ProtoError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("backlog still {} after {timeout:?}", snap.backlog),
                )));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// `METRICS` — the server's full telemetry scrape as the §4.12
    /// text exposition: one `name SP value` line per series, each
    /// LF-terminated, names sorted. Counter and histogram-bucket
    /// values are integers; gauges are decimal. The scrape spans all
    /// three layers (`engine_*`, `store_*`, `serve_*`).
    ///
    /// # Errors
    ///
    /// Transport or remote failures.
    pub fn metrics(&mut self) -> Result<String, ProtoError> {
        self.exchange("METRICS")
    }

    /// `QUIT` — says goodbye and closes the connection.
    ///
    /// # Errors
    ///
    /// Transport or remote failures.
    pub fn quit(mut self) -> Result<(), ProtoError> {
        self.exchange("QUIT").map(|_| ())
    }

    /// One request/response round trip, expecting `OK`.
    fn exchange(&mut self, line: &str) -> Result<String, ProtoError> {
        proto::write_request(&mut self.writer, line)?;
        self.writer.flush()?;
        self.read_ok()
    }

    fn read_ok(&mut self) -> Result<String, ProtoError> {
        match proto::read_record(&mut self.reader)? {
            Some(Record::Response { status: 0, body }) => Ok(body),
            Some(Record::Response { status, body }) => Err(ProtoError::Remote {
                status: Status::from_code(status),
                message: body,
            }),
            Some(_) => Err(ProtoError::Malformed(
                "server sent a non-response frame".into(),
            )),
            None => Err(ProtoError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            ))),
        }
    }
}

/// Pulls `key=<u64>`-style fields out of a space-separated reply body.
fn parse_field<T: std::str::FromStr>(body: &str, key: &str) -> Result<T, ProtoError> {
    body.split_whitespace()
        .find_map(|pair| pair.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ProtoError::Malformed(format!("no {key}= field in {body:?}")))
}

fn parse_server_info(body: &str) -> Result<ServerInfo, ProtoError> {
    let mut words = body.split(' ');
    if words.next() != Some("facepoint") {
        return Err(ProtoError::Malformed(format!(
            "unexpected HELLO banner {body:?}"
        )));
    }
    let version = words
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ProtoError::Malformed(format!("no version in {body:?}")))?;
    Ok(ServerInfo {
        version,
        set: body
            .split_whitespace()
            .find_map(|p| p.strip_prefix("set="))
            .unwrap_or("")
            .to_string(),
        workers: parse_field(body, "workers").unwrap_or(0),
        persistent: body.split_whitespace().any(|p| p == "persistent=true"),
        resolution: body
            .split_whitespace()
            .find_map(|p| p.strip_prefix("resolution="))
            .unwrap_or("")
            .to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_grammar() {
        assert_eq!(parse_field::<u64>("seq=17", "seq").unwrap(), 17);
        assert_eq!(parse_field::<u64>("first=3 count=9", "count").unwrap(), 9);
        assert!(parse_field::<u64>("first=3", "seq").is_err());
        assert!(parse_field::<u64>("seq=abc", "seq").is_err());
    }

    #[test]
    fn hello_banner_grammar() {
        let info = parse_server_info(
            "facepoint 1 set=OCV1+OCV2+OIV+OSV+OSDV workers=8 persistent=true \
             resolution=certified",
        )
        .unwrap();
        assert_eq!(info.version, 1);
        assert_eq!(info.set, "OCV1+OCV2+OIV+OSV+OSDV");
        assert_eq!(info.workers, 8);
        assert!(info.persistent);
        assert_eq!(info.resolution, "certified");
        // A banner without the field (an older server) still parses.
        let bare = parse_server_info("facepoint 1 set=OIV workers=2 persistent=false").unwrap();
        assert_eq!(bare.resolution, "");
        assert!(parse_server_info("nginx 1.2").is_err());
    }

    /// A `TOP` reply announcing 2^64 − 1 classes is a malformed reply,
    /// not an allocation of that many entries.
    #[test]
    fn top_count_from_the_wire_sizes_nothing() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            for body in [
                format!("facepoint {PROTO_VERSION} set=OIV workers=1 persistent=false"),
                format!(
                    "classes={}\n00000000000000000000000000000001 3 3:e8",
                    u64::MAX
                ),
            ] {
                proto::read_record(&mut reader).unwrap().expect("a request");
                proto::write_response(&mut writer, Status::Ok, &body).unwrap();
                writer.flush().unwrap();
            }
        });
        let mut client = Client::connect(addr).unwrap();
        match client.top(1) {
            Err(ProtoError::Malformed(msg)) => assert!(msg.contains("announced"), "{msg}"),
            other => panic!("expected a malformed-reply error, got {other:?}"),
        }
        server.join().unwrap();
    }
}
