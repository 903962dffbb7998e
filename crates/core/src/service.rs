//! A line-oriented request/response protocol over the snapshot query
//! service, plus a small TCP server driving it with a worker-thread pool.
//!
//! The protocol is deliberately trivial — one request per line, one JSON
//! object per response line — so load generators and shell tools can speak
//! it without a client library:
//!
//! | request                         | effect                                           |
//! |---------------------------------|--------------------------------------------------|
//! | `PING`                          | liveness check                                   |
//! | `EPOCH`                         | current epoch number + instance fingerprint      |
//! | `STATS`                         | cache statistics of the current snapshot         |
//! | `QUERY <carl query text>`       | answer on a consistent snapshot                  |
//! | `COMMIT <spec>; <spec>; …`      | apply a mutation batch, install the next epoch   |
//! | `QUIT`                          | close this connection                            |
//! | `SHUTDOWN`                      | stop the whole server (responds first)           |
//!
//! Mutation specs (for `COMMIT`) are whitespace-separated words:
//! `entity <Entity> <key>`, `insert <Rel> <v>…`, `delete <Rel> <v>…`,
//! `set <Attr> <key>… <value>` (value last) and `clear <Attr> <key>…`.
//! Values parse as `true`/`false`, integer, float, or fall back to string;
//! `null` parses as the null value. Words that parse as **non-finite**
//! floats (`nan`, `inf`, `-inf`, overflowing literals like `1e999`) are
//! rejected with a protocol error before any mutation is applied, so no
//! epoch ever holds a non-finite cell.
//!
//! A request line longer than [`MAX_REQUEST_LINE_BYTES`] is answered with
//! a protocol error and the connection closes, so no client can grow server
//! memory without bound by withholding the newline. A `COMMIT` of more than
//! [`MAX_COMMIT_MUTATIONS`] specs is refused with a protocol error before
//! any spec is parsed, so no epoch is installed.
//!
//! Every `QUERY` response carries the epoch it was answered on and the
//! bit-exact [`crate::history::digest_answer`] digest, so a client can
//! record a history and validate the service with
//! [`crate::history::check_history`].

use crate::history::digest_answer;
use crate::snapshot::SnapshotEngine;
use reldb::{Mutation, Value};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread;

/// The longest request line the TCP server reads, in bytes, not counting
/// the newline.
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// The most mutation specs one `COMMIT` may carry. A larger batch is
/// answered with a protocol error and leaves the epoch where it was.
pub const MAX_COMMIT_MUTATIONS: usize = 10_000;

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn error_response(message: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", json_escape(message))
}

/// Parse one protocol value word.
///
/// Numeric words that parse as non-finite floats (`nan`, `inf`, `1e999`,
/// …) are rejected with a typed error instead of falling through to the
/// string case: a `NaN` cell would silently poison every aggregate fold
/// it reaches, and `to_bits`-based digests would then depend on which
/// NaN payload the platform produced it with. Rejecting at COMMIT parse
/// time keeps the instance finite by construction.
fn parse_value(word: &str) -> Result<Value, String> {
    match word {
        "null" => Ok(Value::Null),
        "true" => Ok(Value::Bool(true)),
        "false" => Ok(Value::Bool(false)),
        _ => {
            if let Ok(i) = word.parse::<i64>() {
                Ok(Value::Int(i))
            } else if let Ok(f) = word.parse::<f64>() {
                if f.is_finite() {
                    Ok(Value::Float(f))
                } else {
                    Err(format!(
                        "non-finite numeric value {word:?}: only finite floats are storable"
                    ))
                }
            } else {
                Ok(Value::Str(word.to_string()))
            }
        }
    }
}

/// Parse a slice of protocol value words, failing on the first bad word.
fn parse_values(words: &[&str]) -> Result<Vec<Value>, String> {
    words.iter().map(|w| parse_value(w)).collect()
}

/// Parse one `;`-separated mutation spec (see the module docs).
fn parse_mutation(spec: &str) -> Result<Mutation, String> {
    let words: Vec<&str> = spec.split_whitespace().collect();
    let usage = "expected 'entity <E> <key>', 'insert|delete <Rel> <v>..', \
                 'set <Attr> <key>.. <value>' or 'clear <Attr> <key>..'";
    match words.as_slice() {
        ["entity", entity, key] => Ok(Mutation::InsertEntity {
            entity: (*entity).to_string(),
            key: parse_value(key)?,
        }),
        ["insert", rel, args @ ..] if !args.is_empty() => Ok(Mutation::InsertRelationship {
            rel: (*rel).to_string(),
            tuple: parse_values(args)?,
        }),
        ["delete", rel, args @ ..] if !args.is_empty() => Ok(Mutation::DeleteRelationship {
            rel: (*rel).to_string(),
            tuple: parse_values(args)?,
        }),
        ["set", attr, args @ ..] => {
            // A slice pattern, not `split_last().expect(..)` — a `set`
            // spec with fewer than two trailing words is a protocol
            // error, never a panic in the serving thread.
            let [key @ .., value] = args else {
                return Err(format!("bad mutation spec {spec:?}: {usage}"));
            };
            if key.is_empty() {
                return Err(format!("bad mutation spec {spec:?}: {usage}"));
            }
            Ok(Mutation::SetAttribute {
                attr: (*attr).to_string(),
                key: parse_values(key)?,
                value: parse_value(value)?,
            })
        }
        ["clear", attr, args @ ..] if !args.is_empty() => Ok(Mutation::ClearAttribute {
            attr: (*attr).to_string(),
            key: parse_values(args)?,
        }),
        _ => Err(format!("bad mutation spec {spec:?}: {usage}")),
    }
}

/// Handle one protocol request line, returning one JSON response line
/// (without the trailing newline). Pure with respect to I/O — the TCP
/// layer and tests both call this.
pub fn handle_request(service: &SnapshotEngine, line: &str) -> String {
    let line = line.trim();
    let (command, rest) = match line.split_once(char::is_whitespace) {
        Some((c, r)) => (c, r.trim()),
        None => (line, ""),
    };
    match command.to_ascii_uppercase().as_str() {
        "PING" => "{\"ok\":true}".to_string(),
        "EPOCH" => {
            let snap = service.snapshot();
            format!(
                "{{\"ok\":true,\"epoch\":{},\"fingerprint\":\"{:016x}\"}}",
                snap.epoch(),
                snap.fingerprint()
            )
        }
        "STATS" => {
            let snap = service.snapshot();
            let (index, plans) = snap.engine().eval_cache_stats();
            format!(
                "{{\"ok\":true,\"epoch\":{},\"grounding_cache\":{},\
                 \"index_builds\":{},\"index_hits\":{},\
                 \"plan_hits\":{},\"plan_misses\":{},\"plan_entries\":{}}}",
                snap.epoch(),
                snap.engine().grounding_cache_len(),
                index.builds,
                index.hits,
                plans.hits,
                plans.misses,
                plans.entries
            )
        }
        "QUERY" if !rest.is_empty() => {
            let (epoch, result) = service.answer_str(rest);
            let digest = digest_answer(&result);
            match result {
                Ok(answer) => {
                    let headline = answer.headline();
                    let headline = if headline.is_finite() {
                        format!("{headline}")
                    } else {
                        "null".to_string()
                    };
                    format!(
                        "{{\"ok\":true,\"epoch\":{},\"headline\":{},\"digest\":\"{}\"}}",
                        epoch,
                        headline,
                        json_escape(&digest)
                    )
                }
                Err(e) => format!(
                    "{{\"ok\":false,\"epoch\":{},\"error\":\"{}\",\"digest\":\"{}\"}}",
                    epoch,
                    json_escape(&e.to_string()),
                    json_escape(&digest)
                ),
            }
        }
        "COMMIT" if !rest.is_empty() => {
            let specs = rest
                .split(';')
                .filter(|spec| !spec.trim().is_empty())
                .take(MAX_COMMIT_MUTATIONS + 1)
                .count();
            if specs > MAX_COMMIT_MUTATIONS {
                return error_response(&format!(
                    "COMMIT batch exceeds {MAX_COMMIT_MUTATIONS} mutations"
                ));
            }
            let mut mutations = Vec::with_capacity(specs);
            for spec in rest.split(';') {
                let spec = spec.trim();
                if spec.is_empty() {
                    continue;
                }
                match parse_mutation(spec) {
                    Ok(m) => mutations.push(m),
                    Err(e) => return error_response(&e),
                }
            }
            if mutations.is_empty() {
                return error_response("empty mutation batch");
            }
            match service.commit(&mutations) {
                Ok(snap) => format!(
                    "{{\"ok\":true,\"epoch\":{},\"fingerprint\":\"{:016x}\"}}",
                    snap.epoch(),
                    snap.fingerprint()
                ),
                Err(e) => error_response(&e.to_string()),
            }
        }
        "QUERY" => error_response("QUERY needs a query text"),
        "COMMIT" => error_response("COMMIT needs a mutation batch"),
        other => error_response(&format!("unknown command {other:?}")),
    }
}

/// Serve one accepted connection until `QUIT`, `SHUTDOWN`, EOF, an
/// oversized request line or an I/O error. On `SHUTDOWN`, sets the flag and
/// pokes the listener with a throw-away connection so its blocking `accept`
/// wakes up.
fn handle_connection(
    service: &SnapshotEngine,
    stream: TcpStream,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    let server_addr = stream.local_addr()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = Vec::new();
    loop {
        // Read at most one byte past the limit: enough to tell an
        // oversized line from one that ends exactly at it.
        line.clear();
        let limit = MAX_REQUEST_LINE_BYTES as u64 + 1;
        if (&mut reader).take(limit).read_until(b'\n', &mut line)? == 0 {
            break; // EOF
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        } else if line.len() > MAX_REQUEST_LINE_BYTES {
            let error = error_response(&format!(
                "request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"
            ));
            writer.write_all(error.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
            break;
        }
        let line = std::str::from_utf8(&line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.eq_ignore_ascii_case("QUIT") {
            break;
        }
        if trimmed.eq_ignore_ascii_case("SHUTDOWN") {
            shutdown.store(true, Ordering::SeqCst);
            writer.write_all(b"{\"ok\":true,\"shutdown\":true}\n")?;
            writer.flush()?;
            // Unblock the accept loop; it will observe the flag and exit.
            let _ = TcpStream::connect(server_addr);
            break;
        }
        let response = handle_request(service, trimmed);
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
    }
    Ok(())
}

/// Run the TCP server on `listener` with `workers` connection-handling
/// threads until a client sends `SHUTDOWN`. Every worker answers queries
/// through the same shared [`SnapshotEngine`], so concurrent clients get
/// snapshot-consistent answers while commits install new epochs.
pub fn serve(
    listener: TcpListener,
    service: Arc<SnapshotEngine>,
    workers: usize,
) -> std::io::Result<()> {
    let shutdown = Arc::new(AtomicBool::new(false));
    let (sender, receiver) = mpsc::channel::<TcpStream>();
    let receiver = Arc::new(Mutex::new(receiver));

    let mut handles = Vec::new();
    for _ in 0..workers.max(1) {
        let receiver = Arc::clone(&receiver);
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        handles.push(thread::spawn(move || loop {
            let next = receiver
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .recv();
            match next {
                Ok(stream) => {
                    // Connection-level I/O errors only kill that
                    // connection, never the worker.
                    let _ = handle_connection(&service, stream, &shutdown);
                }
                Err(_) => break, // sender dropped: server is stopping
            }
        }));
    }

    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                if sender.send(stream).is_err() {
                    break;
                }
            }
            Err(_) => continue,
        }
    }

    drop(sender);
    for handle in handles {
        let _ = handle.join();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldb::Instance;

    const REVIEW_RULES: &str = r#"
        Prestige[A]  <= Qualification[A]              WHERE Person(A)
        Quality[S]   <= Qualification[A], Prestige[A] WHERE Author(A, S)
        Score[S]     <= Prestige[A]                   WHERE Author(A, S)
        Score[S]     <= Quality[S]                    WHERE Submission(S)
        AVG_Score[A] <= Score[S]                      WHERE Author(A, S)
    "#;

    fn service() -> SnapshotEngine {
        SnapshotEngine::new(Instance::review_example(), REVIEW_RULES).unwrap()
    }

    #[test]
    fn protocol_round_trips_without_io() {
        let service = service();
        assert_eq!(handle_request(&service, "PING"), "{\"ok\":true}");
        assert_eq!(handle_request(&service, "ping"), "{\"ok\":true}");

        let epoch = handle_request(&service, "EPOCH");
        assert!(epoch.starts_with("{\"ok\":true,\"epoch\":0,"), "{epoch}");

        let commit = handle_request(
            &service,
            "COMMIT entity Person Dana; set Qualification Dana 30.0; \
             insert Author Dana s1; delete Author Dana s1",
        );
        assert!(commit.starts_with("{\"ok\":true,\"epoch\":1,"), "{commit}");

        // The query errors on 3 units (too few) but still reports its
        // epoch and a digest.
        let query = handle_request(&service, "QUERY AVG_Score[A] <= Prestige[A]?");
        assert!(query.starts_with("{\"ok\":false,\"epoch\":1,"), "{query}");
        assert!(query.contains("\"digest\":\"error: "), "{query}");

        let stats = handle_request(&service, "STATS");
        assert!(stats.contains("\"epoch\":1"), "{stats}");
        assert!(stats.contains("\"plan_hits\""), "{stats}");
    }

    #[test]
    fn malformed_requests_report_errors() {
        let service = service();
        for bad in [
            "FROBNICATE",
            "QUERY",
            "COMMIT",
            "COMMIT dance Person Dana",
            "COMMIT set Qualification",
            "COMMIT insert Author",
        ] {
            let resp = handle_request(&service, bad);
            assert!(resp.starts_with("{\"ok\":false,"), "{bad:?} -> {resp}");
        }
        // A commit that parses but fails validation leaves the epoch
        // unchanged and reports the engine's error.
        let resp = handle_request(&service, "COMMIT insert NoSuchRel a b");
        assert!(resp.starts_with("{\"ok\":false,"), "{resp}");
        assert_eq!(service.epoch(), 0);
    }

    #[test]
    fn oversized_commit_batches_are_refused_before_parsing() {
        let service = service();
        // One spec past the bound; the last one would not even parse, so
        // the refusal must come before any spec is parsed.
        let mut batch = vec!["set Score s1 0.5"; MAX_COMMIT_MUTATIONS];
        batch.push("dance Person Dana");
        let resp = handle_request(&service, &format!("COMMIT {}", batch.join("; ")));
        assert_eq!(
            resp,
            format!(
                "{{\"ok\":false,\"error\":\"COMMIT batch exceeds {MAX_COMMIT_MUTATIONS} mutations\"}}"
            )
        );
        assert_eq!(service.epoch(), 0);
        // Empty specs do not count, and a batch at the bound commits.
        batch.pop();
        let resp = handle_request(&service, &format!("COMMIT {};;", batch.join("; ")));
        assert!(resp.starts_with("{\"ok\":true,\"epoch\":1,"), "{resp}");
        assert_eq!(service.epoch(), 1);
    }

    #[test]
    fn values_parse_into_typed_mutations() {
        assert_eq!(
            parse_mutation("set Blind ConfX true").unwrap(),
            Mutation::SetAttribute {
                attr: "Blind".into(),
                key: vec![Value::Str("ConfX".into())],
                value: Value::Bool(true),
            }
        );
        assert_eq!(
            parse_mutation("set Score s1 0.75").unwrap(),
            Mutation::SetAttribute {
                attr: "Score".into(),
                key: vec![Value::Str("s1".into())],
                value: Value::Float(0.75),
            }
        );
        assert_eq!(
            parse_mutation("set Count s1 3").unwrap(),
            Mutation::SetAttribute {
                attr: "Count".into(),
                key: vec![Value::Str("s1".into())],
                value: Value::Int(3),
            }
        );
        assert_eq!(
            parse_mutation("clear Score s1").unwrap(),
            Mutation::ClearAttribute {
                attr: "Score".into(),
                key: vec![Value::Str("s1".into())],
            }
        );
    }

    #[test]
    fn malformed_set_specs_are_protocol_errors_not_panics() {
        // `set` with no key/value words used to be guarded by a slice
        // length test in front of `split_last().expect(..)`; the slice
        // pattern now makes the unpanickable shape structural. Both
        // truncated forms must come back as protocol errors.
        assert!(parse_mutation("set Qualification").is_err());
        assert!(parse_mutation("set Qualification Dana").is_err());

        let service = service();
        for bad in [
            "COMMIT set Qualification",
            "COMMIT set Qualification Dana",
            "COMMIT entity Person Dana; set Qualification",
        ] {
            let resp = handle_request(&service, bad);
            assert!(resp.starts_with("{\"ok\":false,"), "{bad:?} -> {resp}");
            assert!(resp.contains("bad mutation spec"), "{bad:?} -> {resp}");
        }
        // Nothing was installed: even the batch whose first spec was
        // valid fails atomically at parse time.
        assert_eq!(service.epoch(), 0);
    }

    #[test]
    fn non_finite_values_are_rejected_at_parse_time() {
        for bad in ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"] {
            let err = parse_value(bad).unwrap_err();
            assert!(err.contains("non-finite"), "{bad:?} -> {err}");
        }
        // Finite numerics still parse; words that merely *contain* a
        // non-finite spelling stay strings.
        assert_eq!(parse_value("0.75"), Ok(Value::Float(0.75)));
        assert_eq!(parse_value("-3"), Ok(Value::Int(-3)));
        assert_eq!(parse_value("nanette"), Ok(Value::Str("nanette".into())));

        let service = service();
        for bad in [
            "COMMIT set Score s1 nan",
            "COMMIT set Score s1 inf",
            "COMMIT set Score s1 1e999",
            "COMMIT insert Author nan s1",
        ] {
            let resp = handle_request(&service, bad);
            assert!(resp.starts_with("{\"ok\":false,"), "{bad:?} -> {resp}");
            assert!(resp.contains("non-finite"), "{bad:?} -> {resp}");
        }
        assert_eq!(service.epoch(), 0);
    }

    #[test]
    fn rejected_nan_commits_never_reach_the_history() {
        use crate::history::{check_history, HistoryLog};

        let service = service();
        let log = HistoryLog::new();
        let query = "AVG_Score[A] <= Prestige[A]?";

        let (epoch, result) = service.answer_str(query);
        log.record_query(0, epoch, query, &result);

        // The poisoned commit is refused at parse time: no epoch is
        // installed, so there is nothing to record and no NaN cell whose
        // platform-dependent bit pattern could enter a digest.
        let resp = handle_request(&service, "COMMIT set Score s1 nan");
        assert!(resp.starts_with("{\"ok\":false,"), "{resp}");
        assert_eq!(service.epoch(), 0);

        // A clean commit (taking the incremental fast path) extends the
        // history as usual…
        let resp = handle_request(&service, "COMMIT set Score s1 0.9");
        assert!(resp.starts_with("{\"ok\":true,\"epoch\":1,"), "{resp}");
        let snap = service.snapshot();
        log.record_install(
            &snap,
            &[Mutation::SetAttribute {
                attr: "Score".into(),
                key: vec![Value::Str("s1".into())],
                value: Value::Float(0.9),
            }],
        );
        let (epoch, result) = service.answer_str(query);
        log.record_query(0, epoch, query, &result);

        // …and the recorded history replays bit-identically against a
        // cold re-ground of every epoch: the checker finds nothing.
        let violations = check_history(
            &Instance::review_example(),
            &service.program().clone(),
            &log.events(),
        )
        .unwrap();
        assert_eq!(violations, vec![]);
    }

    #[test]
    fn json_escaping_is_safe() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let resp = error_response("quote \" and newline \n");
        assert!(!resp.contains('\n'));
    }

    #[test]
    fn tcp_server_round_trips_and_shuts_down() {
        use std::io::{BufRead, BufReader, Write};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let service = Arc::new(service());
        let server = thread::spawn(move || serve(listener, service, 2).unwrap());

        let read_line = |stream: &mut BufReader<TcpStream>| {
            let mut line = String::new();
            stream.read_line(&mut line).unwrap();
            line.trim().to_string()
        };

        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"PING\nEPOCH\nQUIT\n").unwrap();
        assert_eq!(read_line(&mut reader), "{\"ok\":true}");
        assert!(read_line(&mut reader).contains("\"epoch\":0"));

        // A second connection (exercising the worker pool) shuts the
        // server down.
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"SHUTDOWN\n").unwrap();
        assert!(read_line(&mut reader).contains("\"shutdown\":true"));
        server.join().unwrap();
    }

    #[test]
    fn oversized_request_lines_are_rejected_and_other_clients_still_served() {
        use std::io::{BufRead, BufReader, Write};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let service = Arc::new(service());
        let server = thread::spawn(move || serve(listener, service, 2).unwrap());

        // A client streams 4 MiB without a newline. The writes fail once
        // the server closes the connection, so they run on their own
        // thread and their errors are expected.
        let stream = TcpStream::connect(addr).unwrap();
        let mut flood = stream.try_clone().unwrap();
        let flooder = thread::spawn(move || {
            let chunk = vec![b'x'; 64 * 1024];
            for _ in 0..64 {
                if flood.write_all(&chunk).is_err() {
                    break;
                }
            }
        });
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.starts_with("{\"ok\":false,\"error\":"), "{reply}");
        assert!(
            reply.contains(&format!("exceeds {MAX_REQUEST_LINE_BYTES} bytes")),
            "{reply}"
        );
        // The server closed the connection after the error.
        let mut rest = String::new();
        assert!(
            matches!(reader.read_line(&mut rest), Ok(0) | Err(_)),
            "{rest}"
        );
        flooder.join().unwrap();

        // Another client is still answered, and can stop the server.
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"PING\nSHUTDOWN\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "{\"ok\":true}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"shutdown\":true"), "{line}");
        server.join().unwrap();
    }
}
