//! Wire-protocol conformance: handshake enforcement, frame-size limits,
//! malformed-frame recovery, and the structured error surface.

use specslice_server::proto::{
    read_frame, read_frame_bytes, write_frame, FrameError, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use specslice_server::{serve, Bind, Client, ClientError, Json, ServerConfig};
use std::io::Write;
use std::net::TcpStream;

const PROGRAM: &str = r#"
    int g;
    void inc(int x) { g = g + x; }
    int main() { g = 0; inc(2); inc(3); printf("%d", g); return 0; }
"#;

fn start(max_frame: usize) -> (specslice_server::Handle, String) {
    let mut config = ServerConfig::new(Bind::Tcp("127.0.0.1:0".to_string()));
    config.threads = Some(1);
    config.max_frame = max_frame;
    let handle = serve(config).expect("bind");
    let addr = handle.addr.clone();
    (handle, addr)
}

fn error_kind(resp: &Json) -> Option<&str> {
    resp.get("error")?.get("kind")?.as_str()
}

fn request_err(
    client: &mut Client<TcpStream>,
    op: &str,
    params: impl IntoIterator<Item = (&'static str, Json)>,
) -> Json {
    match client.request(op, params) {
        Err(ClientError::Server(payload)) => payload,
        other => panic!("expected a server error, got {other:?}"),
    }
}

#[test]
fn first_request_must_be_hello() {
    let (handle, addr) = start(DEFAULT_MAX_FRAME);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write_frame(
        &mut stream,
        &Json::obj([("op", Json::str("stats")), ("id", Json::Int(1))]),
    )
    .unwrap();
    let resp = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("rejection frame");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&resp), Some("proto"));
    // The connection is closed after the rejection.
    assert!(matches!(
        read_frame(&mut stream, DEFAULT_MAX_FRAME),
        Err(FrameError::Eof) | Err(FrameError::Io(_))
    ));
    handle.stop();
}

#[test]
fn version_mismatch_is_rejected() {
    let (handle, addr) = start(DEFAULT_MAX_FRAME);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write_frame(
        &mut stream,
        &Json::obj([
            ("op", Json::str("hello")),
            ("id", Json::Int(1)),
            ("version", Json::Int(i64::from(PROTOCOL_VERSION) + 1)),
        ]),
    )
    .unwrap();
    let resp = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("rejection frame");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&resp), Some("proto"));
    let message = resp
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap();
    assert!(message.contains("version"), "{message}");
    assert!(matches!(
        read_frame(&mut stream, DEFAULT_MAX_FRAME),
        Err(FrameError::Eof) | Err(FrameError::Io(_))
    ));
    handle.stop();
}

#[test]
fn oversized_frames_are_rejected_and_close_the_connection() {
    // Big enough for the handshake and small responses, far too small for
    // the program below.
    let (handle, addr) = start(256);
    let mut client = Client::connect_tcp(&addr).expect("handshake fits");
    let big_source = format!("int main() {{ return {}; }}", "0".repeat(1024));
    let bytes = client
        .request_bytes("open", [("source", Json::str(big_source))])
        .expect("rejection frame");
    let resp = Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&resp), Some("proto"));
    let message = resp
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap();
    assert!(message.contains("exceeds limit"), "{message}");
    // An oversized frame desynchronizes the stream, so the server closes it.
    assert!(client.request("stats", []).is_err());
    handle.stop();
}

#[test]
fn malformed_json_is_recoverable() {
    let (handle, addr) = start(DEFAULT_MAX_FRAME);
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let garbage = b"]not json[";
    let stream = client.stream_mut();
    stream
        .write_all(&(garbage.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(garbage).unwrap();
    stream.flush().unwrap();
    let reply = read_frame_bytes(stream, DEFAULT_MAX_FRAME).expect("error reply");
    let reply = Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&reply), Some("proto"));
    // The frame boundary was intact, so the connection keeps serving.
    let stats = client.request("stats", []).expect("stats after garbage");
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    handle.stop();
}

#[test]
fn structured_errors_cover_the_request_surface() {
    let (handle, addr) = start(DEFAULT_MAX_FRAME);
    let mut client = Client::connect_tcp(&addr).expect("connect");

    // Unknown op.
    let e = request_err(&mut client, "frobnicate", []);
    assert_eq!(e.get("kind").and_then(Json::as_str), Some("proto"));

    // Missing session / unknown session / non-hex session.
    let e = request_err(&mut client, "slice", [("criterion", Json::Null)]);
    assert_eq!(e.get("kind").and_then(Json::as_str), Some("proto"));
    for bogus in ["0000000000000000", "not-hex-at-all"] {
        let e = request_err(
            &mut client,
            "slice",
            [
                ("session", Json::str(bogus)),
                (
                    "criterion",
                    Json::obj([("kind", Json::str("printf_actuals"))]),
                ),
            ],
        );
        assert_eq!(
            e.get("kind").and_then(Json::as_str),
            Some("unknown_session")
        );
    }

    // Frontend errors carry their kind and line.
    let e = request_err(&mut client, "open", [("source", Json::str("int main( {"))]);
    assert_eq!(e.get("kind").and_then(Json::as_str), Some("parse"));
    assert!(
        e.get("line").and_then(Json::as_i64).is_some(),
        "{}",
        e.to_text()
    );

    // A valid session for the criterion/edit error cases.
    let opened = client
        .request("open", [("source", Json::str(PROGRAM))])
        .expect("open");
    let sid = opened
        .get("session")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    let e = request_err(
        &mut client,
        "slice",
        [
            ("session", Json::str(&sid)),
            ("criterion", Json::obj([("kind", Json::str("telepathy"))])),
        ],
    );
    assert_eq!(e.get("kind").and_then(Json::as_str), Some("bad_criterion"));

    let e = request_err(
        &mut client,
        "apply_edit",
        [
            ("session", Json::str(&sid)),
            ("edits", Json::arr([])),
            ("source", Json::str("int main() { return 0; }")),
        ],
    );
    assert_eq!(e.get("kind").and_then(Json::as_str), Some("proto"));

    // Explicit eviction invalidates the id.
    let evicted = client
        .request("evict", [("session", Json::str(&sid))])
        .expect("evict");
    assert_eq!(evicted.get("evicted").and_then(Json::as_bool), Some(true));
    let e = request_err(
        &mut client,
        "slice",
        [
            ("session", Json::str(&sid)),
            (
                "criterion",
                Json::obj([("kind", Json::str("printf_actuals"))]),
            ),
        ],
    );
    assert_eq!(
        e.get("kind").and_then(Json::as_str),
        Some("unknown_session")
    );

    handle.stop();
}

#[test]
fn non_ascii_source_is_a_parse_error_not_a_dropped_connection() {
    // A multi-byte character outside comments and strings once panicked
    // the lexer, killing the connection's thread: the client saw the
    // socket close instead of a reply.
    let (handle, addr) = start(DEFAULT_MAX_FRAME);
    let mut client = Client::connect_tcp(&addr).expect("connect");
    for source in [
        "int main() { int x; x = 1 — 2; return x; }",
        "int main() {}&é",
    ] {
        let e = request_err(&mut client, "open", [("source", Json::str(source))]);
        assert_eq!(
            e.get("kind").and_then(Json::as_str),
            Some("parse"),
            "{source}"
        );
        assert_eq!(
            e.get("line").and_then(Json::as_i64),
            Some(1),
            "{}",
            e.to_text()
        );
    }
    // The connection survives and serves the next request.
    let opened = client
        .request("open", [("source", Json::str(PROGRAM))])
        .expect("open after the rejected source");
    assert!(opened.get("session").and_then(Json::as_str).is_some());
    handle.stop();
}

#[test]
fn hello_reports_version_and_frame_limit() {
    let (handle, addr) = start(4096);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write_frame(
        &mut stream,
        &Json::obj([
            ("op", Json::str("hello")),
            ("id", Json::Int(7)),
            ("version", Json::Int(i64::from(PROTOCOL_VERSION))),
        ]),
    )
    .unwrap();
    let resp = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("hello response");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("id").and_then(Json::as_i64), Some(7));
    assert_eq!(
        resp.get("version").and_then(Json::as_i64),
        Some(i64::from(PROTOCOL_VERSION))
    );
    assert_eq!(resp.get("max_frame").and_then(Json::as_i64), Some(4096));
    handle.stop();
}
