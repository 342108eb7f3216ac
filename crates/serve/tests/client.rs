//! The client library's buffered reads, against a scripted server: a
//! reply is taken from whatever bytes one read brought, bytes beyond it
//! wait for the next call, and a broken reply is still an error that the
//! retry policy reconnects after.

use altx_serve::client::{ClientConfig, RetryPolicy};
use altx_serve::frame::{read_frame, write_frame, FrameError, Request, Response};
use altx_serve::Client;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

/// A server on a thread of its own that runs `script` on each of the
/// first `conns` connections it accepts.
fn scripted(
    conns: usize,
    script: impl Fn(usize, TcpStream) + Send + 'static,
) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        for i in 0..conns {
            let (stream, _) = listener.accept().expect("accept");
            script(i, stream);
        }
    });
    (addr, server)
}

/// Reads one request frame.
fn request(stream: &mut TcpStream) -> Request {
    let body = read_frame(stream).expect("reads").expect("a request");
    Request::decode(&body).expect("decodes")
}

/// `reply`'s whole wire frame.
fn frame(reply: &Response) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, &reply.encode()).expect("vec write");
    wire
}

fn text(body: &str) -> Response {
    Response::Text {
        body: body.to_owned(),
    }
}

/// Two pipelined requests whose replies arrive in one write decode as
/// two replies, in order, through two `recv`s.
#[test]
fn two_replies_in_one_segment_are_two_recvs() {
    let (addr, server) = scripted(1, |_, mut stream| {
        request(&mut stream);
        request(&mut stream);
        let wire = [frame(&text("first")), frame(&text("second"))].concat();
        stream.write_all(&wire).expect("one write");
    });
    let mut client = Client::connect(addr).expect("connect");
    client.send(&Request::Stats).expect("send");
    client.send(&Request::Catalog).expect("send");
    assert_eq!(client.recv().expect("reply"), text("first"));
    assert_eq!(client.recv().expect("reply"), text("second"));
    server.join().expect("server");
}

/// A reply many times longer than one read's room — the size of a stats
/// page — arrives over several writes and decodes whole.
#[test]
fn a_reply_longer_than_a_read_decodes_whole() {
    let page: String = (0..3_000).map(|i| format!("row {i}\n")).collect();
    let expected = text(&page);
    let (addr, server) = scripted(1, move |_, mut stream| {
        request(&mut stream);
        for piece in frame(&text(&page)).chunks(5_000) {
            stream.write_all(piece).expect("write");
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.call(&Request::Stats).expect("reply"), expected);
    server.join().expect("server");
}

/// Bytes a `recv` read beyond its reply are the next reply's: a `call`
/// after it returns them — replies keep request order across the
/// client's calls — and the call's own reply is next.
#[test]
fn a_call_after_a_recv_loses_no_byte() {
    let (addr, server) = scripted(1, |_, mut stream| {
        request(&mut stream);
        request(&mut stream);
        let wire = [frame(&text("one")), frame(&text("two"))].concat();
        stream.write_all(&wire).expect("one write");
        request(&mut stream);
        stream.write_all(&frame(&text("three"))).expect("write");
    });
    let mut client = Client::connect(addr).expect("connect");
    client.send(&Request::Stats).expect("send");
    client.send(&Request::Stats).expect("send");
    assert_eq!(client.recv().expect("reply"), text("one"));
    assert_eq!(client.call(&Request::Stats).expect("reply"), text("two"));
    assert_eq!(client.recv().expect("reply"), text("three"));
    server.join().expect("server");
}

/// A connection that ends mid-reply is a `Truncated` (or `Io`) error,
/// never a reply; with a retry policy the call reconnects and the fresh
/// connection's reply is the answer.
#[test]
fn a_reply_cut_short_is_an_error_and_a_retry_reconnects() {
    let reply = Response::Ok {
        winner: 1,
        winner_name: "instant-b".to_owned(),
        latency_us: 3,
        value: 7,
    };
    let wire = frame(&reply);
    let (addr, server) = scripted(3, move |i, mut stream| {
        request(&mut stream);
        match i {
            // Cut inside the body, then inside the header.
            0 => stream.write_all(&wire[..wire.len() - 3]).expect("write"),
            1 => stream.write_all(&wire[..2]).expect("write"),
            _ => stream.write_all(&wire).expect("write"),
        }
    });
    let mut bare = Client::connect(addr).expect("connect");
    let err = bare.run("trivial", 7, 0).expect_err("cut short");
    assert!(
        matches!(err, FrameError::Truncated | FrameError::Io(_)),
        "{err:?}"
    );
    let config = ClientConfig {
        retry: Some(RetryPolicy {
            base_backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        }),
        ..ClientConfig::default()
    };
    let mut retrying = Client::connect_with(addr, config).expect("connect");
    assert_eq!(retrying.run("trivial", 7, 0).expect("retried"), reply);
    let stats = retrying.stats();
    assert_eq!((stats.retries(), stats.reconnects()), (1, 1));
    server.join().expect("server");
}
