//! # fpsping-serve — the dimensioning query server
//!
//! ROADMAP item 2: the paper's closed-form model, packaged as the
//! operational service it was built to be — an ISP-facing API answering
//! "what ping will gamers see at this load?" and "how many players fit
//! behind this DSLAM at a 50 ms budget?" at cache-hit speed.
//!
//! Pure `std`: threaded TCP ([`server`]), a two-framing wire protocol
//! ([`protocol`]; newline-delimited JSON for humans and `nc`, fixed
//! 40/24-byte binary frames for throughput), read-burst batching into
//! one [`fpsping::Engine::rtt_batch`] pass per TCP read, and graceful
//! shutdown. Memory stays bounded under adversarial query streams
//! because the engine's RTT memo is capacity-bounded and evicting
//! ([`fpsping::SharedCache`]) — an evicted cell re-solves to the
//! identical bits, so eviction costs time, never correctness.
//!
//! Instrumented with `fpsping_obs`: `serve.requests`, `serve.requests.bad`,
//! `serve.batches`, `serve.batch.size`, `serve.latency_us`,
//! `serve.conns.{accepted,rejected,oversized,read_retries,write_timeouts}`. Cache
//! totals are the engine's own `engine.cache.*` counters.
//!
//! ```no_run
//! use fpsping_serve::{ServeConfig, Server};
//! let server = Server::start(ServeConfig::default())?;
//! let addr = server.local_addr(); // connect, query, send `shutdown`
//! server.join();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod server;

pub use protocol::{Op, Request, Response};
pub use server::{rss_mib, rss_peak_mib, ServeConfig, Server};

#[cfg(test)]
mod tests {
    use super::protocol::*;
    use super::{ServeConfig, Server};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    fn start_test_server(bit_exact: bool, cache_entries: usize) -> Server {
        Server::start(ServeConfig {
            workers: 2,
            bit_exact,
            cache_entries,
            ..ServeConfig::default()
        })
        .expect("bind 127.0.0.1:0")
    }

    fn shutdown_and_join(server: Server) {
        server.request_shutdown();
        server.join();
    }

    /// The current value of a process-wide obs counter (0 if unregistered).
    fn counter(name: &str) -> u64 {
        fpsping_obs::snapshot()
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    #[test]
    fn ndjson_session_answers_rtt_and_dimension() {
        let server = start_test_server(true, 0);
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        stream
            .write_all(
                b"{\"id\":1,\"op\":\"rtt\",\"k\":9,\"tick_ms\":40,\"load\":0.4}\n\
                  {\"id\":2,\"op\":\"dimension\",\"k\":9,\"tick_ms\":40,\"budget_ms\":50}\n\
                  {\"id\":3,\"op\":\"rtt\",\"k\":9,\"load\":1.5}\n\
                  {\"id\":4,\"op\":\"stats\"}\n",
            )
            .expect("write");
        let mut lines = Vec::new();
        for _ in 0..4 {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            lines.push(line);
        }
        // id 1: the §4 reference cell, ≈50 ms in the paper.
        assert!(lines[0].contains("\"id\":1") && lines[0].contains("\"ok\":true"));
        let value: f64 = lines[0]
            .split("\"value\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse().ok())
            .expect("value field");
        assert!((20.0..80.0).contains(&value), "rtt {value}");
        // id 2: the paper's headline dimensioning example (N_max ≈ 80).
        assert!(lines[1].contains("\"ok\":true"));
        let n_max: u32 = lines[1]
            .split("\"n_max\":")
            .nth(1)
            .and_then(|s| s.trim_end().trim_end_matches('}').parse().ok())
            .expect("n_max field");
        assert!((60..=110).contains(&n_max), "n_max {n_max}");
        // id 3: load 1.5 is unstable.
        assert!(lines[2].contains("\"ok\":false"), "{}", lines[2]);
        // id 4: wide stats object.
        assert!(
            lines[3].contains("\"hit_rate\":") && lines[3].contains("\"rss_mib\":"),
            "{}",
            lines[3]
        );
        shutdown_and_join(server);
    }

    #[test]
    fn binary_pipeline_preserves_order_and_matches_engine() {
        use fpsping::engine::{Engine, EngineConfig};
        use fpsping::Scenario;
        let server = start_test_server(true, 0);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        // A pipelined burst of 64 rtt queries over a (K, load) grid.
        let mut burst = Vec::new();
        let mut expected = Vec::new();
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            batch: false,
            ..EngineConfig::default()
        });
        for i in 0..64u64 {
            let k = [2u32, 9, 20][(i % 3) as usize];
            let load = 0.1 + 0.8 * (i as f64 / 64.0);
            burst.extend_from_slice(&encode_request(&Request::rtt(i, k, 40.0, load)));
            let s = Scenario::paper_default()
                .with_erlang_order(k)
                .with_load(load);
            expected.push(engine.build_model(&s).map(|m| m.rtt_quantile_ms()).ok());
        }
        stream.write_all(&burst).expect("write burst");
        let mut buf = vec![0u8; 64 * RESP_FRAME_LEN];
        stream.read_exact(&mut buf).expect("read responses");
        for (i, chunk) in buf.chunks(RESP_FRAME_LEN).enumerate() {
            let resp = decode_response(chunk).expect("frame");
            assert_eq!(resp.id, i as u64, "responses in request order");
            let want = expected[i].expect("grid is feasible");
            assert_eq!(resp.status, STATUS_OK);
            assert_eq!(
                resp.value.to_bits(),
                want.to_bits(),
                "bit-exact server answer for request {i}"
            );
        }
        shutdown_and_join(server);
    }

    #[test]
    fn shutdown_request_stops_the_server() {
        let server = start_test_server(false, 1024);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .write_all(&encode_request(&Request::shutdown(99)))
            .expect("write");
        let mut buf = [0u8; RESP_FRAME_LEN];
        stream.read_exact(&mut buf).expect("read");
        let resp = decode_response(&buf).expect("frame");
        assert_eq!((resp.id, resp.status), (99, STATUS_OK));
        server.join();
    }

    #[test]
    fn binary_stats_selectors_answer() {
        let server = start_test_server(false, 1024);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut burst = Vec::new();
        burst.extend_from_slice(&encode_request(&Request::rtt(0, 9, 40.0, 0.4)));
        for (id, stat) in [(1, STAT_RSS_MIB), (2, STAT_HIT_RATE), (3, STAT_REQUESTS)] {
            burst.extend_from_slice(&encode_request(&Request::stats(id, stat)));
        }
        stream.write_all(&burst).expect("write");
        let mut buf = vec![0u8; 4 * RESP_FRAME_LEN];
        stream.read_exact(&mut buf).expect("read");
        let rss = decode_response(&buf[RESP_FRAME_LEN..]).expect("frame");
        assert!(rss.value > 1.0, "VmRSS in MiB: {}", rss.value);
        let hit_rate = decode_response(&buf[2 * RESP_FRAME_LEN..]).expect("frame");
        assert!((0.0..=1.0).contains(&hit_rate.value));
        let reqs = decode_response(&buf[3 * RESP_FRAME_LEN..]).expect("frame");
        assert!(reqs.value >= 4.0, "requests served: {}", reqs.value);
        shutdown_and_join(server);
    }

    #[test]
    fn malformed_requests_answer_bad_request_in_lockstep() {
        let bad_before = counter("serve.requests.bad");
        let server = start_test_server(false, 1024);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut burst = Vec::new();
        let mut bad = encode_request(&Request::rtt(7, 9, 40.0, 0.4));
        bad[36] = 250; // unknown op
        burst.extend_from_slice(&bad);
        burst.extend_from_slice(&encode_request(&Request::rtt(8, 9, 40.0, 0.4)));
        stream.write_all(&burst).expect("write");
        let mut buf = vec![0u8; 2 * RESP_FRAME_LEN];
        stream.read_exact(&mut buf).expect("read");
        let first = decode_response(&buf).expect("frame");
        assert_eq!((first.id, first.status), (7, STATUS_BAD_REQUEST));
        let second = decode_response(&buf[RESP_FRAME_LEN..]).expect("frame");
        assert_eq!((second.id, second.status), (8, STATUS_OK));
        shutdown_and_join(server);
        if cfg!(not(feature = "obs-off")) {
            assert!(
                counter("serve.requests.bad") > bad_before,
                "the undecodable frame must be counted"
            );
        }
    }

    #[test]
    fn mixed_binary_burst_is_answered_in_lockstep() {
        // One burst of rtt memo hits, misses, an infeasible cell, bad
        // frames, a stats and a dimension request through the in-place
        // encoder: one frame per request, in order, with the right id,
        // status and value, and NaN wherever there is no answer.
        use fpsping::engine::Engine;
        use fpsping::Scenario;
        let server = start_test_server(true, 0);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .write_all(&encode_request(&Request::rtt(0, 9, 40.0, 0.4)))
            .expect("write warm-up");
        let mut frame = [0u8; RESP_FRAME_LEN];
        stream.read_exact(&mut frame).expect("read warm-up");
        let mut unknown_op = encode_request(&Request::rtt(13, 9, 40.0, 0.4));
        unknown_op[36] = 250;
        let frames = [
            encode_request(&Request::rtt(10, 9, 40.0, 0.4)),
            encode_request(&Request::rtt(11, 2, 60.0, 0.3)),
            encode_request(&Request::rtt(12, 9, 40.0, 1.5)),
            unknown_op,
            encode_request(&Request::stats(14, STAT_REQUESTS)),
            encode_request(&Request::dimension(15, 9, 40.0, 50.0)),
            encode_request(&Request::rtt(16, 1_000_000, 40.0, 0.4)),
            encode_request(&Request::rtt(17, 2, 60.0, 0.3)),
        ];
        stream.write_all(&frames.concat()).expect("write burst");
        let mut buf = vec![0u8; frames.len() * RESP_FRAME_LEN];
        stream.read_exact(&mut buf).expect("read burst");
        let got: Vec<Response> = buf
            .chunks(RESP_FRAME_LEN)
            .map(|f| decode_response(f).expect("frame"))
            .collect();
        let ids: Vec<u64> = got.iter().map(|r| r.id).collect();
        assert_eq!(ids, [10, 11, 12, 13, 14, 15, 16, 17]);
        let statuses: Vec<u8> = got.iter().map(|r| r.status).collect();
        assert_eq!(
            statuses,
            [
                STATUS_OK,
                STATUS_OK,
                STATUS_INFEASIBLE,
                STATUS_BAD_REQUEST,
                STATUS_OK,
                STATUS_OK,
                STATUS_BAD_REQUEST,
                STATUS_OK
            ]
        );
        for i in [2, 3, 6] {
            assert!(got[i].value.is_nan(), "request {}: {:?}", got[i].id, got[i]);
        }
        let serial = Engine::serial();
        let rtt = |k: u32, t: f64, rho: f64| {
            let s = Scenario::paper_default()
                .with_erlang_order(k)
                .with_tick_ms(t)
                .with_load(rho);
            serial
                .build_model(&s)
                .expect("feasible")
                .rtt_quantile_ms()
                .to_bits()
        };
        assert_eq!(got[0].value.to_bits(), rtt(9, 40.0, 0.4));
        assert_eq!(got[1].value.to_bits(), rtt(2, 60.0, 0.3));
        assert_eq!(got[7].value.to_bits(), got[1].value.to_bits());
        assert!(got[4].value >= 9.0, "requests served: {}", got[4].value);
        assert!((60..=110).contains(&got[5].n_max), "n_max {}", got[5].n_max);
        shutdown_and_join(server);
    }

    #[test]
    fn oversized_erlang_order_is_refused_fast_and_counted() {
        // K = 10⁶ would cost a worker hours of O(K²) root solving; both
        // query kinds are refused at decode, well inside the service
        // deadline, and the connection keeps serving.
        let bad_before = counter("serve.requests.bad");
        let server = start_test_server(false, 1024);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let burst = [
            encode_request(&Request::rtt(1, 1_000_000, 40.0, 0.4)),
            encode_request(&Request::dimension(2, 1_000_000, 40.0, 50.0)),
        ]
        .concat();
        let clock = std::time::Instant::now();
        stream.write_all(&burst).expect("write");
        let mut buf = vec![0u8; 2 * RESP_FRAME_LEN];
        stream.read_exact(&mut buf).expect("read");
        let elapsed = clock.elapsed();
        for (i, chunk) in buf.chunks(RESP_FRAME_LEN).enumerate() {
            let resp = decode_response(chunk).expect("frame");
            assert_eq!((resp.id, resp.status), (i as u64 + 1, STATUS_BAD_REQUEST));
        }
        let deadline = ServeConfig::default().request_timeout_ms;
        assert!(
            elapsed.as_millis() < u128::from(deadline),
            "refusal took {elapsed:?}, deadline {deadline} ms"
        );
        if cfg!(not(feature = "obs-off")) {
            assert!(counter("serve.requests.bad") >= bad_before + 2);
        }
        stream
            .write_all(&encode_request(&Request::rtt(3, 9, 40.0, 0.4)))
            .expect("write");
        let mut frame = [0u8; RESP_FRAME_LEN];
        stream.read_exact(&mut frame).expect("read");
        let resp = decode_response(&frame).expect("frame");
        assert_eq!((resp.id, resp.status), (3, STATUS_OK));
        shutdown_and_join(server);
    }

    /// Sends the `bad` binary frames and then one valid rtt request down
    /// one connection. Every bad frame must answer `bad request` with
    /// its own id and count in `serve.requests.bad`, and the connection
    /// must still answer the valid request.
    fn assert_binary_refusals(bad: &[Request]) {
        let bad_before = counter("serve.requests.bad");
        let server = start_test_server(false, 1024);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let valid = Request::rtt(u64::MAX, 9, 40.0, 0.4);
        let burst: Vec<u8> = bad
            .iter()
            .chain([&valid])
            .flat_map(encode_request)
            .collect();
        stream.write_all(&burst).expect("write");
        let mut buf = vec![0u8; (bad.len() + 1) * RESP_FRAME_LEN];
        stream.read_exact(&mut buf).expect("read");
        let got: Vec<Response> = buf
            .chunks(RESP_FRAME_LEN)
            .map(|f| decode_response(f).expect("frame"))
            .collect();
        for (r, g) in bad.iter().zip(&got) {
            assert_eq!((g.id, g.status), (r.id, STATUS_BAD_REQUEST), "{r:?}");
        }
        assert_eq!(
            (got[bad.len()].id, got[bad.len()].status),
            (u64::MAX, STATUS_OK)
        );
        shutdown_and_join(server);
        if cfg!(not(feature = "obs-off")) {
            assert!(counter("serve.requests.bad") >= bad_before + bad.len() as u64);
        }
    }

    /// [`assert_binary_refusals`] for NDJSON lines, each paired with the
    /// id its refusal must echo.
    fn assert_ndjson_refusals(bad: &[(&str, u64)]) {
        let bad_before = counter("serve.requests.bad");
        let server = start_test_server(false, 1024);
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        let mut burst: String = bad.iter().map(|(line, _)| format!("{line}\n")).collect();
        burst.push_str("{\"id\":18446744073709551615,\"op\":\"rtt\",\"k\":9,\"load\":0.4}\n");
        stream.write_all(burst.as_bytes()).expect("write");
        for (line, id) in bad {
            let mut got = String::new();
            reader.read_line(&mut got).expect("read");
            assert_eq!(
                got,
                format!("{{\"id\":{id},\"ok\":false,\"error\":\"bad request\"}}\n"),
                "{line}"
            );
        }
        let mut got = String::new();
        reader.read_line(&mut got).expect("read");
        assert!(
            got.starts_with("{\"id\":18446744073709551615,\"ok\":true,"),
            "{got}"
        );
        shutdown_and_join(server);
        if cfg!(not(feature = "obs-off")) {
            assert!(counter("serve.requests.bad") >= bad_before + bad.len() as u64);
        }
    }

    #[test]
    fn erlang_order_outside_one_to_the_cap_is_refused_and_counted() {
        // K = 0 used to be answered as K = 1.
        let over = fpsping::MAX_ERLANG_ORDER + 1;
        assert_binary_refusals(&[
            Request::rtt(1, 0, 40.0, 0.4),
            Request::dimension(2, 0, 40.0, 50.0),
            Request::rtt(3, over, 40.0, 0.4),
            Request::dimension(4, over, 40.0, 50.0),
        ]);
        let rtt_over = format!("{{\"id\":3,\"op\":\"rtt\",\"k\":{over}}}");
        assert_ndjson_refusals(&[
            ("{\"id\":1,\"op\":\"rtt\",\"k\":0,\"load\":0.4}", 1),
            (
                "{\"id\":2,\"op\":\"dimension\",\"k\":0,\"budget_ms\":50}",
                2,
            ),
            (&rtt_over, 3),
        ]);
    }

    #[test]
    fn bad_tick_is_refused_and_counted() {
        // A NaN tick used to answer `infeasible` on rtt and an uncounted
        // `bad request` on dimension.
        let mut bad = Vec::new();
        for (i, t) in [f64::NAN, f64::INFINITY, 0.0, -40.0]
            .into_iter()
            .enumerate()
        {
            bad.push(Request::rtt(2 * i as u64, 9, t, 0.4));
            bad.push(Request::dimension(2 * i as u64 + 1, 9, t, 50.0));
        }
        assert_binary_refusals(&bad);
        assert_ndjson_refusals(&[
            ("{\"id\":1,\"op\":\"rtt\",\"tick_ms\":NaN}", 1),
            ("{\"id\":2,\"op\":\"dimension\",\"tick_ms\":NaN}", 2),
            ("{\"id\":3,\"op\":\"rtt\",\"tick_ms\":0}", 3),
            ("{\"id\":4,\"op\":\"dimension\",\"tick_ms\":-40}", 4),
        ]);
    }

    #[test]
    fn non_finite_load_is_refused_and_counted() {
        assert_binary_refusals(&[
            Request::rtt(1, 9, 40.0, f64::NAN),
            Request::rtt(2, 9, 40.0, f64::INFINITY),
            Request::rtt(3, 9, 40.0, f64::NEG_INFINITY),
        ]);
        assert_ndjson_refusals(&[
            ("{\"id\":1,\"op\":\"rtt\",\"load\":NaN}", 1),
            ("{\"id\":2,\"op\":\"rtt\",\"load\":inf}", 2),
        ]);
    }

    #[test]
    fn bad_budget_is_refused_and_counted() {
        assert_binary_refusals(&[
            Request::dimension(1, 9, 40.0, f64::NAN),
            Request::dimension(2, 9, 40.0, f64::INFINITY),
            Request::dimension(3, 9, 40.0, 0.0),
            Request::dimension(4, 9, 40.0, -5.0),
        ]);
        assert_ndjson_refusals(&[
            ("{\"id\":1,\"op\":\"dimension\",\"budget_ms\":NaN}", 1),
            ("{\"id\":2,\"op\":\"dimension\",\"budget_ms\":0}", 2),
            ("{\"id\":3,\"op\":\"dimension\",\"budget_ms\":-5}", 3),
        ]);
    }

    #[test]
    fn ndjson_non_integers_are_refused_and_counted() {
        // These used to be truncated or saturated through `f64 as u32`.
        assert_ndjson_refusals(&[
            ("{\"id\":1,\"op\":\"rtt\",\"k\":9.5}", 1),
            ("{\"id\":2,\"op\":\"rtt\",\"k\":-3}", 2),
            ("{\"id\":-1,\"op\":\"rtt\"}", 0),
        ]);
    }

    /// Sends one rtt request down a fresh connection and asserts that it
    /// is answered within `wait`.
    fn assert_fresh_connection_answered(server: &Server, id: u64, wait: Duration) {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_read_timeout(Some(wait)).expect("read timeout");
        stream
            .write_all(&encode_request(&Request::rtt(id, 9, 40.0, 0.4)))
            .expect("write");
        let mut frame = [0u8; RESP_FRAME_LEN];
        stream
            .read_exact(&mut frame)
            .expect("a fresh connection must be answered by the one worker");
        let resp = decode_response(&frame).expect("frame");
        assert_eq!((resp.id, resp.status), (id, STATUS_OK));
    }

    #[test]
    fn peer_that_never_reads_is_cut_off_by_the_write_deadline() {
        // One worker. A flooder pipelines requests and never reads its
        // answers, so the socket buffers fill and the worker's response
        // write stops making progress. The write deadline must close that
        // connection, so a second connection is answered and shutdown
        // completes.
        let timeouts_before = counter("serve.conns.write_timeouts");
        let server = Server::start(ServeConfig {
            workers: 1,
            request_timeout_ms: 100,
            ..ServeConfig::default()
        })
        .expect("bind 127.0.0.1:0");
        let mut flood = TcpStream::connect(server.local_addr()).expect("connect");
        // At worst the flooder's own writes stall once the server stops
        // reading; this bound ends its thread.
        flood
            .set_write_timeout(Some(Duration::from_secs(20)))
            .expect("write timeout");
        let block: Vec<u8> = (0..1024)
            .flat_map(|id| encode_request(&Request::rtt(id, 9, 40.0, 0.4)))
            .collect();
        let flooder = std::thread::spawn(move || {
            // Ends when the server closes the connection (or the bound).
            while flood.write_all(&block).is_ok() {}
        });
        assert_fresh_connection_answered(&server, 7, Duration::from_secs(20));
        // A stuck worker would keep `join` blocked forever.
        server.request_shutdown();
        let (joined_tx, joined_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.join();
            let _ = joined_tx.send(());
        });
        joined_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("shutdown and join must finish within the bound");
        flooder.join().expect("flooder thread");
        if cfg!(not(feature = "obs-off")) {
            assert!(counter("serve.conns.write_timeouts") > timeouts_before);
        }
    }

    #[test]
    fn half_closed_peer_gets_every_answer() {
        // The client sends a pipelined burst and then shuts down its write
        // half. Every request must still be answered, in order, with its
        // id, and the one worker must then serve a fresh connection.
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("bind 127.0.0.1:0");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        const N: u64 = 3000;
        let burst: Vec<u8> = (0..N)
            .flat_map(|id| encode_request(&Request::rtt(id, 2 + (id % 3) as u32, 40.0, 0.4)))
            .collect();
        stream.write_all(&burst).expect("write burst");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut answers = Vec::new();
        stream
            .read_to_end(&mut answers)
            .expect("read until the server closes");
        assert_eq!(answers.len(), N as usize * RESP_FRAME_LEN);
        for (id, frame) in (0..N).zip(answers.chunks(RESP_FRAME_LEN)) {
            let resp = decode_response(frame).expect("frame");
            assert_eq!((resp.id, resp.status), (id, STATUS_OK));
        }
        assert_fresh_connection_answered(&server, N, Duration::from_secs(20));
        shutdown_and_join(server);
    }

    #[test]
    fn oversized_ndjson_line_closes_only_that_connection() {
        let oversized_before = counter("serve.conns.oversized");
        let server = start_test_server(false, 1024);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        // 70 KiB of one NDJSON "line" that never ends. The server may
        // close (and reset) the socket before the whole burst is sent.
        let mut burst = vec![b'x'; 70 * 1024];
        burst[0] = b'{';
        let _ = stream.write_all(&burst);
        let mut buf = [0u8; 64];
        match stream.read(&mut buf) {
            Ok(0) => {}
            Ok(n) => panic!("expected the connection closed, got {n} bytes"),
            Err(e) => assert!(
                !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "the server kept the oversized connection open"
            ),
        }
        if cfg!(not(feature = "obs-off")) {
            assert!(counter("serve.conns.oversized") > oversized_before);
        }
        // A fresh connection is still answered.
        let mut stream = TcpStream::connect(server.local_addr()).expect("reconnect");
        stream
            .write_all(&encode_request(&Request::rtt(1, 9, 40.0, 0.4)))
            .expect("write");
        let mut frame = [0u8; RESP_FRAME_LEN];
        stream.read_exact(&mut frame).expect("read");
        let resp = decode_response(&frame).expect("frame");
        assert_eq!((resp.id, resp.status), (1, STATUS_OK));
        shutdown_and_join(server);
    }
}
