//! The wire protocol: one request/response vocabulary, two framings.
//!
//! Every request names one of four operations against the paper's §4
//! reference scenario (overriding `K`, `T`, and the downlink load or RTT
//! budget per request):
//!
//! * **rtt** — the RTT quantile (ms) at `(K, T, ρ_d)`; the paper's
//!   forward question ("what ping will gamers see?").
//! * **dimension** — the maximum load and gamer count under an RTT
//!   budget (eq. 37); the paper's inverse question ("how many players
//!   fit behind this DSLAM at a 50 ms budget?").
//! * **stats** — server-side counters (requests, cache hit rate,
//!   evictions, resident set size).
//! * **shutdown** — graceful stop: the server finishes the batch in
//!   flight, answers it, and exits.
//!
//! ## Framings
//!
//! The server auto-detects the framing per connection from the first
//! byte received: `{` selects **NDJSON**, anything else selects
//! **binary**. A connection never mixes framings.
//!
//! **NDJSON** (human-facing, `nc`-able): one flat JSON object per line,
//! no nesting, no escaped strings. Unknown keys are ignored.
//!
//! ```text
//! {"id":1,"op":"rtt","k":9,"tick_ms":40,"load":0.4}
//! {"id":1,"ok":true,"value":49.817,"n_max":0}
//! {"id":2,"op":"dimension","k":9,"tick_ms":40,"budget_ms":50}
//! {"id":2,"ok":true,"value":0.404,"n_max":80}
//! ```
//!
//! **Binary** (the throughput path): fixed [`REQ_FRAME_LEN`]-byte
//! little-endian request frames and [`RESP_FRAME_LEN`]-byte response
//! frames, layouts below. Fixed-size frames make a read burst splittable
//! without scanning — `burst_len / 40` requests, no delimiter search —
//! which is what lets the server coalesce thousands of requests into one
//! engine pass.
//!
//! ```text
//! request  (40 B): id:u64  tick_ms:f64  load:f64  budget_ms:f64
//!                  k:u32  op:u8  stat:u8  _pad:u16
//! response (24 B): id:u64  value:f64  n_max:u32  status:u8  _pad:[u8;3]
//! ```
//!
//! ## Validation
//!
//! Both framings reject an ill-posed question at decode, answer it
//! `bad request` with its id, and count it in `serve.requests.bad`. An
//! `rtt` or `dimension` request is malformed when
//!
//! * `k` lies outside `1..=`[`MAX_ERLANG_ORDER`] (the cap keeps a request
//!   from reaching a solver whose cost grows as K²), or
//! * `tick_ms` is not finite and positive;
//!
//! an `rtt` request when `load` is not finite, and a `dimension` request
//! when `budget_ms` is not finite and positive. A finite load outside
//! (0, 1) is a valid question with no answer: it is answered
//! `infeasible scenario`. NDJSON `id`, `k` and `stat` must be integers
//! in range (`"k": 9.5`, `"k": -3` and `"id": -1` are malformed), so an
//! id echoes back exactly.

use fpsping::MAX_ERLANG_ORDER;

/// Binary request frame length in bytes.
pub const REQ_FRAME_LEN: usize = 40;
/// Binary response frame length in bytes.
pub const RESP_FRAME_LEN: usize = 24;

/// Operation selectors (the `op` byte of a binary request frame).
pub const OP_RTT: u8 = 0;
/// Binary `op` byte for the dimensioning (inverse) query.
pub const OP_DIMENSION: u8 = 1;
/// Binary `op` byte for the server-statistics query.
pub const OP_STATS: u8 = 2;
/// Binary `op` byte for graceful shutdown.
pub const OP_SHUTDOWN: u8 = 3;

/// Response status: the request was answered.
pub const STATUS_OK: u8 = 0;
/// Response status: the scenario is infeasible (saturated or unstable),
/// so there is no RTT / no nonzero dimensioning answer.
pub const STATUS_INFEASIBLE: u8 = 1;
/// Response status: the request could not be understood.
pub const STATUS_BAD_REQUEST: u8 = 2;
/// Response status: the batch exceeded the server's per-request service
/// budget before this request was reached.
pub const STATUS_TIMEOUT: u8 = 3;

/// Statistic selectors for binary `stats` requests (the `stat` byte).
/// NDJSON `stats` responses carry every field at once instead.
pub const STAT_RSS_MIB: u8 = 0;
/// `stat` selector: peak resident set size (VmHWM) in MiB.
pub const STAT_RSS_PEAK_MIB: u8 = 1;
/// `stat` selector: engine cache hit rate in `[0, 1]`.
pub const STAT_HIT_RATE: u8 = 2;
/// `stat` selector: requests served so far.
pub const STAT_REQUESTS: u8 = 3;
/// `stat` selector: solver-cache evictions so far.
pub const STAT_EVICTIONS: u8 = 4;
/// `stat` selector: solver-cache hits so far (all three caches).
pub const STAT_HITS: u8 = 5;
/// `stat` selector: solver-cache misses so far (all three caches).
pub const STAT_MISSES: u8 = 6;

/// A decoded request operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Forward query: RTT quantile at `(K, T, ρ_d)`.
    Rtt,
    /// Inverse query: max load / gamer count under `budget_ms`.
    Dimension,
    /// Server counters (see the `STAT_*` selectors).
    Stats,
    /// Graceful stop.
    Shutdown,
}

/// A decoded request, framing-independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
    /// Erlang order `K` of the burst-size distribution.
    pub k: u32,
    /// Server tick interval `T` in ms.
    pub tick_ms: f64,
    /// Downlink load `ρ_d` (rtt queries).
    pub load: f64,
    /// RTT budget in ms (dimension queries).
    pub budget_ms: f64,
    /// Statistic selector (binary stats queries).
    pub stat: u8,
}

impl Request {
    /// An `rtt` query against the §4 reference scenario.
    pub fn rtt(id: u64, k: u32, tick_ms: f64, load: f64) -> Self {
        Self {
            id,
            op: Op::Rtt,
            k,
            tick_ms,
            load,
            budget_ms: 0.0,
            stat: 0,
        }
    }

    /// A `dimension` query under `budget_ms`.
    pub fn dimension(id: u64, k: u32, tick_ms: f64, budget_ms: f64) -> Self {
        Self {
            id,
            op: Op::Dimension,
            k,
            tick_ms,
            load: 0.0,
            budget_ms,
            stat: 0,
        }
    }

    /// A binary `stats` query for one `STAT_*` selector.
    pub fn stats(id: u64, stat: u8) -> Self {
        Self {
            id,
            op: Op::Stats,
            k: 0,
            tick_ms: 0.0,
            load: 0.0,
            budget_ms: 0.0,
            stat,
        }
    }

    /// A graceful-shutdown request.
    pub fn shutdown(id: u64) -> Self {
        Self {
            id,
            op: Op::Shutdown,
            k: 0,
            tick_ms: 0.0,
            load: 0.0,
            budget_ms: 0.0,
            stat: 0,
        }
    }
}

/// A response, framing-independent. `value` is the operation's primary
/// answer (RTT ms, ρ_max, or the selected statistic); `n_max` is the
/// gamer count for dimension queries and 0 otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Response {
    /// The request's correlation id.
    pub id: u64,
    /// Primary answer (meaning depends on the operation).
    pub value: f64,
    /// Gamer count `N_max` (dimension queries only).
    pub n_max: u32,
    /// One of the `STATUS_*` codes.
    pub status: u8,
}

impl Response {
    /// A `STATUS_OK` response.
    pub fn ok(id: u64, value: f64, n_max: u32) -> Self {
        Self {
            id,
            value,
            n_max,
            status: STATUS_OK,
        }
    }

    /// An error response with the given status and no payload.
    pub fn err(id: u64, status: u8) -> Self {
        Self {
            id,
            value: f64::NAN,
            n_max: 0,
            status,
        }
    }
}

fn f64_at(buf: &[u8], i: usize) -> f64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[i..i + 8]);
    f64::from_le_bytes(b)
}

fn u64_at(buf: &[u8], i: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[i..i + 8]);
    u64::from_le_bytes(b)
}

fn u32_at(buf: &[u8], i: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[i..i + 4]);
    u32::from_le_bytes(b)
}

/// Encodes a request as one binary frame.
pub fn encode_request(r: &Request) -> [u8; REQ_FRAME_LEN] {
    let mut f = [0u8; REQ_FRAME_LEN];
    f[0..8].copy_from_slice(&r.id.to_le_bytes());
    f[8..16].copy_from_slice(&r.tick_ms.to_le_bytes());
    f[16..24].copy_from_slice(&r.load.to_le_bytes());
    f[24..32].copy_from_slice(&r.budget_ms.to_le_bytes());
    f[32..36].copy_from_slice(&r.k.to_le_bytes());
    f[36] = match r.op {
        Op::Rtt => OP_RTT,
        Op::Dimension => OP_DIMENSION,
        Op::Stats => OP_STATS,
        Op::Shutdown => OP_SHUTDOWN,
    };
    f[37] = r.stat;
    f
}

/// Decodes one binary request frame (`buf.len()` must be
/// ≥ [`REQ_FRAME_LEN`]; only the first frame is read).
pub fn decode_request(buf: &[u8]) -> Result<Request, &'static str> {
    if buf.len() < REQ_FRAME_LEN {
        return Err("short frame");
    }
    let op = match buf[36] {
        OP_RTT => Op::Rtt,
        OP_DIMENSION => Op::Dimension,
        OP_STATS => Op::Stats,
        OP_SHUTDOWN => Op::Shutdown,
        _ => return Err("unknown op"),
    };
    validate(Request {
        id: u64_at(buf, 0),
        op,
        tick_ms: f64_at(buf, 8),
        load: f64_at(buf, 16),
        budget_ms: f64_at(buf, 24),
        k: u32_at(buf, 32),
        stat: buf[37],
    })
}

/// Rejects an ill-posed `rtt` or `dimension` request (see the module
/// docs' validation rules). Other ops read none of these fields.
///
/// One combined test and one message, because this runs on every
/// decoded request: an early return per rule, each with its own message,
/// served ~15–20 % fewer memo hits per CPU-second (perfbench
/// `serve_hotspot`, 2-core Xeon VM).
fn validate(r: Request) -> Result<Request, &'static str> {
    let positive = |x: f64| x > 0.0 && x < f64::INFINITY;
    let op_field_ok = match r.op {
        Op::Stats | Op::Shutdown => return Ok(r),
        Op::Rtt => r.load.is_finite(),
        Op::Dimension => positive(r.budget_ms),
    };
    if op_field_ok && (1..=MAX_ERLANG_ORDER).contains(&r.k) && positive(r.tick_ms) {
        Ok(r)
    } else {
        Err("ill-posed request: k, tick_ms, load or budget_ms out of range")
    }
}

/// Writes `r` as one binary frame into the zeroed frame `f`.
fn write_response(r: &Response, f: &mut [u8]) {
    f[0..8].copy_from_slice(&r.id.to_le_bytes());
    f[8..16].copy_from_slice(&r.value.to_le_bytes());
    f[16..20].copy_from_slice(&r.n_max.to_le_bytes());
    f[20] = r.status;
}

/// Encodes a response as one binary frame.
pub fn encode_response(r: &Response) -> [u8; RESP_FRAME_LEN] {
    let mut f = [0u8; RESP_FRAME_LEN];
    write_response(r, &mut f);
    f
}

/// Appends a response's binary frame to `out` in place, without a
/// temporary frame — the server's write path.
pub fn encode_response_into(r: &Response, out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + RESP_FRAME_LEN, 0);
    write_response(r, &mut out[start..]);
}

/// Decodes one binary response frame.
pub fn decode_response(buf: &[u8]) -> Result<Response, &'static str> {
    if buf.len() < RESP_FRAME_LEN {
        return Err("short frame");
    }
    Ok(Response {
        id: u64_at(buf, 0),
        value: f64_at(buf, 8),
        n_max: u32_at(buf, 16),
        status: buf[20],
    })
}

/// An NDJSON line that is not a valid request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejected {
    /// The line's `id`, to echo in the `bad request` answer; 0 when the
    /// line carries no readable id.
    pub id: u64,
    /// Why the line was refused.
    pub reason: String,
}

/// Parses one NDJSON request line (flat object, unknown keys ignored).
/// Every field is read even after a bad one, so a refusal still echoes
/// the line's id.
pub fn parse_json_request(line: &str) -> Result<Request, Rejected> {
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'));
    let Some(body) = body else {
        return Err(Rejected {
            id: 0,
            reason: "request must be a flat JSON object".to_string(),
        });
    };
    let mut op = None;
    let mut req = Request::rtt(0, 9, 40.0, 0.4);
    let mut error = None;
    for pair in body.split(',') {
        let Some((key, value)) = pair.split_once(':') else {
            if !pair.trim().is_empty() {
                error.get_or_insert(format!("malformed field {pair:?}"));
            }
            continue;
        };
        let key = key.trim().trim_matches('"');
        let value = value.trim();
        let parsed = match key {
            "id" => json_value(value).map(|v| req.id = v),
            "k" => json_value(value).map(|v| req.k = v),
            "stat" => json_value(value).map(|v| req.stat = v),
            "tick_ms" => json_value(value).map(|v| req.tick_ms = v),
            "load" => json_value(value).map(|v| req.load = v),
            "budget_ms" => json_value(value).map(|v| req.budget_ms = v),
            "op" => match value.trim_matches('"') {
                "rtt" => Ok(Op::Rtt),
                "dimension" => Ok(Op::Dimension),
                "stats" => Ok(Op::Stats),
                "shutdown" => Ok(Op::Shutdown),
                other => Err(format!("unknown op {other:?}")),
            }
            .map(|o| op = Some(o)),
            _ => Ok(()),
        };
        if let Err(e) = parsed {
            error.get_or_insert(format!("field {key:?}: {e}"));
        }
    }
    let reject = |reason: String| Rejected { id: req.id, reason };
    if let Some(reason) = error {
        return Err(reject(reason));
    }
    let op = op.ok_or_else(|| reject("missing \"op\"".to_string()))?;
    validate(Request { op, ..req }).map_err(|e| reject(e.to_string()))
}

/// One NDJSON scalar, parsed as `T`: an integer type refuses fractions,
/// signs and overflow instead of truncating or saturating.
fn json_value<T: std::str::FromStr>(value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("expected a {}, got {value:?}", std::any::type_name::<T>()))
}

/// Renders a response as one NDJSON line (newline included). Error
/// statuses carry `"ok":false` and a human-readable `"error"` string.
pub fn render_json_response(r: &Response) -> String {
    match r.status {
        STATUS_OK => format!(
            "{{\"id\":{},\"ok\":true,\"value\":{},\"n_max\":{}}}\n",
            r.id, r.value, r.n_max
        ),
        status => {
            let what = match status {
                STATUS_INFEASIBLE => "infeasible scenario",
                STATUS_TIMEOUT => "service budget exceeded",
                _ => "bad request",
            };
            format!("{{\"id\":{},\"ok\":false,\"error\":\"{what}\"}}\n", r.id)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_request_round_trips() {
        for r in [
            Request::rtt(7, 9, 40.0, 0.4),
            Request::dimension(8, 20, 60.0, 50.0),
            Request::stats(9, STAT_HIT_RATE),
            Request::shutdown(10),
        ] {
            let frame = encode_request(&r);
            assert_eq!(decode_request(&frame), Ok(r));
        }
    }

    #[test]
    fn binary_response_round_trips() {
        let r = Response::ok(42, 49.8125, 80);
        assert_eq!(decode_response(&encode_response(&r)), Ok(r));
        let e = decode_response(&encode_response(&Response::err(3, STATUS_TIMEOUT)))
            .expect("frame length is fixed");
        assert_eq!((e.id, e.status), (3, STATUS_TIMEOUT));
        assert!(e.value.is_nan());
        // The in-place encoder appends the same frames to a dirty buffer.
        let mut out = vec![0xff; 5];
        for r in [r, Response::err(3, STATUS_INFEASIBLE)] {
            encode_response_into(&r, &mut out);
            let frame = &out[out.len() - RESP_FRAME_LEN..];
            assert_eq!(frame, encode_response(&r));
            let back = decode_response(frame).expect("frame length is fixed");
            assert_eq!(
                (back.id, back.value.to_bits(), back.n_max, back.status),
                (r.id, r.value.to_bits(), r.n_max, r.status)
            );
        }
        assert_eq!(out.len(), 5 + 2 * RESP_FRAME_LEN);
    }

    #[test]
    fn binary_decode_rejects_garbage() {
        assert!(decode_request(&[0u8; 10]).is_err());
        let mut f = encode_request(&Request::rtt(1, 9, 40.0, 0.4));
        f[36] = 200;
        assert!(decode_request(&f).is_err());
    }

    #[test]
    fn erlang_order_above_the_cap_is_malformed() {
        let top = MAX_ERLANG_ORDER;
        for k in [top + 1, 1_000_000, u32::MAX] {
            for r in [
                Request::rtt(1, k, 40.0, 0.4),
                Request::dimension(2, k, 40.0, 50.0),
            ] {
                assert!(decode_request(&encode_request(&r)).is_err(), "K={k}");
            }
            for op in ["rtt", "dimension"] {
                let line = format!("{{\"op\":\"{op}\",\"k\":{k}}}");
                assert!(parse_json_request(&line).is_err(), "{line}");
            }
        }
        let r = Request::rtt(1, top, 40.0, 0.4);
        assert_eq!(decode_request(&encode_request(&r)), Ok(r));
        assert!(parse_json_request(&format!("{{\"op\":\"rtt\",\"k\":{top}}}")).is_ok());
        // Ops that carry no K ignore the field.
        let mut stats = Request::stats(3, STAT_HITS);
        stats.k = u32::MAX;
        assert_eq!(decode_request(&encode_request(&stats)), Ok(stats));
    }

    #[test]
    fn ill_posed_questions_are_malformed_in_both_framings() {
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        let mut bad = vec![
            Request::rtt(1, 0, 40.0, 0.4),
            Request::dimension(2, 0, 40.0, 50.0),
        ];
        for t in [nan, inf, -inf, 0.0, -40.0] {
            bad.push(Request::rtt(3, 9, t, 0.4));
            bad.push(Request::dimension(4, 9, t, 50.0));
        }
        for x in [nan, inf, -inf] {
            bad.push(Request::rtt(5, 9, 40.0, x));
        }
        for b in [nan, inf, -inf, 0.0, -5.0] {
            bad.push(Request::dimension(6, 9, 40.0, b));
        }
        for r in &bad {
            assert!(decode_request(&encode_request(r)).is_err(), "{r:?}");
            let op = if r.op == Op::Rtt { "rtt" } else { "dimension" };
            let line = format!(
                "{{\"id\":{},\"op\":\"{op}\",\"k\":{},\"tick_ms\":{},\"load\":{},\"budget_ms\":{}}}",
                r.id, r.k, r.tick_ms, r.load, r.budget_ms
            );
            let e = parse_json_request(&line).expect_err(&line);
            assert_eq!(e.id, r.id, "{line}: {}", e.reason);
        }
        // An unstable but finite load is a question with no answer, not
        // a malformed one; ops that read none of the fields ignore them.
        for load in [0.0, -0.5, 1.0, 1.5] {
            let r = Request::rtt(7, 9, 40.0, load);
            assert_eq!(decode_request(&encode_request(&r)), Ok(r));
        }
        let mut stats = Request::stats(8, STAT_HITS);
        stats.tick_ms = nan;
        assert!(decode_request(&encode_request(&stats)).is_ok());
    }

    #[test]
    fn ndjson_integers_parse_exactly() {
        let r = parse_json_request(&format!("{{\"id\":{},\"op\":\"rtt\"}}", u64::MAX))
            .expect("the largest id is valid");
        assert_eq!(r.id, u64::MAX, "ids echo back exactly, not through f64");
        for (line, id) in [
            ("{\"id\":4,\"op\":\"rtt\",\"k\":9.5}", 4),
            ("{\"k\":-3,\"op\":\"rtt\",\"id\":5}", 5),
            ("{\"id\":6,\"op\":\"stats\",\"stat\":256}", 6),
            ("{\"id\":-1,\"op\":\"rtt\"}", 0),
            ("{\"id\":1.5,\"op\":\"rtt\"}", 0),
        ] {
            let e = parse_json_request(line).expect_err(line);
            assert_eq!(e.id, id, "{line}: {}", e.reason);
        }
    }

    #[test]
    fn json_request_parses_and_defaults() {
        let r = parse_json_request("{\"id\": 3, \"op\": \"rtt\", \"k\": 2, \"load\": 0.25}")
            .expect("valid request");
        assert_eq!((r.id, r.op, r.k), (3, Op::Rtt, 2));
        assert_eq!(r.tick_ms, 40.0, "tick defaults to the paper's 40 ms");
        assert_eq!(r.load, 0.25);
        assert!(parse_json_request("{\"id\":1}").is_err(), "op is required");
        assert!(parse_json_request("not json").is_err());
        assert!(parse_json_request("{\"op\":\"fly\"}").is_err());
    }

    #[test]
    fn json_response_lines_are_flat_and_newline_terminated() {
        let ok = render_json_response(&Response::ok(1, 50.5, 80));
        assert_eq!(ok, "{\"id\":1,\"ok\":true,\"value\":50.5,\"n_max\":80}\n");
        let err = render_json_response(&Response::err(2, STATUS_INFEASIBLE));
        assert!(err.contains("\"ok\":false") && err.ends_with('\n'));
    }
}
