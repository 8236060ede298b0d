//! Replay of the request path through the serving crate's public API, on
//! the run's own request bodies: frame (`http::read_request`) → decode →
//! registry lookup → compiled predict → encode → `http::write_response`.
//! Framing runs over a real localhost socket pair.

use evobench::report::Report;
use evobench::serving::{RequestSet, SLOT};
use evobench::stats::{ns, timed, us};
use evoforecast_core::Combination;
use evoforecast_serve::http;
use evoforecast_serve::protocol::{EngineKind, ForecastRequest, ForecastResponse};
use evoforecast_serve::registry::ModelRegistry;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

/// Per-request samples of every stage.
#[derive(Debug, Default)]
pub struct StageSamples {
    pub read_request_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub get_ns: Vec<f64>,
    /// Compiled predict time per window.
    pub predict_ns: Vec<f64>,
    /// Firing rules per answered window.
    pub firing_rules: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub write_response_us: Vec<f64>,
}

/// Replay `samples` requests of the list (cycling) against the registry's
/// current model. Predictions are checked bit for bit against the offline
/// answers.
///
/// # Errors
/// Socket errors of the replay's own socket pair.
pub fn replay(
    registry: &ModelRegistry,
    set: &RequestSet,
    max_body: usize,
    samples: usize,
    report: &mut Report,
) -> std::io::Result<StageSamples> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let mut out = StageSamples::default();
    for request in set.requests.iter().cycle().take(samples) {
        let mut client = TcpStream::connect(addr)?;
        let (mut server_side, _) = listener.accept()?;

        // Whatever fits in the socket buffers is written before the timer
        // starts, so a small request times parsing alone; the rest of a
        // large body is written concurrently, as a real client would.
        client.set_nonblocking(true)?;
        let mut sent = 0;
        while sent < request.bytes.len() {
            match client.write(&request.bytes[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        client.set_nonblocking(false)?;
        let rest = &request.bytes[sent..];
        let framed = std::thread::scope(|s| {
            let writer = (!rest.is_empty()).then(|| s.spawn(|| client.write_all(rest)));
            let (framed, t) = timed(|| http::read_request(&mut server_side, max_body));
            out.read_request_us.push(us(t));
            let written = writer.map_or(Ok(()), |w| w.join().expect("request writer panicked"));
            written.map(|()| framed)
        })?;
        let Ok(framed) = framed else {
            report.violation("replayed request did not frame");
            continue;
        };
        let body = String::from_utf8_lossy(&framed.body);
        let (decoded, t) = timed(|| serde_json::from_str::<ForecastRequest>(&body));
        out.decode_us.push(us(t));
        let Ok(decoded) = decoded else {
            report.violation("replayed request did not decode");
            continue;
        };

        let (entry, t) = timed(|| registry.get(&decoded.model));
        out.get_ns.push(ns(t));
        let Some(entry) = entry else {
            report.violation(format!("registry has no slot {SLOT}"));
            continue;
        };
        let mut scratch = entry.compiled.scratch();
        let (predictions, t) = timed(|| {
            decoded
                .windows
                .iter()
                .map(|w| {
                    entry
                        .compiled
                        .predict_with_into(w, Combination::Mean, &mut scratch)
                })
                .collect::<Vec<_>>()
        });
        out.predict_ns.push(ns(t) / decoded.windows.len() as f64);
        for (k, (got, w)) in predictions.iter().zip(&decoded.windows).enumerate() {
            let want = set.expected[request.first + k];
            report.check(got.map(f64::to_bits) == want.map(f64::to_bits), || {
                format!("replayed window {}: {got:?} != {want:?}", request.first + k)
            });
            if let Some(detail) = entry.compiled.predict_detailed_into(w, &mut scratch) {
                out.firing_rules.push(detail.firing_rules as f64);
            }
        }

        let response = ForecastResponse {
            model: decoded.model.clone(),
            model_version: entry.version,
            engine: EngineKind::Compiled,
            abstained: predictions.iter().filter(|p| p.is_none()).count(),
            predictions,
            trajectories: None,
            details: None,
        };
        let (encoded, t) = timed(|| serde_json::to_string(&response));
        out.encode_us.push(us(t));
        let Ok(encoded) = encoded else {
            report.violation("replayed response did not encode");
            continue;
        };

        // Responses are a few KiB at most and fit in the socket buffers, so
        // the write completes before the client reads it.
        let (written, t) = timed(|| http::write_response(&mut server_side, 200, &encoded));
        out.write_response_us.push(us(t));
        written?;
        drop(server_side);
        client.read_to_end(&mut Vec::new())?;
    }
    Ok(out)
}
