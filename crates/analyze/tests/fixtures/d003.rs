//! analyze-as: crates/system/src/fixture.rs
//! D003: float accumulation inside thread spawn/scope blocks and fan-out
//! helper calls. Integer counters are exempt; a `chunk-order merge`
//! marker near the scope vouches for an ordered reduction; a pragma
//! suppresses with a reason.

fn racy(chunks: &[Vec<f64>]) -> f64 {
    let mut n = 0usize;
    std::thread::scope(|s| {
        for chunk in chunks {
            s.spawn(|| {
                let mut local = 0.0;
                for v in chunk {
                    local += *v; //~ D003
                    n += 1;
                }
                local
            });
        }
    });
    0.0
}

fn fanned(chunks: &[Vec<f64>], total: &std::sync::Mutex<f64>) {
    let _ = fanout::try_map(chunks.len(), 4, |i| {
        let mut t = total.lock().unwrap_or_else(|e| e.into_inner());
        *t += chunks[i].len() as f64; //~ D003
        Ok::<_, ()>(())
    });
}

fn ordered(chunks: &[Vec<f64>]) -> f64 {
    // Per-chunk partials, combined below in a chunk-order merge.
    let partials: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|c| s.spawn(move || c.iter().sum::<f64>()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0.0)).collect()
    });
    partials.iter().sum()
}

fn vouched(chunks: &[Vec<f64>]) {
    std::thread::scope(|s| {
        let mut x = 0.0;
        // cimloop-analyze: allow(D003, reason = "fixture: single-threaded scope, order is fixed")
        x += chunks.len() as f64; //~ allowed D003
        drop(x);
        drop(s);
    });
}
