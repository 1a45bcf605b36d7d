//! Output checks: structural JSON comparison with a relative tolerance on
//! numbers (exact on strings, booleans, keys and lengths).

use crate::account::Outcome;
use ghosts_obs::json::JsonValue;

/// The tolerance of ROADMAP item 2's gate: estimates and CI endpoints may
/// move by at most this much, relative.
pub const REL_TOL: f64 = 1e-9;

/// Whether two numbers agree within `rel_tol` of the larger magnitude.
pub fn close(a: f64, b: f64, rel_tol: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    a == b || (a - b).abs() <= rel_tol * a.abs().max(b.abs())
}

/// Every difference between `expected` and `actual`, as `path: detail`
/// lines. Empty when they agree.
pub fn diff(expected: &JsonValue, actual: &JsonValue, rel_tol: f64) -> Vec<String> {
    let mut out = Vec::new();
    walk("$", expected, actual, rel_tol, &mut out);
    out
}

/// [`diff`] at [`REL_TOL`] as an outcome: `Ok`, or a mismatch listing
/// every difference.
pub fn against(expected: &JsonValue, actual: &JsonValue) -> Outcome {
    let d = diff(expected, actual, REL_TOL);
    if d.is_empty() {
        Outcome::Ok
    } else {
        Outcome::Mismatch(d.join("; "))
    }
}

fn number(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::UInt(u) => Some(*u as f64),
        JsonValue::Int(i) => Some(*i as f64),
        JsonValue::Float(f) => Some(*f),
        _ => None,
    }
}

fn walk(path: &str, e: &JsonValue, a: &JsonValue, tol: f64, out: &mut Vec<String>) {
    match (e, a) {
        (JsonValue::Object(ek), JsonValue::Object(ak)) => {
            let ekeys: Vec<&str> = ek.iter().map(|(k, _)| k.as_str()).collect();
            let akeys: Vec<&str> = ak.iter().map(|(k, _)| k.as_str()).collect();
            if ekeys != akeys {
                out.push(format!("{path}: keys {ekeys:?} != {akeys:?}"));
                return;
            }
            for ((k, ev), (_, av)) in ek.iter().zip(ak) {
                walk(&format!("{path}.{k}"), ev, av, tol, out);
            }
        }
        (JsonValue::Array(ev), JsonValue::Array(av)) => {
            if ev.len() != av.len() {
                out.push(format!("{path}: length {} != {}", ev.len(), av.len()));
                return;
            }
            for (i, (x, y)) in ev.iter().zip(av).enumerate() {
                walk(&format!("{path}[{i}]"), x, y, tol, out);
            }
        }
        _ => match (number(e), number(a)) {
            (Some(x), Some(y)) => {
                if !close(x, y, tol) {
                    out.push(format!("{path}: {x} != {y}"));
                }
            }
            _ => {
                if e != a {
                    out.push(format!("{path}: {} != {}", e.to_compact(), a.to_compact()));
                }
            }
        },
    }
}

/// Re-reads a `serde_json` value (what the experiments return) as a
/// [`JsonValue`] through its serialised text.
pub fn from_serde(v: &serde_json::Value) -> JsonValue {
    let text = serde_json::to_string(v).expect("experiment JSON serialises");
    ghosts_obs::json::parse(&text).expect("serialised JSON parses")
}
