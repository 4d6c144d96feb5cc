//! The output oracle and the wire checks built on it.
//!
//! Expected answers come from the Figure 1 interpreter
//! (`xq_core::eval_with` on `ArenaDoc::to_tree()`), never from the VM the
//! server runs. Hot texts are answered before timing starts and turned
//! into the exact reply bytes; cold-mix replies are sampled and checked
//! against the interpreter after the timed phases.

use crate::gen::{Inputs, Kind};
use cv_xtree::{ArenaDoc, Tree};
use xq_core::{eval_with, parse_query, Budget, Env};
use xq_server::Frame;

/// The interpreter's answer to `text` on `tree`, serialized as the server
/// serializes results.
pub fn reference(text: &str, tree: &Tree) -> Result<String, String> {
    let q = parse_query(text).map_err(|e| e.to_string())?;
    let (out, _) = eval_with(&q, &Env::with_root(tree.clone()), Budget::default())
        .map_err(|e| e.to_string())?;
    Ok(out.iter().map(Tree::to_xml).collect())
}

/// One hot text's expected answer.
pub struct Expected {
    pub xml: String,
    /// The reply frame after its id: `"result":"…"}`.
    tail: Vec<u8>,
}

pub struct Oracle {
    pub hot: Vec<Expected>,
}

impl Oracle {
    /// Answers every hot (or warm) text on document 0.
    pub fn build(inputs: &Inputs, docs: &[std::sync::Arc<ArenaDoc>]) -> Result<Oracle, String> {
        let tree = docs[0].to_tree();
        let hot = inputs
            .texts
            .iter()
            .map(|t| {
                let xml = reference(t, &tree).map_err(|e| format!("oracle on {t:?}: {e}"))?;
                let framed = Frame::new().str("result", xml.as_str()).encode();
                Ok(Expected {
                    tail: framed.as_bytes()[1..].to_vec(),
                    xml,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Oracle { hot })
    }
}

const OK_PREFIX: &[u8] = b"{\"ok\":true,\"id\":";
const ERR_PREFIX: &[u8] = b"{\"ok\":false,\"id\":";

/// The request id a reply line carries, if it has the shape every
/// `query` reply has.
pub fn reply_id(line: &[u8]) -> Option<u64> {
    let rest = line
        .strip_prefix(OK_PREFIX)
        .or_else(|| line.strip_prefix(ERR_PREFIX))?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    if digits == 0 || digits > 19 {
        return None;
    }
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

/// What a checked reply left behind.
pub enum Verdict {
    Correct,
    /// A valid cold-mix reply picked for the post-run oracle check.
    Sampled,
}

/// Checks one reply line to request `id` of kind `kind`. Wrong bytes, a
/// wrong or unexpected code (`overloaded`, `eval`, `internal_error`,
/// `deadline`, …) and unparseable lines are errors.
pub fn check_reply(oracle: &Oracle, kind: Kind, id: u64, line: &[u8]) -> Result<Verdict, String> {
    match kind {
        Kind::Hot(k) => {
            let want = &oracle.hot[k].tail;
            let ok = line
                .strip_prefix(OK_PREFIX)
                .and_then(|r| r.strip_prefix(id.to_string().as_bytes()))
                .and_then(|r| r.strip_prefix(b","))
                .is_some_and(|r| r == want.as_slice());
            if ok {
                Ok(Verdict::Correct)
            } else {
                Err(describe(id, line, "the expected result"))
            }
        }
        Kind::Malformed => match error_code(line) {
            Some(code) if code == "parse" => Ok(Verdict::Correct),
            _ => Err(describe(id, line, "code parse")),
        },
        Kind::Cold { sampled } => {
            if !line.starts_with(OK_PREFIX) {
                return Err(describe(id, line, "ok"));
            }
            Ok(if sampled {
                Verdict::Sampled
            } else {
                Verdict::Correct
            })
        }
    }
}

/// Checks a sampled cold-mix result against the interpreter.
pub fn check_sample(inputs: &Inputs, trees: &[Tree], id: u64, result: &str) -> Result<(), String> {
    let req = inputs.request(id);
    let want = reference(&req.text, &trees[req.doc])?;
    if want == result {
        Ok(())
    } else {
        Err(format!(
            "request {id}: result differs from the interpreter ({} vs {} bytes) for {:?}",
            result.len(),
            want.len(),
            req.text
        ))
    }
}

/// The `result` field of a sampled reply line.
pub fn reply_result(line: &[u8]) -> Option<String> {
    let frame = Frame::parse(std::str::from_utf8(line).ok()?).ok()?;
    frame.get_str("result").map(str::to_string)
}

fn error_code(line: &[u8]) -> Option<String> {
    let frame = Frame::parse(std::str::from_utf8(line).ok()?).ok()?;
    if frame.get_bool("ok") != Some(false) {
        return None;
    }
    frame.get_str("code").map(str::to_string)
}

fn describe(id: u64, line: &[u8], want: &str) -> String {
    let shown = String::from_utf8_lossy(&line[..line.len().min(160)]).into_owned();
    match error_code(line) {
        Some(code) => format!("request {id}: wanted {want}, got code {code}: {shown}"),
        None => format!("request {id}: wanted {want}, got {shown}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;
    use std::sync::Arc;

    fn hot_oracle() -> (Inputs, Oracle) {
        let inputs = Inputs::generate(Workload::HotPoint, 5);
        let docs = vec![Arc::new(ArenaDoc::parse(&inputs.docs[0]).unwrap())];
        let oracle = Oracle::build(&inputs, &docs).unwrap();
        (inputs, oracle)
    }

    fn ok_line(id: u64, xml: &str) -> Vec<u8> {
        Frame::new()
            .bool("ok", true)
            .uint("id", id)
            .str("result", xml)
            .encode()
            .into_bytes()
    }

    fn err_line(id: u64, code: &str) -> Vec<u8> {
        Frame::new()
            .bool("ok", false)
            .uint("id", id)
            .str("code", code)
            .str("error", "x")
            .encode()
            .into_bytes()
    }

    #[test]
    fn accepts_the_exact_reply() {
        let (_, oracle) = hot_oracle();
        let line = ok_line(42, &oracle.hot[3].xml);
        assert_eq!(reply_id(&line), Some(42));
        assert!(check_reply(&oracle, Kind::Hot(3), 42, &line).is_ok());
    }

    #[test]
    fn flags_a_corrupted_body() {
        let (_, oracle) = hot_oracle();
        let mut xml = oracle.hot[0].xml.clone();
        xml.insert_str(xml.len() / 2, "<x/>");
        let line = ok_line(7, &xml);
        assert!(check_reply(&oracle, Kind::Hot(0), 7, &line).is_err());
        // The right body under the wrong id is wrong too.
        let line = ok_line(8, &oracle.hot[0].xml);
        assert!(check_reply(&oracle, Kind::Hot(0), 7, &line).is_err());
        // Another hot text's answer is not this one's.
        let other = (1..oracle.hot.len())
            .find(|&k| oracle.hot[k].xml != oracle.hot[0].xml)
            .unwrap();
        let line = ok_line(7, &oracle.hot[other].xml);
        assert!(check_reply(&oracle, Kind::Hot(0), 7, &line).is_err());
    }

    #[test]
    fn flags_unexpected_codes() {
        let (_, oracle) = hot_oracle();
        for code in ["overloaded", "eval", "internal_error", "deadline", "parse"] {
            let line = err_line(9, code);
            assert_eq!(reply_id(&line), Some(9));
            let err = check_reply(&oracle, Kind::Hot(1), 9, &line).err().unwrap();
            assert!(err.contains(code), "{err}");
            assert!(check_reply(&oracle, Kind::Cold { sampled: false }, 9, &line).is_err());
        }
        assert!(check_reply(&oracle, Kind::Malformed, 9, &err_line(9, "parse")).is_ok());
        assert!(check_reply(&oracle, Kind::Malformed, 9, &err_line(9, "eval")).is_err());
        assert!(check_reply(&oracle, Kind::Malformed, 9, &ok_line(9, "")).is_err());
        assert_eq!(reply_id(b"{\"ok\":false,\"code\":\"bad_request\"}"), None);
    }

    #[test]
    fn sampled_cold_replies_are_rechecked_by_the_interpreter() {
        let inputs = Inputs::generate(Workload::ColdMix, 5);
        let trees: Vec<Tree> = inputs
            .docs
            .iter()
            .map(|d| ArenaDoc::parse(d).unwrap().to_tree())
            .collect();
        let id = (0..100)
            .find(|&i| inputs.kind(i) == Kind::Cold { sampled: true })
            .unwrap();
        let req = inputs.request(id);
        let good = reference(&req.text, &trees[req.doc]).unwrap();
        assert!(check_sample(&inputs, &trees, id, &good).is_ok());
        assert!(check_sample(&inputs, &trees, id, &format!("{good}<x/>")).is_err());
        let line = ok_line(id, &good);
        assert_eq!(reply_result(&line).as_deref(), Some(good.as_str()));
    }
}
