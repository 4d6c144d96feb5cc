//! Seeded inputs: the corpus XML and the query texts of each workload.
//!
//! Everything the server sees is a function of `(workload, seed)`. The
//! seed picks constants, labels and order; the *shape* of a workload
//! (record counts, label multisets, join fan-out, output sizes, the mix
//! of query kinds) is fixed, so any seed costs the same work and a claim
//! measured on one seed can be re-checked on another.

use std::borrow::Cow;

/// SplitMix64: small, fast, and good enough to scatter benchmark inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// `0..n` in seeded order.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// A stateless draw for request `i` of stream `lane`: cold-mix texts are
/// generated on demand, in any order, by both load-generator threads.
fn draw(seed: u64, lane: u64, i: u64) -> Rng {
    let mut r = Rng::new(seed ^ lane.wrapping_mul(0xa076_1d64_78bd_642f));
    r.0 ^= i.wrapping_mul(0xe703_7ed1_a0b4_28db);
    r.next_u64();
    r
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotPoint,
    HeavyEval,
    ColdMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HotPoint, Workload::HeavyEval, Workload::ColdMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotPoint => "hot_point",
            Workload::HeavyEval => "heavy_eval",
            Workload::ColdMix => "cold_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The two fixed open-loop rates (requests per second), pinned so
    /// every commit is measured at the same offered load. On the 2-thread
    /// host they were chosen on, hot_point runs at about a quarter and
    /// 0.4 of its closed-loop throughput when the host ran slowest.
    /// heavy_eval runs at about 15% and 25%: its p50 is a constructor,
    /// which waits when it lands behind a join, and at 65 and 105 rps a
    /// host stealing 6-11% of the CPU time raised p50 1.5-2.2x, against
    /// at most 1.4x at 40 and 70. cold_mix runs at about 1% and 2%: at
    /// 1000 rps and more its p90 moved 2-7x between runs of the same
    /// code.
    pub fn rates(self) -> (f64, f64) {
        match self {
            Workload::HotPoint => (6_000.0, 10_000.0),
            Workload::HeavyEval => (40.0, 70.0),
            Workload::ColdMix => (100.0, 300.0),
        }
    }

    fn shape(self) -> Shape {
        match self {
            Workload::HotPoint => Shape {
                docs: 1,
                records: 64,
                keys: 16,
                groups: 8,
            },
            Workload::HeavyEval => Shape {
                docs: 1,
                records: 1000,
                keys: 100,
                groups: 40,
            },
            // 24 documents, fewer than the 32 trees a pool worker caches:
            // each worker converts each document once, in the warm-up, and
            // never clears its cache. With 64 documents most requests
            // converted one and every ~40th dropped a full cache; freeing
            // and re-faulting those trees put p90 at 0.8 ms in one run and
            // 4.4 ms in the next, and throughput spread by half across
            // ten runs.
            Workload::ColdMix => Shape {
                docs: 24,
                records: 50,
                keys: 10,
                groups: 5,
            },
        }
    }
}

struct Shape {
    docs: usize,
    records: usize,
    /// Distinct `key`/`ref` values; `records` is a multiple, so every key
    /// is held by exactly `records / keys` records whatever the seed.
    keys: usize,
    /// Distinct `grp` values, likewise evenly filled.
    groups: usize,
}

/// One document: `records` records of 14 nodes each under a `db` root.
/// Every label multiset is fixed by the shape; the seed only permutes
/// which record holds which value, so document size and join fan-out do
/// not depend on it.
fn corpus_doc(rng: &mut Rng, shape: &Shape) -> String {
    let n = shape.records;
    let [id, key, rf, grp, v, w, tag] = [(); 7].map(|_| rng.permutation(n));
    let mut s = String::with_capacity(n * 120);
    s.push_str("<db>");
    for i in 0..n {
        s.push_str(&format!(
            "<rec><id><i{}/></id><key><k{}/></key><ref><k{}/></ref><grp><g{}/></grp>\
             <val><v{}/><w{}/></val><tag><t{}/></tag></rec>",
            id[i],
            key[i] % shape.keys,
            rf[i] % shape.keys,
            grp[i] % shape.groups,
            v[i] % 13,
            w[i] % 17,
            tag[i] % 5,
        ));
    }
    s.push_str("</db>");
    s
}

/// What the load generator must see in the reply to one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Hot text `k` of [`Inputs::texts`] on document 0: exact bytes known.
    Hot(usize),
    /// A fresh cold-mix text; `sampled` replies are held for the oracle.
    Cold { sampled: bool },
    /// A deliberately malformed cold-mix text: must be answered `parse`.
    Malformed,
}

pub struct Request<'a> {
    pub text: Cow<'a, str>,
    pub doc: usize,
    pub kind: Kind,
}

/// Cold-mix replies the oracle re-derives: one valid request in this many.
pub const COLD_SAMPLE_EVERY: u64 = 8;

/// Cold-mix query templates. `{u}` is a fresh constructor label per
/// request, so no two texts are equal.
const COLD_TEMPLATES: usize = 5;

pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// Corpus XML, one string per document (`d0`, `d1`, …).
    pub docs: Vec<String>,
    /// The hot texts (hot_point, heavy_eval) or the warm set (cold_mix,
    /// one instance per template). Setup answers each once on `d0`.
    pub texts: Vec<String>,
    /// The repeating request cycle over `texts` (empty for cold_mix).
    cycle: Vec<usize>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let shape = workload.shape();
        let mut rng = Rng::new(seed);
        let docs = (0..shape.docs)
            .map(|_| corpus_doc(&mut rng, &shape))
            .collect();
        let (texts, cycle) = match workload {
            Workload::HotPoint => hot_point_texts(&mut rng, &shape),
            Workload::HeavyEval => heavy_eval_texts(&mut rng, &shape),
            Workload::ColdMix => {
                let warm = (0..COLD_TEMPLATES)
                    .map(|t| cold_text(t, &mut rng, &shape, &format!("warm{t}")))
                    .collect();
                (warm, Vec::new())
            }
        };
        Inputs {
            workload,
            seed,
            docs,
            texts,
            cycle,
        }
    }

    pub fn doc_name(doc: usize) -> String {
        format!("d{doc}")
    }

    /// What request `i` of the stream expects, without building its text.
    pub fn kind(&self, i: u64) -> Kind {
        if self.workload != Workload::ColdMix {
            return Kind::Hot(self.cycle[(i % self.cycle.len() as u64) as usize]);
        }
        // One malformed text per block of ten, at a seeded position.
        let block = i / 10;
        if draw(self.seed, 1, block).below(10) as u64 == i % 10 {
            Kind::Malformed
        } else {
            Kind::Cold {
                sampled: i.is_multiple_of(COLD_SAMPLE_EVERY),
            }
        }
    }

    /// Request `i` of the workload's stream.
    pub fn request(&self, i: u64) -> Request<'_> {
        let kind = self.kind(i);
        if let Kind::Hot(k) = kind {
            return Request {
                text: Cow::Borrowed(&self.texts[k]),
                doc: 0,
                kind,
            };
        }
        let shape = self.workload.shape();
        let mut r = draw(self.seed, 2, i);
        let doc = r.below(shape.docs);
        let template = r.below(COLD_TEMPLATES);
        let text = cold_text(template, &mut r, &shape, &format!("u{i}"));
        let text = if kind == Kind::Malformed {
            malform(&text, &mut r)
        } else {
            text
        };
        Request {
            text: Cow::Owned(text),
            doc,
            kind,
        }
    }

    /// FNV-1a over everything the generator produced: the corpus, the
    /// hot texts, the cycle, and (cold_mix) the first 4096 stream texts.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.str(self.workload.name());
        for d in &self.docs {
            h.str(d);
        }
        for t in &self.texts {
            h.str(t);
        }
        for &c in &self.cycle {
            h.bytes(&(c as u64).to_le_bytes());
        }
        if self.workload == Workload::ColdMix {
            for i in 0..4096 {
                let r = self.request(i);
                h.str(&r.text);
                h.bytes(&(r.doc as u64).to_le_bytes());
            }
        }
        h.0
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for x in b {
            self.0 ^= u64::from(*x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A string plus a terminator, so concatenations hash apart.
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }
}

/// Eight hot texts over 64 records: four point lookups by a constant id
/// label and four filters by a constant key; uniform random order.
fn hot_point_texts(rng: &mut Rng, shape: &Shape) -> (Vec<String>, Vec<usize>) {
    let ids = rng.permutation(shape.records);
    let keys = rng.permutation(shape.keys);
    let mut texts = Vec::new();
    for &id in &ids[..4] {
        texts.push(format!("for $r in $root/rec where $r/id/i{id} return $r"));
    }
    for &k in &keys[..4] {
        texts.push(format!(
            "for $r in $root/rec where $r/key/* =atomic <k{k}/> return <hit>{{ $r/id/* }}{{ $r/val/* }}</hit>"
        ));
    }
    let cycle = (0..1024).map(|_| rng.below(texts.len())).collect();
    (texts, cycle)
}

/// Four equi-joins (two `=deep`, two `=atomic`) of one record group
/// against all 1000 records, and four record-wide constructors. Each
/// block of ten requests holds two joins and eight constructors, in
/// seeded order: p90 then falls inside the joins' latency mode and p50
/// well inside the constructors', away from the edge between them.
fn heavy_eval_texts(rng: &mut Rng, shape: &Shape) -> (Vec<String>, Vec<usize>) {
    let groups = rng.permutation(shape.groups);
    let labels = rng.permutation(1000);
    let mut texts = Vec::new();
    for (j, mode) in ["=deep", "=deep", "=atomic", "=atomic"].iter().enumerate() {
        texts.push(format!(
            "for $x in $root/rec where $x/grp/g{} return \
             for $y in $root/rec where $x/ref/* {mode} $y/key/* return <p>{{ $x/id/* }}{{ $y }}</p>",
            groups[j]
        ));
    }
    for &l in &labels[..4] {
        texts.push(format!(
            "for $x in $root/rec return <o{l}>{{ $x/id }}{{ $x/val }}{{ $x/tag }}</o{l}>"
        ));
    }
    let mut cycle = Vec::new();
    for b in 0..100 {
        let mut block: Vec<usize> = (0..2).map(|j| (2 * b + j) % 4).collect();
        block.extend((0..8).map(|j| 4 + (8 * b + j) % 4));
        rng.shuffle(&mut block);
        cycle.extend(block);
    }
    (texts, cycle)
}

/// A cold-mix text from `template`, with constants drawn from `r` and the
/// fresh constructor label `c<u>`.
fn cold_text(template: usize, r: &mut Rng, shape: &Shape, u: &str) -> String {
    match template {
        0 => format!(
            "for $r in $root/rec where $r/id/i{} return <c{u}>{{ $r/val/* }}</c{u}>",
            r.below(shape.records)
        ),
        1 => format!(
            "for $r in $root/rec where $r/key/* =atomic <k{}/> return <c{u}>{{ $r/id/* }}</c{u}>",
            r.below(shape.keys)
        ),
        2 => format!("<c{u}>{{ $root/rec/grp/g{} }}</c{u}>", r.below(shape.groups)),
        3 => format!(
            "for $r in $root/rec where $r/grp/g{} return <c{u}>{{ $r/tag/* }}{{ $r/ref/* }}</c{u}>",
            r.below(shape.groups)
        ),
        _ => format!(
            "let $d := $root/rec/val return <c{u}>{{ for $v in $d/* where $v =atomic <v{}/> return $v }}</c{u}>",
            r.below(13)
        ),
    }
}

/// Breaks a valid text so the parser must reject it: a misspelt keyword,
/// a dropped closing brace, or a stray closing parenthesis. The fresh
/// label survives, so malformed texts stay distinct too.
fn malform(text: &str, r: &mut Rng) -> String {
    match r.below(3) {
        0 if text.contains("return") => text.replacen("return", "retrun", 1),
        1 if text.contains('}') => text.replacen('}', "", 1),
        _ => format!("{text} )"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_inputs() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 7);
            let b = Inputs::generate(w, 7);
            assert_eq!(a.hash(), b.hash(), "{}", w.name());
            assert_eq!(a.docs, b.docs);
            assert_eq!(a.texts, b.texts);
            assert_eq!(a.request(123).text, b.request(123).text);
        }
    }

    #[test]
    fn other_seeds_give_other_inputs_of_the_same_size() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 1);
            let b = Inputs::generate(w, 2);
            assert_ne!(a.hash(), b.hash(), "{}", w.name());
            let len = |i: &Inputs| i.docs.iter().map(String::len).sum::<usize>();
            assert_eq!(
                len(&a),
                len(&b),
                "{}: corpus size is seed-independent",
                w.name()
            );
        }
    }

    #[test]
    fn texts_parse_and_malformed_ones_do_not() {
        for w in Workload::ALL {
            let inputs = Inputs::generate(w, 11);
            for t in &inputs.texts {
                assert!(xq_core::parse_query(t).is_ok(), "{t}");
            }
            let mut malformed = 0;
            for i in 0..2000 {
                let r = inputs.request(i);
                let parsed = xq_core::parse_query(&r.text);
                assert_eq!(parsed.is_err(), r.kind == Kind::Malformed, "{}", r.text);
                malformed += usize::from(r.kind == Kind::Malformed);
            }
            if w == Workload::ColdMix {
                assert_eq!(malformed, 200, "one malformed text per block of ten");
            }
        }
    }

    #[test]
    fn cold_texts_are_distinct() {
        let inputs = Inputs::generate(Workload::ColdMix, 3);
        let texts: std::collections::HashSet<String> = (0..5000)
            .map(|i| inputs.request(i).text.into_owned())
            .collect();
        assert_eq!(texts.len(), 5000);
    }
}
