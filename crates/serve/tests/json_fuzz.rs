//! Seeded fuzzing of the JSON reader, the frame parser and the JSON
//! writer together.
//!
//! Inputs: random bytes, random strings over the JSON alphabet, byte
//! mutations (flip, truncate, splice, repeat) of the frames in
//! `ci/smoke_trace.jsonl`, and random finite numbers. For every input,
//! `Json::parse` and `parse_frame` must not panic, a refused frame must
//! carry the `malformed` or `unknown_op` code, and every value the
//! reader accepts must print, compact and pretty, to text that reads
//! back as the same value. The generator is seeded, so every run checks
//! the same inputs.

use ftts_serve::{parse_frame, Json};

const SMOKE_TRACE: &str = include_str!("../ci/smoke_trace.jsonl");

/// Inputs per test.
const CASES: usize = 10_000;

/// The JSON alphabet, `|`-separated: structure, escapes, number parts,
/// overflowing literals, keywords, protocol keys and non-ASCII text.
const TOKENS: &str = "{|}|[|]|:|,|\"|\\|\\u|d83e|dd80|00e9|0|7|-|+|.|e|E|1e999|-1e999|\
                      1e-999|true|false|null| |\n|\"op\"|\"submit\"|\"stats\"|é|🦀|\u{1}";

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Names the input when a check (or the parser itself) panics.
struct NameOnPanic<'a>(&'a str);

impl Drop for NameOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("fuzz input: {:?}", self.0);
        }
    }
}

/// Check one input; returns whether it parsed as JSON and as a frame.
fn check(bytes: &[u8]) -> (bool, bool) {
    let text = String::from_utf8_lossy(bytes);
    let _name = NameOnPanic(&text);
    let value = Json::parse(&text);
    if let Ok(v) = &value {
        for printed in [v.to_string(), format!("{v:#}")] {
            assert_eq!(Json::parse(&printed).as_ref(), Ok(v), "printed {printed}");
        }
    }
    let frame = parse_frame(&text);
    if let Err(e) = &frame {
        assert!(matches!(e.code, "malformed" | "unknown_op"), "{e:?}");
    }
    (value.is_ok(), frame.is_ok())
}

/// Check `CASES` inputs from `make`; returns how many parsed as JSON
/// and how many as frames.
fn fuzz(seed: u64, mut make: impl FnMut(&mut Rng) -> Vec<u8>) -> (usize, usize) {
    let mut rng = Rng(seed);
    (0..CASES).fold((0, 0), |(values, frames), _| {
        let (value, frame) = check(&make(&mut rng));
        (values + usize::from(value), frames + usize::from(frame))
    })
}

/// One byte-level mutation of `frame`, splicing from `other`.
fn mutate(rng: &mut Rng, frame: &mut Vec<u8>, other: &[u8]) {
    let at = rng.below(frame.len() + 1);
    let end = at + rng.below(frame.len() - at + 1);
    match rng.below(4) {
        0 if at < frame.len() => frame[at] ^= 1 << rng.below(8),
        1 => frame.truncate(at),
        2 => {
            let from = rng.below(other.len() + 1);
            let to = from + rng.below(other.len() - from + 1);
            frame.splice(at..end, other[from..to].iter().copied());
        }
        _ => {
            let run = frame[at..end].to_vec();
            frame.splice(at..at, run);
        }
    }
}

#[test]
fn random_bytes_fail_structured_or_round_trip() {
    fuzz(1, |rng| {
        (0..rng.below(48)).map(|_| rng.next() as u8).collect()
    });
}

#[test]
fn random_json_alphabet_strings_fail_structured_or_round_trip() {
    let tokens: Vec<&str> = TOKENS.split('|').collect();
    let (values, _) = fuzz(2, |rng| {
        let text: String = (0..1 + rng.below(12))
            .map(|_| tokens[rng.below(tokens.len())])
            .collect();
        text.into_bytes()
    });
    assert!(values > 200, "only {values} inputs parsed");
}

#[test]
fn mutated_smoke_frames_fail_structured_or_round_trip() {
    let frames: Vec<&[u8]> = SMOKE_TRACE
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::as_bytes)
        .collect();
    assert_eq!(frames.len(), 9, "the smoke trace holds its frames");
    assert!(frames.iter().all(|f| check(f) == (true, true)));
    let (values, accepted) = fuzz(3, |rng| {
        let mut bytes = frames[rng.below(frames.len())].to_vec();
        for _ in 0..1 + rng.below(3) {
            let other = frames[rng.below(frames.len())];
            mutate(rng, &mut bytes, other);
        }
        bytes
    });
    assert!(values > 800, "only {values} inputs parsed");
    assert!(accepted > 300, "only {accepted} frames accepted");
}

#[test]
fn random_finite_numbers_print_at_full_precision() {
    let mut rng = Rng(4);
    for _ in 0..CASES {
        let x = f64::from_bits(rng.next());
        if x.is_finite() {
            let text = Json::Number(x).to_string();
            assert_eq!(Json::parse(&text), Ok(Json::Number(x)), "{text}");
        }
    }
}
