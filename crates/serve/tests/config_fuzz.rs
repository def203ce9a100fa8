//! Seeded fuzzing of the server configuration parser.
//!
//! Inputs: random bytes, random documents over the config alphabet
//! (sections, every key, and values that are out of range, non-finite,
//! of the wrong type or malformed), and byte mutations (flip, truncate,
//! splice, repeat) of `ci/serve.toml`. For every input
//! `ServeConfig::parse` must return rather than panic. A refusal must be
//! a one-line diagnostic, and one that names a line must name a line of
//! the input. An accepted config must hold every bound `parse`
//! promises, since the server only checks its config at boot. The
//! generator is seeded, so every run checks the same inputs.

use ftts_core::MAX_TENANTS;
use ftts_serve::ServeConfig;

const SERVE_TOML: &str = include_str!("../ci/serve.toml");

/// Inputs per test.
const CASES: usize = 10_000;

/// Lines of the config alphabet, `|`-separated: section headers, a key
/// for every field (and an unknown one), and raw values.
const HEADERS: &str = "[server]|[faults]|[[tenants]]|[tenants]|[[server]]|[]|[[]]|[bogus]";
const KEYS: &str = "listen|seed|n_beams|max_batch|window_secs|memory_fraction|devices|\
                    max_prompt_tokens|id|weight|kv_cap_frac|max_open|max_in_flight|\
                    horizon_secs|kernel_faults|slowdowns|slowdown_factor|slowdown_secs|\
                    kv_losses|bogus";
const VALUES: &str = "0|1|2|-1|3|64|4294967296|9223372036854775807|-9223372036854775808|\
                      99999999999999999999|0.0|0.5|0.95|1.5|-0.0|1e308|1e999|-1e999|nan|NaN|\
                      inf|-inf|infinity|true|false|\"127.0.0.1:0\"|\"x\"|\"\"|\"a\\\"b\"|\"open|\
                      # comment|\"#\"";

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

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
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

/// The bounds an accepted config must hold.
fn assert_in_bounds(c: &ServeConfig) {
    assert!(c.listen.contains(':'));
    assert!(c.n_beams >= 1 && c.max_batch >= 1 && c.devices >= 1);
    assert!(c.window_secs.is_finite() && c.window_secs >= 0.0);
    assert!(c.memory_fraction > 0.0 && c.memory_fraction <= 0.95);
    assert!(c.max_prompt_tokens >= 1);
    assert!(c.tenants.len() <= MAX_TENANTS);
    for (i, t) in c.tenants.iter().enumerate() {
        assert!(c.tenants[..i].iter().all(|u| u.id != t.id));
        assert!(t.weight >= 1 && (0.0..=1.0).contains(&t.kv_cap_frac));
    }
    if let Some(s) = &c.storm {
        assert!(s.horizon_secs.is_finite() && s.horizon_secs > 0.0);
        assert!(s.faults.slowdown_factor.is_finite() && s.faults.slowdown_factor >= 1.0);
        assert!(s.faults.slowdown_secs.is_finite() && s.faults.slowdown_secs > 0.0);
    }
}

/// Check one input; returns whether it was accepted.
fn check(bytes: &[u8]) -> bool {
    let text = String::from_utf8_lossy(bytes);
    let _name = NameOnPanic(&text);
    match ServeConfig::parse(&text) {
        Ok(config) => {
            assert_in_bounds(&config);
            true
        }
        Err(e) => {
            assert!(!e.is_empty() && !e.contains('\n'), "{e:?}");
            if let Some(rest) = e.strip_prefix("line ") {
                let (n, _) = rest.split_once(": ").expect("line N: message");
                let n: usize = n.parse().expect("a line number");
                assert!(n >= 1 && n <= text.lines().count(), "{e:?}");
            }
            false
        }
    }
}

/// Check `CASES` inputs from `make`; returns how many were accepted.
fn fuzz(seed: u64, mut make: impl FnMut(&mut Rng) -> Vec<u8>) -> usize {
    let mut rng = Rng(seed);
    (0..CASES).filter(|_| check(&make(&mut rng))).count()
}

/// One byte-level mutation of `doc`, splicing from `other`.
fn mutate(rng: &mut Rng, doc: &mut Vec<u8>, other: &[u8]) {
    let at = rng.below(doc.len() + 1);
    let end = at + rng.below((doc.len() - at).min(64) + 1);
    match rng.below(4) {
        0 if at < doc.len() => doc[at] ^= 1 << rng.below(8),
        1 => doc.truncate(at),
        2 => {
            let from = rng.below(other.len() + 1);
            let to = from + rng.below((other.len() - from).min(64) + 1);
            doc.splice(at..end, other[from..to].iter().copied());
        }
        _ => {
            let run = doc[at..end].to_vec();
            doc.splice(at..at, run);
        }
    }
}

#[test]
fn the_ci_fixture_parses() {
    assert!(check(SERVE_TOML.as_bytes()));
}

#[test]
fn random_bytes_are_refused_with_a_diagnostic() {
    fuzz(1, |rng| {
        (0..rng.below(96)).map(|_| rng.next() as u8).collect()
    });
}

#[test]
fn random_documents_are_refused_or_in_bounds() {
    let headers: Vec<&str> = HEADERS.split('|').collect();
    let keys: Vec<&str> = KEYS.split('|').collect();
    let values: Vec<&str> = VALUES.split('|').collect();
    let accepted = fuzz(2, |rng| {
        let mut doc = String::new();
        if rng.below(4) > 0 {
            doc.push_str("[server]\n");
        }
        for _ in 0..rng.below(8) {
            if rng.below(5) == 0 {
                doc.push_str(rng.pick(&headers));
            } else {
                doc.push_str(rng.pick(&keys));
                doc.push_str(" = ");
                doc.push_str(rng.pick(&values));
            }
            doc.push('\n');
        }
        doc.into_bytes()
    });
    assert!(accepted > 500, "only {accepted} documents accepted");
}

#[test]
fn mutated_fixtures_are_refused_or_in_bounds() {
    let fixture = SERVE_TOML.as_bytes();
    let accepted = fuzz(3, |rng| {
        let mut doc = fixture.to_vec();
        for _ in 0..1 + rng.below(3) {
            mutate(rng, &mut doc, fixture);
        }
        doc
    });
    assert!(accepted > 1_000, "only {accepted} mutations accepted");
}

#[test]
fn non_finite_storm_values_are_refused() {
    // Found by `random_documents_are_refused_or_in_bounds`: these used
    // to pass validation, and a NaN factor or window then panicked the
    // first status replay inside `FaultPlan::new`.
    for (storm, field) in [
        ("slowdown_secs = inf", "slowdown_secs"),
        ("slowdown_secs = nan", "slowdown_secs"),
        ("slowdown_factor = nan", "slowdown_factor"),
        ("slowdown_factor = inf", "slowdown_factor"),
    ] {
        let text = format!("[server]\n[faults]\nslowdowns = 3\n{storm}\n");
        let err = ServeConfig::parse(&text).expect_err(storm);
        assert!(err.contains(field), "{storm}: {err}");
        assert!(!check(text.as_bytes()));
    }
}

#[test]
fn tenant_rows_name_a_missing_id_and_the_line_of_an_overflow() {
    // A row without an id used to be refused as "id must fit u32" (the
    // missing key defaulted to u64::MAX), and no u32 overflow named
    // its line.
    let text = "[server]\n[[tenants]]\nweight = 2\n";
    let err = ServeConfig::parse(text).expect_err("no id");
    assert_eq!(err, "line 2: [[tenants]] row has no id");
    assert!(!check(text.as_bytes()));
    for (row, key) in [
        ("id = 5000000000", "id"),
        ("id = 1\nweight = 5000000000", "weight"),
        ("id = 1\nmax_in_flight = 5000000000", "max_in_flight"),
    ] {
        let text = format!("[server]\n[[tenants]]\n{row}\n");
        let err = ServeConfig::parse(&text).expect_err(row);
        let line = text.lines().count();
        assert_eq!(err, format!("line {line}: [tenants] {key} must fit u32"));
        assert!(!check(text.as_bytes()));
    }
}
