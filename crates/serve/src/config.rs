//! Server configuration: a validated TOML-subset file.
//!
//! The deployment surface of the server — listen address, device fleet
//! shape, KV-pool sizing, per-tenant quotas and caps, and the optional
//! fault storm — lives in one checked-in file (see
//! `crates/serve/ci/serve.toml` for the CI fixture). The parser
//! supports exactly the subset those files use: `[section]` tables,
//! `[[tenants]]` array-of-tables, `key = value` pairs with string,
//! integer, float and boolean values, and `#` comments. Everything is
//! validated up front so a bad config fails at boot with a line-number
//! diagnostic, never mid-serve.

use std::collections::BTreeMap;

use ftts_core::{StormConfig, MAX_TENANTS};

/// One tenant's deployment row (`[[tenants]]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantCfg {
    /// Tenant id presented in `submit` frames.
    pub id: u32,
    /// Fair-share weight (>= 1) for KV rebalancing.
    pub weight: u32,
    /// Hard KV cap as a fraction of the device pool, `0.0` = uncapped.
    pub kv_cap_frac: f64,
    /// Protocol-level admission quota: maximum open (submitted, not yet
    /// resolved) requests, `0` = unlimited.
    pub max_open: usize,
    /// In-simulation concurrency quota: maximum requests the scheduler
    /// admits into the running batch at once, `0` = unlimited. Enforced
    /// by the tenant policy inside the simulator, not at the door.
    pub max_in_flight: u32,
}

/// Optional seeded fault storm injected into every simulated device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormCfg {
    /// Storm seed; device `d` scatters its storm from `seed + d`.
    pub seed: u64,
    /// Horizon the events scatter over, seconds.
    pub horizon_secs: f64,
    /// What each device's storm scatters over the horizon.
    pub faults: StormConfig,
}

/// The validated server configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// TCP listen address, e.g. `127.0.0.1:0` (0 = ephemeral port).
    pub listen: String,
    /// Simulation seed (device timings, workloads).
    pub seed: u64,
    /// Beams per request.
    pub n_beams: usize,
    /// Request-level batch slots per device.
    pub max_batch: usize,
    /// Event-scheduler co-batch window, seconds.
    pub window_secs: f64,
    /// Fraction of device memory granted to the KV pool.
    pub memory_fraction: f64,
    /// Replicas in the simulated fleet, behind a join-shortest-queue
    /// router; with 1 the fleet's run is the bare event scheduler's.
    pub devices: usize,
    /// Largest prompt (tokens) the protocol accepts at all.
    pub max_prompt_tokens: u64,
    /// Tenant rows; empty = single-tenant mode (only tenant 0,
    /// uncapped, no quota).
    pub tenants: Vec<TenantCfg>,
    /// Optional fault storm.
    pub storm: Option<StormCfg>,
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
        }
    }
}

type Table = BTreeMap<String, (usize, Value)>;

/// Raw parse result: plain tables plus array-of-tables, each row with
/// the line of its `[[name]]` header.
#[derive(Debug, Default)]
struct Document {
    tables: BTreeMap<String, Table>,
    arrays: BTreeMap<String, Vec<(usize, Table)>>,
}

fn parse_scalar(raw: &str, line_no: usize) -> Result<Value, String> {
    let raw = raw.trim();
    if let Some(stripped) = raw.strip_prefix('"') {
        let inner = stripped
            .strip_suffix('"')
            .ok_or_else(|| format!("line {line_no}: unterminated string"))?;
        if inner.contains('"') || inner.contains('\\') {
            return Err(format!(
                "line {line_no}: escapes in strings are unsupported"
            ));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    match raw {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Ok(i) = raw.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = raw.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    Err(format!("line {line_no}: cannot parse value '{raw}'"))
}

fn parse_document(text: &str) -> Result<Document, String> {
    let mut doc = Document::default();
    // (section name, index into doc.arrays entry or None for a table)
    let mut current: Option<(String, Option<usize>)> = None;
    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = match raw_line.split_once('#') {
            Some((before, _)) if !before.contains('"') => before.trim(),
            _ => raw_line.trim(),
        };
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            let name = name.trim().to_string();
            if name.is_empty() {
                return Err(format!("line {line_no}: empty section name"));
            }
            let rows = doc.arrays.entry(name.clone()).or_default();
            rows.push((line_no, Table::new()));
            current = Some((name, Some(rows.len() - 1)));
        } else if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let name = name.trim().to_string();
            if name.is_empty() {
                return Err(format!("line {line_no}: empty section name"));
            }
            if doc.tables.contains_key(&name) {
                return Err(format!("line {line_no}: duplicate section [{name}]"));
            }
            doc.tables.insert(name.clone(), Table::new());
            current = Some((name, None));
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim().to_string();
            if key.is_empty() {
                return Err(format!("line {line_no}: empty key"));
            }
            let value = parse_scalar(value, line_no)?;
            let table = match &current {
                Some((name, Some(idx))) => {
                    &mut doc.arrays.get_mut(name).expect("open array")[*idx].1
                }
                Some((name, None)) => doc.tables.get_mut(name).expect("open table"),
                None => return Err(format!("line {line_no}: key before any [section]")),
            };
            if table.insert(key.clone(), (line_no, value)).is_some() {
                return Err(format!("line {line_no}: duplicate key '{key}'"));
            }
        } else {
            return Err(format!("line {line_no}: expected [section] or key = value"));
        }
    }
    Ok(doc)
}

struct Reader<'a> {
    section: &'a str,
    table: &'a Table,
}

impl Reader<'_> {
    fn unknown_keys(&self, allowed: &[&str]) -> Result<(), String> {
        for (key, (line, _)) in self.table {
            if !allowed.contains(&key.as_str()) {
                return Err(format!(
                    "line {line}: unknown key '{key}' in [{}]",
                    self.section
                ));
            }
        }
        Ok(())
    }

    fn get(&self, key: &str) -> Option<&(usize, Value)> {
        self.table.get(key)
    }

    fn str(&self, key: &str, default: &str) -> Result<String, String> {
        match self.get(key) {
            None => Ok(default.to_string()),
            Some((_, Value::Str(s))) => Ok(s.clone()),
            Some((line, v)) => Err(format!(
                "line {line}: [{}] {key} must be a string, got {}",
                self.section,
                v.type_name()
            )),
        }
    }

    fn u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some((line, Value::Int(i))) => u64::try_from(*i)
                .map_err(|_| format!("line {line}: [{}] {key} must be >= 0", self.section)),
            Some((line, v)) => Err(format!(
                "line {line}: [{}] {key} must be an integer, got {}",
                self.section,
                v.type_name()
            )),
        }
    }

    fn u32(&self, key: &str, default: u32) -> Result<u32, String> {
        let value = self.u64(key, u64::from(default))?;
        u32::try_from(value).map_err(|_| {
            let (line, _) = self.get(key).expect("only a given value can overflow");
            format!("line {line}: [{}] {key} must fit u32", self.section)
        })
    }

    fn usize(&self, key: &str, default: usize) -> Result<usize, String> {
        self.u64(key, default as u64).map(|v| v as usize)
    }

    fn f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some((_, Value::Float(f))) => Ok(*f),
            #[allow(clippy::cast_precision_loss)]
            Some((_, Value::Int(i))) => Ok(*i as f64),
            Some((line, v)) => Err(format!(
                "line {line}: [{}] {key} must be a number, got {}",
                self.section,
                v.type_name()
            )),
        }
    }
}

impl ServeConfig {
    /// Parse and validate a configuration document.
    ///
    /// # Errors
    ///
    /// Returns a line-numbered diagnostic on syntax errors, unknown
    /// keys, type mismatches, or semantically invalid values.
    pub fn parse(text: &str) -> Result<ServeConfig, String> {
        let doc = parse_document(text)?;
        for name in doc.tables.keys() {
            if !["server", "faults"].contains(&name.as_str()) {
                return Err(format!("unknown section [{name}]"));
            }
        }
        for name in doc.arrays.keys() {
            if name != "tenants" {
                return Err(format!("unknown section [[{name}]]"));
            }
        }
        let empty = Table::new();
        let server = Reader {
            section: "server",
            table: doc.tables.get("server").unwrap_or(&empty),
        };
        server.unknown_keys(&[
            "listen",
            "seed",
            "n_beams",
            "max_batch",
            "window_secs",
            "memory_fraction",
            "devices",
            "max_prompt_tokens",
        ])?;
        let config = ServeConfig {
            listen: server.str("listen", "127.0.0.1:0")?,
            seed: server.u64("seed", 7)?,
            n_beams: server.usize("n_beams", 8)?,
            max_batch: server.usize("max_batch", 4)?,
            window_secs: server.f64("window_secs", 0.2)?,
            memory_fraction: server.f64("memory_fraction", 0.45)?,
            devices: server.usize("devices", 1)?,
            max_prompt_tokens: server.u64("max_prompt_tokens", 4096)?,
            tenants: doc
                .arrays
                .get("tenants")
                .map(|rows| {
                    rows.iter()
                        .map(|(line, row)| {
                            let t = Reader {
                                section: "tenants",
                                table: row,
                            };
                            t.unknown_keys(&[
                                "id",
                                "weight",
                                "kv_cap_frac",
                                "max_open",
                                "max_in_flight",
                            ])?;
                            if t.get("id").is_none() {
                                return Err(format!("line {line}: [[tenants]] row has no id"));
                            }
                            Ok(TenantCfg {
                                id: t.u32("id", 0)?,
                                weight: t.u32("weight", 1)?,
                                kv_cap_frac: t.f64("kv_cap_frac", 0.0)?,
                                max_open: t.usize("max_open", 0)?,
                                max_in_flight: t.u32("max_in_flight", 0)?,
                            })
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
                .transpose()?
                .unwrap_or_default(),
            storm: doc
                .tables
                .get("faults")
                .map(|table| {
                    let f = Reader {
                        section: "faults",
                        table,
                    };
                    f.unknown_keys(&[
                        "seed",
                        "horizon_secs",
                        "kernel_faults",
                        "slowdowns",
                        "slowdown_factor",
                        "slowdown_secs",
                        "kv_losses",
                    ])?;
                    Ok::<StormCfg, String>(StormCfg {
                        seed: f.u64("seed", 1)?,
                        horizon_secs: f.f64("horizon_secs", 600.0)?,
                        faults: StormConfig {
                            kernel_faults: f.usize("kernel_faults", 0)?,
                            slowdowns: f.usize("slowdowns", 0)?,
                            slowdown_factor: f.f64("slowdown_factor", 1.5)?,
                            slowdown_secs: f.f64("slowdown_secs", 10.0)?,
                            kv_losses: f.usize("kv_losses", 0)?,
                        },
                    })
                })
                .transpose()?,
        };
        config.validate()?;
        Ok(config)
    }

    fn validate(&self) -> Result<(), String> {
        if !self.listen.contains(':') {
            return Err(format!("listen '{}' is not host:port", self.listen));
        }
        if self.n_beams == 0 {
            return Err("n_beams must be >= 1".to_string());
        }
        if self.max_batch == 0 {
            return Err("max_batch must be >= 1".to_string());
        }
        if !(self.window_secs >= 0.0 && self.window_secs.is_finite()) {
            return Err("window_secs must be finite and >= 0".to_string());
        }
        if !(self.memory_fraction > 0.0 && self.memory_fraction <= 0.95) {
            return Err("memory_fraction must be in (0, 0.95]".to_string());
        }
        if self.devices == 0 {
            return Err("devices must be >= 1".to_string());
        }
        if self.max_prompt_tokens == 0 {
            return Err("max_prompt_tokens must be >= 1".to_string());
        }
        if self.tenants.len() > MAX_TENANTS {
            return Err(format!("at most {MAX_TENANTS} tenants are supported"));
        }
        let mut ids: Vec<u32> = self.tenants.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != self.tenants.len() {
            return Err("duplicate tenant id".to_string());
        }
        for t in &self.tenants {
            if t.weight == 0 {
                return Err(format!("tenant {}: weight must be >= 1", t.id));
            }
            if !(0.0..=1.0).contains(&t.kv_cap_frac) {
                return Err(format!("tenant {}: kv_cap_frac must be in [0, 1]", t.id));
            }
        }
        if let Some(storm) = &self.storm {
            if !(storm.horizon_secs > 0.0 && storm.horizon_secs.is_finite()) {
                return Err("faults horizon_secs must be positive".to_string());
            }
            // Written so that NaN fails too: a NaN storm value used to
            // pass here and panic the first replay.
            let faults = &storm.faults;
            if !(faults.slowdown_factor >= 1.0 && faults.slowdown_factor.is_finite()) {
                return Err("faults slowdown_factor must be finite and >= 1".to_string());
            }
            if !(faults.slowdown_secs > 0.0 && faults.slowdown_secs.is_finite()) {
                return Err("faults slowdown_secs must be finite and positive".to_string());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# CI fixture shape
[server]
listen = "127.0.0.1:0"
seed = 7
n_beams = 8
max_batch = 4
window_secs = 0.2
memory_fraction = 0.45
devices = 1
max_prompt_tokens = 2048

[[tenants]]
id = 0
weight = 3
kv_cap_frac = 0.0
max_open = 0

[[tenants]]
id = 1
weight = 1
kv_cap_frac = 0.25
max_open = 2
max_in_flight = 3
"#;

    #[test]
    fn parses_the_fixture_shape() {
        let c = ServeConfig::parse(GOOD).expect("parse");
        assert_eq!(c.listen, "127.0.0.1:0");
        assert_eq!(c.seed, 7);
        assert_eq!(c.devices, 1);
        assert_eq!(c.tenants.len(), 2);
        assert_eq!(c.tenants[1].kv_cap_frac, 0.25);
        assert_eq!(c.tenants[1].max_open, 2);
        assert_eq!(c.tenants[1].max_in_flight, 3);
        assert_eq!(c.tenants[0].max_in_flight, 0, "defaults to unlimited");
        assert!(c.storm.is_none());
    }

    #[test]
    fn defaults_fill_missing_keys() {
        let c = ServeConfig::parse("[server]\nseed = 3\n").expect("parse");
        assert_eq!(c.seed, 3);
        assert_eq!(c.n_beams, 8);
        assert!(c.tenants.is_empty());
    }

    #[test]
    fn storm_section_parses() {
        let c = ServeConfig::parse(
            "[server]\nseed = 1\n[faults]\nseed = 5\nkernel_faults = 3\nhorizon_secs = 120.0\n",
        )
        .expect("parse");
        let storm = c.storm.expect("storm");
        assert_eq!(storm.faults.kernel_faults, 3);
        assert_eq!(storm.seed, 5);
    }

    #[test]
    fn diagnostics_carry_line_numbers() {
        let err = ServeConfig::parse("[server]\nseed = \"x\"\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = ServeConfig::parse("[server]\nbogus_key = 1\n").unwrap_err();
        assert!(err.contains("bogus_key"), "{err}");
        let err = ServeConfig::parse("key_without_section = 1\n").unwrap_err();
        assert!(err.contains("before any"), "{err}");
    }

    #[test]
    fn semantic_validation_rejects_bad_values() {
        for (snippet, needle) in [
            ("[server]\nmemory_fraction = 1.5\n", "memory_fraction"),
            ("[server]\ndevices = 0\n", "devices"),
            ("[server]\nmax_batch = 0\n", "max_batch"),
            (
                "[server]\n[[tenants]]\nid = 1\n[[tenants]]\nid = 1\n",
                "duplicate tenant",
            ),
            (
                "[server]\n[[tenants]]\nid = 1\nkv_cap_frac = 2.0\n",
                "kv_cap_frac",
            ),
            ("[server]\n[[tenants]]\nid = 1\nweight = 0\n", "weight"),
            ("[unknown]\nx = 1\n", "unknown section"),
        ] {
            let err = ServeConfig::parse(snippet).unwrap_err();
            assert!(err.contains(needle), "{snippet:?} -> {err}");
        }
    }
}
