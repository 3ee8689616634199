//! Tiny flag parser shared by the subcommands: `--key value` pairs.

use std::collections::BTreeMap;

use rex_core::ScheduleSpec;

/// Parsed `--key value` flags.
#[derive(Debug, Default)]
pub struct Flags {
    map: BTreeMap<String, String>,
}

impl Flags {
    /// Parses flags; returns an error message for malformed input.
    pub fn parse(argv: &[String]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {:?}", argv[i]))?;
            let value = argv
                .get(i + 1)
                .ok_or_else(|| format!("missing value for --{key}"))?;
            map.insert(key.to_string(), value.clone());
            i += 2;
        }
        Ok(Flags { map })
    }

    /// Raw string value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    /// Parsed value with default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{key}: {v:?}")),
        }
    }

    /// Required value.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required --{key}"))
    }
}

/// Parses a schedule name via [`ScheduleSpec`]'s `FromStr` vocabulary.
pub fn parse_schedule(name: &str) -> Result<ScheduleSpec, String> {
    name.parse()
        .map_err(|e: rex_core::ParseScheduleError| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_flag_pairs() {
        let f = Flags::parse(&sv(&["--budget", "10", "--schedule", "rex"])).unwrap();
        assert_eq!(f.get("budget"), Some("10"));
        assert_eq!(f.get_or("budget", 0u32).unwrap(), 10);
        assert_eq!(f.get_or("missing", 7u32).unwrap(), 7);
        assert!(f.require("schedule").is_ok());
        assert!(f.require("nope").is_err());
    }

    #[test]
    fn malformed_flags_rejected() {
        assert!(Flags::parse(&sv(&["budget", "10"])).is_err());
        assert!(Flags::parse(&sv(&["--budget"])).is_err());
    }

    #[test]
    fn schedule_vocabulary() {
        assert_eq!(parse_schedule("REX").unwrap(), ScheduleSpec::Rex);
        assert_eq!(parse_schedule("step").unwrap(), ScheduleSpec::Step);
        assert!(matches!(
            parse_schedule("rex-beta=0.3").unwrap(),
            ScheduleSpec::RexBeta(b) if (b - 0.3).abs() < 1e-12
        ));
        assert!(matches!(
            parse_schedule("delayed-linear=0.5").unwrap(),
            ScheduleSpec::Delayed(_, d) if (d - 0.5).abs() < 1e-12
        ));
        assert!(parse_schedule("warp-drive").is_err());
    }
}
