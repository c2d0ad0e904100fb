//! Tiny `--key value` argument parser (no external dependencies).

use std::collections::HashMap;

/// Parsed command-line arguments: `--key value` pairs and bare flags.
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse from an iterator of tokens.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Self {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut iter = tokens.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        values.insert(key.to_owned(), iter.next().expect("peeked"));
                    }
                    _ => flags.push(key.to_owned()),
                }
            } else {
                flags.push(tok);
            }
        }
        Self { values, flags }
    }

    /// String value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Parsed value of `--key`, or `default`.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Was a bare flag (`--quick` with no value, or a positional) given?
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn key_values_and_flags() {
        let a = parse("--scale-div 8 --algo coloring --quick");
        assert_eq!(a.get("scale-div"), Some("8"));
        assert_eq!(a.get_or("scale-div", 1u64), 8);
        assert_eq!(a.get("algo"), Some("coloring"));
        assert!(a.has_flag("quick"));
        assert!(!a.has_flag("slow"));
    }

    #[test]
    fn default_when_missing_or_unparsable() {
        let a = parse("--n abc");
        assert_eq!(a.get_or("n", 7u32), 7);
        assert_eq!(a.get_or("missing", 3i64), 3);
    }

    #[test]
    fn consecutive_flags() {
        let a = parse("--x --y 5");
        assert!(a.has_flag("x"));
        assert_eq!(a.get_or("y", 0u32), 5);
    }
}
