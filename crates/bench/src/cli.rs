//! Tiny argument parsers (no external dependencies): [`Args`] for the
//! `sg-bench` lanes' `--key value` soup, [`split_args`] for the subcommand
//! CLIs that know which of their flags take a value.

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

/// A parsed `--flag` with its value, when the flag takes one.
pub type Flag = (String, Option<String>);

/// Split argv into positionals and `--flag [value]` pairs. Only the flags
/// named in `value_flags` consume the next token; everything else is
/// boolean (`--json`) and keeps a `None` value. The error is the message
/// for the caller's usage text.
pub fn split_args(
    args: &[String],
    value_flags: &[&str],
) -> Result<(Vec<String>, Vec<Flag>), String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if name.is_empty() {
                return Err("stray --".into());
            }
            let value = if value_flags.contains(&name) {
                i += 1;
                Some(
                    args.get(i)
                        .ok_or_else(|| format!("--{name} needs a value"))?
                        .clone(),
                )
            } else {
                None
            };
            flags.push((name.to_owned(), value));
        } else {
            positional.push(a.clone());
        }
        i += 1;
    }
    Ok((positional, flags))
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

    #[test]
    fn split_args_gives_values_only_to_the_flags_that_take_one() {
        let argv: Vec<String> = "a --top-k 3 --json b"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let (positional, flags) = split_args(&argv, &["top-k"]).unwrap();
        assert_eq!(positional, ["a", "b"]);
        assert_eq!(
            flags,
            [
                ("top-k".to_owned(), Some("3".to_owned())),
                ("json".to_owned(), None)
            ]
        );
        assert_eq!(
            split_args(&argv[..2], &["top-k"]).unwrap_err(),
            "--top-k needs a value"
        );
        assert_eq!(split_args(&["--".to_owned()], &[]).unwrap_err(), "stray --");
    }
}
