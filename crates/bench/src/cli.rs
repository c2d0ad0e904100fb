//! The one argument splitter of the `sg-bench`, `sg-trace`, `sg-check` and
//! `sg-cluster` CLIs (no external dependencies): [`split_args`] separates
//! positionals from `--flag [value]` pairs, and [`parse_flag`]/[`flag_or`]
//! turn a value into the type its flag wants — or into a usage error.

use std::str::FromStr;

/// A parsed `--flag` with its value, when the flag takes one.
pub type Flag = (String, Option<String>);

/// Split argv into positionals and `--flag [value]` pairs. Only the flags
/// named in `value_flags` consume the next token; a name written `name?`
/// takes one only when the next token is not itself a `--flag` (`--trace
/// [path]`). Everything else is boolean (`--json`) and keeps a `None`
/// value. The error is the message for the caller's usage text.
pub fn split_args(
    args: &[String],
    value_flags: &[&str],
) -> Result<(Vec<String>, Vec<Flag>), String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut args = args.iter().peekable();
    while let Some(a) = args.next() {
        let Some(name) = a.strip_prefix("--") else {
            positional.push(a.clone());
            continue;
        };
        if name.is_empty() {
            return Err("stray --".into());
        }
        let value = if value_flags.contains(&name) {
            Some(
                args.next()
                    .ok_or_else(|| format!("--{name} needs a value"))?,
            )
        } else if value_flags.contains(&format!("{name}?").as_str()) {
            args.next_if(|next| !next.starts_with("--"))
        } else {
            None
        };
        flags.push((name.to_owned(), value.cloned()));
    }
    Ok((positional, flags))
}

/// `value` of `--flag` as a `T`; a missing or unparsable value is an error
/// naming the flag.
pub fn parse_flag<T: FromStr>(flag: &str, value: Option<&str>) -> Result<T, String> {
    let v = value.unwrap_or_default();
    v.parse()
        .map_err(|_| format!("--{flag}: {v:?} is not a valid value"))
}

/// The value of the last `--name` in `flags`, if it was given one.
pub fn flag_value<'a>(flags: &'a [Flag], name: &str) -> Option<&'a str> {
    let (_, value) = flags.iter().rev().find(|(f, _)| f == name)?;
    value.as_deref()
}

/// The last `--name`'s value parsed as a `T`, or `default` when the flag is
/// absent.
pub fn flag_or<T: FromStr>(flags: &[Flag], name: &str, default: T) -> Result<T, String> {
    flag_value(flags, name).map_or(Ok(default), |v| parse_flag(name, Some(v)))
}

/// Was `--name` given, with or without a value?
pub fn has_flag(flags: &[Flag], name: &str) -> bool {
    flags.iter().any(|(f, _)| f == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(s: &str, value_flags: &[&str]) -> Result<(Vec<String>, Vec<Flag>), String> {
        let argv: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
        split_args(&argv, value_flags)
    }

    #[test]
    fn key_values_and_flags() {
        let (_, flags) = split(
            "--scale-div 8 --algo coloring --quick",
            &["scale-div", "algo"],
        )
        .unwrap();
        assert_eq!(flag_value(&flags, "scale-div"), Some("8"));
        assert_eq!(flag_or(&flags, "scale-div", 1u64), Ok(8));
        assert_eq!(flag_value(&flags, "algo"), Some("coloring"));
        assert!(has_flag(&flags, "quick"));
        assert!(!has_flag(&flags, "slow"));
        assert_eq!(flag_or(&flags, "missing", 3u32), Ok(3));
    }

    /// `--scale-div abc` is a usage error, not a silent default.
    #[test]
    fn an_unparsable_value_is_an_error_not_the_default() {
        let (_, flags) = split(
            "--scale-div abc --workers 4294967296",
            &["scale-div", "workers"],
        )
        .unwrap();
        let err = flag_or(&flags, "scale-div", 16u64).unwrap_err();
        assert!(
            err.contains("--scale-div") && err.contains("\"abc\""),
            "{err}"
        );
        assert!(flag_or(&flags, "workers", 8u32).is_err());
        assert_eq!(flag_or(&flags, "workers", 8u64), Ok(1 << 32));
    }

    #[test]
    fn an_optional_value_is_taken_only_when_one_follows() {
        let opt = ["trace?", "workers"];
        let (_, flags) = split("--trace out.json --workers 4", &opt).unwrap();
        assert_eq!(flag_value(&flags, "trace"), Some("out.json"));
        for bare in ["--trace --workers 4", "--workers 4 --trace"] {
            let (positional, flags) = split(bare, &opt).unwrap();
            assert!(positional.is_empty() && has_flag(&flags, "trace"), "{bare}");
            assert_eq!(flag_value(&flags, "trace"), None, "{bare}");
        }
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
