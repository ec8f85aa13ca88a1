//! Tiny dependency-free argument parsing for the `opa` binary.

use std::collections::HashMap;

/// Parsed command line: a subcommand path, positional arguments, and
/// `--key value` / `--flag` options.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    /// Positional arguments in order (subcommands first).
    pub positional: Vec<String>,
    /// `--key value` options.
    pub options: HashMap<String, String>,
    /// Bare `--flag` switches.
    pub flags: Vec<String>,
}

impl Args {
    /// Parses an iterator of raw arguments (without the program name).
    /// An option consumes the next argument as its value unless that
    /// argument starts with `--`, in which case it is a bare flag.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Args {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(name) = a.strip_prefix("--") {
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let v = iter.next().expect("peeked");
                        args.options.insert(name.to_string(), v);
                    }
                    _ => args.flags.push(name.to_string()),
                }
            } else {
                args.positional.push(a);
            }
        }
        args
    }

    /// Looks up an option, parsed. An absent option is `None`; a value
    /// that does not parse is an error naming the flag and the text, never
    /// a silent fall-back to the default.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.options
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key}: cannot parse '{v}'"))
            })
            .transpose()
    }

    /// Looks up an option with a default for when it is absent.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.get(key)?.unwrap_or(default))
    }

    /// Whether a bare flag was given.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// Parses a human byte size: `1024`, `64K`, `16M`, `2G` (binary units).
pub fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1u64 << 10),
        'm' | 'M' => (&s[..s.len() - 1], 1u64 << 20),
        'g' | 'G' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    num.trim().parse::<u64>().ok().map(|n| n * mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn positional_and_options_separate() {
        let a = parse(&["run", "sessionize", "--framework", "inc-hash", "--verbose"]);
        assert_eq!(a.positional, vec!["run", "sessionize"]);
        assert_eq!(
            a.options.get("framework").map(String::as_str),
            Some("inc-hash")
        );
        assert!(a.has_flag("verbose"));
    }

    #[test]
    fn option_followed_by_option_is_flag() {
        let a = parse(&["--quick", "--seed", "7"]);
        assert!(a.has_flag("quick"));
        assert_eq!(a.get::<u64>("seed"), Ok(Some(7)));
    }

    #[test]
    fn typed_getters() {
        let a = parse(&["--n", "42"]);
        assert_eq!(a.get::<u64>("n"), Ok(Some(42)));
        assert_eq!(a.get::<u64>("missing"), Ok(None));
        assert_eq!(a.get_or("n", 9u64), Ok(42));
        assert_eq!(a.get_or("missing", 9u64), Ok(9));
    }

    #[test]
    fn unparsable_value_is_an_error_naming_flag_and_text() {
        let a = parse(&["--checkpoint-every", "2x", "--rate", "0.5", "--n", "-1"]);
        let msg = "--checkpoint-every: cannot parse '2x'".to_string();
        assert_eq!(a.get::<usize>("checkpoint-every"), Err(msg.clone()));
        assert_eq!(a.get_or("checkpoint-every", 4usize), Err(msg));
        // The target type decides: the same text can suit one option and
        // not another.
        assert_eq!(a.get::<f64>("rate"), Ok(Some(0.5)));
        assert!(a.get::<u64>("rate").is_err());
        assert_eq!(a.get::<i64>("n"), Ok(Some(-1)));
        assert!(a.get::<usize>("n").is_err());
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(parse_bytes("1024"), Some(1024));
        assert_eq!(parse_bytes("64K"), Some(64 << 10));
        assert_eq!(parse_bytes("16M"), Some(16 << 20));
        assert_eq!(parse_bytes("2G"), Some(2 << 30));
        assert_eq!(parse_bytes("2 g"), Some(2 << 30));
        assert_eq!(parse_bytes("x"), None);
        assert_eq!(parse_bytes(""), None);
    }
}
