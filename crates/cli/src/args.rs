//! The one argument reader every verb's flags go through.

use bfw_bench::GraphSpec;
use std::str::FromStr;

/// What a verb accepts besides positionals: flags that take a value
/// (`--seed S`) and switches (`--quick`). Any other argument starting
/// with `-` is an unknown flag.
pub(crate) struct Flags {
    /// The verb as its messages name it (`"scenario run"`).
    pub verb: &'static str,
    /// Flags followed by a value.
    pub values: &'static [&'static str],
    /// Flags without a value.
    pub switches: &'static [&'static str],
}

/// A command line split by [`Flags::read`]. Values stay text until a
/// verb converts them, so every conversion error names its flag.
pub(crate) struct Args {
    verb: &'static str,
    /// Flags in the order given, each with its value (`None` for a
    /// switch).
    given: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

impl Flags {
    /// Splits `args` into flags and positionals.
    ///
    /// # Errors
    ///
    /// A value flag at the end of the line, or an undeclared flag.
    pub(crate) fn read(&self, args: &[String]) -> Result<Args, String> {
        let mut given = Vec::new();
        let mut positionals = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(&flag) = self.values.iter().find(|&&f| f == arg) {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                given.push((flag, Some(value.clone())));
            } else if let Some(&switch) = self.switches.iter().find(|&&s| s == arg) {
                given.push((switch, None));
            } else if arg.starts_with('-') {
                return Err(format!("{}: unknown flag {arg}", self.verb));
            } else {
                positionals.push(arg.clone());
            }
        }
        Ok(Args {
            verb: self.verb,
            given,
            positionals,
        })
    }
}

impl Args {
    /// The last value given for `flag`, converted; every value given is
    /// converted, so a bad one fails even when a later one overrides it.
    pub(crate) fn get<T>(
        &self,
        flag: &str,
        convert: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let mut last = None;
        for (_, value) in self.given.iter().filter(|(f, _)| *f == flag) {
            last = Some(convert(value.as_deref().unwrap_or_default())?);
        }
        Ok(last)
    }

    /// The last value given for `flag`, as text.
    pub(crate) fn text(&self, flag: &str) -> Option<String> {
        let (_, value) = self.given.iter().rev().find(|(f, _)| *f == flag)?;
        value.clone()
    }

    /// The last value given for `flag`, as an integer.
    pub(crate) fn int<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag, |value| {
            value
                .parse()
                .map_err(|_| format!("{flag} needs an integer, got '{value}'"))
        })
    }

    /// [`Args::int`] for a count that must be at least 1.
    pub(crate) fn count(&self, flag: &str) -> Result<Option<usize>, String> {
        self.get(flag, |value| match value.parse() {
            Ok(0) => Err(format!("{flag} must be at least 1")),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("{flag} needs an integer, got '{value}'")),
        })
    }

    /// Whether `switch` was given.
    pub(crate) fn switch(&self, switch: &str) -> bool {
        self.given.iter().any(|(f, _)| *f == switch)
    }

    /// Which of `flags` was given last.
    pub(crate) fn last_of(&self, flags: &[&str]) -> Option<&'static str> {
        self.given
            .iter()
            .rev()
            .map(|(f, _)| *f)
            .find(|f| flags.contains(f))
    }

    /// The positionals, in order.
    pub(crate) fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Refuses every positional, for verbs that take flags only.
    pub(crate) fn no_positionals(&self) -> Result<(), String> {
        match self.positionals.first() {
            Some(extra) => Err(format!("{}: unknown flag {extra}", self.verb)),
            None => Ok(()),
        }
    }

    /// The one optional FILE positional of a `scenario` verb.
    pub(crate) fn file(&self) -> Result<Option<&str>, String> {
        match self.positionals.as_slice() {
            [] => Ok(None),
            [file] => Ok(Some(file)),
            [_, extra, ..] => Err(format!("{}: unexpected argument '{extra}'", self.verb)),
        }
    }

    /// `--graph SPEC`, which the verb requires.
    pub(crate) fn graph(&self) -> Result<GraphSpec, String> {
        self.get("--graph", |value| {
            value
                .parse()
                .map_err(|e: bfw_bench::WorkloadError| e.to_string())
        })?
        .ok_or_else(|| format!("{}: --graph SPEC is required", self.verb))
    }

    /// `--p P`, defaulting to 1/2. Its range is checked where `p` is
    /// used, since `run --known-d` computes its own.
    pub(crate) fn p(&self) -> Result<f64, String> {
        let p = self.get("--p", |value| {
            value
                .parse()
                .map_err(|_| "--p needs a number in (0, 1)".to_owned())
        })?;
        Ok(p.unwrap_or(0.5))
    }
}
