//! Regeneration harness for the UCNN reproduction: one function per table
//! and figure of the paper's evaluation (§VI), behind the `repro` binary.
//!
//! Every function returns a [`table::TableOut`] whose rows mirror what the
//! paper plots; `repro` prints them and optionally writes CSV. `quick`
//! arguments trade fidelity for speed (the tests and CI's smoke run use the
//! quick variants; the `EXPERIMENTS.md` numbers use the full ones).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use table::TableOut;

/// Minimal `--flag VALUE` argv scanning for the `repro` binary (no CLI crate
/// in the offline build environment).
pub mod cli {
    /// The value of the **last** `--flag VALUE` occurrence in `args` —
    /// repeating a flag overrides earlier ones, like most CLIs.
    #[must_use]
    pub fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
        args.iter()
            .rposition(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    }

    /// Indices in `args` occupied by the value of **any** occurrence of any
    /// of `flags`, so positional-argument scans can exclude flag values by
    /// position rather than by string (an experiment name that happens to
    /// equal a flag value must still select normally).
    #[must_use]
    pub fn flag_value_positions(args: &[String], flags: &[&str]) -> Vec<usize> {
        args.iter()
            .enumerate()
            .filter(|(_, a)| flags.contains(&a.as_str()))
            .map(|(i, _)| i + 1)
            .collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn argv(s: &[&str]) -> Vec<String> {
            s.iter().map(|a| (*a).to_string()).collect()
        }

        #[test]
        fn last_occurrence_wins() {
            let args = argv(&["fig9", "--out", "a", "--out", "b"]);
            assert_eq!(arg_value(&args, "--out").unwrap(), "b");
            assert_eq!(arg_value(&args, "--seed"), None);
        }

        #[test]
        fn trailing_flag_without_value_is_none() {
            let args = argv(&["fig1", "--out"]);
            assert_eq!(arg_value(&args, "--out"), None);
        }

        #[test]
        fn every_occurrence_is_excluded_positionally() {
            let args = argv(&["--out", "a", "fig9", "--out", "b"]);
            assert_eq!(flag_value_positions(&args, &["--out", "--seed"]), [1, 4]);
        }

        #[test]
        fn repeated_flag_values_never_swallow_experiment_names() {
            // `fig9` as a flag VALUE must be excluded positionally while
            // the positional `fig9` (index 4) still selects the experiment.
            let args = argv(&["--out", "fig9", "--seed", "7", "fig9"]);
            let taken = flag_value_positions(&args, &["--out", "--seed"]);
            assert_eq!(taken, [1, 3]);
            let positional: Vec<&String> = args
                .iter()
                .enumerate()
                .filter(|(i, a)| !a.starts_with("--") && !taken.contains(i))
                .map(|(_, a)| a)
                .collect();
            assert_eq!(positional, ["fig9"]);
        }
    }
}
