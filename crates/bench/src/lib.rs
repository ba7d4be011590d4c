//! Benchmark harness for the UCNN reproduction: one regeneration function
//! per table and figure of the paper's evaluation (§VI), shared between the
//! `repro` binary and the Criterion benches.
//!
//! Every function returns a [`table::TableOut`] whose rows mirror what the
//! paper plots; `repro` prints them and optionally writes CSV. `scale`
//! arguments trade fidelity for speed (Criterion uses small scales; the
//! final `EXPERIMENTS.md` numbers use the defaults).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use table::TableOut;

/// Minimal `--flag VALUE` argv scanning shared by the `repro` binary and
/// the Criterion benches (no CLI crate in the offline build environment).
pub mod cli {
    use ucnn_core::backend::BackendKind;

    /// The `--backend NAME` flag of the serving front-ends (`repro serve`,
    /// the `serve_stress` example): the named backend, or — absent — the
    /// serving engine's own default, so a front-end can never drift from
    /// `EngineConfig::default()`.
    ///
    /// # Errors
    ///
    /// An unknown name is an error listing every valid one
    /// ([`BackendKind::ALL`]).
    pub fn backend_arg(args: &[String]) -> Result<BackendKind, String> {
        arg_value(args, "--backend").map_or_else(
            || Ok(ucnn_serve::EngineConfig::default().backend),
            |name| name.parse(),
        )
    }

    /// The value of the **last** `--flag VALUE` occurrence in `args` —
    /// repeating a flag overrides earlier ones, like most CLIs.
    #[must_use]
    pub fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
        args.iter()
            .rposition(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    }

    /// The values of **every** `--flag VALUE` occurrence in `args`, in
    /// order — for repeatable flags like `--model` where each occurrence
    /// adds to a set instead of overriding.
    #[must_use]
    pub fn arg_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a String> {
        args.iter()
            .enumerate()
            .filter(|(_, a)| *a == flag)
            .filter_map(|(i, _)| args.get(i + 1))
            .collect()
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
            let args = argv(&["serve", "--backend", "batch", "--backend", "flattened"]);
            assert_eq!(arg_value(&args, "--backend").unwrap(), "flattened");
            assert_eq!(arg_value(&args, "--out"), None);
        }

        #[test]
        fn backend_flag_defaults_to_the_engine_default_and_lists_names_on_error() {
            let default = ucnn_serve::EngineConfig::default().backend;
            assert_eq!(backend_arg(&argv(&["serve"])), Ok(default));
            for kind in BackendKind::ALL {
                let args = argv(&["serve", "--backend", kind.name()]);
                assert_eq!(backend_arg(&args), Ok(kind));
            }
            let err = backend_arg(&argv(&["--backend", "nope"])).unwrap_err();
            for kind in BackendKind::ALL {
                assert!(err.contains(kind.name()), "{err}");
            }
        }

        #[test]
        fn trailing_flag_without_value_is_none() {
            let args = argv(&["fig1", "--out"]);
            assert_eq!(arg_value(&args, "--out"), None);
        }

        #[test]
        fn every_occurrence_is_excluded_positionally() {
            let args = argv(&["--backend", "batch", "serve", "--backend", "flattened"]);
            assert_eq!(flag_value_positions(&args, &["--backend", "--out"]), [1, 4]);
        }

        #[test]
        fn repeated_flags_collect_in_order() {
            let args = argv(&["serve", "--model", "tiny", "--model", "tiny-b"]);
            assert_eq!(arg_values(&args, "--model"), ["tiny", "tiny-b"]);
            assert!(arg_values(&args, "--mix").is_empty());
            // A trailing valueless occurrence contributes nothing.
            let args = argv(&["--model", "tiny", "--model"]);
            assert_eq!(arg_values(&args, "--model"), ["tiny"]);
        }

        #[test]
        fn repeated_flag_values_never_swallow_experiment_names() {
            // `serve` as a flag VALUE must be excluded positionally while
            // the positional `serve` (index 4) still selects the experiment.
            let args = argv(&["--model", "serve", "--mix", "hotcold", "serve"]);
            let taken = flag_value_positions(&args, &["--model", "--mix"]);
            assert_eq!(taken, [1, 3]);
            let positional: Vec<&String> = args
                .iter()
                .enumerate()
                .filter(|(i, a)| !a.starts_with("--") && !taken.contains(i))
                .map(|(_, a)| a)
                .collect();
            assert_eq!(positional, ["serve"]);
        }
    }
}
