//! The property runner: case generation, seed management, regression
//! replay, shrinking, and failure reporting.

use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, Once, OnceLock};

use pdr_sim_core::rng::{fnv1a, SplitMix64};

use crate::choices::Choices;
use crate::shrink::{shrink, Verdict};

/// Default number of cases per property.
pub const DEFAULT_CASES: u32 = 256;
/// Default budget of property executions spent on shrinking one failure.
pub const DEFAULT_MAX_SHRINK_EVALS: u32 = 4096;
/// Default run seed when neither `Config::seed` nor `PDR_TESTKIT_SEED` is
/// set. Chosen once, fixed forever: test runs are reproducible by default.
pub const DEFAULT_SEED: u64 = 0x50D5_2017_D9A7_CA5E;

/// The environment variable that overrides the seed. Its value is the *case
/// seed* printed by a failure report: when set, the runner replays exactly
/// that one case (then shrinks and reports if it still fails).
pub const SEED_ENV: &str = "PDR_TESTKIT_SEED";

/// The environment variable that switches golden-snapshot tests from
/// *compare* to *regenerate*: `PDR_TESTKIT_BLESS=1 cargo test` rewrites the
/// committed snapshots (e.g. `tests/golden/*.jsonl`) from the current run
/// instead of diffing against them. See `docs/OBSERVABILITY.md`.
pub const BLESS_ENV: &str = "PDR_TESTKIT_BLESS";

/// Whether the current run should regenerate golden snapshots instead of
/// comparing: true when [`BLESS_ENV`] is set to `1` or `true`.
pub fn blessing() -> bool {
    matches!(
        std::env::var(BLESS_ENV).ok().as_deref(),
        Some("1") | Some("true")
    )
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of successful (non-discarded) cases to run.
    pub cases: u32,
    /// Maximum property executions spent shrinking a failure.
    pub max_shrink_evals: u32,
    /// Explicit case seed: replays exactly that one case instead of the
    /// random loop (same semantics as setting [`SEED_ENV`]).
    pub seed: Option<u64>,
    /// Path to a regression-seed file whose entries for this property are
    /// replayed before any random cases.
    pub regressions: Option<PathBuf>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: DEFAULT_CASES,
            max_shrink_evals: DEFAULT_MAX_SHRINK_EVALS,
            seed: None,
            regressions: None,
        }
    }
}

impl Config {
    /// A config running `cases` property cases.
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }

    /// Attaches a regression-seed file (see [`load_regression_seeds`]).
    pub fn regressions(mut self, path: impl Into<PathBuf>) -> Self {
        self.regressions = Some(path.into());
        self
    }
}

/// Discard marker panic payload (filters, `assume!`).
struct Discard;

/// Abandons the current test case without failing it.
pub fn discard() -> ! {
    panic::panic_any(Discard)
}

/// Asserts a precondition of the test case; on violation the case is
/// discarded rather than failed (the analogue of `prop_assume!`).
#[macro_export]
macro_rules! assume {
    ($cond:expr) => {
        if !$cond {
            $crate::discard();
        }
    };
}

// ---------------------------------------------------------------------------
// Quiet panic handling. Shrinking executes the failing property hundreds of
// times; the default hook would print a backtrace banner for every one.
// A process-wide hook (installed once) checks a thread-local depth flag and
// stays silent while a testkit runner is executing a case.
// ---------------------------------------------------------------------------

thread_local! {
    static QUIET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

type PanicHook = Box<dyn Fn(&panic::PanicHookInfo<'_>) + Send + Sync>;
static PREV_HOOK: OnceLock<Mutex<Option<PanicHook>>> = OnceLock::new();
static INSTALL: Once = Once::new();

fn install_quiet_hook() {
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        PREV_HOOK
            .set(Mutex::new(Some(prev)))
            .ok()
            .expect("hook installed once");
        panic::set_hook(Box::new(|info| {
            if QUIET.with(|q| q.get()) {
                return;
            }
            if let Some(guard) = PREV_HOOK.get().and_then(|m| m.lock().ok()) {
                if let Some(hook) = guard.as_ref() {
                    hook(info);
                }
            }
        }));
    });
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// What one property execution produced.
struct CaseOutcome {
    verdict: Verdict,
    tape: Vec<u64>,
    notes: Vec<(String, String)>,
    message: String,
}

fn run_once(prop: &dyn Fn(&mut Choices), mut src: Choices) -> CaseOutcome {
    install_quiet_hook();
    QUIET.with(|q| q.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(|| prop(&mut src)));
    QUIET.with(|q| q.set(false));
    let (verdict, message) = match result {
        Ok(()) => (Verdict::Pass, String::new()),
        Err(payload) => {
            if payload.downcast_ref::<Discard>().is_some() {
                (Verdict::Discard, String::new())
            } else {
                (Verdict::Fail, payload_message(payload.as_ref()))
            }
        }
    };
    CaseOutcome {
        verdict,
        tape: src.consumed().to_vec(),
        notes: src.notes().to_vec(),
        message,
    }
}

/// A fully shrunk failure, ready to report.
#[derive(Debug)]
pub struct Failure {
    /// The case seed that first produced the failure (replayable).
    pub case_seed: u64,
    /// Where the seed came from (random run or regression file).
    pub origin: &'static str,
    /// Argument name → debug representation, for the minimal counterexample.
    pub notes: Vec<(String, String)>,
    /// The panic message of the minimal counterexample.
    pub message: String,
    /// Cases executed before the failure surfaced.
    pub cases_run: u32,
}

impl Failure {
    fn report(&self, name: &str) -> String {
        let mut out = format!(
            "[pdr-testkit] property '{name}' failed ({origin}, after {n} case(s)).\n\
             \x20 replay: {env}=0x{seed:016x} cargo test {name}\n\
             \x20 regression entry: cc {name} 0x{seed:016x}\n\
             \x20 minimal counterexample:\n",
            origin = self.origin,
            n = self.cases_run,
            env = SEED_ENV,
            seed = self.case_seed,
        );
        for (k, v) in &self.notes {
            out.push_str(&format!("    {k} = {v}\n"));
        }
        out.push_str(&format!("  panic: {}\n", self.message));
        out
    }
}

/// Parses a seed literal: decimal, or hexadecimal with a `0x` prefix.
pub fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Loads the regression seeds recorded for `property` from `path`.
///
/// File format, one entry per line (blank lines and `#` comments ignored):
///
/// ```text
/// cc <property_name> <seed>     # seed is decimal or 0x-hex
/// ```
///
/// A missing file is treated as an empty list, so fresh checkouts and new
/// suites work without ceremony.
pub fn load_regression_seeds(path: &Path, property: &str) -> Vec<u64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut seeds = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (tag, name, seed) = (parts.next(), parts.next(), parts.next());
        match (tag, name, seed) {
            (Some("cc"), Some(n), Some(s)) => {
                if n == property {
                    match parse_seed(s) {
                        Some(v) => seeds.push(v),
                        None => panic!("{}:{}: unparseable seed '{s}'", path.display(), lineno + 1),
                    }
                }
            }
            _ => panic!(
                "{}:{}: expected 'cc <property> <seed>', got '{line}'",
                path.display(),
                lineno + 1
            ),
        }
    }
    seeds
}

/// Runs one seeded case; on failure, shrinks it and returns the minimal
/// counterexample.
fn run_seeded_case(
    prop: &dyn Fn(&mut Choices),
    case_seed: u64,
    origin: &'static str,
    cases_run: u32,
    max_shrink_evals: u32,
) -> Result<Verdict, Failure> {
    let outcome = run_once(prop, Choices::random(case_seed));
    if outcome.verdict != Verdict::Fail {
        return Ok(outcome.verdict);
    }
    let minimal_tape = shrink(
        outcome.tape,
        |tape| run_once(prop, Choices::replay(tape.to_vec())).verdict,
        max_shrink_evals,
    );
    // One final replay captures the notes and message of the minimal case.
    let minimal = run_once(prop, Choices::replay(minimal_tape));
    debug_assert_eq!(minimal.verdict, Verdict::Fail, "shrinker kept a failure");
    Err(Failure {
        case_seed,
        origin,
        notes: minimal.notes,
        message: minimal.message,
        cases_run,
    })
}

/// Core runner: regression seeds first, then `cfg.cases` random cases.
/// Returns the first (shrunk) failure instead of panicking — [`check`] is
/// the panicking wrapper the `property!` macro uses.
pub fn check_quietly(name: &str, cfg: &Config, prop: impl Fn(&mut Choices)) -> Result<(), Failure> {
    // 1. Replay recorded regressions for this property.
    if let Some(path) = &cfg.regressions {
        for seed in load_regression_seeds(path, name) {
            run_seeded_case(&prop, seed, "regression replay", 1, cfg.max_shrink_evals)?;
        }
    }

    // 2. An explicit seed (env or config) replays exactly one case. An
    // unparseable env value is a hard error: silently falling back to the
    // random loop would defeat the replay the user asked for.
    let env_seed = std::env::var(SEED_ENV).ok().map(|s| match parse_seed(&s) {
        Some(v) => v,
        None => panic!("{SEED_ENV}='{s}' is not a decimal or 0x-hex seed"),
    });
    if let Some(seed) = cfg.seed.or(env_seed) {
        run_seeded_case(&prop, seed, "seed replay", 1, cfg.max_shrink_evals)?;
        return Ok(());
    }

    // 3. The main loop: fresh cases from the per-property seed stream.
    // Hashing the name gives every property its own stream even when two
    // properties share one run seed.
    let mut master = SplitMix64::new(DEFAULT_SEED ^ fnv1a(name.as_bytes()));
    let mut ran = 0u32;
    let mut discards = 0u32;
    while ran < cfg.cases {
        let case_seed = master.next_u64();
        match run_seeded_case(
            &prop,
            case_seed,
            "random run",
            ran + 1,
            cfg.max_shrink_evals,
        )? {
            Verdict::Pass => ran += 1,
            Verdict::Discard => {
                discards += 1;
                assert!(
                    discards <= 10 * cfg.cases + 100,
                    "property '{name}': too many discards ({discards}) — \
                     weaken the filters/assumptions"
                );
            }
            Verdict::Fail => unreachable!("failures return early"),
        }
    }
    Ok(())
}

/// Checks a property: panics with a replayable report on failure.
pub fn check(name: &str, cfg: &Config, prop: impl Fn(&mut Choices)) {
    if let Err(failure) = check_quietly(name, cfg, prop) {
        panic!("{}", failure.report(name));
    }
}

/// Declares `#[test]` property functions (the testkit's analogue of the
/// `proptest!` macro).
///
/// ```
/// use pdr_testkit::{property, u64s, Config};
///
/// property! {
///     config = Config::with_cases(64);
///
///     fn addition_commutes(a in u64s(0..1000), b in u64s(0..1000)) {
///         assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! property {
    (
        config = $cfg:expr;
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $gen:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let cfg: $crate::Config = $cfg;
                $crate::check(stringify!($name), &cfg, |src: &mut $crate::Choices| {
                    $(
                        let $arg = $crate::Gen::generate(&($gen), src);
                        src.note(stringify!($arg), format!("{:?}", $arg));
                    )+
                    $body
                });
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::u64s;

    fn quiet_cfg(cases: u32) -> Config {
        Config {
            cases,
            ..Config::default()
        }
    }

    #[test]
    fn passing_property_runs_every_case() {
        let ran = std::cell::Cell::new(0u32);
        let g = u64s(0..100);
        check_quietly("all_pass", &quiet_cfg(40), |src| {
            let _ = g.generate(src);
            ran.set(ran.get() + 1);
        })
        .expect("property holds");
        assert_eq!(ran.get(), 40);
    }

    #[test]
    fn same_seed_yields_identical_case_sequence() {
        let capture = |_unused: ()| {
            let values = std::cell::RefCell::new(Vec::new());
            let g = u64s(0..1_000_000);
            check_quietly("same_stream", &quiet_cfg(25), |src| {
                values.borrow_mut().push(g.generate(src));
            })
            .expect("property holds");
            values.into_inner()
        };
        let a = capture(());
        let b = capture(());
        assert_eq!(a, b, "runs must be bit-reproducible");
        assert!(a.windows(2).any(|w| w[0] != w[1]), "cases must vary");
    }

    #[test]
    fn distinct_properties_get_distinct_streams() {
        let draw_first = |name: &str| {
            let first = std::cell::Cell::new(None);
            let g = u64s(0..u64::MAX);
            check_quietly(name, &quiet_cfg(1), |src| {
                first.set(Some(g.generate(src)));
            })
            .expect("property holds");
            first.get().expect("one case ran")
        };
        assert_ne!(draw_first("stream_a"), draw_first("stream_b"));
    }

    #[test]
    fn failure_shrinks_to_minimal_counterexample() {
        let g = u64s(0..1_000_000);
        let failure = check_quietly("threshold", &quiet_cfg(200), |src| {
            let v = g.generate(src);
            src.note("v", format!("{v}"));
            assert!(v < 250_000, "too big");
        })
        .expect_err("property must fail");
        assert_eq!(
            failure.notes,
            vec![("v".to_string(), "250000".to_string())],
            "shrinking must converge to the exact threshold"
        );
        assert_eq!(failure.message, "too big");
        let report = failure.report("threshold");
        assert!(report.contains(&format!("{SEED_ENV}=0x{:016x}", failure.case_seed)));
        assert!(report.contains(&format!("cc threshold 0x{:016x}", failure.case_seed)));
    }

    #[test]
    fn explicit_seed_replays_the_reported_case() {
        let g = u64s(0..1_000_000);
        let prop = |src: &mut Choices| {
            let v = g.generate(src);
            assert!(v < 250_000);
        };
        let first = check_quietly("replay_me", &quiet_cfg(200), prop).expect_err("fails");
        let cfg = Config {
            seed: Some(first.case_seed),
            ..quiet_cfg(200)
        };
        let replay = check_quietly("replay_me", &cfg, prop).expect_err("same case fails");
        assert_eq!(replay.case_seed, first.case_seed);
        assert_eq!(replay.origin, "seed replay");
    }

    #[test]
    fn regression_entries_replay_before_random_cases() {
        let g = u64s(0..1_000_000);
        let prop = |src: &mut Choices| {
            let v = g.generate(src);
            assert!(v < 250_000);
        };
        let seed = check_quietly("from_file", &quiet_cfg(200), prop)
            .expect_err("fails")
            .case_seed;

        let dir = std::env::temp_dir().join(format!("pdr-testkit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("regressions.seeds");
        std::fs::write(
            &path,
            format!("# recorded failure\ncc from_file 0x{seed:016x}\ncc other_prop 7\n"),
        )
        .expect("write seeds");

        let cfg = Config {
            regressions: Some(path.clone()),
            ..quiet_cfg(200)
        };
        let failure = check_quietly("from_file", &cfg, prop).expect_err("replay fails");
        assert_eq!(failure.origin, "regression replay");
        assert_eq!(failure.case_seed, seed);

        assert_eq!(load_regression_seeds(&path, "other_prop"), vec![7]);
        assert_eq!(
            load_regression_seeds(Path::new("/nonexistent/file.seeds"), "x"),
            Vec::<u64>::new()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seed_parsing_accepts_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0xff"), Some(255));
        assert_eq!(parse_seed(" 0XFF "), Some(255));
        assert_eq!(parse_seed("nope"), None);
    }

    #[test]
    fn discards_do_not_count_as_cases() {
        let executed = std::cell::Cell::new(0u32);
        let g = u64s(0..10);
        check_quietly("half_discarded", &quiet_cfg(20), |src| {
            let v = g.generate(src);
            executed.set(executed.get() + 1);
            crate::assume!(v % 2 == 0);
        })
        .expect("holds");
        assert!(executed.get() > 20, "discarded executions must not count");
    }
}
