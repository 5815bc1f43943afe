//! Content-addressed LLM response cache — the serving subsystem's L3.
//!
//! Keys hash the *complete* input of a call — kind tag, call key, seed,
//! schema fingerprint, every value/feature/profile operand — never the
//! call key alone: the same `gen:{query_key}` can carry a different
//! context after an epoch swap, and a key that captured only the query
//! would serve a stale answer. Because every [`MockLlm`] output is a
//! pure function of exactly these inputs, a hit is guaranteed
//! equivalent to recomputing, which is what lets the cache survive
//! epoch swaps unmolested (entries for changed contexts simply miss).
//!
//! A hit skips metering *and* the fault plan: no call is placed, so no
//! fault can hit it — cached answers keep serving through an LLM
//! brownout, which is precisely their operational value.
//!
//! [`MockLlm`]: crate::MockLlm

use crate::halluc::GeneratedAnswer;
use crate::logic::LogicForm;
use multirag_kg::{FxBuildHasher, FxHasher};
use multirag_obs::MeteredCache;
use std::hash::{Hash, Hasher};

/// A memoized LLM response.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedResponse {
    /// Logic-form generation result (including the "no parse" outcome).
    Logic(Option<LogicForm>),
    /// Answer generation result.
    Answer(GeneratedAnswer),
    /// Authority score `C_LLM(v)`.
    Authority(f64),
}

/// Shared, thread-safe response cache — the serving stack's L3 level.
/// All clones share one store and one pair of hit/miss counters, so a
/// worker pool of pipelines deduplicates LLM work across threads.
pub type LlmResponseCache = MeteredCache<CachedResponse, FxBuildHasher>;

/// Builds a cache key from a call's complete input set. Strings are
/// length-prefix hashed by `Hash`; floats contribute their exact bit
/// patterns via the `{v:?}` debug form of the containing struct, which
/// round-trips f64 exactly.
pub struct KeyBuilder {
    hasher: FxHasher,
}

impl KeyBuilder {
    /// Starts a key for one call kind ("lf", "auth", "gen", …).
    pub fn new(kind: &str, seed: u64) -> Self {
        let mut hasher = FxHasher::default();
        kind.hash(&mut hasher);
        seed.hash(&mut hasher);
        Self { hasher }
    }

    /// Mixes a string operand.
    pub fn str(mut self, s: &str) -> Self {
        s.hash(&mut self.hasher);
        self
    }

    /// Mixes an integer operand.
    pub fn u64(mut self, v: u64) -> Self {
        v.hash(&mut self.hasher);
        self
    }

    /// Mixes a float operand bit-exactly.
    pub fn f64(mut self, v: f64) -> Self {
        v.to_bits().hash(&mut self.hasher);
        self
    }

    /// Mixes any Debug-printable operand via its exact debug form
    /// (Rust's `{:?}` prints f64 with round-trip precision).
    pub fn debug<T: std::fmt::Debug>(mut self, v: &T) -> Self {
        format!("{v:?}").hash(&mut self.hasher);
        self
    }

    /// Finishes the key.
    pub fn build(self) -> u64 {
        self.hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_builder_separates_operands_and_kinds() {
        let base = || KeyBuilder::new("gen", 42).str("q1").f64(0.5).u64(7);
        assert_eq!(base().build(), base().build());
        assert_ne!(
            base().build(),
            KeyBuilder::new("lf", 42).str("q1").f64(0.5).u64(7).build()
        );
        assert_ne!(
            base().build(),
            KeyBuilder::new("gen", 43).str("q1").f64(0.5).u64(7).build()
        );
        assert_ne!(base().build(), base().str("extra").build());
        // Bit-exact float discrimination: -0.0 differs from 0.0.
        assert_ne!(
            KeyBuilder::new("k", 0).f64(0.0).build(),
            KeyBuilder::new("k", 0).f64(-0.0).build()
        );
    }
}
