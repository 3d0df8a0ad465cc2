//! Proof-engine identities for the clean-design portfolio.
//!
//! Clean-design obligations are discharged by an N-way *portfolio*: the
//! selected engines run concurrently on the shared [`gqed_ir::Model`],
//! the first conclusive verdict cancels the rest through the cooperative
//! interrupt flag, and an inconclusive engine drops out without
//! cancelling anyone. This module names the engines and parses the CLI's
//! `--engines` selection; the racing itself lives in
//! [`runner`](crate::runner).

/// One proof engine the portfolio can field on a clean-design obligation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineId {
    /// Bounded model checking up to the obligation's bound. Complete for
    /// violations within the bound and the only engine that can certify
    /// `clean@bound`; never proves unbounded safety.
    Bmc,
    /// k-induction up to the obligation's `max_k`. Proves unbounded
    /// safety when the property is inductive at small depth; returns
    /// `Unknown` (and drops out of the race) when it is not.
    KInduction,
    /// IC3/PDR ([`gqed_pdr`]). Discovers a strengthening inductive
    /// invariant frame by frame, so it can prove properties k-induction
    /// gives up on — at a higher per-query cost.
    Pdr,
}

impl EngineId {
    /// Stable lower-case name, as used in telemetry, journal records and
    /// the `--engines` flag.
    pub fn name(self) -> &'static str {
        match self {
            EngineId::Bmc => "bmc",
            EngineId::KInduction => "kind",
            EngineId::Pdr => "pdr",
        }
    }

    /// Parses one engine name as accepted by `--engines`.
    pub fn parse(s: &str) -> Result<EngineId, String> {
        match s {
            "bmc" => Ok(EngineId::Bmc),
            "kind" | "k-induction" | "kinduction" => Ok(EngineId::KInduction),
            "pdr" | "ic3" => Ok(EngineId::Pdr),
            other => Err(format!(
                "unknown engine '{other}' (expected a comma-separated subset of: bmc, kind, pdr)"
            )),
        }
    }

    /// Parses a comma-separated engine list (`bmc,kind,pdr`). Whitespace
    /// around names is ignored and duplicates collapse; an empty list is
    /// an error.
    pub fn parse_list(s: &str) -> Result<Vec<EngineId>, String> {
        let mut engines = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let e = EngineId::parse(part)?;
            if !engines.contains(&e) {
                engines.push(e);
            }
        }
        if engines.is_empty() {
            return Err("empty engine list (expected e.g. 'bmc,kind,pdr')".to_string());
        }
        Ok(engines)
    }
}

/// The default portfolio: every engine.
pub fn default_portfolio() -> Vec<EngineId> {
    vec![EngineId::Bmc, EngineId::KInduction, EngineId::Pdr]
}

/// Per-property SAT-query cap on the portfolio's PDR side.
///
/// PDR has no natural bound: on a design whose invariant it cannot find
/// it deepens the frame ladder forever, so an uncapped side would turn
/// every unbounded-budget campaign into a hang. The cap is counted in
/// solver queries — a deterministic function of the model (single
/// thread, no randomness) — so the side's verdict is identical on every
/// run and every machine, unlike a wall-clock cutoff. At the cap the
/// side reports `Unknown` and drops out of the race without cancelling
/// anyone (and without triggering a Luby retry — the capped outcome
/// would repeat identically).
///
/// Sizing: the seeded PDR-win design (`bitflip`) proves its hardest
/// G-QED property (`fcg.inconsistent`) in 77,716 queries — and query
/// counts are exactly reproducible, so the headroom only has to absorb
/// future drift in the wrapper or the engine's heuristics, not
/// run-to-run noise. Designs out of PDR's reach burn the cap once (the
/// side drops out at its first capped property) and yield to bounded
/// BMC; on the default-size catalogue designs that costs roughly
/// 30–45 s of solver time per clean obligation. `tests/pipeline_gates.rs`
/// gates a fixed fixture's query count against this cap.
pub const PDR_QUERY_CAP: u64 = 100_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_names_and_aliases() {
        assert_eq!(EngineId::parse("bmc"), Ok(EngineId::Bmc));
        assert_eq!(EngineId::parse("kind"), Ok(EngineId::KInduction));
        assert_eq!(EngineId::parse("ic3"), Ok(EngineId::Pdr));
        assert!(EngineId::parse("cegar").is_err());
    }

    #[test]
    fn parses_lists_with_dedup_and_whitespace() {
        assert_eq!(
            EngineId::parse_list(" bmc , pdr, bmc "),
            Ok(vec![EngineId::Bmc, EngineId::Pdr])
        );
        assert_eq!(EngineId::parse_list("kind"), Ok(vec![EngineId::KInduction]));
        assert!(EngineId::parse_list("").is_err());
        assert!(EngineId::parse_list("bmc,nope").is_err());
        let err = EngineId::parse_list("bmc,nope").unwrap_err();
        assert!(
            err.contains("nope") && err.contains("bmc, kind, pdr"),
            "{err}"
        );
    }

    #[test]
    fn default_portfolio_races_everything() {
        let d = default_portfolio();
        assert_eq!(d.len(), 3);
        assert!(d.contains(&EngineId::Bmc));
        assert!(d.contains(&EngineId::KInduction));
        assert!(d.contains(&EngineId::Pdr));
    }

    #[test]
    fn names_round_trip() {
        for e in default_portfolio() {
            assert_eq!(EngineId::parse(e.name()), Ok(e));
        }
    }
}
