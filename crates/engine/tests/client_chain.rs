//! A closed-loop client's retry chain belongs to its pending submission:
//! a client that leaves the loop mid-chain drops the chain, and when it is
//! re-admitted its first query starts fresh — attempt 1 of a new chain,
//! with a new deadline clock — instead of resuming the dead chain's
//! backoff exponent and budget.

use std::sync::Arc;
use throttledb_engine::{Server, ServerConfig, WorkloadProfiles};
use throttledb_sim::SimDuration;

/// Advance `server` a second at a time until `failed` queries have failed,
/// or panic if that takes longer than `limit`.
fn run_until_failed(server: &mut Server, failed: u64, limit: SimDuration) {
    let deadline = server.now() + limit;
    while server.metrics().failed.total() < failed {
        assert!(
            server.now() < deadline,
            "no failure #{failed} within {limit:?} (failed so far: {})",
            server.metrics().failed.total()
        );
        server.run_until(server.now() + SimDuration::from_secs(1));
    }
}

#[test]
fn readmitted_client_starts_a_fresh_retry_chain() {
    let mut cfg = ServerConfig::quick(1, true);
    // One retry per chain: a second consecutive failure of the *same*
    // chain is abandoned.
    cfg.retry_budget = 1;
    cfg.grant_timeout = SimDuration::from_secs(5);
    let profiles = Arc::new(WorkloadProfiles::characterize_sales(&cfg));
    let mut server = Server::new(cfg, profiles);
    // No grant ever fits: every query compiles, then times out waiting
    // for execution memory.
    server.set_grant_budget_scale(1e-12);
    server.set_active_clients(1);
    server.begin();

    let limit = SimDuration::from_secs(900);
    run_until_failed(&mut server, 1, limit);
    assert_eq!(server.metrics().retries_abandoned, 0);

    // The client leaves while its retry (due within a minute) is pending,
    // stays out long enough for that retry to come due, and comes back.
    server.set_active_clients(0);
    let back = server.now() + SimDuration::from_secs(120);
    server.run_until(back);
    assert_eq!(
        server.metrics().failed.total(),
        1,
        "an inactive client submitted"
    );
    server.set_active_clients(1);

    run_until_failed(&mut server, 2, limit);
    assert_eq!(
        server.metrics().retries_abandoned,
        0,
        "the re-admitted client's first failure was counted against the dead chain"
    );
}
