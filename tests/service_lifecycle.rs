//! Integration tests for the online admission service: exact resource
//! reclamation across admit → depart → re-admit cycles, error paths for
//! dead session ids, rebinding after departures, and the service's
//! event/metrics instrumentation.

use sdfrs_appmodel::apps::{example_platform, paper_example};
use sdfrs_core::flow::Allocation;
use sdfrs_core::service::{AllocationService, ServiceError, ServiceRequest};
use sdfrs_core::{Metrics, RecordingSink, SessionId};

fn service() -> AllocationService {
    AllocationService::new(&example_platform())
}

fn same_allocation(a: &Allocation, b: &Allocation) -> bool {
    a.binding == b.binding
        && a.slices == b.slices
        && a.usage == b.usage
        && a.guaranteed_throughput() == b.guaranteed_throughput()
}

/// The core reclamation guarantee: departing a session restores the
/// residual platform state to *exactly* what it was before that
/// session's admission, and a re-admission then reproduces the departed
/// allocation bit for bit.
#[test]
fn depart_reclaims_exactly_and_readmission_reproduces() {
    let mut s = service();
    let empty = s.residual().clone();

    let first = s.admit(&paper_example()).expect("first admission fits");
    let after_first = s.residual().clone();
    assert_ne!(after_first, empty, "admission must claim resources");

    let second = s.admit(&paper_example()).expect("second admission fits");
    let after_second = s.residual().clone();
    let second_alloc = s.allocation(second).unwrap().clone();

    // Depart the second session: the residual must equal the
    // post-first-admission state exactly — not approximately.
    s.depart(second).unwrap();
    assert_eq!(s.residual(), &after_first);

    // Re-admission sees the identical platform, so the deterministic
    // flow must reproduce the identical allocation (under a new id).
    let third = s.admit(&paper_example()).unwrap();
    assert_ne!(third, second, "session ids are never reused");
    assert!(same_allocation(s.allocation(third).unwrap(), &second_alloc));
    assert_eq!(s.residual(), &after_second);

    // Tearing everything down returns to the pristine platform.
    s.depart(third).unwrap();
    s.depart(first).unwrap();
    assert_eq!(s.residual(), &empty);
    assert_eq!(s.live_count(), 0);
}

#[test]
fn departing_unknown_sessions_errors_and_keeps_state() {
    let mut s = service();
    let id = s.admit(&paper_example()).unwrap();
    let before = s.residual().clone();

    let bogus = SessionId::from_raw(999);
    let err = s.depart(bogus).unwrap_err();
    assert_eq!(err, ServiceError::UnknownSession(bogus));
    assert_eq!(err.to_string(), "unknown session s999");
    assert_eq!(s.residual(), &before, "failed depart must not touch state");
    assert_eq!(s.live_count(), 1);

    // Double depart: the second attempt sees a dead ticket.
    s.depart(id).unwrap();
    assert_eq!(s.depart(id), Err(ServiceError::UnknownSession(id)));
    assert_eq!(
        s.rebind(id),
        Err(ServiceError::UnknownSession(id)),
        "rebind of a departed session must fail the same way"
    );
}

/// After an earlier tenant departs, a rebind re-runs the flow on the
/// freed platform. The flow is satisficing — it guarantees the
/// application's constraint λ with minimal slices, not maximal
/// throughput — so the contract is: the session survives, the new
/// guarantee still meets λ, and the `changed` flag tells the truth.
#[test]
fn rebind_after_departure_stays_valid() {
    let app = paper_example();
    let mut s = service();
    let first = s.admit(&app).unwrap();
    let second = s.admit(&app).unwrap();
    let old = s.allocation(second).unwrap().clone();

    s.depart(first).unwrap();
    let outcome = s.rebind(second).unwrap();
    assert!(
        outcome.throughput >= app.throughput_constraint(),
        "rebound session must still meet λ ({} < {})",
        outcome.throughput,
        app.throughput_constraint()
    );
    assert_eq!(s.live_count(), 1);
    let rebound = s.allocation(second).unwrap();
    assert_eq!(rebound.guaranteed_throughput(), outcome.throughput);
    assert_eq!(
        outcome.changed,
        !same_allocation(rebound, &old),
        "`changed` must report whether the allocation actually moved"
    );
    // The rebound claim is consistent: departing it empties the platform.
    s.depart(second).unwrap();
    assert_eq!(s.residual(), service().residual());
}

#[test]
fn service_emits_events_and_metrics() {
    let sink = RecordingSink::new();
    let metrics = Metrics::collecting();
    let mut s = AllocationService::new(&example_platform())
        .with_sink(sink.clone())
        .with_metrics(metrics.clone());

    s.enqueue(ServiceRequest::Admit {
        app: Box::new(paper_example()),
    });
    s.enqueue(ServiceRequest::Depart {
        session: SessionId::from_raw(1),
    });
    let responses = s.drain();
    assert_eq!(responses.len(), 2);

    let kinds: Vec<&str> = sink.events().iter().map(|(_, e)| e.kind()).collect();
    for expected in [
        "service_request_queued",
        "session_admitted",
        "session_departed",
        "service_batch_drained",
    ] {
        assert!(kinds.contains(&expected), "missing {expected} in {kinds:?}");
    }
    // The flow itself ran inside the service, through the same sink.
    assert!(kinds.contains(&"flow_started"));

    let snapshot = metrics.snapshot().unwrap();
    assert_eq!(snapshot.counter("service_requests"), 2);
    assert_eq!(snapshot.counter("sessions_admitted"), 1);
    assert_eq!(snapshot.counter("sessions_departed"), 1);
    assert_eq!(snapshot.sessions_live, 0);
    assert_eq!(snapshot.counter("flows_started"), 1);
}

/// A traced request's flow events are stamped on the request's clock:
/// however long the service existed before the request arrived, every
/// event's `t_us` lies inside the trace's `execute` span
/// (`[dispatch_us, total_us]` of the span tree).
#[test]
fn traced_events_nest_inside_the_execute_span() {
    use sdfrs_core::service::CommitLog;
    use sdfrs_core::trace::{RequestTrace, TraceId, TraceOutcome};

    let mut s = service();
    std::thread::sleep(std::time::Duration::from_millis(30));
    let mut trace = RequestTrace::begin(TraceId::from_raw(7), "admit");
    trace.mark_parsed();
    trace.mark_dequeued(0);
    let request = ServiceRequest::Admit {
        app: Box::new(paper_example()),
    };
    let response = s.execute_traced(request, &mut CommitLog::new(), &mut trace);
    let completed = trace.finish(TraceOutcome::from_response(&response));
    let start = completed
        .dispatch_us
        .expect("dequeued trace has an execute span");
    let end = completed.total_us;
    assert!(!completed.events.is_empty());
    for (at, event) in &completed.events {
        let t_us = at.as_micros() as u64;
        assert!(
            (start..=end).contains(&t_us),
            "{} at t_us {t_us} lies outside execute [{start}, {end}]",
            event.kind()
        );
    }
    // The rendered span tree carries the same numbers.
    let json = completed.to_json();
    assert!(json.contains(&format!(
        "\"name\":\"execute\",\"start_us\":{start},\"end_us\":{end}"
    )));
}
