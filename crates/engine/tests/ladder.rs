//! Degradation-ladder behaviour: rung selection under budgets, labelled
//! degradation, cancellation, and the audit trail.

use iwa_core::CancelToken;
use iwa_engine::{analyze, EngineOptions, EngineVerdict, Rung, LADDER};
use iwa_tasklang::parse;
use iwa_workloads::adversarial::deep_loop_nest;
use std::time::Duration;

fn clean_program() -> iwa_tasklang::Program {
    parse("task t1 { send t2.a; accept b; } task t2 { accept a; send t1.b; }").unwrap()
}

#[test]
fn every_rung_answers_unbudgeted_at_full_precision() {
    let p = clean_program();
    for rung in LADDER {
        let r = analyze(
            &p,
            &EngineOptions {
                start: rung,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.rung, rung, "no budget, no degradation");
        assert!(!r.degraded);
        assert_eq!(r.verdict, EngineVerdict::Clean, "rung {rung}");
        assert_eq!(r.attempts.len(), 1);
        assert_eq!(r.attempts[0].outcome, "completed");
        assert!(r.flagged.is_empty());
    }
}

#[test]
fn oracle_flags_the_crossed_deadlock() {
    let p = parse("task t1 { send t2.a; accept b; } task t2 { send t1.b; accept a; }").unwrap();
    let r = analyze(&p, &EngineOptions::default()).unwrap();
    assert_eq!(r.rung, Rung::Oracle);
    assert_eq!(r.verdict, EngineVerdict::Anomalous);
    assert!(
        r.flagged.iter().any(|f| f.contains("deadlock")),
        "flagged: {:?}",
        r.flagged
    );
    // The crossed sends wedge before any rendezvous fires; the first
    // anomaly names that empty schedule.
    assert!(
        r.flagged[0].ends_with("; schedule: stuck from the start"),
        "flagged: {:?}",
        r.flagged
    );
}

#[test]
fn the_oracle_names_the_schedule_that_reaches_its_first_anomaly() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../corpus/bank_transfer.iwa"
    ))
    .unwrap();
    let r = analyze(&parse(&src).unwrap(), &EngineOptions::default()).unwrap();
    assert_eq!(r.rung, Rung::Oracle);
    assert_eq!(r.verdict, EngineVerdict::Anomalous);
    // Each transfer takes its first account's lock, then both block on
    // the other's: two rendezvous into the deadlock.
    let (set, schedule) = r.flagged[0].split_once("; schedule: ").expect("a schedule");
    assert!(set.starts_with("deadlock set: "), "{set}");
    assert_eq!(
        schedule,
        "account_a:account_a.lock- ⇄ transfer_ab:account_a.lock+, \
         account_b:account_b.lock- ⇄ transfer_ba:account_b.lock+"
    );

    // Only the first anomaly carries one: fig5d's oracle flags two stalls.
    let r = analyze(&iwa_workloads::figures::fig5d(), &EngineOptions::default()).unwrap();
    assert_eq!(r.flagged.len(), 2, "{:?}", r.flagged);
    assert!(r.flagged[0].contains("; schedule: "), "{:?}", r.flagged);
    assert!(!r.flagged[1].contains("schedule"), "{:?}", r.flagged);
}

#[test]
fn refined_rungs_name_heads_from_the_unrolled_graph_they_analysed() {
    // Loopy: the refined rungs analyse the Lemma-1 unrolled graph, whose
    // node indices (and `~2` copies) do not exist in the program's own
    // graph. t3's accept sits on no cycle.
    let p = parse(
        "task t1 { send t3.x as sx; while { send t2.a as sa; accept b as rb; } }
         task t2 { while { send t1.b as sb; accept a as ra; } }
         task t3 { accept x as ax; }",
    )
    .unwrap();
    for start in [Rung::Heads, Rung::HeadPairs, Rung::HeadTails] {
        let r = analyze(
            &p,
            &EngineOptions {
                start,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.rung, start);
        let heads: Vec<&String> = r
            .flagged
            .iter()
            .filter(|f| f.starts_with("potential deadlock: head "))
            .collect();
        assert!(!heads.is_empty(), "{start}: flagged {:?}", r.flagged);
        for f in heads {
            let head = f["potential deadlock: head ".len()..]
                .split(' ')
                .next()
                .unwrap();
            assert!(
                head.starts_with("t1:") || head.starts_with("t2:"),
                "{start}: {f}"
            );
            assert!(!f.contains("node "), "{start}: bare index in {f}");
        }
    }
}

/// Measure what each budgeted rung costs (in cooperative checkpoints) on
/// the workload the ladder tests run against.
fn rung_costs(p: &iwa_tasklang::Program) -> Vec<(Rung, u64)> {
    LADDER
        .iter()
        .map(|&rung| {
            let r = analyze(
                p,
                &EngineOptions {
                    start: rung,
                    ..EngineOptions::default()
                },
            )
            .unwrap();
            assert_eq!(r.rung, rung);
            (rung, r.attempts[0].steps)
        })
        .collect()
}

/// With a step ceiling `S = 5c + 4`, integer division hands every rung a
/// slice of exactly `c` steps as the ladder falls (a tripping rung spends
/// `slice + 1`): `(5c+4)/5 = c`, then `(4c+3)/4 = c`, `(3c+2)/3 = c`,
/// `(2c+1)/2 = c`. So the ladder lands on the first rung whose cost is
/// `<= c` — picking `c` as a rung's measured cost selects that rung
/// deterministically, given strictly decreasing costs down the ladder.
#[test]
fn step_ceilings_select_each_rung_deterministically() {
    let p = deep_loop_nest(4, 2);
    let costs = rung_costs(&p);
    for pair in costs[..4].windows(2) {
        assert!(
            pair[0].1 > pair[1].1,
            "ladder costs must strictly decrease on this workload: {costs:?}"
        );
    }
    assert_eq!(costs[4], (Rung::Naive, 0), "the floor consults no budget");

    for &(target, cost) in &costs[..4] {
        let r = analyze(
            &p,
            &EngineOptions {
                max_steps: Some(5 * cost + 4),
                ..EngineOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.rung, target, "S=5c+4 with c={cost} lands on {target}");
        assert_eq!(r.degraded, target != Rung::Oracle);
        let pos = LADDER.iter().position(|&x| x == target).unwrap();
        assert_eq!(r.attempts.len(), pos + 1, "one attempt per abandoned rung");
        for a in &r.attempts[..pos] {
            assert_eq!(a.outcome, "budget-exceeded");
            let detail = a.detail.as_deref().unwrap();
            assert!(
                detail.contains("degraded result produced"),
                "abandoned rungs are labelled once a cheaper rung answers: {detail}"
            );
        }
        assert_eq!(r.attempts[pos].outcome, "completed");
    }

    // A ceiling of one step starves every budgeted rung; only the
    // budget-free floor can answer.
    let r = analyze(
        &p,
        &EngineOptions {
            max_steps: Some(1),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    assert_eq!(r.rung, Rung::Naive);
    assert!(r.degraded);
    assert_eq!(r.attempts.len(), LADDER.len());
}

#[test]
fn a_one_millisecond_deadline_degrades_promptly_to_the_floor() {
    // Sixteen pairs three loops deep: each rung gets about a fifth of the
    // millisecond, and an optimised build runs every refined rung of a
    // smaller nest inside that.
    let p = deep_loop_nest(16, 3);
    let r = analyze(
        &p,
        &EngineOptions {
            deadline: Some(Duration::from_millis(1)),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    assert!(r.degraded, "a 1 ms deadline cannot afford the oracle");
    assert!(r.elapsed_ms < 2_000, "terminates promptly, not eventually");
    // The floor still pronounces on the deadlock half.
    assert_eq!(r.rung, Rung::Naive);
    assert!(r
        .attempts
        .iter()
        .any(|a| a.detail.as_deref().is_some_and(|d| d.contains("deadline"))));
}

#[test]
fn a_twenty_process_ring_answers_a_100_ms_deadline_within_a_second() {
    // 2^20 initial waves: the oracle must trip on its deadline while it
    // enumerates them, not after building the whole product.
    use iwa_engine::analyze_model;
    use iwa_frontend::{registry, Lang};
    let model = registry::by_lang(Lang::Chan)
        .load(&iwa_workloads::chan::chan_ring(20, false))
        .unwrap();
    let started = std::time::Instant::now();
    let r = analyze_model(
        &model,
        &EngineOptions {
            deadline: Some(Duration::from_millis(100)),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "took {took:?}");
    assert_eq!(r.verdict, EngineVerdict::Anomalous);
    let oracle = &r.attempts[0];
    assert_eq!(oracle.rung, Rung::Oracle);
    assert_eq!(oracle.outcome, "budget-exceeded", "{oracle:?}");
}

#[test]
fn a_pre_cancelled_token_still_gets_a_floor_answer() {
    let token = CancelToken::new();
    token.cancel();
    let r = analyze(
        &clean_program(),
        &EngineOptions {
            cancel: Some(token),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    assert_eq!(r.rung, Rung::Naive);
    assert!(r.degraded);
    assert_eq!(r.verdict, EngineVerdict::Clean, "straight-line floor answer");
    assert!(r
        .attempts
        .iter()
        .all(|a| a.rung == Rung::Naive || a.detail.as_deref().unwrap().contains("cancelled")));
}

#[test]
fn starting_low_on_the_ladder_is_not_degraded() {
    let r = analyze(
        &clean_program(),
        &EngineOptions {
            start: Rung::Naive,
            ..EngineOptions::default()
        },
    )
    .unwrap();
    assert_eq!(r.rung, Rung::Naive);
    assert!(!r.degraded, "the caller asked for the floor");
}

#[test]
fn input_errors_are_not_swallowed_by_the_ladder() {
    use iwa_tasklang::ProgramBuilder;
    let mut b = ProgramBuilder::new();
    let a = b.task("a");
    let z = b.task("z");
    let sig = b.signal(z, "m");
    b.body(a, |t| {
        t.accept(sig);
    });
    b.body(z, |t| {
        t.send(sig);
    });
    assert!(analyze(&b.build(), &EngineOptions::default()).is_err());
}

#[test]
fn rung_names_round_trip() {
    for rung in LADDER {
        assert_eq!(rung.name().parse::<Rung>().unwrap(), rung);
    }
    assert!("polite-guess".parse::<Rung>().is_err());
}

#[test]
fn reports_serialize_to_json() {
    let r = analyze(&clean_program(), &EngineOptions::default()).unwrap();
    let json = serde_json::to_string(&r).unwrap();
    assert!(json.contains("\"verdict\":\"Clean\""), "got: {json}");
    assert!(json.contains("\"rung\":\"Oracle\""));
    assert!(json.contains("\"degraded\":false"));
}

#[test]
fn two_step_tripped_runs_give_one_masked_report() {
    // Four pairs four loops deep under 4 000 steps: in a debug build the
    // HeadTails and HeadPairs rungs each run for several milliseconds
    // before they trip their step slice, so a clock reading anywhere but
    // the masked timing fields would make the two reports differ.
    let p = deep_loop_nest(4, 4);
    let run = || {
        let r = analyze(
            &p,
            &EngineOptions {
                start: Rung::HeadTails,
                max_steps: Some(4_000),
                ..EngineOptions::default()
            },
        )
        .unwrap();
        assert!(
            r.attempts.iter().any(|a| a.outcome == "budget-exceeded"),
            "a refined rung trips: {:?}",
            r.attempts
        );
        iwa_testsupport::masked(&serde_json::to_string(&r).unwrap())
    };
    assert_eq!(run(), run());
}
