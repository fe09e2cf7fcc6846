//! Post-run trace artifacts: the complexity ledger, the flight
//! recorder, and per-recovery channel costs — the `trace` block of the
//! versioned `bfw/scenario-report` document (see [`crate::RunReport`]).
//!
//! A [`ScenarioTrace`] is produced by
//! [`Engine::trace`](crate::Engine::trace) when the host's
//! instrumentation is on. It is strictly *additive* observability:
//! instrumentation never draws from an RNG stream, so the
//! [`ScenarioOutcome`](crate::ScenarioOutcome) of a traced run is
//! byte-identical to the untraced run at the same seed (asserted by the
//! `trace_does_not_perturb_outcomes` tests).

use crate::ScenarioOutcome;
use bfw_sim::{ComplexityLedger, FlightRecorder};
use bfw_stats::{JsonValue, Table};

/// Everything a traced scenario run measured beyond its
/// [`ScenarioOutcome`](crate::ScenarioOutcome).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioTrace {
    /// Whole-run complexity counters, accumulated by the host engine.
    pub ledger: ComplexityLedger,
    /// The ring buffer of recent trace events, if a recorder was
    /// attached.
    pub recorder: Option<FlightRecorder>,
    /// Channel cost of each completed recovery, aligned index-for-index
    /// with [`ScenarioOutcome::recoveries`]: `(bits, messages)` spent
    /// from the disruption until the recovery's stable window was
    /// *confirmed* — i.e. including the stability window itself, since
    /// the cost of a recovery is only known once stability is
    /// established.
    pub recovery_costs: Vec<(u64, u64)>,
}

impl ScenarioTrace {
    /// The trace as a [`JsonValue`] — the `trace` block of the
    /// `bfw/scenario-report` document (see [`crate::RunReport`]): the
    /// ledger, the flight-recorder dump (or `null`), and the
    /// per-recovery channel costs. Both sub-objects carry their own
    /// `"version": 1`.
    pub fn to_json_value(&self) -> JsonValue {
        let l = &self.ledger;
        let ledger = JsonValue::object([
            ("version", JsonValue::from(1u64)),
            ("steps", JsonValue::from(l.steps())),
            ("beeps_sent", JsonValue::from(l.beeps_sent())),
            ("beeps_heard", JsonValue::from(l.beeps_heard())),
            ("bits", JsonValue::from(l.bits())),
            ("messages", JsonValue::from(l.messages())),
            ("nodes", JsonValue::from(l.nodes())),
            (
                "state_bytes_per_node",
                JsonValue::from(l.state_bytes_per_node()),
            ),
        ]);
        let recorder = match &self.recorder {
            Some(recorder) => JsonValue::object([
                ("version", JsonValue::from(1u64)),
                ("capacity", JsonValue::from(recorder.capacity())),
                ("dropped", JsonValue::from(recorder.dropped())),
                (
                    "events",
                    JsonValue::array(recorder.events().map(|e| {
                        JsonValue::object([
                            ("step", JsonValue::from(e.step)),
                            ("kind", JsonValue::from(e.kind.as_str())),
                            ("detail", JsonValue::from(e.detail.as_str())),
                        ])
                    })),
                ),
            ]),
            None => JsonValue::Null,
        };
        let costs = JsonValue::array(self.recovery_costs.iter().map(|&(bits, messages)| {
            JsonValue::object([
                ("bits", JsonValue::from(bits)),
                ("messages", JsonValue::from(messages)),
            ])
        }));
        JsonValue::object([
            ("ledger", ledger),
            ("flight_recorder", recorder),
            ("recovery_costs", costs),
        ])
    }

    /// The [`ElectionMonitor`](crate::ElectionMonitor) report with
    /// bit/message columns: one row per completed recovery —
    /// disruption round, stable-from round, latency, and the channel
    /// cost ([`recovery_costs`](Self::recovery_costs)) of getting
    /// there. `None` when the run completed no recoveries.
    pub fn recovery_table(&self, outcome: &ScenarioOutcome) -> Option<Table> {
        if outcome.recoveries.is_empty() {
            return None;
        }
        let mut table =
            Table::with_columns(&["disrupted", "stable from", "latency", "bits", "messages"]);
        for (i, r) in outcome.recoveries.iter().enumerate() {
            let (bits, messages) = self
                .recovery_costs
                .get(i)
                .map_or(("?".to_owned(), "?".to_owned()), |&(b, m)| {
                    (b.to_string(), m.to_string())
                });
            table.push_row(vec![
                r.disrupted_at.to_string(),
                r.recovered_at.to_string(),
                r.latency().to_string(),
                bits,
                messages,
            ]);
        }
        Some(table)
    }

    /// One-line plain-text summary of the ledger (the CLI prints this
    /// after the pinned result block).
    pub fn summary_line(&self) -> String {
        format!(
            "complexity: steps={} beeps_sent={} beeps_heard={} bits={} messages={} state={}B/node",
            self.ledger.steps(),
            self.ledger.beeps_sent(),
            self.ledger.beeps_heard(),
            self.ledger.bits(),
            self.ledger.messages(),
            self.ledger.state_bytes_per_node(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recovery;
    use bfw_graph::NodeId;
    use bfw_sim::RoundSample;
    use bfw_stats::JsonValue;

    fn sample_trace() -> ScenarioTrace {
        let mut ledger = ComplexityLedger::new();
        ledger.record(
            RoundSample {
                emitters: 3,
                heard: 5,
                bits: 3,
                messages: 6,
            },
            8,
            4,
        );
        let mut recorder = FlightRecorder::new(4);
        recorder.record(bfw_sim::TraceEvent {
            step: 2,
            kind: "scenario-event".to_owned(),
            detail: "@2 crash-leader -> crashed leader 1".to_owned(),
        });
        ScenarioTrace {
            ledger,
            recorder: Some(recorder),
            recovery_costs: vec![(120, 240)],
        }
    }

    #[test]
    fn json_report_is_versioned_and_round_trips() {
        let trace = sample_trace();
        let value = trace.to_json_value();
        let ledger = value.get("ledger").unwrap();
        assert_eq!(ledger.get("bits").and_then(JsonValue::as_number), Some(3.0));
        for block in [ledger, value.get("flight_recorder").unwrap()] {
            assert_eq!(
                block.get("version").and_then(JsonValue::as_number),
                Some(1.0)
            );
        }
        let events = value
            .get("flight_recorder")
            .and_then(|r| r.get("events"))
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(events.len(), 1);
        let costs = value
            .get("recovery_costs")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(
            costs[0].get("messages").and_then(JsonValue::as_number),
            Some(240.0)
        );
        // render → parse fixpoint.
        let reparsed = JsonValue::parse(&value.render()).unwrap();
        assert_eq!(reparsed, value);
    }

    #[test]
    fn recorder_json_escapes_details() {
        let mut recorder = FlightRecorder::new(4);
        recorder.record(bfw_sim::TraceEvent {
            step: 1,
            kind: "note".into(),
            detail: "say \"hi\"\nback\\slash\tctrl\u{1}".into(),
        });
        let trace = ScenarioTrace {
            recorder: Some(recorder),
            ..sample_trace()
        };
        let json = trace.to_json_value().render();
        assert!(
            json.contains(r#"say \"hi\"\nback\\slash\tctrl\u0001"#),
            "{json}"
        );
    }

    #[test]
    fn recorderless_trace_renders_null() {
        let trace = ScenarioTrace {
            recorder: None,
            ..sample_trace()
        };
        let value = trace.to_json_value();
        assert_eq!(value.get("flight_recorder"), Some(&JsonValue::Null));
    }

    #[test]
    fn recovery_table_aligns_costs_with_recoveries() {
        let trace = sample_trace();
        let outcome = ScenarioOutcome {
            rounds_run: 100,
            event_log: vec![],
            recoveries: vec![
                Recovery {
                    disrupted_at: 10,
                    recovered_at: 30,
                    leader: NodeId::new(2),
                },
                Recovery {
                    disrupted_at: 40,
                    recovered_at: 60,
                    leader: NodeId::new(2),
                },
            ],
            pending_disruption: None,
            leader_flaps: 0,
            final_leaders: vec![NodeId::new(2)],
            final_alive: 8,
            final_edges: 8,
        };
        let table = trace.recovery_table(&outcome).unwrap();
        assert_eq!(table.row_count(), 2);
        let md = table.to_markdown();
        assert!(md.contains("bits"), "{md}");
        assert!(md.contains("120"), "{md}");
        // The second recovery has no measured cost: rendered as '?'.
        assert!(md.contains('?'), "{md}");

        let empty = ScenarioOutcome {
            recoveries: vec![],
            ..outcome
        };
        assert!(trace.recovery_table(&empty).is_none());
    }

    #[test]
    fn summary_line_shows_every_counter() {
        let line = sample_trace().summary_line();
        assert!(line.contains("steps=1"), "{line}");
        assert!(line.contains("bits=3"), "{line}");
        assert!(line.contains("state=4B/node"), "{line}");
    }
}
