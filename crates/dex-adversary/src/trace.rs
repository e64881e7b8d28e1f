//! Plain-text churn/workload traces: record and replay action sequences.
//!
//! Format, one action per line:
//! ```text
//! I <id> <attach>                  # single insert
//! D <victim>                       # single delete
//! BI <id> <attach> [<id> <attach> ...]   # batch insert (pairs)
//! BD <victim> [<victim> ...]       # batch delete
//! P <from> <key> <value>           # DHT put
//! G <from> <key>                   # DHT get
//! F <loss> <bwin> <bmilli> <latmin> <latmax> <pper> <plen> <wretry> <rretry> <fallback> <fretry> <t2retry> <seed>
//!                                  # install fault spec (13 fixed fields)
//! FC                               # clear fault spec
//! ```
//! Blank lines and `#` comments are skipped. A node id is any `u64` but
//! `u64::MAX` ([`NodeId::VACANT`], the mark of a freed arena slot), which
//! is rejected. Parse errors carry 1-based line numbers, and any trailing
//! tokens on a line are rejected (a silent truncation would desynchronize
//! a replay from the recorded run).
//! Hand-rolled (no serialization-format crate in the approved dependency
//! set); round-trips exactly — a proptest over the full action grammar
//! enforces it.

use crate::Action;
use dex_graph::ids::NodeId;

/// Serialize actions to the line format.
pub fn to_string(actions: &[Action]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(actions.len() * 12);
    for a in actions {
        match a {
            Action::Insert { id, attach } => {
                let _ = writeln!(out, "I {} {}", id.0, attach.0);
            }
            Action::Delete { victim } => {
                let _ = writeln!(out, "D {}", victim.0);
            }
            Action::BatchInsert { joins } => {
                out.push_str("BI");
                for (id, attach) in joins {
                    let _ = write!(out, " {} {}", id.0, attach.0);
                }
                out.push('\n');
            }
            Action::BatchDelete { victims } => {
                out.push_str("BD");
                for v in victims {
                    let _ = write!(out, " {}", v.0);
                }
                out.push('\n');
            }
            Action::DhtPut { from, key, value } => {
                let _ = writeln!(out, "P {} {key} {value}", from.0);
            }
            Action::DhtGet { from, key } => {
                let _ = writeln!(out, "G {} {key}", from.0);
            }
            Action::SetFaults { spec } => {
                let _ = writeln!(
                    out,
                    "F {} {} {} {} {} {} {} {} {} {} {} {} {}",
                    spec.loss_milli,
                    spec.burst_window,
                    spec.burst_milli,
                    spec.lat_min,
                    spec.lat_max,
                    spec.partition_period,
                    spec.partition_len,
                    spec.walk_retries,
                    spec.route_retries,
                    spec.fallback_after,
                    spec.flood_retries,
                    spec.type2_retries,
                    spec.seed,
                );
            }
            Action::ClearFaults => out.push_str("FC\n"),
        }
    }
    out
}

/// Parse the line format. Returns a descriptive error (with a 1-based line
/// number) on malformed input.
pub fn parse(s: &str) -> Result<Vec<Action>, String> {
    let mut out = Vec::new();
    for (idx, line) in s.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts
            .next()
            .ok_or_else(|| format!("line {lineno}: empty"))?;
        let parse_u64 = |p: Option<&str>| -> Result<u64, String> {
            p.ok_or_else(|| format!("line {lineno}: missing field"))?
                .parse::<u64>()
                .map_err(|e| format!("line {lineno}: {e}"))
        };
        // A node id field: any u64 but the one that marks a freed slot.
        let parse_node = |p: Option<&str>| -> Result<NodeId, String> {
            match NodeId(parse_u64(p)?) {
                NodeId::VACANT => Err(format!("line {lineno}: node id {} is reserved", u64::MAX)),
                id => Ok(id),
            }
        };
        match tag {
            "I" => {
                let id = parse_node(parts.next())?;
                let attach = parse_node(parts.next())?;
                out.push(Action::Insert { id, attach });
            }
            "D" => {
                let victim = parse_node(parts.next())?;
                out.push(Action::Delete { victim });
            }
            "BI" => {
                let mut joins = Vec::new();
                while let Some(p) = parts.next() {
                    let id = parse_node(Some(p))?;
                    let attach = parts
                        .next()
                        .ok_or_else(|| format!("line {lineno}: BI needs id/attach pairs"))?;
                    joins.push((id, parse_node(Some(attach))?));
                }
                if joins.is_empty() {
                    return Err(format!("line {lineno}: empty batch insert"));
                }
                out.push(Action::BatchInsert { joins });
            }
            "BD" => {
                let mut victims = Vec::new();
                for p in parts.by_ref() {
                    victims.push(parse_node(Some(p))?);
                }
                if victims.is_empty() {
                    return Err(format!("line {lineno}: empty batch delete"));
                }
                out.push(Action::BatchDelete { victims });
            }
            "P" => {
                let from = parse_node(parts.next())?;
                let key = parse_u64(parts.next())?;
                let value = parse_u64(parts.next())?;
                out.push(Action::DhtPut { from, key, value });
            }
            "G" => {
                let from = parse_node(parts.next())?;
                let key = parse_u64(parts.next())?;
                out.push(Action::DhtGet { from, key });
            }
            "F" => {
                // 13 fixed fields — field order is the struct order, and
                // the trailing-token check below rejects any 14th field.
                let parse_u32 = |p: Option<&str>| -> Result<u32, String> {
                    p.ok_or_else(|| format!("line {lineno}: missing field"))?
                        .parse::<u32>()
                        .map_err(|e| format!("line {lineno}: {e}"))
                };
                let spec = dex_sim::msim::FaultSpec {
                    loss_milli: parse_u32(parts.next())?,
                    burst_window: parse_u32(parts.next())?,
                    burst_milli: parse_u32(parts.next())?,
                    lat_min: parse_u32(parts.next())?,
                    lat_max: parse_u32(parts.next())?,
                    partition_period: parse_u32(parts.next())?,
                    partition_len: parse_u32(parts.next())?,
                    walk_retries: parse_u32(parts.next())?,
                    route_retries: parse_u32(parts.next())?,
                    fallback_after: parse_u32(parts.next())?,
                    flood_retries: parse_u32(parts.next())?,
                    type2_retries: parse_u32(parts.next())?,
                    seed: parse_u64(parts.next())?,
                };
                out.push(Action::SetFaults { spec });
            }
            "FC" => out.push(Action::ClearFaults),
            other => return Err(format!("line {lineno}: unknown tag {other:?}")),
        }
        if parts.next().is_some() {
            return Err(format!("line {lineno}: trailing fields"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let actions = vec![
            Action::Insert {
                id: NodeId(100),
                attach: NodeId(3),
            },
            Action::Delete { victim: NodeId(7) },
            Action::BatchInsert {
                joins: vec![(NodeId(101), NodeId(100)), (NodeId(102), NodeId(3))],
            },
            Action::BatchDelete {
                victims: vec![NodeId(101), NodeId(102)],
            },
            Action::DhtPut {
                from: NodeId(3),
                key: 42,
                value: 7,
            },
            Action::DhtGet {
                from: NodeId(100),
                key: 42,
            },
            Action::SetFaults {
                spec: dex_sim::msim::FaultSpec::zero()
                    .with_loss(250)
                    .with_burst(32, 100)
                    .with_latency(1, 4)
                    .with_partition(64, 8)
                    .with_retries(5, 3)
                    .with_fallback(2)
                    .with_flood_retries(6)
                    .with_type2_retries(2)
                    .with_seed(0xfa57_1e57),
            },
            Action::ClearFaults,
        ];
        let s = to_string(&actions);
        assert_eq!(parse(&s).unwrap(), actions);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let s = "# a comment\n\nI 1 2\n   \nD 1\n";
        assert_eq!(parse(s).unwrap().len(), 2);
    }

    #[test]
    fn malformed_lines_error() {
        assert!(parse("X 1 2").is_err());
        assert!(parse("I 1").is_err());
        assert!(parse("D foo").is_err());
        assert!(parse("I 1 2 3").is_err());
        assert!(parse("D 1 2").is_err());
        assert!(parse("BI").is_err());
        assert!(parse("BI 1 2 3").is_err()); // unpaired
        assert!(parse("BD").is_err());
        assert!(parse("P 1 2").is_err());
        assert!(parse("G 1 2 3").is_err());
        // F takes exactly 13 numeric fields; FC takes none.
        assert!(parse("F 1 2 3 4 5 6 7 8 9 10 11 12").is_err()); // one short
        assert!(parse("F 1 2 3 4 5 6 7 8 9 10 11 12 13 14").is_err()); // one extra
        assert!(parse("F 1 2 3 4 5 6 7 8 9 ten 11 12 13").is_err());
        assert!(parse("FC 1").is_err());
        assert!(parse("F 0 0 0 0 0 0 0 0 0 0 0 0 0").is_ok());
        assert!(parse("FC").is_ok());
    }

    #[test]
    fn the_reserved_node_id_is_rejected() {
        let max = u64::MAX;
        for line in [
            format!("I {max} 2"),
            format!("I 1 {max}"),
            format!("D {max}"),
            format!("BI 1 2 {max} 3"),
            format!("BI 1 {max}"),
            format!("BD 1 {max}"),
            format!("P {max} 1 2"),
            format!("G {max} 1"),
        ] {
            let err = parse(&line).unwrap_err();
            assert!(err.contains("reserved"), "{line}: {err}");
        }
        // Keys, values and the largest node id that is not reserved parse.
        let below = max - 1;
        assert!(parse(&format!("I {below} 2\nP 1 {max} {max}\nG 1 {max}")).is_ok());
    }

    #[test]
    fn line_numbers_are_one_based() {
        // Error on the very first line must say "line 1", not "line 0".
        let err = parse("X 9").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        // Comments and blanks still count as physical lines.
        let err = parse("# header\nI 1 2\nD oops\n").unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
    }
}
