//! Waveform output from the firing log: IEEE-1364 VCD for external viewers
//! and a compact ASCII renderer for terminals — the "visualization" use of
//! the paper's instrumentation layer (§3, §4.5).

use std::collections::BTreeMap;
use std::fmt::Write;

use lss_types::Datum;

use crate::engine::FiringRecord;

/// A signal key: instance path, port, lane.
fn signal_name(record: &FiringRecord) -> String {
    format!("{}.{}[{}]", record.path, record.port, record.lane)
}

/// The VCD identifier of the `n`th signal: base-94 digits over the
/// printable ASCII range `!`..`~`, one character for the first 94 signals.
fn vcd_id(mut n: usize) -> String {
    let mut id = String::new();
    loop {
        id.push(char::from(b'!' + (n % 94) as u8));
        n /= 94;
        if n == 0 {
            return id;
        }
        n -= 1;
    }
}

/// Renders a VCD (value change dump) document from a firing log.
///
/// Integers and booleans become scalar/vector signals; any other datum is
/// dumped as a real-converted value when possible and skipped otherwise.
/// `timescale` is cycles-per-tick text, e.g. `"1ns"`.
pub fn to_vcd(log: &[FiringRecord], timescale: &str) -> String {
    // Collect signals in stable order.
    let mut signals: BTreeMap<String, String> = BTreeMap::new();
    for record in log {
        let name = signal_name(record);
        if !signals.contains_key(&name) {
            let id = vcd_id(signals.len());
            signals.insert(name, id);
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "$timescale {timescale} $end");
    let _ = writeln!(out, "$scope module model $end");
    for (name, id) in &signals {
        let _ = writeln!(out, "$var wire 64 {id} {} $end", name.replace(' ', "_"));
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");

    // Group by cycle.
    let mut by_cycle: BTreeMap<u64, Vec<&FiringRecord>> = BTreeMap::new();
    for record in log {
        by_cycle.entry(record.cycle).or_default().push(record);
    }
    for (cycle, records) in by_cycle {
        let _ = writeln!(out, "#{cycle}");
        for record in records {
            let id = &signals[&signal_name(record)];
            match &record.value {
                Datum::Int(v) => {
                    let _ = writeln!(out, "b{:b} {id}", *v as u64);
                }
                Datum::Bool(b) => {
                    let _ = writeln!(out, "{}{id}", if *b { 1 } else { 0 });
                }
                Datum::Float(v) => {
                    let _ = writeln!(out, "r{v} {id}");
                }
                other => {
                    // Structs/arrays: dump a hash-free compact numeric view
                    // where possible (first int field), else skip.
                    if let Some(v) = first_int(other) {
                        let _ = writeln!(out, "b{:b} {id}", v as u64);
                    }
                }
            }
        }
    }
    out
}

fn first_int(datum: &Datum) -> Option<i64> {
    match datum {
        Datum::Int(v) => Some(*v),
        Datum::Bool(b) => Some(*b as i64),
        Datum::Array(items) => items.iter().find_map(first_int),
        Datum::Struct(rec) => rec.values().iter().find_map(first_int),
        _ => None,
    }
}

/// Renders the firing log as an ASCII waveform table: one row per signal,
/// one column per cycle; `.` marks "no value this cycle".
pub fn to_ascii(log: &[FiringRecord], max_cycles: usize) -> String {
    let mut signals: BTreeMap<String, BTreeMap<u64, String>> = BTreeMap::new();
    let mut last_cycle = 0u64;
    for record in log {
        last_cycle = last_cycle.max(record.cycle);
        signals
            .entry(signal_name(record))
            .or_default()
            .insert(record.cycle, compact(&record.value));
    }
    let cycles = ((last_cycle + 1) as usize).min(max_cycles);
    let name_width = signals.keys().map(String::len).max().unwrap_or(6).max(6);
    // Column width per cycle: widest value in that column (min 2).
    let mut col_width = vec![2usize; cycles];
    for values in signals.values() {
        for (&cycle, v) in values {
            if (cycle as usize) < cycles {
                col_width[cycle as usize] = col_width[cycle as usize].max(v.len());
            }
        }
    }
    let mut out = String::new();
    let _ = write!(out, "{:<name_width$} |", "cycle");
    for (c, w) in col_width.iter().enumerate() {
        let _ = write!(out, " {c:>w$}");
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "{}-+-{}",
        "-".repeat(name_width),
        "-".repeat(out.len().saturating_sub(name_width + 4))
    );
    for (name, values) in &signals {
        let _ = write!(out, "{name:<name_width$} |");
        for (c, w) in col_width.iter().enumerate() {
            match values.get(&(c as u64)) {
                Some(v) => {
                    let _ = write!(out, " {v:>w$}");
                }
                None => {
                    let _ = write!(out, " {:>w$}", ".");
                }
            }
        }
        out.push('\n');
    }
    out
}

fn compact(datum: &Datum) -> String {
    match datum {
        Datum::Int(v) => v.to_string(),
        Datum::Bool(b) => if *b { "1" } else { "0" }.to_string(),
        Datum::Float(v) => format!("{v:.1}"),
        Datum::Str(s) => format!("\"{}\"", &s[..s.len().min(4)]),
        other => first_int(other)
            .map(|v| format!("#{v}"))
            .unwrap_or_else(|| "∗".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cycle: u64, path: &str, port: &str, lane: u32, value: Datum) -> FiringRecord {
        FiringRecord {
            cycle,
            path: path.into(),
            port: port.into(),
            lane,
            value,
        }
    }

    #[test]
    fn vcd_has_header_and_changes() {
        let log = vec![
            record(0, "a", "out", 0, Datum::Int(5)),
            record(1, "a", "out", 0, Datum::Int(6)),
            record(1, "b", "ok", 0, Datum::Bool(true)),
        ];
        let vcd = to_vcd(&log, "1ns");
        assert!(vcd.contains("$timescale 1ns $end"));
        assert!(vcd.contains("$var wire 64 ! a.out[0] $end"));
        assert!(vcd.contains("#0"));
        assert!(vcd.contains("b101 !"));
        assert!(vcd.contains("#1"));
        assert!(vcd.contains("b110 !"));
        assert!(
            vcd.contains("1\""),
            "bool change should use scalar form: {vcd}"
        );
    }

    #[test]
    fn vcd_structs_use_first_int_field() {
        let log = vec![record(
            2,
            "f",
            "out",
            0,
            Datum::record([("pc", Datum::Int(3))]),
        )];
        let vcd = to_vcd(&log, "1ns");
        assert!(vcd.contains("b11 !"));
    }

    #[test]
    fn vcd_ids_stay_distinct_past_94_signals() {
        let log: Vec<FiringRecord> = (0..300)
            .map(|i| record(0, &format!("s{i:03}"), "out", 0, Datum::Int(i)))
            .collect();
        let vcd = to_vcd(&log, "1ns");
        let mut ids = std::collections::HashMap::new();
        for line in vcd.lines().filter(|l| l.starts_with("$var")) {
            let f: Vec<&str> = line.split(' ').collect();
            assert!(ids.insert(f[3], f[4]).is_none(), "id {} reused", f[3]);
        }
        assert_eq!(ids.len(), 300);
        // Each change line `b<bits> <id>` carries its own signal's value.
        for line in vcd.lines().filter(|l| l.starts_with('b')) {
            let (bits, id) = line[1..].split_once(' ').unwrap();
            let v = i64::from_str_radix(bits, 2).unwrap();
            assert_eq!(ids[id], format!("s{v:03}.out[0]"));
        }
    }

    #[test]
    fn ascii_renders_grid() {
        let log = vec![
            record(0, "a", "out", 0, Datum::Int(7)),
            record(2, "a", "out", 0, Datum::Int(9)),
        ];
        let text = to_ascii(&log, 10);
        assert!(text.contains("a.out[0]"));
        assert!(text.contains('7'));
        assert!(text.contains('9'));
        assert!(text.contains('.'), "missing-value marker expected:\n{text}");
    }

    #[test]
    fn ascii_caps_cycles() {
        let log = vec![
            record(0, "a", "out", 0, Datum::Int(1)),
            record(50, "a", "out", 0, Datum::Int(2)),
        ];
        let text = to_ascii(&log, 5);
        assert!(!text.contains(" 50"), "cycle 50 must be cut off:\n{text}");
    }

    #[test]
    fn empty_log_is_fine() {
        assert!(to_vcd(&[], "1ns").contains("$enddefinitions"));
        let ascii = to_ascii(&[], 5);
        assert!(ascii.contains("cycle"));
    }
}
