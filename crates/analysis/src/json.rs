//! The cxk-lint report schema, checked by `--validate` and the schema
//! round-trip tests. Reading JSON is `cxk_util::json`'s, re-exported here.

pub use cxk_util::json::{parse, Value};

/// Checks that a parsed document matches the cxk-lint report schema
/// (version 1). Returns a human-readable error naming the missing or
/// mistyped field.
pub fn validate_report(v: &Value) -> Result<(), String> {
    let version = v
        .get("version")
        .and_then(Value::as_num)
        .ok_or("missing numeric `version`")?;
    if version != 1.0 {
        return Err(format!("unsupported report version {version}"));
    }
    v.get("root")
        .and_then(Value::as_str)
        .ok_or("missing `root`")?;
    v.get("files")
        .and_then(Value::as_num)
        .ok_or("missing `files`")?;
    v.get("errors")
        .and_then(Value::as_num)
        .ok_or("missing `errors`")?;
    v.get("warnings")
        .and_then(Value::as_num)
        .ok_or("missing `warnings`")?;
    let diags = v
        .get("diagnostics")
        .and_then(Value::as_arr)
        .ok_or("missing `diagnostics` array")?;
    for (n, d) in diags.iter().enumerate() {
        for key in ["check", "severity", "file", "message"] {
            d.get(key)
                .and_then(Value::as_str)
                .ok_or(format!("diagnostics[{n}] missing string `{key}`"))?;
        }
        d.get("line")
            .and_then(Value::as_num)
            .ok_or(format!("diagnostics[{n}] missing numeric `line`"))?;
    }
    v.get("suppressed")
        .and_then(Value::as_arr)
        .ok_or("missing `suppressed` array")?;
    let inv = v
        .get("unsafe_inventory")
        .and_then(Value::as_arr)
        .ok_or("missing `unsafe_inventory` array")?;
    for (n, u) in inv.iter().enumerate() {
        u.get("crate")
            .and_then(Value::as_str)
            .ok_or(format!("unsafe_inventory[{n}] missing `crate`"))?;
        for key in ["blocks", "fns", "impls", "traits", "documented", "total"] {
            u.get(key)
                .and_then(Value::as_num)
                .ok_or(format!("unsafe_inventory[{n}] missing numeric `{key}`"))?;
        }
    }
    v.get("atomic_fields")
        .and_then(Value::as_arr)
        .ok_or("missing `atomic_fields` array")?;
    let lg = v.get("lock_graph").ok_or("missing `lock_graph`")?;
    lg.get("edges")
        .and_then(Value::as_arr)
        .ok_or("missing `lock_graph.edges`")?;
    lg.get("cycles")
        .and_then(Value::as_num)
        .ok_or("missing `lock_graph.cycles`")?;
    Ok(())
}
